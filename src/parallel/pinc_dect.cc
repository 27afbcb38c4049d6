#include "parallel/pinc_dect.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <unordered_map>

#include "graph/neighborhood.h"
#include "util/timer.h"

namespace ngd {

namespace {

class PIncDectEngine {
 public:
  PIncDectEngine(const Graph& g, const NgdSet& sigma,
                 const UpdateBatch& batch, const PIncDectOptions& opts)
      : g_(g),
        sigma_(sigma),
        batch_(batch),
        opts_(opts),
        p_(std::max(1, opts.num_processors)),
        index_(g, batch),
        nc_(0),
        pool_(p_, &metrics_, opts.enable_steal && p_ > 1,
              opts.max_queue_depth),
        run_(p_, sigma.size(), opts) {}

  /// Runs on a validated Σ (PIncDect validates before minimizing).
  PIncDectResult Run() {
    WallTimer timer;

    // Step 1: pivots, prefiltered by the per-rule affected area (rules
    // whose d_Q-ball cannot supply every pattern-node label spawn no
    // work units at all).
    std::vector<PivotTask> tasks = EnumeratePivotTasks(g_, sigma_, index_);
    std::optional<AffectedArea> area;
    if (opts_.affected_area_prefilter) {
      area.emplace(g_, sigma_, index_);
      tasks.erase(std::remove_if(tasks.begin(), tasks.end(),
                                 [&](const PivotTask& t) {
                                   return !area->RuleCanMatch(t.ngd_index);
                                 }),
                  tasks.end());
    }

    // Backend: the same resolution as IncDect. The base snapshot (and
    // the DeltaView over it) is immutable, so all p processors share it
    // read-only — it counts as replicated state, like N_C below.
    if (ResolveDeltaView(g_, index_, tasks, opts_.snapshot_mode,
                         opts_.base_snapshot != nullptr)) {
      const GraphSnapshot* base = opts_.base_snapshot;
      if (base == nullptr) {
        owned_base_.emplace(g_, GraphView::kOld);
        base = &*owned_base_;
      }
      dv_.emplace(*base, g_, batch_);
      acc_old_ = GraphAccessor(*dv_, GraphView::kOld);
      acc_new_ = GraphAccessor(*dv_, GraphView::kNew);
    } else {
      acc_old_ = GraphAccessor(g_, GraphView::kOld);
      acc_new_ = GraphAccessor(g_, GraphView::kNew);
    }

    // Step 2: candidate neighborhood N_C(ΔG, Σ) = union of d_Σ-balls
    // around update endpoints, over the union of both views (safe for
    // ΔVio+ and ΔVio- searches alike), replicated at all processors.
    std::vector<NodeId> seeds;
    for (const auto& u : index_.updates()) {
      seeds.push_back(u.edge.src);
      seeds.push_back(u.edge.dst);
    }
    const int d_sigma = sigma_.MaxDiameter();
    NodeSet ball_old = DHopNeighborhood(g_, seeds, d_sigma, GraphView::kOld);
    nc_ = DHopNeighborhood(g_, seeds, d_sigma, GraphView::kNew);
    for (NodeId v : ball_old.members()) nc_.Add(v);
    metrics_.replicated_nodes +=
        static_cast<uint64_t>(nc_.size()) * (p_ > 1 ? p_ - 1 : 0);
    metrics_.messages += p_ > 1 ? p_ : 0;  // one broadcast round

    // Plans per (NGD, pattern edge).
    for (const PivotTask& t : tasks) {
      int64_t key = PlanKey(t.ngd_index, t.pattern_edge);
      if (plans_.count(key) > 0) continue;
      const Ngd& ngd = sigma_[t.ngd_index];
      const PatternEdge& pe = ngd.pattern().edge(t.pattern_edge);
      std::vector<int> plan_seeds{pe.src};
      if (pe.dst != pe.src) plan_seeds.push_back(pe.dst);
      plans_.emplace(key, BuildMatchPlan(ngd.pattern(), std::move(plan_seeds),
                                         &ngd.X(), &ngd.Y()));
    }

    // Step 3: partition the pivots across BVio_i — fragment-affine when a
    // matching runtime is supplied (the unit starts where its pivot's
    // source lives), round-robin otherwise. Both are free initial
    // placements (seeds are born, not sent).
    {
      const FragmentRuntime* rt =
          opts_.runtime != nullptr && opts_.runtime->num_fragments() == p_
              ? opts_.runtime
              : nullptr;
      size_t i = 0;
      for (const PivotTask& t : tasks) {
        const Ngd& ngd = sigma_[t.ngd_index];
        const EffectiveUpdate& u = index_.updates()[t.update_index];
        const PatternEdge& pe = ngd.pattern().edge(t.pattern_edge);
        PWorkUnit unit;
        unit.ngd_index = t.ngd_index;
        unit.pattern_edge = t.pattern_edge;
        unit.update_index = t.update_index;
        unit.depth = 0;
        unit.binding.assign(ngd.pattern().NumNodes(), kInvalidNode);
        unit.binding[pe.src] = u.edge.src;
        unit.binding[pe.dst] = u.edge.dst;
        int target = static_cast<int>(i % p_);
        // New nodes created by ΔG postdate the partition; they fall back
        // to round-robin.
        if (rt != nullptr &&
            u.edge.src < rt->partition().fragment_of.size()) {
          target = rt->OwnerOf(u.edge.src);
        }
        unit.home_fragment = target;
        run_.AddPending(t.ngd_index);
        pool_.Seed(target, std::move(unit));
        ++i;
      }
    }

    // Step 4+5: workers expand (stealing when enabled); the caller thread
    // runs the skew balancer at its interval via the pool tick.
    {
      using namespace std::chrono;
      auto last_balance = steady_clock::now();
      pool_.Run(
          [this](int worker, PWorkUnit& unit) { ProcessUnit(worker, unit); },
          [&]() {
            if (!opts_.enable_balance) return;
            auto now = steady_clock::now();
            if (duration_cast<milliseconds>(now - last_balance).count() <
                opts_.balance_interval_ms) {
              return;
            }
            last_balance = now;
            BalanceOnce();
          },
          run_.token(), [this](int worker) { run_.RetireWorker(worker); });
    }

    PIncDectResult result;
    // Exactly-once canonical emission keeps per-worker deltas globally
    // disjoint.
    result.delta = run_.MergeFinished();
    result.candidate_neighborhood_nodes = nc_.size();
    result.metrics = SnapshotOf(metrics_);
    result.elapsed_seconds = timer.ElapsedSeconds();
    result.truncated = run_.FinishRunInfo();
    return result;
  }

 private:
  static int64_t PlanKey(int ngd_index, int pattern_edge) {
    return (static_cast<int64_t>(ngd_index) << 32) |
           static_cast<uint32_t>(pattern_edge);
  }

  const GraphAccessor& AccessorFor(GraphView view) const {
    return view == GraphView::kNew ? acc_new_ : acc_old_;
  }

  void BalanceOnce() {
    std::vector<size_t> sizes = pool_.QueueSizes();
    std::vector<double> skew = ComputeSkewness(sizes);
    std::vector<int> receivers;
    for (int i = 0; i < p_; ++i) {
      if (skew[i] < opts_.receiver_threshold) receivers.push_back(i);
    }
    if (receivers.empty()) return;
    for (int i = 0; i < p_; ++i) {
      if (skew[i] <= opts_.skew_threshold) continue;
      std::vector<PWorkUnit> moved = pool_.HarvestFront(i, sizes[i] / 2);
      if (moved.empty()) continue;
      metrics_.balance_moves += moved.size();
      metrics_.messages += moved.size();
      // Distribute round-robin over the lightly loaded processors.
      std::vector<std::vector<PWorkUnit>> shares(receivers.size());
      for (size_t k = 0; k < moved.size(); ++k) {
        shares[k % receivers.size()].push_back(std::move(moved[k]));
      }
      for (size_t r = 0; r < receivers.size(); ++r) {
        if (!shares[r].empty()) {
          pool_.PushMany(receivers[r], std::move(shares[r]));
        }
      }
    }
  }

  void ProcessUnit(int worker, PWorkUnit& unit) {
    CancelCheck* check = run_.check(worker);
    if (check != nullptr && check->ShouldStop()) {
      return;  // dropped: the unit's pending count keeps its rule incomplete
    }
    metrics_.work_units.fetch_add(1, std::memory_order_relaxed);
    const Ngd& ngd = sigma_[unit.ngd_index];
    const Pattern& pattern = ngd.pattern();
    const MatchPlan& plan =
        plans_.at(PlanKey(unit.ngd_index, unit.pattern_edge));
    const EffectiveUpdate& u = index_.updates()[unit.update_index];
    const GraphView view =
        u.kind == UpdateKind::kInsert ? GraphView::kNew : GraphView::kOld;
    // The DeltaView backend gets the span-check filter (base edges admit
    // without a hash probe); the live backend keeps the classic one.
    PivotEdgeFilter live_filter(&index_, u.kind, unit.update_index);
    DeltaViewPivotEdgeFilter dv_filter(dv_.has_value() ? &*dv_ : nullptr,
                                       &index_, u.kind, unit.update_index);
    const EdgeFilter& filter =
        dv_.has_value() ? static_cast<const EdgeFilter&>(dv_filter)
                        : static_cast<const EdgeFilter&>(live_filter);

    // Seed validation for fresh pivot units (split/child units have
    // already passed it).
    if (unit.depth == 0 && unit.slice_begin < 0) {
      if (!ValidateSeeds(plan, pattern, unit, view, filter)) {
        run_.Retire(unit.ngd_index);  // fully processed: never matched
        return;
      }
    }
    ExpandUnit(worker, unit, plan, pattern, ngd, u.kind, view, filter, check);
    if (check == nullptr || !check->Stopped()) run_.Retire(unit.ngd_index);
  }

  bool ValidateSeeds(const MatchPlan& plan, const Pattern& pattern,
                     PWorkUnit& unit, GraphView view,
                     const EdgeFilter& filter) {
    const GraphAccessor& acc = AccessorFor(view);
    for (int s : plan.seeds) {
      const NodeId v = unit.binding[s];
      if (!acc.NodeMatchesLabel(v, pattern.node(s).label)) return false;
      if (!nc_.Contains(v)) return false;
    }
    for (int ce : plan.seed_check_edges) {
      const PatternEdge& pe = pattern.edge(ce);
      const NodeId s = unit.binding[pe.src];
      const NodeId d = unit.binding[pe.dst];
      if (!acc.HasEdge(s, d, pe.label)) return false;
      if (!filter.Admit(ce, s, d, pe.label)) return false;
    }
    const Ngd& ngd = sigma_[unit.ngd_index];
    for (int i : plan.seed_ready_x) {
      if (EvalLiteral(acc, ngd.X()[i], unit.binding) == Truth::kFalse) {
        return false;
      }
    }
    for (int i : plan.seed_ready_y) {
      ++unit.y_ready;
      if (EvalLiteral(acc, ngd.Y()[i], unit.binding) == Truth::kFalse) {
        unit.y_false = true;
      }
    }
    if (!unit.y_false && unit.y_ready == ngd.Y().size()) return false;
    return true;
  }

  void ExpandUnit(int worker, PWorkUnit& unit, const MatchPlan& plan,
                  const Pattern& pattern, const Ngd& ngd, UpdateKind kind,
                  GraphView view, const EdgeFilter& filter,
                  CancelCheck* check) {
    if (check != nullptr && check->ShouldStop()) return;
    if (static_cast<size_t>(unit.depth) == plan.steps.size()) {
      EmitIfCanonical(worker, unit, pattern, kind);
      return;
    }
    const GraphAccessor& acc = AccessorFor(view);
    const ExpansionStep& step = plan.steps[unit.depth];
    const PatternEdge& anchor_edge = pattern.edge(step.anchor_edge);
    const NodeId anchor = unit.binding[step.anchor_node];
    // The logical adjacency list being partitioned: the raw overlay
    // adjacency on the live backend, the base label range plus delta
    // entries on the DeltaView (see GraphAccessor::NeighborSeqLen).
    const size_t seq_len =
        acc.NeighborSeqLen(anchor, step.anchor_out, anchor_edge.label);

    size_t begin = 0;
    size_t end = seq_len;
    if (unit.slice_begin >= 0) {
      begin = static_cast<size_t>(unit.slice_begin);
      end = std::min(static_cast<size_t>(unit.slice_end), seq_len);
    } else if (opts_.enable_split && p_ > 1 &&
               seq_len >= opts_.min_split_adjacency) {
      // Hybrid cost model: sequential |adj| vs C·(k+1) + |adj|/p, where k
      // is the number of already-matched pattern nodes.
      const double k = static_cast<double>(plan.seeds.size() + unit.depth);
      const double seq_cost = static_cast<double>(seq_len);
      const double par_cost =
          opts_.latency_c * (k + 1.0) +
          static_cast<double>(seq_len) / static_cast<double>(p_);
      if (par_cost < seq_cost) {
        SplitUnit(worker, unit, seq_len);
        return;
      }
    }

    const LabelId want_label = pattern.node(step.node).label;
    acc.ForEachNeighborSlice(
        anchor, step.anchor_out, anchor_edge.label, begin, end,
        [&](NodeId cand) {
          // Bounded response even on a hub anchor's long adjacency scan.
          if (check != nullptr && check->ShouldStop()) return false;
          if (!acc.NodeMatchesLabel(cand, want_label)) return true;
          if (!nc_.Contains(cand)) return true;
          {
            const NodeId src = step.anchor_out ? anchor : cand;
            const NodeId dst = step.anchor_out ? cand : anchor;
            if (!filter.Admit(step.anchor_edge, src, dst,
                              anchor_edge.label)) {
              return true;
            }
          }
          for (int ce : step.check_edges) {
            const PatternEdge& pe = pattern.edge(ce);
            const NodeId s =
                pe.src == step.node ? cand : unit.binding[pe.src];
            const NodeId d =
                pe.dst == step.node ? cand : unit.binding[pe.dst];
            if (!acc.HasEdge(s, d, pe.label) ||
                !filter.Admit(ce, s, d, pe.label)) {
              return true;
            }
          }

          PWorkUnit child;
          child.ngd_index = unit.ngd_index;
          child.pattern_edge = unit.pattern_edge;
          child.update_index = unit.update_index;
          child.home_fragment = unit.home_fragment;
          child.depth = unit.depth + 1;
          child.y_false = unit.y_false;
          child.y_ready = unit.y_ready;
          child.binding = unit.binding;
          child.binding[step.node] = cand;

          bool prune = false;
          for (int i : step.ready_x) {
            if (EvalLiteral(acc, ngd.X()[i], child.binding) ==
                Truth::kFalse) {
              prune = true;
              break;
            }
          }
          if (!prune) {
            for (int i : step.ready_y) {
              ++child.y_ready;
              if (EvalLiteral(acc, ngd.Y()[i], child.binding) ==
                  Truth::kFalse) {
                child.y_false = true;
              }
            }
            if (!child.y_false && child.y_ready == ngd.Y().size()) {
              prune = true;
            }
          }
          if (prune) return true;

          if (static_cast<size_t>(child.depth) == plan.steps.size()) {
            EmitIfCanonical(worker, child, pattern, kind);
          } else {
            run_.AddPending(child.ngd_index);
            pool_.SpawnLocal(worker, std::move(child));
          }
          return true;
        });
  }

  void SplitUnit(int worker, const PWorkUnit& unit, size_t seq_len) {
    metrics_.splits.fetch_add(1, std::memory_order_relaxed);
    metrics_.messages.fetch_add(p_, std::memory_order_relaxed);
    const size_t chunk = (seq_len + p_ - 1) / p_;
    for (int i = 0; i < p_; ++i) {
      const size_t b = static_cast<size_t>(i) * chunk;
      if (b >= seq_len) break;
      PWorkUnit slice = unit;
      slice.slice_begin = static_cast<int32_t>(b);
      slice.slice_end = static_cast<int32_t>(std::min(b + chunk, seq_len));
      run_.AddPending(slice.ngd_index);
      // Spawn, not Seed: mid-run broadcasts respect the depth bound, so a
      // saturated receiver's slice runs inline here (N_C is replicated —
      // any worker can expand any unit).
      pool_.Spawn(worker, i, std::move(slice));
    }
  }

  /// Emits a full-depth unit's binding into the worker-local delta.
  void EmitIfCanonical(int worker, PWorkUnit& unit, const Pattern& pattern,
                       UpdateKind kind) {
    const bool canonical =
        dv_.has_value()
            ? IsCanonicalPivot(*dv_, pattern, unit.binding, index_, kind,
                               unit.update_index, unit.pattern_edge)
            : IsCanonicalPivot(g_, pattern, unit.binding, index_, kind,
                               unit.update_index, unit.pattern_edge);
    if (!canonical) {
      return;
    }
    // Minimal-pivot canonicality emits each match exactly once per
    // update kind, and disjoint slice splits keep that one emission on a
    // single worker — the append never needs the hash probe.
    DeltaVio& local = run_.local(worker);
    VioSet& target =
        kind == UpdateKind::kInsert ? local.added : local.removed;
    target.AppendUnchecked(unit.ngd_index, unit.binding.data(),
                           unit.binding.size());
  }

  const Graph& g_;
  const NgdSet& sigma_;
  const UpdateBatch& batch_;
  const PIncDectOptions opts_;
  const int p_;
  UpdateIndex index_;
  std::optional<GraphSnapshot> owned_base_;
  std::optional<DeltaView> dv_;
  GraphAccessor acc_old_;
  GraphAccessor acc_new_;
  NodeSet nc_;
  std::unordered_map<int64_t, MatchPlan> plans_;
  ClusterMetrics metrics_;
  WorkStealingPool<PWorkUnit> pool_;
  ParallelRun<DeltaVio> run_;
};

}  // namespace

StatusOr<PIncDectResult> PIncDect(const Graph& g, const NgdSet& sigma,
                                  const UpdateBatch& batch,
                                  const PIncDectOptions& opts) {
  // Validate the full Σ first (rejection behavior matches the oracle),
  // then run the whole pivot/replicate/balance pipeline — on the
  // minimized set when opts.minimize_sigma says so, remapping ΔVio.
  NGD_RETURN_IF_ERROR(ValidateForIncremental(sigma));
  return RunMinimized(
      sigma, g.schema(), opts,
      [&](const NgdSet& rules, const PIncDectOptions& o) {
        return PIncDectEngine(g, rules, batch, o).Run();
      },
      [](PIncDectResult result, const std::vector<int>& kept) {
        result.delta = RemapDelta(std::move(result.delta), kept);
        return result;
      });
}

}  // namespace ngd
