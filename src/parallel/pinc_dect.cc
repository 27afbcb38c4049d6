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

// The skew balancer's thresholds (paper §6.3): a processor whose skewness
// exceeds η sheds half its queue to the processors below η'.
constexpr double kSkewThreshold = 3.0;     // η
constexpr double kReceiverThreshold = 0.7;  // η'

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
        pool_(p_, &metrics_, /*enable_steal=*/false, opts.max_queue_depth),
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

    // Step 3: partition the pivots round-robin across BVio_i (a free
    // initial placement: seeds are born, not sent).
    for (size_t i = 0; i < tasks.size(); ++i) {
      const PivotTask& t = tasks[i];
      const Ngd& ngd = sigma_[t.ngd_index];
      const EffectiveUpdate& u = index_.updates()[t.update_index];
      const PatternEdge& pe = ngd.pattern().edge(t.pattern_edge);
      PWorkUnit unit;
      unit.ngd_index = t.ngd_index;
      unit.pattern_edge = t.pattern_edge;
      unit.update_index = t.update_index;
      unit.binding.assign(ngd.pattern().NumNodes(), kInvalidNode);
      unit.binding[pe.src] = u.edge.src;
      unit.binding[pe.dst] = u.edge.dst;
      run_.AddPending(t.ngd_index);
      pool_.Seed(static_cast<int>(i % p_), std::move(unit));
    }

    // Step 4+5: workers expand; the caller thread runs the skew balancer
    // at its interval via the pool tick.
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

  void BalanceOnce() {
    std::vector<size_t> sizes = pool_.QueueSizes();
    std::vector<double> skew = ComputeSkewness(sizes);
    std::vector<int> receivers;
    for (int i = 0; i < p_; ++i) {
      if (skew[i] < kReceiverThreshold) receivers.push_back(i);
    }
    if (receivers.empty()) return;
    for (int i = 0; i < p_; ++i) {
      if (skew[i] <= kSkewThreshold) continue;
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

  /// PIncDect's side of the step hand-off for one unit: every step past
  /// the unit's entry becomes a child unit (one unit per step, the
  /// granularity the balancer moves), and the entry step splits under
  /// the hybrid cost model.
  class Handoff final : public StepHandoff {
   public:
    Handoff(PIncDectEngine* engine, int worker, const PWorkUnit& unit,
            const MatchPlan& plan)
        : e_(engine), worker_(worker), unit_(unit), plan_(plan) {}

    bool Take(const ResumePoint& at, NodeId /*anchor*/, size_t seq_len,
              const Binding& binding) override {
      const PIncDectOptions& opts = e_->opts_;
      if (at.step > unit_.at.step) {
        e_->pool_.SpawnLocal(worker_, e_->MakeUnit(unit_, at, binding));
        return true;
      }
      if (at.sliced() || !opts.enable_split ||
          seq_len < opts.min_split_adjacency ||
          !HandoffPays(opts.latency_c, plan_.seeds.size() + at.step,
                       seq_len, e_->p_)) {
        return false;
      }
      // Spawn, not Seed: mid-run broadcasts respect the depth bound, so
      // a saturated receiver's slice runs inline here (N_C is replicated
      // — any worker can expand any unit).
      SplitStep(&e_->metrics_, e_->p_, at, seq_len,
                [&](int target, const ResumePoint& slice) {
                  e_->pool_.Spawn(worker_, target,
                                  e_->MakeUnit(unit_, slice, binding));
                });
      return true;
    }

   private:
    PIncDectEngine* e_;
    int worker_;
    const PWorkUnit& unit_;
    const MatchPlan& plan_;
  };

  void ProcessUnit(int worker, PWorkUnit& unit) {
    CancelCheck* check = run_.check(worker);
    if (check != nullptr && check->ShouldStop()) {
      return;  // dropped: the unit's pending count keeps its rule incomplete
    }
    metrics_.work_units.fetch_add(1, std::memory_order_relaxed);
    const Ngd& ngd = sigma_[unit.ngd_index];
    const MatchPlan& plan =
        plans_.at(PlanKey(unit.ngd_index, unit.pattern_edge));
    const EffectiveUpdate& u = index_.updates()[unit.update_index];
    const DeltaView* delta_view = dv_.has_value() ? &*dv_ : nullptr;
    PivotEdgeFilter filter(delta_view, &index_, u.kind, unit.update_index);
    Handoff handoff(this, worker, unit, plan);
    SearchConfig cfg;
    cfg.graph = &g_;
    cfg.delta_view = delta_view;
    cfg.pattern = &ngd.pattern();
    cfg.x = &ngd.X();
    cfg.y = &ngd.Y();
    cfg.view =
        u.kind == UpdateKind::kInsert ? GraphView::kNew : GraphView::kOld;
    cfg.edge_filter = &filter;
    cfg.node_scope = &nc_;
    cfg.cancel = check;
    cfg.handoff = &handoff;

    // Minimal-pivot canonicality emits each match exactly once per update
    // kind, and disjoint slice splits keep that one emission on a single
    // worker — the append never needs the hash probe.
    DeltaVio& local = run_.local(worker);
    VioSet& target =
        u.kind == UpdateKind::kInsert ? local.added : local.removed;
    auto emit = [&](const Binding& match) {
      if (IsCanonicalPivot(delta_view, ngd.pattern(), match, index_, u.kind,
                           unit.update_index, unit.pattern_edge)) {
        target.AppendUnchecked(unit.ngd_index, match.data(), match.size());
      }
      return true;
    };
    // A fresh pivot unit validates its seeds; split and child units have
    // already passed that check.
    if (unit.at.step == 0 && !unit.at.sliced()) {
      RunSeededSearch(cfg, plan, &unit.binding, emit);
    } else {
      ResumeSearch(cfg, plan, unit.at, &unit.binding, emit);
    }
    if (check == nullptr || !check->Stopped()) run_.Retire(unit.ngd_index);
  }

  /// A unit handed off from `parent` at `at`, counted pending.
  PWorkUnit MakeUnit(const PWorkUnit& parent, const ResumePoint& at,
                     const Binding& binding) {
    PWorkUnit unit;
    unit.ngd_index = parent.ngd_index;
    unit.pattern_edge = parent.pattern_edge;
    unit.update_index = parent.update_index;
    unit.at = at;
    unit.binding = binding;
    run_.AddPending(unit.ngd_index);
    return unit;
  }

  const Graph& g_;
  const NgdSet& sigma_;
  const UpdateBatch& batch_;
  const PIncDectOptions opts_;
  const int p_;
  UpdateIndex index_;
  std::optional<GraphSnapshot> owned_base_;
  std::optional<DeltaView> dv_;
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
