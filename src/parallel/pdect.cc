#include "parallel/pdect.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "util/timer.h"

namespace ngd {

namespace {

/// Seed candidates per seed-chunk work unit (the steal granularity).
constexpr size_t kSeedChunk = 256;

/// One PDect work unit. Three kinds:
///   - seed chunk (empty binding): candidates [chunk_begin, chunk_end) of
///     the rule's start label among fragment `home`'s OWNED nodes;
///   - forwarded partial match: a binding shipped to the owner of step
///     at.step's anchor, resuming there;
///   - slice unit (at.sliced()): same, but scanning only a slice of the
///     anchor adjacency (hybrid split).
/// Units always expand against fragment `home`'s CSR; a thief reads the
/// victim's fragment, paid for by the steal message.
struct PUnit {
  int32_t ngd = -1;
  int32_t home = 0;
  uint32_t chunk_begin = 0;
  uint32_t chunk_end = 0;
  ResumePoint at;
  Binding binding;
};

class FragmentDectEngine {
 public:
  FragmentDectEngine(const NgdSet& sigma, const PDectOptions& opts,
                     const FragmentRuntime& rt)
      : sigma_(sigma),
        opts_(opts),
        rt_(rt),
        p_(rt.num_fragments()),
        pool_(p_, &metrics_, /*enable_steal=*/p_ > 1, opts.max_queue_depth),
        run_(p_, sigma.size(), opts) {}

  PDectResult Run(const GraphAccessor& global) {
    metrics_.replicated_nodes.fetch_add(rt_.total_halo_nodes(),
                                        std::memory_order_relaxed);

    // One start node + plan per rule, chosen against the global graph so
    // every fragment agrees (owner-computes seeding needs one well-defined
    // owner per match).
    start_of_.resize(sigma_.size());
    start_label_.resize(sigma_.size());
    plans_.reserve(sigma_.size());
    for (size_t r = 0; r < sigma_.size(); ++r) {
      const Pattern& pattern = sigma_[r].pattern();
      start_of_[r] = ChooseStartNode(pattern, global);
      start_label_[r] = pattern.node(start_of_[r]).label;
      plans_.push_back(BuildMatchPlan(pattern, {start_of_[r]}, &sigma_[r].X(),
                                      &sigma_[r].Y()));
    }

    // Owner-computes seeding: fragment f expands exactly the candidates
    // it owns, in kSeedChunk-sized units (the steal granularity).
    for (int f = 0; f < p_; ++f) {
      const FragmentSnapshot& frag = rt_.fragment(f);
      for (size_t r = 0; r < sigma_.size(); ++r) {
        const size_t count = frag.candidates.Count(start_label_[r]);
        for (size_t b = 0; b < count; b += kSeedChunk) {
          PUnit u;
          u.ngd = static_cast<int32_t>(r);
          u.home = f;
          u.chunk_begin = static_cast<uint32_t>(b);
          u.chunk_end =
              static_cast<uint32_t>(std::min(b + kSeedChunk, count));
          run_.AddPending(static_cast<int>(r));
          pool_.Seed(f, std::move(u));
        }
      }
    }

    pool_.Run([this](int worker, PUnit& unit) { ProcessUnit(worker, unit); },
              []() {}, run_.token(),
              [this](int worker) { run_.RetireWorker(worker); });

    PDectResult result;
    // Owner-computes seeding keeps per-worker sets globally disjoint.
    result.vio = run_.MergeFinished();
    result.crossing_edges = rt_.partition().crossing_edges;
    result.fragments = p_;
    result.metrics = SnapshotOf(metrics_);
    result.truncated = run_.FinishRunInfo();
    return result;
  }

 private:
  /// PDect's side of the step hand-off for one unit: the §7 forward-vs-
  /// split decision at every step, and halo-scan metering for the steps
  /// it leaves to the walker.
  class Handoff final : public StepHandoff {
   public:
    Handoff(FragmentDectEngine* engine, int worker, int rule,
            const FragmentSnapshot& frag)
        : e_(engine), worker_(worker), rule_(rule), frag_(frag) {}

    bool Take(const ResumePoint& at, NodeId anchor, size_t seq_len,
              const Binding& binding) override {
      const PDectOptions& opts = e_->opts_;
      const bool owned = frag_.Owns(anchor);
      const size_t matched = e_->plans_[rule_].seeds.size() + at.step;
      if (!at.sliced() &&
          HandoffPays(opts.latency_c, matched, seq_len, e_->p_)) {
        if (!owned && seq_len >= opts.min_forward_adjacency) {
          // Boundary-crossing match: ship the k+1 bound nodes to the
          // anchor's owner, which scans its own (owned) adjacency.
          // Exact: all nodes of any completion are within d_Σ of the
          // anchor, so they lie inside the owner's members ∪ halo.
          const int owner = e_->rt_.OwnerOf(anchor);
          e_->pool_.Forward(worker_, owner,
                            e_->MakeUnit(rule_, owner, at, binding));
          return true;
        }
        if (seq_len >= opts.min_split_adjacency) {
          SplitStep(&e_->metrics_, e_->p_, at, seq_len,
                    [&](int target, const ResumePoint& slice) {
                      e_->pool_.Spawn(worker_, target,
                                      e_->MakeUnit(rule_, frag_.fragment_id,
                                                   slice, binding));
                    });
          return true;
        }
      }
      if (!owned) ++halo_scans;  // local read of a replica
      return false;
    }

    uint64_t halo_scans = 0;

   private:
    FragmentDectEngine* e_;
    int worker_;
    int rule_;
    const FragmentSnapshot& frag_;
  };

  void ProcessUnit(int worker, PUnit& unit) {
    CancelCheck* check = run_.check(worker);
    if (check != nullptr && check->ShouldStop()) {
      return;  // dropped: the unit's pending count keeps its rule incomplete
    }
    metrics_.work_units.fetch_add(1, std::memory_order_relaxed);
    const FragmentSnapshot& frag = rt_.fragment(unit.home);
    const Ngd& ngd = sigma_[unit.ngd];
    const MatchPlan& plan = plans_[unit.ngd];
    Handoff handoff(this, worker, unit.ngd, frag);
    // Owner-computes seeding plus disjoint slice splits make the
    // per-worker sets globally duplicate-free, so emission skips the
    // hash probe.
    VioEmitter emitter(&run_.local(worker), unit.ngd,
                       ngd.pattern().NumNodes());
    SearchConfig cfg;
    cfg.snapshot = frag.csr.get();
    cfg.pattern = &ngd.pattern();
    cfg.x = &ngd.X();
    cfg.y = &ngd.Y();
    cfg.cancel = check;
    cfg.emitter = &emitter;
    cfg.handoff = &handoff;
    if (unit.binding.empty()) {
      const GraphSnapshot::IdRange owned =
          frag.candidates.Range(start_label_[unit.ngd]);
      const size_t end = std::min<size_t>(unit.chunk_end, owned.size());
      const GraphSnapshot::IdRange chunk{owned.ptr + unit.chunk_begin,
                                         end - unit.chunk_begin};
      RunBatchSearchWithPlan(cfg, start_of_[unit.ngd], plan, MatchCallback(),
                             &chunk);
    } else {
      ResumeSearch(cfg, plan, unit.at, &unit.binding, MatchCallback());
    }
    if (handoff.halo_scans > 0) {
      metrics_.messages.fetch_add(handoff.halo_scans,
                                  std::memory_order_relaxed);
    }
    if (check == nullptr || !check->Stopped()) {
      run_.Retire(unit.ngd);
    }
  }

  /// A handed-off unit of `rule` on fragment `home`, counted pending.
  PUnit MakeUnit(int rule, int home, const ResumePoint& at,
                 const Binding& binding) {
    PUnit u;
    u.ngd = rule;
    u.home = home;
    u.at = at;
    u.binding = binding;
    run_.AddPending(rule);
    return u;
  }

  const NgdSet& sigma_;
  const PDectOptions& opts_;
  const FragmentRuntime& rt_;
  const int p_;
  ClusterMetrics metrics_;
  WorkStealingPool<PUnit> pool_;
  ParallelRun<VioSet> run_;
  std::vector<int> start_of_;
  std::vector<LabelId> start_label_;
  std::vector<MatchPlan> plans_;
};

}  // namespace

PDectResult PDect(const Graph& g, const NgdSet& sigma,
                  const PDectOptions& opts) {
  // Σ-minimization runs before fragment seeding, so dropped rules never
  // spawn work units. elapsed_seconds covers the parallel detection
  // itself; the (cached, amortized) minimization cost is the caller's
  // setup, as with runtime builds.
  return RunMinimized(
      sigma, g.schema(), opts,
      [&g](const NgdSet& rules, const PDectOptions& o) {
        WallTimer timer;
        const int p = std::max(1, o.num_processors);
        const int d_sigma = rules.MaxDiameter();
        // Reuse a caller-supplied runtime when it matches; otherwise
        // fragment here (the clock includes it — a cold start really pays
        // it; callers that care pre-build and pass o.runtime).
        std::optional<FragmentRuntime> owned_rt;
        const FragmentRuntime* rt = o.runtime;
        if (rt == nullptr || rt->num_fragments() != p ||
            rt->view() != o.view || rt->halo_hops() < d_sigma) {
          owned_rt.emplace(g, p, o.view, d_sigma);
          rt = &*owned_rt;
        }
        FragmentDectEngine engine(rules, o, *rt);
        PDectResult result = engine.Run(GraphAccessor(g, o.view));
        result.elapsed_seconds = timer.ElapsedSeconds();
        return result;
      },
      [](PDectResult result, const std::vector<int>& kept) {
        result.vio = RemapViolations(std::move(result.vio), kept);
        return result;
      });
}

}  // namespace ngd
