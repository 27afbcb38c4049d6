#include "parallel/pinc_dect.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "graph/neighborhood.h"

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
        opts_(opts),
        p_(std::max(1, opts.num_processors)),
        pivots_(g, sigma, batch, opts.snapshot_mode, opts.base_snapshot),
        pool_(p_, &metrics_, /*enable_steal=*/false, opts.max_queue_depth),
        run_(p_, sigma.size(), opts) {}

  /// Runs on a validated Σ (PIncDect validates before minimizing). Step
  /// 1, the pivots with their backend and plans, is pivots_: the setup
  /// IncDect runs on, built by the constructor. The base snapshot and the
  /// DeltaView over it are immutable, so all p processors share them
  /// read-only; they count as replicated state, like N_C.
  PIncDectResult Run() {
    // Step 2: candidate neighborhood N_C(ΔG, Σ) = union of d_Σ-balls
    // around update endpoints, over the union of both views (safe for
    // ΔVio+ and ΔVio- searches alike), replicated at all processors. It
    // is metered, not checked: every node a pivot search binds lies
    // within its pattern's diameter of the pivot, hence inside N_C
    // (EXPERIMENTS.md §17).
    std::vector<NodeId> seeds;
    for (const auto& u : pivots_.index().updates()) {
      seeds.push_back(u.edge.src);
      seeds.push_back(u.edge.dst);
    }
    const int d_sigma = sigma_.MaxDiameter();
    NodeSet ball_old = DHopNeighborhood(g_, seeds, d_sigma, GraphView::kOld);
    NodeSet nc = DHopNeighborhood(g_, seeds, d_sigma, GraphView::kNew);
    for (NodeId v : ball_old.members()) nc.Add(v);
    metrics_.replicated_nodes +=
        static_cast<uint64_t>(nc.size()) * (p_ > 1 ? p_ - 1 : 0);
    metrics_.messages += p_ > 1 ? p_ : 0;  // one broadcast round

    // Step 3: partition the pivots round-robin across BVio_i (a free
    // initial placement: seeds are born, not sent).
    const std::vector<PivotTask>& tasks = pivots_.tasks();
    for (size_t i = 0; i < tasks.size(); ++i) {
      PWorkUnit unit;
      unit.pivot = tasks[i];
      unit.binding = pivots_.SeedBinding(tasks[i]);
      run_.AddPending(tasks[i].ngd_index);
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
    result.metrics = SnapshotOf(metrics_);
    result.truncated = run_.FinishRunInfo();
    return result;
  }

 private:
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
    Handoff handoff(this, worker, unit, pivots_.Plan(unit.pivot));
    PivotHooks hooks;
    hooks.cancel = check;
    hooks.handoff = &handoff;
    pivots_.Expand(unit.pivot, unit.at, &unit.binding, hooks,
                   &run_.local(worker));
    if (check == nullptr || !check->Stopped()) {
      run_.Retire(unit.pivot.ngd_index);
    }
  }

  /// A unit handed off from `parent` at `at`, counted pending.
  PWorkUnit MakeUnit(const PWorkUnit& parent, const ResumePoint& at,
                     const Binding& binding) {
    PWorkUnit unit;
    unit.pivot = parent.pivot;
    unit.at = at;
    unit.binding = binding;
    run_.AddPending(unit.pivot.ngd_index);
    return unit;
  }

  const Graph& g_;
  const NgdSet& sigma_;
  const PIncDectOptions opts_;
  const int p_;
  const PivotBatch pivots_;
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
