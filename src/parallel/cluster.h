// Simulated cluster runtime for the parallel detection algorithms.
//
// The paper runs on up to 20 machines exchanging messages; ngdlib
// simulates p processors with p worker threads, per-worker work-unit
// deques (BVio_i), and explicit communication accounting. The knobs the
// paper studies — latency constant C (Fig 4(m)) and balancing interval
// intvl (Fig 4(n)) — are first-class here: C steers the split/local
// decision in the cost model, intvl the balancer's wake-up period.
//
// Three layers:
//   - WorkQueue<T>: one processor's deque of work units.
//   - WorkStealingPool<T>: p queues + p worker threads with in-flight
//     termination, cross-fragment forwarding, and idle-time work
//     stealing; every unit that changes queues is charged one simulated
//     message.
//   - FragmentRuntime: the fragmented graph itself — one CSR all p
//     processors share, and p FragmentSnapshots (owned candidates and
//     halo, parallel/fragment.h) from one Partition of it.
//
// PDect runs fragment-native on a FragmentRuntime + WorkStealingPool;
// PIncDect uses the pool with round-robin pivot placement and the paper's
// skew balancer layered on top (its candidate neighborhood N_C is
// replicated at every processor, so its units run anywhere). Both keep
// their per-call worker results, cancel broadcast and completion
// accounting in one ParallelRun.

#ifndef NGD_PARALLEL_CLUSTER_H_
#define NGD_PARALLEL_CLUSTER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "detect/dect.h"
#include "match/homomorphism.h"
#include "parallel/fragment.h"
#include "util/cancel.h"
#include "util/thread_annotations.h"

namespace ngd {

/// Communication / balancing counters (all simulated-message based).
struct ClusterMetrics {
  std::atomic<uint64_t> messages{0};        ///< simulated messages sent
  std::atomic<uint64_t> replicated_nodes{0};///< halo / N_C replication volume
  std::atomic<uint64_t> work_units{0};      ///< units processed
  std::atomic<uint64_t> splits{0};          ///< hybrid splits performed
  std::atomic<uint64_t> forwards{0};        ///< units shipped to their owner
  std::atomic<uint64_t> steals{0};          ///< units taken by idle workers
  std::atomic<uint64_t> balance_moves{0};   ///< units moved by balancer
  std::atomic<uint64_t> peak_queue_depth{0};///< deepest queue ever observed
  std::atomic<uint64_t> inline_runs{0};     ///< spawns run inline (backpressure)
};

/// Plain-value copy of ClusterMetrics for results and JSON emission.
struct ClusterMetricsSnapshot {
  uint64_t messages = 0;
  uint64_t replicated_nodes = 0;
  uint64_t work_units = 0;
  uint64_t splits = 0;
  uint64_t forwards = 0;
  uint64_t steals = 0;
  uint64_t balance_moves = 0;
  uint64_t peak_queue_depth = 0;
  uint64_t inline_runs = 0;
};

inline ClusterMetricsSnapshot SnapshotOf(const ClusterMetrics& m) {
  ClusterMetricsSnapshot s;
  s.messages = m.messages.load(std::memory_order_relaxed);
  s.replicated_nodes = m.replicated_nodes.load(std::memory_order_relaxed);
  s.work_units = m.work_units.load(std::memory_order_relaxed);
  s.splits = m.splits.load(std::memory_order_relaxed);
  s.forwards = m.forwards.load(std::memory_order_relaxed);
  s.steals = m.steals.load(std::memory_order_relaxed);
  s.balance_moves = m.balance_moves.load(std::memory_order_relaxed);
  s.peak_queue_depth = m.peak_queue_depth.load(std::memory_order_relaxed);
  s.inline_runs = m.inline_runs.load(std::memory_order_relaxed);
  return s;
}

/// The §7 hybrid cost model both parallel engines apply before scanning
/// an anchor adjacency of `seq_len` entries with `matched` pattern nodes
/// bound: handing the scan to p processors costs C·(k+1) + |adj|/p
/// against |adj| for scanning it here.
inline bool HandoffPays(double latency_c, size_t matched, size_t seq_len,
                        int p) {
  const double adj = static_cast<double>(seq_len);
  return p > 1 && seq_len > 0 &&
         latency_c * (static_cast<double>(matched) + 1.0) + adj / p < adj;
}

/// Work-unit splitting (paper §6.3): cuts the anchor sequence of step
/// `at` (`seq_len` entries) into at most p contiguous slices and passes
/// slice i's resume point to `spawn(i, slice)`. Charged as one split
/// broadcast: p messages.
template <typename SpawnFn>
void SplitStep(ClusterMetrics* metrics, int p, const ResumePoint& at,
               size_t seq_len, SpawnFn&& spawn) {
  metrics->splits.fetch_add(1, std::memory_order_relaxed);
  metrics->messages.fetch_add(p, std::memory_order_relaxed);
  const size_t share = (seq_len + p - 1) / p;
  for (int i = 0; i < p; ++i) {
    const size_t b = static_cast<size_t>(i) * share;
    if (b >= seq_len) break;
    ResumePoint slice = at;
    slice.slice_begin = static_cast<int32_t>(b);
    slice.slice_end = static_cast<int32_t>(std::min(b + share, seq_len));
    spawn(i, slice);
  }
}

/// A mutex-guarded deque of work units. Owners push/pop at the back
/// (depth-first locality); the balancer and thieves harvest from the
/// front (the shallowest, largest-subtree units travel best).
template <typename T>
class WorkQueue {
 public:
  /// Returns the queue depth after the push (the backpressure signal).
  size_t Push(T unit) NGD_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    items_.push_back(std::move(unit));
    return items_.size();
  }

  size_t PushMany(std::vector<T>&& units) NGD_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    for (auto& u : units) items_.push_back(std::move(u));
    return items_.size();
  }

  bool TryPopBack(T* out) NGD_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.back());
    items_.pop_back();
    return true;
  }

  /// Harvests up to `max_units` from the front (balancer/thief side).
  std::vector<T> HarvestFront(size_t max_units) NGD_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    std::vector<T> out;
    size_t take = std::min(max_units, items_.size());
    out.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return out;
  }

  size_t size() const NGD_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return items_.size();
  }

 private:
  mutable Mutex mu_;
  std::deque<T> items_ NGD_GUARDED_BY(mu_);
};

/// p work queues + p workers, with unit-count termination, work stealing
/// and message accounting. Every unit that crosses a queue boundary after
/// its initial placement — forwarded to an owner fragment, stolen by an
/// idle worker, or moved by an external balancer — is one simulated
/// message; locally spawned children are free.
template <typename T>
class WorkStealingPool {
 public:
  /// `max_queue_depth` bounds queue state with producer backpressure:
  /// once a target queue holds that many units, a mid-run Spawn/Forward
  /// executes its unit inline on the calling worker instead of
  /// enqueueing it (0 = unbounded). The bound is soft by at most one
  /// concurrent producer per queue (the size check and the push are not
  /// one atomic step — peak_queue_depth records the honest high-water
  /// mark). Without it, a starved consumer (e.g. p threads on one core)
  /// lets splits/steals accumulate unbounded queue state.
  WorkStealingPool(int p, ClusterMetrics* metrics, bool enable_steal,
                   size_t max_queue_depth = 0)
      : queues_(p),
        metrics_(metrics),
        enable_steal_(enable_steal),
        max_queue_depth_(max_queue_depth) {}

  int num_queues() const { return static_cast<int>(queues_.size()); }

  /// Initial placement of a unit on fragment `target`'s queue (no
  /// message: seeds are born where their data lives). Exempt from the
  /// depth bound — before Run there is no consumer to starve and no
  /// worker to run inline on; the seed volume itself bounds the queues.
  void Seed(int target, T unit) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    NotePeak(queues_[target].Push(std::move(unit)));
  }

  /// Mid-run spawn of a unit onto `target`'s queue, subject to the depth
  /// bound: a saturated target pushes back and the unit runs inline on
  /// the calling worker instead. Correct for the same reason stealing
  /// is: any worker may process any unit (a unit carries its home
  /// fragment).
  void Spawn(int calling_worker, int target, T unit) {
    if (ShouldInline(target)) {
      RunInline(calling_worker, unit);
      return;
    }
    Seed(target, std::move(unit));
  }

  /// Child unit spawned onto the processing worker's own queue.
  void SpawnLocal(int worker, T unit) { Spawn(worker, worker, std::move(unit)); }

  /// Ships a unit to another fragment's queue: one simulated message
  /// carrying the partial match. A saturated target pushes back like
  /// Spawn — the unit runs inline on the calling worker (reading the
  /// target fragment the way a thief would), with no message charged.
  void Forward(int calling_worker, int target, T unit) {
    if (ShouldInline(target)) {
      RunInline(calling_worker, unit);
      return;
    }
    metrics_->forwards.fetch_add(1, std::memory_order_relaxed);
    metrics_->messages.fetch_add(1, std::memory_order_relaxed);
    Seed(target, std::move(unit));
  }

  std::vector<size_t> QueueSizes() const {
    std::vector<size_t> sizes(queues_.size());
    for (size_t i = 0; i < queues_.size(); ++i) sizes[i] = queues_[i].size();
    return sizes;
  }

  /// Balancer primitives: moved units stay in flight; the caller charges
  /// its own metrics (balance_moves + messages).
  std::vector<T> HarvestFront(int from, size_t max_units) {
    return queues_[from].HarvestFront(max_units);
  }
  void PushMany(int to, std::vector<T>&& units) {
    NotePeak(queues_[to].PushMany(std::move(units)));
  }

  /// Runs `process(worker, unit)` on p workers until every unit (and
  /// every unit they spawn) has drained. `tick()` runs on the calling
  /// thread every ~200µs while workers are live — the balancer hook.
  /// `cancel` (optional): once it trips, remaining queued units are
  /// drained *without* processing, so a cancelled run still terminates
  /// through the normal in-flight accounting — engines report whatever
  /// their workers completed, with the truncation marked.
  /// `worker_finish` (optional) runs on each worker's own thread exactly
  /// once, after that worker has processed its last unit — the hook
  /// engines use to hand worker-local result sets to a mutex-guarded
  /// merge list instead of relying on join-order visibility.
  template <typename ProcessFn, typename TickFn>
  void Run(ProcessFn&& process, TickFn&& tick,
           const CancelToken* cancel = nullptr,
           const std::function<void(int)>& worker_finish = {}) {
    done_.store(false, std::memory_order_release);
    // Stored so backpressured Spawn/Forward can execute units inline on
    // the producing worker. The process fn must tolerate re-entry (a unit
    // spawning a unit that runs inline) — recursion depth is bounded by
    // the expansion plan's depth.
    process_ = [&process](int worker, T& unit) { process(worker, unit); };
    std::vector<std::thread> workers;
    workers.reserve(queues_.size());
    for (int i = 0; i < num_queues(); ++i) {
      workers.emplace_back([this, i, &process, cancel, &worker_finish]() {
        WorkerLoop(i, process, cancel);
        if (worker_finish) worker_finish(i);
      });
    }
    while (in_flight_.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      tick();
    }
    done_.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    process_ = nullptr;
  }

 private:
  bool ShouldInline(int target) const {
    return max_queue_depth_ > 0 && process_ != nullptr &&
           queues_[target].size() >= max_queue_depth_;
  }

  /// Executes a pushed-back unit on the calling worker's thread, outside
  /// any queue: no in_flight_ bump (it was never enqueued), no message
  /// (nothing crossed a queue boundary). The process fn does its own
  /// cancel check and work_units accounting, same as the queued path.
  void RunInline(int calling_worker, T& unit) {
    metrics_->inline_runs.fetch_add(1, std::memory_order_relaxed);
    process_(calling_worker, unit);
  }

  void NotePeak(size_t depth) {
    uint64_t prev = metrics_->peak_queue_depth.load(std::memory_order_relaxed);
    while (prev < depth &&
           !metrics_->peak_queue_depth.compare_exchange_weak(
               prev, depth, std::memory_order_relaxed)) {
    }
  }

  template <typename ProcessFn>
  void WorkerLoop(int worker, ProcessFn& process, const CancelToken* cancel) {
    while (true) {
      T unit;
      if (queues_[worker].TryPopBack(&unit)) {
        if (cancel == nullptr || !cancel->IsCancelled()) {
          process(worker, unit);
        }
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      if (enable_steal_ && TrySteal(worker)) continue;
      if (done_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Steals half of the longest other queue (front side) into the idle
  /// worker's queue; each stolen unit is one simulated message.
  bool TrySteal(int worker) {
    int victim = -1;
    size_t longest = 0;
    for (int i = 0; i < num_queues(); ++i) {
      if (i == worker) continue;
      const size_t s = queues_[i].size();
      if (s > longest) {
        longest = s;
        victim = i;
      }
    }
    if (victim < 0) return false;
    std::vector<T> moved =
        queues_[victim].HarvestFront(std::max<size_t>(1, longest / 2));
    if (moved.empty()) return false;
    metrics_->steals.fetch_add(moved.size(), std::memory_order_relaxed);
    metrics_->messages.fetch_add(moved.size(), std::memory_order_relaxed);
    NotePeak(queues_[worker].PushMany(std::move(moved)));
    return true;
  }

  std::vector<WorkQueue<T>> queues_;
  ClusterMetrics* metrics_;
  const bool enable_steal_;
  const size_t max_queue_depth_;
  std::function<void(int, T&)> process_;
  std::atomic<size_t> in_flight_{0};
  std::atomic<bool> done_{false};
};

/// Per-call state both parallel engines share, built once from their
/// DetectControl. `Local` is the worker-local result: VioSet (PDect) or
/// DeltaVio (PIncDect). It holds
///   - p worker-local results, each spilling budget_bytes/p under
///     "<prefix>.w<i>" when control.spill is set;
///   - the cancel broadcast: every worker polls one shared token, so a
///     deadline tripped by any worker (or an external Cancel) stops all
///     of them; with only a deadline the run owns the token;
///   - per-rule outstanding work-unit counts: a unit retires its count
///     only when it was processed to the end, so any unit drained
///     unprocessed by a cancelled pool — or aborted mid-expansion —
///     leaves its rule incomplete in run_info;
///   - the pool-exit handoff of finished worker results to a guarded
///     merge list.
template <typename Local>
class ParallelRun {
 public:
  ParallelRun(int p, size_t num_rules, const DetectControl& control)
      : spill_(control.spill),
        run_info_(control.run_info),
        num_rules_(num_rules),
        local_(p),
        pending_(std::make_unique<std::atomic<uint32_t>[]>(num_rules)) {
    if (spill_ != nullptr) {
      VioSpillOptions share = *spill_;
      share.budget_bytes = spill_->budget_bytes / static_cast<size_t>(p);
      for (int i = 0; i < p; ++i) {
        share.path_prefix = spill_->path_prefix + ".w" + std::to_string(i);
        local_[i].EnableSpill(share);
      }
    }
    if (control.cancel != nullptr || control.deadline.armed()) {
      token_ = control.cancel != nullptr ? control.cancel : &owned_token_;
      checks_.reserve(p);
      for (int i = 0; i < p; ++i) checks_.emplace_back(token_, control.deadline);
    }
    for (size_t r = 0; r < num_rules; ++r) {
      pending_[r].store(0, std::memory_order_relaxed);
    }
  }

  // Workers hold its address for the whole pool run.
  ParallelRun(const ParallelRun&) = delete;
  ParallelRun& operator=(const ParallelRun&) = delete;

  /// The broadcast token for WorkStealingPool::Run; null when the run is
  /// not cancellable (zero-option runs never touch the checks).
  const CancelToken* token() const { return token_; }
  /// Worker `w`'s check, or null when the run is not cancellable.
  CancelCheck* check(int worker) {
    return token_ != nullptr ? &checks_[worker] : nullptr;
  }
  /// Worker `w`'s result: written only by worker w's thread while the
  /// pool runs (backpressured inline runs execute on the producing
  /// worker, so confinement holds), then handed off by RetireWorker.
  Local& local(int worker) { return local_[worker]; }

  /// A work unit of `rule` was born (seeded, forwarded, split, spawned).
  void AddPending(int rule) {
    pending_[rule].fetch_add(1, std::memory_order_relaxed);
  }
  /// A work unit of `rule` was fully processed (its children carry their
  /// own counts).
  void Retire(int rule) {
    pending_[rule].fetch_sub(1, std::memory_order_relaxed);
  }

  /// Pool-exit handoff (WorkStealingPool::Run's worker_finish): worker
  /// `w` moves its finished result into the guarded merge list on its own
  /// thread — an explicit critical section the thread-safety analysis can
  /// check, instead of an implicit reliance on join-order visibility.
  void RetireWorker(int worker) NGD_EXCLUDES(merge_mu_) {
    MutexLock lock(&merge_mu_);
    finished_.emplace_back(worker, std::move(local_[worker]));
  }

  /// Concatenates the finished worker results, which both engines keep
  /// globally disjoint, so the merge is rehash-free. Worker completion
  /// order is nondeterministic; merging in worker order keeps the result
  /// arena layout identical run to run. Spill on the result is enabled
  /// first, so it keeps spilling under the caller's prefix and full
  /// budget rather than inheriting worker 0's share.
  Local MergeFinished() NGD_EXCLUDES(merge_mu_) {
    Local merged;
    if (spill_ != nullptr) merged.EnableSpill(*spill_);
    MutexLock lock(&merge_mu_);
    std::sort(finished_.begin(), finished_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& f : finished_) merged.MergeDisjointUnchecked(std::move(f.second));
    finished_.clear();
    return merged;
  }

  /// Fills control.run_info (when set) from the pending counts after the
  /// pool drained; returns whether the run was truncated.
  bool FinishRunInfo() const {
    DetectRunInfo local_info;
    DetectRunInfo* info = run_info_ != nullptr ? run_info_ : &local_info;
    info->StartFull(num_rules_);
    for (size_t r = 0; r < num_rules_; ++r) {
      if (pending_[r].load(std::memory_order_relaxed) != 0) {
        info->rule_completed[r] = 0;
        info->truncated = true;
      }
    }
    return info->truncated;
  }

 private:
  const VioSpillOptions* const spill_;
  DetectRunInfo* const run_info_;
  const size_t num_rules_;
  std::vector<Local> local_;
  Mutex merge_mu_;
  std::vector<std::pair<int, Local>> finished_ NGD_GUARDED_BY(merge_mu_);
  CancelToken owned_token_;
  CancelToken* token_ = nullptr;
  std::vector<CancelCheck> checks_;  // one per worker
  std::unique_ptr<std::atomic<uint32_t>[]> pending_;
};

/// The fragmented graph: one GraphSnapshot of `view` of the graph that
/// every fragment seeds, expands and steals against (when the view is the
/// committed edge set, the Graph's core, taken in O(1)), and p
/// FragmentSnapshots over one Partition of it. Answers ownership queries.
/// Thread-compatible by immutability: every member is written during
/// construction and only read afterwards, so all p workers share a
/// runtime with no capability to hold — the thread-safety analysis has
/// nothing to check here by design;
/// per-call engines own their ClusterMetrics and charge replication from
/// total_halo_nodes(). A runtime outlives rule sets whose max pattern
/// diameter fits halo_hops(), so benchmarks build it once and amortize
/// it across detection calls.
class FragmentRuntime {
 public:
  /// Partitions `view` of `g` into p fragments (label/degree-aware LDG)
  /// and builds every FragmentSnapshot with `halo_hops`-hop halos.
  FragmentRuntime(const Graph& g, int p, GraphView view, int halo_hops);

  /// Builds fragments over a caller-supplied partition.
  FragmentRuntime(const Graph& g, Partition part, GraphView view,
                  int halo_hops);

  /// The CSR all fragments share.
  const GraphSnapshot& snapshot() const { return snapshot_; }
  int num_fragments() const { return static_cast<int>(fragments_.size()); }
  GraphView view() const { return snapshot_.view(); }
  int halo_hops() const { return halo_hops_; }
  const Partition& partition() const { return partition_; }
  const FragmentSnapshot& fragment(int f) const { return fragments_[f]; }
  int OwnerOf(NodeId v) const { return partition_.fragment_of[v]; }

  /// Σ_f |halo(f)| — the honest replicated_nodes figure.
  uint64_t total_halo_nodes() const;

 private:
  /// One thread per fragment: a cluster's "deploy the fragments" phase.
  void BuildFragments();

  GraphSnapshot snapshot_;
  int halo_hops_;
  Partition partition_;
  std::vector<FragmentSnapshot> fragments_;
};

}  // namespace ngd

#endif  // NGD_PARALLEL_CLUSTER_H_
