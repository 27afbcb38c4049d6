// Producer backpressure in WorkStealingPool (parallel/cluster.h).
//
// ROADMAP item 3's named bug: on a starved consumer (the 1-core
// fig4_il configuration — p worker threads sharing one core), mid-run
// split broadcasts and forwards accumulated unbounded queue state. The
// fix bounds every mid-run Spawn/Forward with `max_queue_depth`: a
// saturated target pushes back and the unit executes inline on the
// producing worker instead of enqueueing.
//
// Evidence here:
//   1. a fan-out storm aimed at one queue — bounded run processes every
//      unit exactly once AND holds the observed peak queue depth at the
//      bound (plus the documented one-producer-per-queue slack), while
//      the unbounded control only guarantees the count;
//   2. the engines under the tightest bound — PDect and PIncDect with
//      max_queue_depth = 1 stay byte-identical to the sequential
//      oracles on randomized workloads, so inline execution changes
//      scheduling only, never results; PIncDect's result reports the
//      queue counters (peak_queue_depth, inline_runs) of that run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <vector>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "graph/updates.h"
#include "parallel/cluster.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"

namespace ngd {
namespace {

struct FanoutUnit {
  int depth = 0;
};

/// Binary fan-out of the given depth, every spawn aimed at queue
/// `target`: the worst-case producer storm for one consumer. Returns the
/// metrics after the drain; `processed` counts process-fn invocations
/// (queued and inline alike).
ClusterMetricsSnapshot RunStorm(int p, size_t max_queue_depth, int fan_depth,
                                int target, std::atomic<uint64_t>* processed) {
  ClusterMetrics metrics;
  WorkStealingPool<FanoutUnit> pool(p, &metrics, /*enable_steal=*/false,
                                    max_queue_depth);
  for (int i = 0; i < p; ++i) pool.Seed(i, FanoutUnit{0});
  pool.Run(
      [&](int worker, FanoutUnit& unit) {
        processed->fetch_add(1, std::memory_order_relaxed);
        if (unit.depth >= fan_depth) return;
        pool.Spawn(worker, target, FanoutUnit{unit.depth + 1});
        pool.Spawn(worker, target, FanoutUnit{unit.depth + 1});
      },
      []() {});
  return SnapshotOf(metrics);
}

TEST(ClusterBackpressureTest, BoundedStormProcessesAllAndHoldsTheBound) {
  constexpr int kP = 4;
  constexpr int kDepth = 7;
  // Strictly below kDepth: the owner queue is LIFO, so even a lone
  // worker descending its tree depth-first holds queue-0 size at about
  // the current depth and must attempt a push at >= kBound before
  // reaching the leaves — the inline path fires under any scheduling,
  // not just when the other producers' spawns land mid-descent.
  constexpr size_t kBound = 4;
  std::atomic<uint64_t> processed{0};
  ClusterMetricsSnapshot m = RunStorm(kP, kBound, kDepth, /*target=*/0,
                                      &processed);
  // p seeds, each the root of a full binary tree of height kDepth.
  const uint64_t expect = uint64_t{kP} * ((uint64_t{1} << (kDepth + 1)) - 1);
  EXPECT_EQ(processed.load(), expect);
  // The size check and the push are not one atomic step, so each of the
  // p producers can overshoot by one unit.
  EXPECT_LE(m.peak_queue_depth, kBound + kP);
  // The storm exceeds the bound by orders of magnitude, so the
  // backpressure path must actually have run.
  EXPECT_GT(m.inline_runs, 0u);
}

TEST(ClusterBackpressureTest, UnboundedControlStillProcessesAll) {
  constexpr int kP = 4;
  constexpr int kDepth = 7;
  std::atomic<uint64_t> processed{0};
  ClusterMetricsSnapshot m = RunStorm(kP, /*max_queue_depth=*/0, kDepth,
                                      /*target=*/0, &processed);
  const uint64_t expect = uint64_t{kP} * ((uint64_t{1} << (kDepth + 1)) - 1);
  EXPECT_EQ(processed.load(), expect);
  EXPECT_EQ(m.inline_runs, 0u);
  // The control documents the bug being fixed: everything the storm
  // spawned at queue 0 piled up (the consumer can't drain 2^depth units
  // as fast as p producers emit them). No depth assertion — the point of
  // the bounded variant is that there, one exists.
  EXPECT_GT(m.peak_queue_depth, 0u);
}

TEST(ClusterBackpressureTest, ForwardInlinesWithoutChargingMessages) {
  ClusterMetrics metrics;
  // Depth bound 1 on 2 queues: with both queues non-empty, every mid-run
  // Forward must take the inline path, charging inline_runs but never
  // forwards/messages.
  WorkStealingPool<FanoutUnit> pool(2, &metrics, /*enable_steal=*/false,
                                    /*max_queue_depth=*/1);
  for (int i = 0; i < 2; ++i) {
    pool.Seed(i, FanoutUnit{0});
    pool.Seed(i, FanoutUnit{0});
  }
  std::atomic<uint64_t> processed{0};
  pool.Run(
      [&](int worker, FanoutUnit& unit) {
        processed.fetch_add(1, std::memory_order_relaxed);
        if (unit.depth >= 3) return;
        pool.Forward(worker, 1 - worker, FanoutUnit{unit.depth + 1});
      },
      []() {});
  ClusterMetricsSnapshot m = SnapshotOf(metrics);
  EXPECT_EQ(processed.load(), 4u * 4u);  // 4 seeds, chains of length 4
  EXPECT_EQ(m.forwards + m.inline_runs, 4u * 3u);
  EXPECT_EQ(m.messages, m.forwards);
}

// ---- Engines under the tightest bound ------------------------------------

void ExpectSameSorted(const std::vector<Violation>& want,
                      const std::vector<Violation>& got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(want[i] == got[i]) << what << ": record " << i << " differs";
  }
}

TEST(ClusterBackpressureTest, EnginesAgreeWithOracleAtDepthOne) {
  uint64_t pinc_inline_runs = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 23);
    testing_util::RandomWorkload w =
        testing_util::MakeRandomWorkload(seed, &rng);
    std::ostringstream repro_os;
    repro_os << "repro: seed=" << seed;
    const std::string repro = repro_os.str();
    if (w.sigma.empty()) continue;

    DectOptions live;
    live.snapshot_mode = SnapshotMode::kNever;
    const std::vector<Violation> want = Dect(*w.graph, w.sigma, live).Sorted();
    {
      PDectOptions o;
      o.num_processors = 4;
      o.max_queue_depth = 1;
      // Shrink the split/forward thresholds so the cost model actually
      // fires on these small graphs and the inline paths get exercised.
      o.min_forward_adjacency = 1;
      o.min_split_adjacency = 2;
      o.latency_c = 0.0;
      ExpectSameSorted(want, PDect(*w.graph, w.sigma, o).vio.Sorted(),
                       repro + " PDect depth-1");
    }

    if (!ValidateForIncremental(w.sigma).ok()) continue;
    UpdateGenOptions up;
    up.fraction = 0.2;
    up.insert_fraction = 0.5;
    up.seed = seed + 3;
    UpdateBatch batch = GenerateUpdateBatch(w.graph.get(), up);
    ASSERT_TRUE(ApplyUpdateBatch(w.graph.get(), &batch).ok()) << repro;
    IncDectOptions io;
    io.snapshot_mode = SnapshotMode::kNever;
    auto inc = IncDect(*w.graph, w.sigma, batch, io);
    ASSERT_TRUE(inc.ok()) << repro;
    PIncDectOptions po;
    po.num_processors = 4;
    po.max_queue_depth = 1;
    po.min_split_adjacency = 1;
    po.latency_c = 0.0;
    auto pinc = PIncDect(*w.graph, w.sigma, batch, po);
    ASSERT_TRUE(pinc.ok()) << repro;
    ExpectSameSorted(inc->added.Sorted(), pinc->delta.added.Sorted(),
                     repro + " PIncDect ΔVio+ depth-1");
    ExpectSameSorted(inc->removed.Sorted(), pinc->delta.removed.Sorted(),
                     repro + " PIncDect ΔVio- depth-1");
    // The result carries the pool's queue counters. A queue held a unit
    // exactly when some unit ran, and every unit that sat in a queue ran
    // once (nothing is cancelled here), so the peak is at most the units
    // processed.
    const ClusterMetricsSnapshot& m = pinc->metrics;
    EXPECT_EQ(m.peak_queue_depth > 0, m.work_units > 0) << repro;
    EXPECT_LE(m.peak_queue_depth, m.work_units) << repro;
    EXPECT_LE(m.inline_runs, m.work_units) << repro;
    pinc_inline_runs += m.inline_runs;
  }
  // Depth 1 leaves no room once the pivots are seeded, so some mid-run
  // split or child spawn must have taken the inline path.
  EXPECT_GT(pinc_inline_runs, 0u);
}

}  // namespace
}  // namespace ngd
