// Streaming-results contract (detect/vio_stream.{h,cc}):
//
//   1. unit mechanics — a spill-enabled VioSet flushes page-floored,
//      checksummed segments past its budget; the cursor streams segments
//      plus the resident tail back in exactly Sorted() order (also
//      through a heap over dozens of segments whose records straddle the
//      read buffer), and applies post-spill Σ-remaps at read time;
//   2. engine differential — a randomized sweep running all four engines
//      with spill thresholds {0, one page, default} and requiring the
//      cursor stream to be byte-identical to the same engine's
//      non-spilled Sorted() oracle;
//   3. fault injection — a flush killed at the "vioseg_write" failpoint
//      keeps every record (resident, sticky error, stream still exact),
//      also when it fails on the background flush thread and a Σ-remap
//      joins it; and a silently bit-flipped segment fails OpenCursor
//      with kCorruption before the first record;
//   4. the violation-heavy acceptance run — >= 10^6 violations under an
//      8 MiB budget with the peak resident footprint held under it
//      (gated by NGD_SPILL_HEAVY=0 for sanitizer CI).
//
// The sweep is sized by NGD_SPILL_CASES; a failure reproduces from the
// printed seed via NGD_SPILL_SEED.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "detect/vio_stream.h"
#include "detect/violation.h"
#include "graph/updates.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace ngd {
namespace {

size_t CaseCount() {
  return testing_util::EnvCount("NGD_SPILL_CASES", 12);
}

std::string TempPrefix(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Opens a cursor on `set` and requires its stream to equal `want`
/// exactly.
void ExpectSetStreams(const std::vector<Violation>& want, const VioSet& set,
                      const std::string& what) {
  ASSERT_EQ(set.size(), want.size()) << what << ": size() disagrees";
  auto cursor = set.OpenCursor();
  ASSERT_TRUE(cursor.ok()) << what << ": " << cursor.status().ToString();
  Violation v;
  size_t i = 0;
  while (cursor->Next(&v)) {
    ASSERT_LT(i, want.size()) << what << ": stream longer than oracle";
    ASSERT_TRUE(want[i] == v)
        << what << ": record " << i << " differs (rule " << want[i].ngd_index
        << " vs " << v.ngd_index << ")";
    ++i;
  }
  ASSERT_TRUE(cursor->status().ok()) << what << ": " << cursor->status().ToString();
  ASSERT_EQ(i, want.size()) << what << ": stream shorter than oracle";
}

// ---- 1. unit mechanics ---------------------------------------------------

TEST(VioSpillTest, SpillsSegmentsAndStreamsInSortedOrder) {
  VioSet plain;
  VioSet spilled;
  VioSpillOptions opts;
  opts.path_prefix = TempPrefix("spill_sorted");
  opts.budget_bytes = 0;  // page-floored: every ~4 KiB becomes a segment
  spilled.EnableSpill(opts);
  // Descending appends across two rules: segments are internally sorted
  // runs, and the k-way merge must interleave them globally.
  for (int r = 1; r >= 0; --r) {
    for (NodeId n = 2000; n > 0; --n) {
      const NodeId tuple[2] = {n, n + 1};
      plain.AppendUnchecked(r, tuple, 2);
      spilled.AppendUnchecked(r, tuple, 2);
    }
  }
  EXPECT_GT(spilled.num_spill_segments(), 1u);
  EXPECT_GT(spilled.spilled_records(), 0u);
  EXPECT_TRUE(spilled.spill_status().ok());
  ExpectSetStreams(plain.Sorted(), spilled, "descending two-rule spill");
}

TEST(VioSpillTest, BudgetKeepsPeakResidentUnderBudget) {
  VioSet set;
  VioSpillOptions opts;
  opts.path_prefix = TempPrefix("spill_budget");
  opts.budget_bytes = size_t{1} << 20;  // 1 MiB: > headroom, real budget
  set.EnableSpill(opts);
  for (NodeId n = 0; n < 200000; ++n) {
    set.AppendUnchecked(0, &n, 1);
  }
  EXPECT_GT(set.num_spill_segments(), 0u);
  EXPECT_LT(set.peak_resident_bytes(), opts.budget_bytes);
  EXPECT_EQ(set.size(), 200000u);
}

TEST(VioSpillTest, RemapAppliesToSegmentsWrittenBeforeIt) {
  VioSet plain;
  VioSet set;
  VioSpillOptions opts;
  opts.path_prefix = TempPrefix("spill_remap");
  opts.budget_bytes = 0;
  set.EnableSpill(opts);
  for (NodeId n = 0; n < 2000; ++n) {
    const int r = static_cast<int>(n % 2);
    set.AppendUnchecked(r, &n, 1);
    plain.AppendUnchecked(r, &n, 1);
  }
  ASSERT_GT(set.num_spill_segments(), 0u);
  // Σ-minimized run: kept[i] = original index of minimized rule i. The
  // segments on disk hold pre-remap indices; the cursor must remap them.
  const std::vector<int> kept = {3, 7};
  set.RemapNgdIndices(kept);
  plain.RemapNgdIndices(kept);
  ExpectSetStreams(plain.Sorted(), set, "remapped spilled set");
}

/// Appends `count` distinct tuples of 5..24 nodes (longer than the
/// inline capacity) to every set in `sets`, with every 97th tuple 20000
/// nodes long: its 80 KB record is longer than the cursor's 64 KiB read
/// buffer, and the segments it lands in push their other records across
/// buffer refills.
void AppendLongTuples(size_t count, const std::vector<VioSet*>& sets) {
  Rng rng(0x5E6);
  std::vector<NodeId> tuple;
  for (size_t i = 0; i < count; ++i) {
    const size_t len =
        i % 97 == 96 ? 20000 : static_cast<size_t>(rng.UniformInt(5, 24));
    tuple.resize(len);
    tuple[0] = static_cast<NodeId>(rng.UniformInt(0, 50));
    tuple[1] = static_cast<NodeId>(i);  // distinct tuples
    for (size_t k = 2; k < len; ++k) {
      tuple[k] = static_cast<NodeId>(rng.UniformInt(0, 1000000));
    }
    const int rule = static_cast<int>(rng.UniformInt(0, 2));
    for (VioSet* set : sets) set->AppendUnchecked(rule, tuple.data(), len);
  }
}

TEST(VioSpillTest, HeapMergeOverManySegmentsWithStraddlingRecords) {
  VioSet plain;
  VioSet set;
  VioSpillOptions opts;
  opts.path_prefix = TempPrefix("spill_heap");
  opts.budget_bytes = 4096;  // one page
  set.EnableSpill(opts);
  AppendLongTuples(4000, {&plain, &set});
  ASSERT_GE(set.num_spill_segments(), 64u);
  ASSERT_GT(set.resident_bytes(), 0u);  // the merge includes a tail too
  ExpectSetStreams(plain.Sorted(), set, "heap merge");
}

// ---- 3. fault injection --------------------------------------------------

TEST(VioSpillFaultTest, FailedFlushKeepsRecordsAndStreamExact) {
  failpoint::Reset();
  failpoint::ArmSite("vioseg_write", failpoint::Mode::kEnospc, 1);
  VioSet plain;
  VioSet set;
  VioSpillOptions opts;
  opts.path_prefix = TempPrefix("spill_enospc");
  opts.budget_bytes = 0;
  set.EnableSpill(opts);
  for (NodeId n = 0; n < 4000; ++n) {
    set.AppendUnchecked(0, &n, 1);
    plain.AppendUnchecked(0, &n, 1);
  }
  failpoint::Reset();
  // The second flush hit ENOSPC: the error is sticky, the records of the
  // failed flush (and everything after) stayed resident, and the stream
  // still returns every appended record exactly once.
  EXPECT_FALSE(set.spill_status().ok());
  EXPECT_EQ(set.size(), 4000u);
  ExpectSetStreams(plain.Sorted(), set, "post-ENOSPC stream");
}

TEST(VioSpillFaultTest, BackgroundFlushFailureJoinedByRemapKeepsRecords) {
  failpoint::Reset();
  failpoint::ArmSite("vioseg_write", failpoint::Mode::kEnospc, 1);
  VioSet plain;
  VioSet set;
  VioSpillOptions opts;
  opts.path_prefix = TempPrefix("spill_async_enospc");
  opts.budget_bytes = 0;
  set.EnableSpill(opts);
  // Append until the second hand-off: its job, the one armed to fail,
  // is then on the flush thread and nothing has joined it. A few more
  // records land in the fresh resident tail behind it.
  size_t appended = 0;
  size_t handoffs = 0;
  size_t tail_after = 0;
  for (NodeId n = 0; tail_after < 10; ++n) {
    const int r = static_cast<int>(n % 2);
    const size_t before = set.resident_bytes();
    set.AppendUnchecked(r, &n, 1);
    plain.AppendUnchecked(r, &n, 1);
    ++appended;
    ASSERT_EQ(set.size(), appended);
    if (set.resident_bytes() < before) ++handoffs;
    if (handoffs == 2) ++tail_after;
    ASSERT_LT(n, 100000u) << "no second hand-off";
  }
  // The remap joins the failed job: its records rejoin the tail and are
  // remapped there, while the first segment is remapped at read time.
  const std::vector<int> kept = {3, 7};
  set.RemapNgdIndices(kept);
  plain.RemapNgdIndices(kept);
  failpoint::Reset();
  EXPECT_EQ(set.size(), appended);
  const Status failed = set.spill_status();
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted)
      << failed.ToString();
  EXPECT_EQ(set.num_spill_segments(), 1u);
  ExpectSetStreams(plain.Sorted(), set, "async-failure remapped stream");

  // Sticky: later appends stay resident and a final flush reports the
  // same error instead of writing.
  for (NodeId n = 0; n < 500; ++n) {
    const NodeId tuple[2] = {n, n};
    set.AppendUnchecked(7, tuple, 2);
    plain.AppendUnchecked(7, tuple, 2);
  }
  EXPECT_EQ(set.FlushSpill().ToString(), failed.ToString());
  EXPECT_EQ(set.spill_status().ToString(), failed.ToString());
  EXPECT_EQ(set.num_spill_segments(), 1u);
  EXPECT_EQ(set.size(), appended + 500);
  ExpectSetStreams(plain.Sorted(), set, "post-failure appends");
}

TEST(VioSpillFaultTest, TornFlushLosesNothing) {
  failpoint::Reset();
  failpoint::ArmSite("vioseg_write", failpoint::Mode::kShortWrite, 0);
  VioSet plain;
  VioSet set;
  VioSpillOptions opts;
  opts.path_prefix = TempPrefix("spill_short");
  opts.budget_bytes = 0;
  set.EnableSpill(opts);
  for (NodeId n = 0; n < 4000; ++n) {
    set.AppendUnchecked(0, &n, 1);
    plain.AppendUnchecked(0, &n, 1);
  }
  failpoint::Reset();
  // WriteFileAtomic writes to a temp file and renames, so a short write
  // never leaves a torn segment behind — the flush reports failure and
  // the records stay resident.
  EXPECT_FALSE(set.spill_status().ok());
  ExpectSetStreams(plain.Sorted(), set, "post-short-write stream");
}

TEST(VioSpillFaultTest, BitflippedSegmentFailsOpenWithCorruption) {
  failpoint::Reset();
  failpoint::ArmSite("vioseg_write", failpoint::Mode::kBitFlip, 0);
  VioSet set;
  VioSpillOptions opts;
  opts.path_prefix = TempPrefix("spill_bitflip");
  opts.budget_bytes = 0;
  set.EnableSpill(opts);
  for (NodeId n = 0; n < 4000; ++n) {
    set.AppendUnchecked(0, &n, 1);
  }
  failpoint::Reset();
  ASSERT_GT(set.num_spill_segments(), 0u);
  // The bit flip "succeeded" (silent corruption); the open-time streamed
  // checksum pass must refuse before the first record is served.
  auto cursor = set.OpenCursor();
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kCorruption)
      << cursor.status().ToString();
}

TEST(VioSpillFaultTest, BitflipInLastOfManySegmentsFailsOpen) {
  // Count the segments of a clean run, then replay the same appends with
  // the last segment's write corrupted: every checksum is verified
  // (concurrently) before the first record, so OpenCursor must refuse.
  size_t segments = 0;
  {
    VioSet set;
    VioSpillOptions opts;
    opts.path_prefix = TempPrefix("spill_lastflip_clean");
    opts.budget_bytes = 4096;
    set.EnableSpill(opts);
    AppendLongTuples(4000, {&set});
    ASSERT_TRUE(set.FlushSpill().ok());
    segments = set.num_spill_segments();
  }
  ASSERT_GE(segments, 64u);
  failpoint::Reset();
  failpoint::ArmSite("vioseg_write", failpoint::Mode::kBitFlip, segments - 1);
  VioSet set;
  VioSpillOptions opts;
  opts.path_prefix = TempPrefix("spill_lastflip");
  opts.budget_bytes = 4096;
  set.EnableSpill(opts);
  AppendLongTuples(4000, {&set});
  const Status flushed = set.FlushSpill();
  failpoint::Reset();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();  // silent corruption
  ASSERT_EQ(set.num_spill_segments(), segments);
  auto cursor = set.OpenCursor();
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kCorruption)
      << cursor.status().ToString();
}

// ---- 2. engine differential ----------------------------------------------

/// One randomized case: all four engines at one spill threshold, every
/// spilled stream compared record-for-record against the same engine's
/// non-spilled Sorted().
void RunEngineSpillCase(uint64_t seed, size_t budget, const char* regime) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  testing_util::RandomWorkload w = testing_util::MakeRandomWorkload(seed, &rng);
  std::ostringstream repro_os;
  repro_os << "repro: NGD_SPILL_SEED=" << seed << " budget=" << regime
           << " (nodes=" << w.nodes << " edges=" << w.edges << ")";
  const std::string repro = repro_os.str();
  if (w.sigma.empty()) return;
  const std::string prefix =
      TempPrefix("engine_" + std::to_string(seed) + "_" + regime);

  VioSpillOptions spill;
  spill.budget_bytes = budget;

  DectOptions live;
  live.snapshot_mode = SnapshotMode::kNever;
  const std::vector<Violation> want = Dect(*w.graph, w.sigma, live).Sorted();

  {
    DectOptions o = live;
    spill.path_prefix = prefix + ".dect";
    o.spill = &spill;
    ExpectSetStreams(want, Dect(*w.graph, w.sigma, o), repro + " Dect");
  }
  {
    PDectOptions o;
    o.num_processors = static_cast<int>(rng.UniformInt(2, 4));
    spill.path_prefix = prefix + ".pdect";
    o.spill = &spill;
    ExpectSetStreams(want, PDect(*w.graph, w.sigma, o).vio, repro + " PDect");
  }

  if (!ValidateForIncremental(w.sigma).ok()) return;
  UpdateGenOptions up;
  up.fraction = 0.2;
  up.insert_fraction = 0.5;
  up.seed = seed + 3;
  UpdateBatch batch = GenerateUpdateBatch(w.graph.get(), up);
  ASSERT_TRUE(ApplyUpdateBatch(w.graph.get(), &batch).ok()) << repro;

  IncDectOptions io;
  io.snapshot_mode = SnapshotMode::kNever;
  auto oracle = IncDect(*w.graph, w.sigma, batch, io);
  ASSERT_TRUE(oracle.ok()) << repro;
  const std::vector<Violation> want_add = oracle->added.Sorted();
  const std::vector<Violation> want_rem = oracle->removed.Sorted();

  {
    IncDectOptions o = io;
    spill.path_prefix = prefix + ".inc";
    o.spill = &spill;
    auto inc = IncDect(*w.graph, w.sigma, batch, o);
    ASSERT_TRUE(inc.ok()) << repro;
    ExpectSetStreams(want_add, inc->added, repro + " IncDect ΔVio+");
    ExpectSetStreams(want_rem, inc->removed, repro + " IncDect ΔVio-");
  }
  {
    PIncDectOptions o;
    o.num_processors = static_cast<int>(rng.UniformInt(2, 4));
    spill.path_prefix = prefix + ".pinc";
    o.spill = &spill;
    auto pinc = PIncDect(*w.graph, w.sigma, batch, o);
    ASSERT_TRUE(pinc.ok()) << repro;
    ExpectSetStreams(want_add, pinc->delta.added, repro + " PIncDect ΔVio+");
    ExpectSetStreams(want_rem, pinc->delta.removed, repro + " PIncDect ΔVio-");
  }
}

TEST(VioStreamEngineDifferentialTest, SpilledStreamsMatchSortedOracle) {
  const VioSpillOptions defaults;
  const struct {
    size_t budget;
    const char* regime;
  } kRegimes[] = {
      {0, "zero"},            // page-floored segments, spills constantly
      {4096, "page"},         // one-page budget
      {defaults.budget_bytes, "default"},  // enabled but never trips
  };
  if (const auto pinned = testing_util::EnvSeed("NGD_SPILL_SEED")) {
    for (const auto& r : kRegimes) {
      RunEngineSpillCase(*pinned, r.budget, r.regime);
    }
    return;
  }
  const size_t cases = CaseCount();
  for (size_t i = 0; i < cases; ++i) {
    for (const auto& r : kRegimes) {
      RunEngineSpillCase(0xA11CE + i, r.budget, r.regime);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---- 4. violation-heavy acceptance ---------------------------------------

/// ~30 hubs x 200 observations each; the rule pairs every two
/// observations of one hub, so each hub contributes 200^2 ordered pairs:
/// 1.2M violations total, none of which fit an 8 MiB resident budget.
TEST(VioStreamHeavyTest, MillionViolationsStayUnderBudget) {
  const char* heavy = std::getenv("NGD_SPILL_HEAVY");
  if (heavy != nullptr && std::strtol(heavy, nullptr, 10) == 0) {
    GTEST_SKIP() << "NGD_SPILL_HEAVY=0";
  }
  constexpr int kHubs = 30;
  constexpr int kObs = 200;
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  for (int h = 0; h < kHubs; ++h) {
    const NodeId hub = g.AddNode("hub");
    for (int i = 0; i < kObs; ++i) {
      const NodeId obs = g.AddNode("integer");
      g.SetAttr(obs, "val", Value(int64_t{i}));
      (void)g.AddEdge(hub, obs, "obs");  // fresh nodes: cannot fail
    }
  }
  NgdSet sigma = testing_util::MustParse(R"(
ngd pairwise {
  match (x:hub)-[obs]->(y:integer), (x)-[obs]->(z:integer)
  then y.val - z.val > 1000000
}
)",
                                         schema);
  ASSERT_EQ(sigma.size(), 1u);

  VioSpillOptions spill;
  spill.path_prefix = TempPrefix("heavy");
  spill.budget_bytes = size_t{8} << 20;
  DectOptions o;
  o.spill = &spill;
  VioSet vio = Dect(g, sigma, o);
  const size_t expect =
      size_t{kHubs} * static_cast<size_t>(kObs) * static_cast<size_t>(kObs);
  ASSERT_GE(vio.size(), size_t{1000000});
  ASSERT_EQ(vio.size(), expect);
  EXPECT_GT(vio.num_spill_segments(), 0u);
  EXPECT_LT(vio.peak_resident_bytes(), spill.budget_bytes);
  EXPECT_TRUE(vio.spill_status().ok());

  // Oracle: the same detection fully resident; the stream must reproduce
  // its Sorted() byte-for-byte.
  const std::vector<Violation> want = Dect(g, sigma, DectOptions{}).Sorted();
  ExpectSetStreams(want, vio, "heavy stream");
}

}  // namespace
}  // namespace ngd
