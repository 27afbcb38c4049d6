// Crash-recovery property tests under fault injection (util/failpoint.h
// + graph/update_log.h).
//
// The durability contract: a process following the journal protocol
// (mutate -> Append -> Sync -> Commit, with RotateState compaction) may
// die at ANY IO failpoint — mid snapshot write, mid append, at an fsync,
// inside rotation — and recovery must converge to a consistent epoch
// boundary:
//
//   * RecoverState never fails on post-crash state (torn tails are
//     truncated, a half-written atomic replace leaves the old file);
//   * the recovered epoch k lies in [last synced, last appended];
//   * the recovered graph is bit-identical (snapshot fingerprint) to the
//     never-crashed oracle at epoch k, and Dect reports identical
//     violations on both.
//
// The sweep arms a kill at every failpoint traversal of the workload
// (counted by a clean instrumented run), once per crash mode. The
// randomized tail draws seeds/crash points per NGD_RECOVERY_CASES
// (sanitizer CI runs a reduced count). `ctest -L recovery` runs this
// suite with update_log_test.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "detect/dect.h"
#include "discovery/ngd_generator.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/snapshot.h"
#include "graph/snapshot_io.h"
#include "graph/update_log.h"
#include "graph/updates.h"
#include "util/failpoint.h"

namespace ngd {
namespace {

size_t CaseCount() {
  const char* env = std::getenv("NGD_RECOVERY_CASES");
  if (env != nullptr) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<size_t>(n);
  }
  return 8;
}

constexpr int kEpochs = 5;
constexpr int kRotateAfter = 2;  // RotateState after this epoch commits

uint64_t Fingerprint(const Graph& g) {
  return SnapshotFingerprint(GraphSnapshot(g, GraphView::kNew));
}

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveStateFiles(const std::string& snap, const std::string& wal) {
  for (const std::string& p : {snap, wal, snap + ".tmp", wal + ".tmp"}) {
    std::remove(p.c_str());
  }
}

std::unique_ptr<Graph> BuildBase(SchemaPtr schema, uint64_t seed) {
  return GenerateGraph(SyntheticConfig(60, 150, seed), schema);
}

UpdateBatch NextBatch(Graph* g, uint64_t seed, int epoch) {
  UpdateGenOptions up;
  up.fraction = 0.08;
  up.insert_fraction = 0.6;
  up.new_node_prob = 0.2;
  up.seed = seed * 1000 + static_cast<uint64_t>(epoch);
  return GenerateUpdateBatch(g, up);
}

/// What became durable before the (possible) crash. `synced` counts
/// epochs whose Sync returned OK; `appended` epochs whose Append returned
/// OK (their bytes may be on disk even if the later Sync failed).
struct WorkloadOutcome {
  bool crashed = false;
  bool snapshot_durable = false;
  uint64_t appended = 0;
  uint64_t synced = 0;
};

/// The crash-prone workload: save the base snapshot, journal kEpochs
/// batches, rotate once in the middle. Every IO error is treated as the
/// process dying right there — in-memory state is abandoned and only the
/// files survive.
WorkloadOutcome RunWorkload(const std::string& snap_path,
                            const std::string& wal_path, uint64_t seed) {
  WorkloadOutcome out;
  SchemaPtr schema = Schema::Create();
  std::unique_ptr<Graph> g = BuildBase(schema, seed);
  if (!SaveSnapshotFile(GraphSnapshot(*g, GraphView::kNew), snap_path).ok()) {
    out.crashed = true;
    return out;
  }
  out.snapshot_durable = true;
  auto wal_or = UpdateLog::Create(wal_path, 0);
  if (!wal_or.ok()) {
    out.crashed = true;
    return out;
  }
  std::unique_ptr<UpdateLog> wal = std::move(*wal_or);
  for (int e = 1; e <= kEpochs; ++e) {
    const NodeId first_new = static_cast<NodeId>(g->NumNodes());
    UpdateBatch batch = NextBatch(g.get(), seed, e);
    EXPECT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok());  // in-memory
    const EpochRecord rec =
        EpochRecord::Capture(*g, batch, first_new, wal->last_epoch() + 1);
    if (!wal->Append(rec).ok()) {
      out.crashed = true;
      return out;
    }
    out.appended = static_cast<uint64_t>(e);
    if (!wal->Sync().ok()) {
      out.crashed = true;
      return out;
    }
    out.synced = static_cast<uint64_t>(e);
    g->Commit();
    if (e == kRotateAfter && !RotateState(*g, snap_path, &wal).ok()) {
      out.crashed = true;
      return out;
    }
  }
  return out;
}

/// The never-crashed oracle at epoch k: the same seeds replayed in
/// memory. Batch generation only depends on prior committed epochs, so
/// the crashed run saw these exact batches.
std::unique_ptr<Graph> OracleAt(uint64_t seed, uint64_t k,
                                SchemaPtr* schema_out = nullptr) {
  SchemaPtr schema = Schema::Create();
  std::unique_ptr<Graph> g = BuildBase(schema, seed);
  for (uint64_t e = 1; e <= k; ++e) {
    UpdateBatch batch = NextBatch(g.get(), seed, static_cast<int>(e));
    EXPECT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok());
    g->Commit();
  }
  if (schema_out != nullptr) *schema_out = schema;
  return g;
}

NgdSet SigmaFor(const Graph& base, uint64_t seed) {
  NgdGenOptions gen;
  gen.count = 5;
  gen.max_diameter = 2;
  gen.seed = seed + 17;
  gen.violation_rate = 0.5;
  return GenerateNgdSet(base, gen);
}

std::string VioBytes(const VioSet& vio, const NgdSet& sigma) {
  std::ostringstream os;
  for (const Violation& v : vio.Sorted()) {
    os << sigma[v.ngd_index].name() << ":";
    for (NodeId n : v.nodes) os << " " << n;
    os << "\n";
  }
  return os.str();
}

struct OracleState {
  uint64_t fingerprint = 0;
  std::string vio;
};

/// Checks one post-crash recovery against the oracle. `oracles` caches
/// per-epoch oracle states across sweep iterations.
void CheckRecovery(const std::string& snap_path, const std::string& wal_path,
                   uint64_t seed, const WorkloadOutcome& run,
                   const NgdSet& sigma,
                   std::map<uint64_t, OracleState>* oracles,
                   const std::string& what) {
  auto rec = RecoverState(snap_path, wal_path, Schema::Create());
  ASSERT_TRUE(rec.ok()) << what << ": " << rec.status().ToString();
  if (!run.snapshot_durable) {
    // The base snapshot never hit the disk; there is nothing to recover.
    EXPECT_FALSE(rec->snapshot_loaded) << what;
    EXPECT_EQ(rec->graph->NumNodes(), 0u) << what;
    return;
  }
  // The recovered epoch is a consistent boundary between the last synced
  // epoch (guaranteed durable) and the last appended one (bytes possibly
  // on disk when only the fsync failed).
  EXPECT_GE(rec->last_epoch, run.synced) << what;
  EXPECT_LE(rec->last_epoch, std::max(run.appended, run.synced)) << what;
  auto it = oracles->find(rec->last_epoch);
  if (it == oracles->end()) {
    std::unique_ptr<Graph> oracle = OracleAt(seed, rec->last_epoch);
    OracleState st;
    st.fingerprint = Fingerprint(*oracle);
    st.vio = VioBytes(Dect(*oracle, sigma), sigma);
    it = oracles->emplace(rec->last_epoch, std::move(st)).first;
  }
  EXPECT_EQ(Fingerprint(*rec->graph), it->second.fingerprint) << what;
  EXPECT_EQ(VioBytes(Dect(*rec->graph, sigma), sigma), it->second.vio)
      << what;
}

// ---- The kill-at-every-failpoint sweep ------------------------------------

TEST(RecoveryTest, KillAtEveryFailpointConvergesToTheOracle) {
  const std::string snap_path = TestPath("recovery_sweep.ngds");
  const std::string wal_path = TestPath("recovery_sweep.wal");
  const uint64_t seed = 31;

  // Clean instrumented run: counts the failpoint traversals to kill at.
  RemoveStateFiles(snap_path, wal_path);
  failpoint::Reset();
  failpoint::Enable(true);
  const WorkloadOutcome clean = RunWorkload(snap_path, wal_path, seed);
  const uint64_t total = failpoint::Traversals();
  failpoint::Reset();
  ASSERT_FALSE(clean.crashed);
  ASSERT_EQ(clean.synced, static_cast<uint64_t>(kEpochs));
  ASSERT_GT(total, 0u);

  SchemaPtr sigma_schema;
  std::unique_ptr<Graph> base = OracleAt(seed, 0, &sigma_schema);
  const NgdSet sigma = SigmaFor(*base, seed);
  ASSERT_FALSE(sigma.empty());

  std::map<uint64_t, OracleState> oracles;
  const failpoint::Mode kCrashModes[] = {
      failpoint::Mode::kShortWrite, failpoint::Mode::kTornWrite,
      failpoint::Mode::kEnospc, failpoint::Mode::kSyncFail};
  for (failpoint::Mode mode : kCrashModes) {
    for (uint64_t n = 1; n <= total; ++n) {
      RemoveStateFiles(snap_path, wal_path);
      failpoint::Reset();
      failpoint::ArmNth(mode, n);
      const WorkloadOutcome run = RunWorkload(snap_path, wal_path, seed);
      failpoint::Reset();
      ASSERT_TRUE(run.crashed)
          << failpoint::ModeName(mode) << " at traversal " << n
          << " did not fire";
      std::ostringstream what;
      what << failpoint::ModeName(mode) << " at traversal " << n;
      CheckRecovery(snap_path, wal_path, seed, run, sigma, &oracles,
                    what.str());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  RemoveStateFiles(snap_path, wal_path);
}

// ---- Per-site arming -------------------------------------------------------

// Every NGD_FAILPOINT site on the journal/snapshot path must be
// individually armable, surface its injected failure as a Status, and
// leave state recovery can converge from. ngdlint enforces that each
// site string is named by at least one test; this is that test for the
// durability sites (vioseg_write lives in vio_stream_test).
TEST(RecoveryTest, EveryDurabilitySiteFiresAndRecovers) {
  const std::string snap_path = TestPath("recovery_site.ngds");
  const std::string wal_path = TestPath("recovery_site.wal");
  const uint64_t seed = 7;

  SchemaPtr sigma_schema;
  std::unique_ptr<Graph> base = OracleAt(seed, 0, &sigma_schema);
  const NgdSet sigma = SigmaFor(*base, seed);

  std::map<uint64_t, OracleState> oracles;
  for (const char* site : {"snapshot_write", "wal_create", "wal_append",
                           "wal_sync", "rotate_snapshot"}) {
    RemoveStateFiles(snap_path, wal_path);
    failpoint::Reset();
    failpoint::ArmSite(site, failpoint::Mode::kEnospc);
    const WorkloadOutcome run = RunWorkload(snap_path, wal_path, seed);
    failpoint::Reset();
    ASSERT_TRUE(run.crashed)
        << "site " << site << " is not on the workload's path";
    CheckRecovery(snap_path, wal_path, seed, run, sigma, &oracles, site);
    if (::testing::Test::HasFatalFailure()) return;
  }
  RemoveStateFiles(snap_path, wal_path);
}

// ---- Randomized seeds and crash points ------------------------------------

TEST(RecoveryTest, RandomizedCrashesConvergeAcrossWorkloads) {
  const size_t cases = CaseCount();
  const failpoint::Mode kCrashModes[] = {
      failpoint::Mode::kShortWrite, failpoint::Mode::kTornWrite,
      failpoint::Mode::kEnospc, failpoint::Mode::kSyncFail};
  for (size_t c = 0; c < cases; ++c) {
    const uint64_t seed = 4000 + 13 * c;
    const std::string snap_path =
        TestPath("recovery_rand_" + std::to_string(c) + ".ngds");
    const std::string wal_path =
        TestPath("recovery_rand_" + std::to_string(c) + ".wal");

    RemoveStateFiles(snap_path, wal_path);
    failpoint::Reset();
    failpoint::Enable(true);
    const WorkloadOutcome clean = RunWorkload(snap_path, wal_path, seed);
    const uint64_t total = failpoint::Traversals();
    failpoint::Reset();
    ASSERT_FALSE(clean.crashed) << "case " << c;
    ASSERT_GT(total, 0u);

    std::unique_ptr<Graph> base = OracleAt(seed, 0);
    const NgdSet sigma = SigmaFor(*base, seed);

    std::map<uint64_t, OracleState> oracles;
    // A seed-derived crash point per mode, spread over the traversals.
    for (size_t m = 0; m < 4; ++m) {
      const uint64_t n = 1 + (seed * 7 + m * 5) % total;
      RemoveStateFiles(snap_path, wal_path);
      failpoint::Reset();
      failpoint::ArmNth(kCrashModes[m], n);
      const WorkloadOutcome run = RunWorkload(snap_path, wal_path, seed);
      failpoint::Reset();
      ASSERT_TRUE(run.crashed) << "case " << c << " mode " << m;
      std::ostringstream what;
      what << "case " << c << ": " << failpoint::ModeName(kCrashModes[m])
           << " at traversal " << n;
      CheckRecovery(snap_path, wal_path, seed, run, sigma, &oracles,
                    what.str());
      if (::testing::Test::HasFatalFailure()) return;
    }
    RemoveStateFiles(snap_path, wal_path);
  }
}

// ---- Double faults: crash during recovery's own repair --------------------

TEST(RecoveryTest, RecoveryAfterTornTailRepairCrashIsStillConsistent) {
  // Open() repairs a torn tail by ftruncate. If the process dies right
  // after the repair (or the repair itself is interrupted before the
  // truncate), the NEXT recovery sees either the torn file again or the
  // repaired one — both converge. Simulate by recovering twice.
  const std::string snap_path = TestPath("recovery_double.ngds");
  const std::string wal_path = TestPath("recovery_double.wal");
  const uint64_t seed = 77;
  RemoveStateFiles(snap_path, wal_path);

  failpoint::Reset();
  // Torn write on the very last append of the workload.
  failpoint::ArmSite("wal_append", failpoint::Mode::kTornWrite,
                     /*skip=*/kEpochs - 1);
  const WorkloadOutcome run = RunWorkload(snap_path, wal_path, seed);
  failpoint::Reset();
  ASSERT_TRUE(run.crashed);
  ASSERT_EQ(run.synced, static_cast<uint64_t>(kEpochs - 1));

  auto first = RecoverState(snap_path, wal_path, Schema::Create());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RecoverState(snap_path, wal_path, Schema::Create());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->last_epoch, second->last_epoch);
  EXPECT_EQ(Fingerprint(*first->graph), Fingerprint(*second->graph));
  EXPECT_EQ(first->last_epoch, static_cast<uint64_t>(kEpochs - 1));
  RemoveStateFiles(snap_path, wal_path);
}

}  // namespace
}  // namespace ngd
