// Deadline and cancellation plumbing across all four detection engines
// (util/cancel.h threaded through Dect/IncDect/PDect/PIncDect).
//
// Graceful-degradation contract:
//   * a cancelled or deadlined run returns promptly with `truncated` set
//     and per-rule completion marks (DetectRunInfo);
//   * whatever it returns is a SUBSET of the full run's violations —
//     partial, never wrong;
//   * an untruncated run marks every rule complete;
//   * on the hub workload (quadratic per-hub enumeration, the worst case
//     for bounded response), a deadlined run returns within 2x the
//     requested deadline.
//
// The deterministic tests use a pre-cancelled token (checked on every
// step); the timing test uses a real deadline and skips itself on
// machines fast enough to finish inside it.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "graph/graph.h"
#include "graph/updates.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"
#include "util/cancel.h"

namespace ngd {
namespace {

using testing_util::MustParse;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::set<std::string> VioLines(const VioSet& vio, const NgdSet& sigma) {
  std::set<std::string> lines;
  for (const Violation& v : vio.Sorted()) {
    std::ostringstream os;
    os << sigma[v.ngd_index].name() << ":";
    for (NodeId n : v.nodes) os << " " << n;
    lines.insert(os.str());
  }
  return lines;
}

/// The failure message of a timed leg that overran its bound: enough to
/// tell from the log alone how far past the deadline the run went, how
/// much it emitted against the full run, whether it saw the stop, and,
/// for a parallel leg, how its workers spent the time.
std::string OverrunReport(int64_t deadline_ms, double elapsed_s,
                          size_t records, size_t full_records,
                          bool truncated,
                          const ClusterMetricsSnapshot* metrics = nullptr) {
  std::ostringstream os;
  os << "deadline " << deadline_ms << " ms, elapsed " << elapsed_s * 1000.0
     << " ms, records " << records << " of " << full_records
     << " in the full run, truncated " << std::boolalpha << truncated;
  if (metrics != nullptr) {
    os << ", work_units " << metrics->work_units << ", steals "
       << metrics->steals << ", inline_runs " << metrics->inline_runs;
  }
  return os.str();
}

/// Every violation of `part` must appear in `full` — partial, never wrong.
void ExpectSubset(const VioSet& part, const VioSet& full, const NgdSet& sigma,
                  const std::string& what) {
  const std::set<std::string> full_lines = VioLines(full, sigma);
  for (const std::string& line : VioLines(part, sigma)) {
    EXPECT_TRUE(full_lines.count(line) > 0)
        << what << ": truncated run reported a violation the full run "
        << "did not: " << line;
  }
}

/// The hub workload: `hubs` star centers, each with `spokes` integer
/// spokes over one edge label. The rule enumerates ordered spoke pairs
/// per hub — Theta(spokes^2) matches per hub, nearly all violating — so
/// full detection is slow while any prefix of it is valid output.
constexpr const char* kHubRule = R"(
ngd hubpairs {
  match (x:hub)-[m]->(a:integer), (x)-[m]->(b:integer)
  where a.val < b.val
  then b.val - a.val >= 1000000
}
)";

struct HubWorkload {
  SchemaPtr schema;
  std::unique_ptr<Graph> graph;
  NgdSet sigma;
  std::vector<NodeId> hubs;
  std::vector<NodeId> spokes;  // all spokes, hub-major
};

HubWorkload BuildHubWorkload(size_t hubs, size_t spokes) {
  HubWorkload w;
  w.schema = Schema::Create();
  w.graph = std::make_unique<Graph>(w.schema);
  for (size_t h = 0; h < hubs; ++h) {
    const NodeId hub = w.graph->AddNode("hub");
    w.hubs.push_back(hub);
    for (size_t s = 0; s < spokes; ++s) {
      const NodeId v = w.graph->AddNode("integer");
      w.graph->SetAttr(
          v, "val", Value(static_cast<int64_t>((h * 131 + s * 7) % 1999)));
      EXPECT_TRUE(w.graph->AddEdge(hub, v, "m").ok());
      w.spokes.push_back(v);
    }
  }
  w.sigma = MustParse(kHubRule, w.schema);
  EXPECT_EQ(w.sigma.size(), 1u);
  return w;
}

/// A batch wiring each hub to a few spokes of the next hub: every insert
/// is an update pivot whose expansion scans the whole adjacency of its
/// hub.
UpdateBatch CrossHubBatch(const HubWorkload& w, size_t per_hub) {
  UpdateBatch batch;
  const LabelId m = *w.schema->labels().Find("m");
  const size_t spokes = w.spokes.size() / w.hubs.size();
  for (size_t h = 0; h < w.hubs.size(); ++h) {
    const size_t other = (h + 1) % w.hubs.size();
    for (size_t k = 0; k < per_hub && k < spokes; ++k) {
      batch.updates.push_back(UnitUpdate{
          UpdateKind::kInsert, w.hubs[h], w.spokes[other * spokes + k], m});
    }
  }
  return batch;
}

// ---- Deterministic cancellation (pre-cancelled token) ---------------------

TEST(CancelTest, PreCancelledTokenTruncatesBatchEngines) {
  HubWorkload w = BuildHubWorkload(3, 60);
  const VioSet full = Dect(*w.graph, w.sigma);
  ASSERT_GT(full.Sorted().size(), 0u);

  CancelToken token;
  token.Cancel();

  DectOptions dopts;
  DetectRunInfo info;
  dopts.cancel = &token;
  dopts.run_info = &info;
  const VioSet vio = Dect(*w.graph, w.sigma, dopts);
  EXPECT_TRUE(info.truncated);
  ASSERT_EQ(info.rule_completed.size(), w.sigma.size());
  EXPECT_EQ(info.rule_completed[0], 0);
  ExpectSubset(vio, full, w.sigma, "Dect");
  EXPECT_LT(vio.Sorted().size(), full.Sorted().size());

  PDectOptions popts;
  popts.num_processors = 3;
  DetectRunInfo pinfo;
  popts.cancel = &token;
  popts.run_info = &pinfo;
  const PDectResult pres = PDect(*w.graph, w.sigma, popts);
  EXPECT_TRUE(pres.truncated);
  EXPECT_TRUE(pinfo.truncated);
  ASSERT_EQ(pinfo.rule_completed.size(), w.sigma.size());
  EXPECT_EQ(pinfo.rule_completed[0], 0);
  ExpectSubset(pres.vio, full, w.sigma, "PDect");
  EXPECT_LT(pres.vio.Sorted().size(), full.Sorted().size());
}

TEST(CancelTest, PreCancelledTokenTruncatesIncrementalEngines) {
  HubWorkload w = BuildHubWorkload(3, 60);
  UpdateBatch batch = CrossHubBatch(w, 8);
  ASSERT_TRUE(ApplyUpdateBatch(w.graph.get(), &batch).ok());
  ASSERT_GT(batch.size(), 0u);

  IncDectOptions base_opts;
  auto full = IncDect(*w.graph, w.sigma, batch, base_opts);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GT(full->added.Sorted().size(), 0u);

  CancelToken token;
  token.Cancel();

  IncDectOptions iopts;
  DetectRunInfo info;
  iopts.cancel = &token;
  iopts.run_info = &info;
  auto delta = IncDect(*w.graph, w.sigma, batch, iopts);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_TRUE(info.truncated);
  ASSERT_EQ(info.rule_completed.size(), w.sigma.size());
  EXPECT_EQ(info.rule_completed[0], 0);
  ExpectSubset(delta->added, full->added, w.sigma, "IncDect added");
  ExpectSubset(delta->removed, full->removed, w.sigma, "IncDect removed");

  PIncDectOptions piopts;
  piopts.num_processors = 3;
  DetectRunInfo pinfo;
  piopts.cancel = &token;
  piopts.run_info = &pinfo;
  auto pdelta = PIncDect(*w.graph, w.sigma, batch, piopts);
  ASSERT_TRUE(pdelta.ok()) << pdelta.status().ToString();
  EXPECT_TRUE(pdelta->truncated);
  EXPECT_TRUE(pinfo.truncated);
  ASSERT_EQ(pinfo.rule_completed.size(), w.sigma.size());
  EXPECT_EQ(pinfo.rule_completed[0], 0);
  ExpectSubset(pdelta->delta.added, full->added, w.sigma, "PIncDect added");
  ExpectSubset(pdelta->delta.removed, full->removed, w.sigma,
               "PIncDect removed");
  w.graph->Rollback();
}

TEST(CancelTest, UntruncatedRunsMarkEveryRuleComplete) {
  HubWorkload w = BuildHubWorkload(2, 25);

  DectOptions dopts;
  DetectRunInfo info;
  dopts.run_info = &info;
  (void)Dect(*w.graph, w.sigma, dopts);
  EXPECT_FALSE(info.truncated);
  ASSERT_EQ(info.rule_completed.size(), w.sigma.size());
  EXPECT_EQ(info.rule_completed[0], 1);

  // A token that never fires behaves exactly like no token.
  CancelToken idle;
  DectOptions copts;
  DetectRunInfo cinfo;
  copts.cancel = &idle;
  copts.run_info = &cinfo;
  const VioSet with_token = Dect(*w.graph, w.sigma, copts);
  EXPECT_FALSE(cinfo.truncated);
  EXPECT_EQ(VioLines(with_token, w.sigma),
            VioLines(Dect(*w.graph, w.sigma), w.sigma));

  PDectOptions popts;
  popts.num_processors = 3;
  DetectRunInfo pinfo;
  popts.run_info = &pinfo;
  const PDectResult pres = PDect(*w.graph, w.sigma, popts);
  EXPECT_FALSE(pres.truncated);
  EXPECT_FALSE(pinfo.truncated);
  ASSERT_EQ(pinfo.rule_completed.size(), w.sigma.size());
  EXPECT_EQ(pinfo.rule_completed[0], 1);

  UpdateBatch batch = CrossHubBatch(w, 4);
  ASSERT_TRUE(ApplyUpdateBatch(w.graph.get(), &batch).ok());
  IncDectOptions iopts;
  DetectRunInfo iinfo;
  iopts.run_info = &iinfo;
  auto delta = IncDect(*w.graph, w.sigma, batch, iopts);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(iinfo.truncated);
  EXPECT_EQ(iinfo.rule_completed[0], 1);

  PIncDectOptions piopts;
  piopts.num_processors = 3;
  DetectRunInfo piinfo;
  piopts.run_info = &piinfo;
  auto pdelta = PIncDect(*w.graph, w.sigma, batch, piopts);
  ASSERT_TRUE(pdelta.ok());
  EXPECT_FALSE(pdelta->truncated);
  EXPECT_FALSE(piinfo.truncated);
  EXPECT_EQ(piinfo.rule_completed[0], 1);
  w.graph->Rollback();
}

// ---- Deadline-bounded response on the hub workload ------------------------

// The timed tests' hub size. Sanitizer builds (CMake's NGD_SANITIZE, seen
// here as NGD_SANITIZED_BUILD) run the untimed full reference run tens of
// times slower, so they use a smaller hub whose full run still clears the
// 3x-deadline guard under TSan; every other build runs the full size.
#ifdef NGD_SANITIZED_BUILD
constexpr size_t kTimedSpokes = 150;
constexpr size_t kTimedCrossPerHub = 40;
#else
constexpr size_t kTimedSpokes = 600;
constexpr size_t kTimedCrossPerHub = 150;
#endif

TEST(DeadlineTest, HubWorkloadRespondsWithinTwiceTheDeadline) {
  // Quadratic enumeration: 6 hubs x 600 spokes ~ 2.2M ordered pairs
  // (~135k at the sanitizer size of 150 spokes).
  HubWorkload w = BuildHubWorkload(6, kTimedSpokes);

  const auto full_start = std::chrono::steady_clock::now();
  const VioSet full = Dect(*w.graph, w.sigma);
  const double full_s = Seconds(full_start);
  ASSERT_GT(full.Sorted().size(), 0u);
  // A fifth of the full run, floored at 50ms so the clock-polling stride
  // has room to fire: adapts to the machine instead of hardcoding speed.
  const int64_t kDeadlineMs =
      std::max<int64_t>(50, static_cast<int64_t>(full_s * 1000.0 / 5.0));
  const double kBound = 2.0 * kDeadlineMs / 1000.0;
  if (full_s < 3.0 * kDeadlineMs / 1000.0) {
    GTEST_SKIP() << "full run took " << full_s
                 << "s — too fast to observe a " << kDeadlineMs
                 << "ms deadline truncating";
  }

  {
    DectOptions dopts;
    DetectRunInfo info;
    dopts.deadline = Deadline::After(kDeadlineMs);
    dopts.run_info = &info;
    const auto start = std::chrono::steady_clock::now();
    const VioSet vio = Dect(*w.graph, w.sigma, dopts);
    const double elapsed = Seconds(start);
    EXPECT_LE(elapsed, kBound)
        << "Dect overran its deadline: "
        << OverrunReport(kDeadlineMs, elapsed, vio.size(), full.size(),
                         info.truncated);
    EXPECT_TRUE(info.truncated);
    ExpectSubset(vio, full, w.sigma, "Dect deadline");
  }

  {
    PDectOptions popts;
    popts.num_processors = 4;
    DetectRunInfo info;
    popts.deadline = Deadline::After(kDeadlineMs);
    popts.run_info = &info;
    const auto start = std::chrono::steady_clock::now();
    const PDectResult pres = PDect(*w.graph, w.sigma, popts);
    const double elapsed = Seconds(start);
    EXPECT_LE(elapsed, kBound)
        << "PDect overran its deadline: "
        << OverrunReport(kDeadlineMs, elapsed, pres.vio.size(), full.size(),
                         pres.truncated, &pres.metrics);
    // With 4 workers the deadline (sized off the sequential run) may not
    // fire; then the result must be the complete one.
    EXPECT_EQ(pres.truncated, info.truncated);
    if (pres.truncated) {
      ExpectSubset(pres.vio, full, w.sigma, "PDect deadline");
    } else {
      EXPECT_EQ(VioLines(pres.vio, w.sigma), VioLines(full, w.sigma));
    }
  }
}

TEST(DeadlineTest, IncrementalHubWorkloadRespondsWithinTwiceTheDeadline) {
  HubWorkload w = BuildHubWorkload(6, kTimedSpokes);
  UpdateBatch batch = CrossHubBatch(w, kTimedCrossPerHub);
  ASSERT_TRUE(ApplyUpdateBatch(w.graph.get(), &batch).ok());

  IncDectOptions base_opts;
  const auto full_start = std::chrono::steady_clock::now();
  auto full = IncDect(*w.graph, w.sigma, batch, base_opts);
  const double full_s = Seconds(full_start);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const int64_t kDeadlineMs =
      std::max<int64_t>(50, static_cast<int64_t>(full_s * 1000.0 / 5.0));
  const double kBound = 2.0 * kDeadlineMs / 1000.0;
  if (full_s < 3.0 * kDeadlineMs / 1000.0) {
    GTEST_SKIP() << "full incremental run took " << full_s
                 << "s — too fast to observe a " << kDeadlineMs
                 << "ms deadline truncating";
  }

  {
    IncDectOptions iopts;
    DetectRunInfo info;
    iopts.deadline = Deadline::After(kDeadlineMs);
    iopts.run_info = &info;
    const auto start = std::chrono::steady_clock::now();
    auto delta = IncDect(*w.graph, w.sigma, batch, iopts);
    const double elapsed = Seconds(start);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    EXPECT_LE(elapsed, kBound)
        << "IncDect overran its deadline: "
        << OverrunReport(kDeadlineMs, elapsed,
                         delta->added.size() + delta->removed.size(),
                         full->added.size() + full->removed.size(),
                         info.truncated);
    EXPECT_TRUE(info.truncated);
    ExpectSubset(delta->added, full->added, w.sigma, "IncDect deadline");
  }

  {
    PIncDectOptions piopts;
    piopts.num_processors = 4;
    DetectRunInfo info;
    piopts.deadline = Deadline::After(kDeadlineMs);
    piopts.run_info = &info;
    const auto start = std::chrono::steady_clock::now();
    auto pdelta = PIncDect(*w.graph, w.sigma, batch, piopts);
    const double elapsed = Seconds(start);
    ASSERT_TRUE(pdelta.ok()) << pdelta.status().ToString();
    EXPECT_LE(elapsed, kBound)
        << "PIncDect overran its deadline: "
        << OverrunReport(
               kDeadlineMs, elapsed,
               pdelta->delta.added.size() + pdelta->delta.removed.size(),
               full->added.size() + full->removed.size(), pdelta->truncated,
               &pdelta->metrics);
    // As above: 4 workers may beat the sequentially-sized deadline.
    EXPECT_EQ(pdelta->truncated, info.truncated);
    if (pdelta->truncated) {
      ExpectSubset(pdelta->delta.added, full->added, w.sigma,
                   "PIncDect deadline");
    } else {
      EXPECT_EQ(VioLines(pdelta->delta.added, w.sigma),
                VioLines(full->added, w.sigma));
    }
  }
  w.graph->Rollback();
}

// ---- RemapRunInfo: completion through the implication cover --------------
//
// Under Σ-minimization a truncated run must still report honest per-rule
// marks for the DROPPED rules: a dropped rule's violations are covered by
// the rules that implied it, so its report is complete exactly when every
// (transitive) implier finished enumerating — not only when the whole
// minimized run did.

OptimizeReport MakeReport(std::vector<int> kept, std::vector<int> dropped,
                          std::vector<std::vector<int>> implied_by) {
  OptimizeReport r;
  r.kept = std::move(kept);
  r.dropped = std::move(dropped);
  r.implied_by = std::move(implied_by);
  return r;
}

TEST(RemapRunInfoTest, DroppedRuleCompleteWhenImplierCompleted) {
  // Σ = {0,1,2}; 1 and 2 dropped, implied in a chain 2 <- 1 <- 0. The
  // minimized run (just rule 0) was truncated AFTER finishing rule 0 —
  // impossible for a single-rule sweep in practice, so model the
  // interesting shape with two kept rules below; here rule 0 completed.
  const OptimizeReport report =
      MakeReport({0}, {1, 2}, {{}, {0}, {1}});
  DetectRunInfo inner;
  inner.truncated = true;
  inner.rule_completed = {1};
  DetectRunInfo out;
  RemapRunInfo(inner, report, 3, &out);
  EXPECT_TRUE(out.truncated);
  ASSERT_EQ(out.rule_completed.size(), 3u);
  // Rule 0 finished, so the chain of rules it implies is fully covered
  // despite the truncation.
  EXPECT_EQ(out.rule_completed[0], 1);
  EXPECT_EQ(out.rule_completed[1], 1);
  EXPECT_EQ(out.rule_completed[2], 1);
}

TEST(RemapRunInfoTest, DroppedRuleIncompleteWhenAnyImplierTruncated) {
  // Σ = {0..4}; kept {0,3}, dropped {1,2,4}. The truncated run finished
  // rule 0 but not rule 3. 1 (implied by 0) is complete; 2 (implied by
  // 3) and 4 (implied by both) are not.
  const OptimizeReport report =
      MakeReport({0, 3}, {1, 2, 4}, {{}, {0}, {3}, {}, {0, 3}});
  DetectRunInfo inner;
  inner.truncated = true;
  inner.rule_completed = {1, 0};
  DetectRunInfo out;
  RemapRunInfo(inner, report, 5, &out);
  EXPECT_TRUE(out.truncated);
  ASSERT_EQ(out.rule_completed.size(), 5u);
  EXPECT_EQ(out.rule_completed[0], 1);
  EXPECT_EQ(out.rule_completed[1], 1);
  EXPECT_EQ(out.rule_completed[2], 0);
  EXPECT_EQ(out.rule_completed[3], 0);
  EXPECT_EQ(out.rule_completed[4], 0);
}

TEST(RemapRunInfoTest, TransitiveChainResolvesThroughDroppedImpliers) {
  // 3 implied by 2, 2 implied by 1, 1 implied by 0 (kept). Completion of
  // 0 must propagate down the whole chain; incompletion likewise.
  const OptimizeReport report =
      MakeReport({0}, {1, 2, 3}, {{}, {0}, {1}, {2}});
  for (const int completed : {0, 1}) {
    DetectRunInfo inner;
    inner.truncated = true;
    inner.rule_completed = {static_cast<char>(completed)};
    DetectRunInfo out;
    RemapRunInfo(inner, report, 4, &out);
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(out.rule_completed[r], completed) << "rule " << r;
    }
  }
}

TEST(RemapRunInfoTest, MinimizeSigmaRecordsResolvableCover) {
  // End-to-end: a catalog with an exact duplicate must come back with an
  // implication-cover edge from the duplicate to the first copy, and
  // every dropped rule's cover must resolve transitively to kept rules.
  SchemaPtr schema = Schema::Create();
  NgdSet sigma = MustParse(std::string(testing_util::kPhi1) +
                               testing_util::kPhi2 + testing_util::kPhi1,
                           schema);
  ASSERT_EQ(sigma.size(), 3u);
  const MinimizedSigma m = MinimizeSigma(sigma, schema);
  ASSERT_EQ(m.report.implied_by.size(), 3u);
  ASSERT_FALSE(m.report.dropped.empty());
  for (const int d : m.report.dropped) {
    // Resolve the cover transitively; it must terminate in kept rules.
    std::vector<int> frontier = m.report.implied_by[static_cast<size_t>(d)];
    ASSERT_FALSE(frontier.empty()) << "dropped rule " << d << " has no cover";
    for (size_t guard = 0; !frontier.empty() && guard < 16; ++guard) {
      std::vector<int> next;
      for (const int j : frontier) {
        ASSERT_GE(j, 0);
        ASSERT_LT(static_cast<size_t>(j), sigma.size());
        ASSERT_NE(j, d) << "self-implication edge";
        if (std::find(m.report.kept.begin(), m.report.kept.end(), j) ==
            m.report.kept.end()) {
          const auto& up = m.report.implied_by[static_cast<size_t>(j)];
          ASSERT_FALSE(up.empty()) << "dangling cover at rule " << j;
          next.insert(next.end(), up.begin(), up.end());
        }
      }
      frontier = std::move(next);
    }
    EXPECT_TRUE(frontier.empty()) << "cover of rule " << d
                                  << " did not resolve to kept rules";
  }
  // The duplicate copy (index 2) is implied by the first copy (index 0).
  ASSERT_EQ(m.report.implied_by[2].size(), 1u);
  EXPECT_EQ(m.report.implied_by[2][0], 0);
}

}  // namespace
}  // namespace ngd
