// Differential lockdown for the Σ-optimizer (reason/sigma_optimizer.h),
// PR 3 style: over randomized clean/dirty (graph, Σ) workloads — the same
// space the incremental differential harness sweeps, inflated with
// implied variants so minimization actually drops rules — assert against
// all four detection engines that
//
//   (a) Dect(G, Σ).empty() == Dect(G, Min(Σ)).empty(), and every
//       violation h of a dropped rule is covered by the kept rules: the
//       subgraph of G induced by h's image violates some kept rule
//       (CoveredByKept — the soundness claim of the greedy implication
//       cover, probed violation by violation on concrete graphs rather
//       than canonical models), and
//   (b) kept-rule violations are preserved EXACTLY: detection with
//       minimize_sigma on equals the full-Σ result filtered to kept rules,
//       element for element, for Dect/PDect (Vio) and IncDect/PIncDect
//       (ΔVio+ and ΔVio- separately).
//
// Each seed derives its workload deterministically; a failure reproduces
// from the printed seed alone:
//
//   NGD_DIFF_SEED=<seed> ctest -R sigma_optimizer
//
// Case count: 600 by default (the acceptance floor is 500 per engine;
// every case exercises all four engines); NGD_SIGMA_CASES overrides —
// the sanitizer CI job runs a reduced sweep, same convention as
// NGD_DIFF_CASES for the incremental harness.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "reason/sigma_optimizer.h"
#include "test_util.h"

namespace ngd {
namespace {

size_t CaseCount() { return testing_util::EnvCount("NGD_SIGMA_CASES", 600); }

std::string Describe(const VioSet& set, const NgdSet& sigma) {
  std::ostringstream os;
  size_t shown = 0;
  for (const Violation& v : set.Sorted()) {
    if (++shown > 8) {
      os << "  ... (" << set.size() << " total)\n";
      break;
    }
    os << "  " << sigma[v.ngd_index].name() << " h=(";
    for (size_t i = 0; i < v.nodes.size(); ++i) {
      os << (i > 0 ? "," : "") << v.nodes[i];
    }
    os << ")\n";
  }
  return os.str();
}

void ExpectSameVioSet(const VioSet& want, const VioSet& got,
                      const NgdSet& sigma, const std::string& what,
                      const std::string& repro) {
  VioSet missing, spurious;
  for (const Violation& v : want.items()) {
    if (!got.Contains(v)) missing.Add(v);
  }
  for (const Violation& v : got.items()) {
    if (!want.Contains(v)) spurious.Add(v);
  }
  EXPECT_TRUE(missing.empty() && spurious.empty())
      << what << " mismatch (" << repro << ")\nmissing:\n"
      << Describe(missing, sigma) << "spurious:\n"
      << Describe(spurious, sigma);
}

/// Violations of the full-Σ run whose rule survived minimization — what
/// a minimized run must reproduce exactly.
VioSet FilterToKept(const VioSet& full, const std::vector<int>& kept) {
  std::unordered_set<int> keep(kept.begin(), kept.end());
  VioSet out;
  for (const Violation& v : full.items()) {
    if (keep.count(v.ngd_index) > 0) out.Add(v);
  }
  return out;
}

/// The definition of implication as the oracle (Gebser et al.,
/// arXiv:1007.0134): if the kept rules imply a dropped rule φ and h is a
/// violation of φ in G, the subgraph of G induced by h's image violates φ
/// too, so it must violate some kept rule. Builds that subgraph — h's
/// nodes with their labels and attributes, and G's edges among them —
/// and reports whether Dect with the kept rules finds a violation on it.
bool CoveredByKept(const Graph& g, const Violation& h, const NgdSet& kept) {
  Graph sub(g.schema());
  std::unordered_map<NodeId, NodeId> local;
  std::vector<std::pair<NodeId, NodeId>> image;  // (node of G, node of sub)
  for (NodeId v : h.nodes) {
    if (local.count(v) > 0) continue;
    const NodeId u = sub.AddNode(g.NodeLabel(v));
    for (const auto& [attr, value] : g.Attrs(v)) sub.SetAttr(u, attr, value);
    local.emplace(v, u);
    image.emplace_back(v, u);
  }
  for (const auto& [v, u] : image) {
    for (const AdjEntry& e : g.OutEdges(v)) {
      if (!EdgeInView(e.state, GraphView::kNew)) continue;
      const auto it = local.find(e.other);
      if (it != local.end()) {
        testing_util::MustEdge(sub.AddEdge(u, it->second, e.label));
      }
    }
  }
  return !Dect(sub, kept).empty();
}

struct CaseOutcome {
  bool ran = false;
  bool dropped_any = false;
  bool graph_dirty = false;
};

CaseOutcome RunCase(uint64_t seed) {
  // Distinct stream constant from the incremental harness, so the two
  // sweeps cover different corners of the shared workload space.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  const bool clean = rng.Bernoulli(0.4);
  testing_util::RandomWorkload w = testing_util::MakeRandomWorkload(
      seed, &rng, /*rule_count=*/4,
      /*violation_rate=*/clean ? 0.0 : 0.3);
  if (w.sigma.empty() || !ValidateForIncremental(w.sigma).ok()) return {};

  InflateOptions inf;
  inf.variants_per_rule = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
  inf.duplicate_fraction = 0.3;
  inf.seed = seed + 3;
  const NgdSet sigma = InflateWithImpliedVariants(w.sigma, inf);
  Graph& g = *w.graph;

  std::ostringstream repro_os;
  repro_os << "repro: NGD_DIFF_SEED=" << seed << " (nodes=" << w.nodes
           << " edges=" << w.edges << " |sigma|=" << sigma.size()
           << (clean ? " clean" : " dirty") << ")";
  const std::string repro = repro_os.str();

  // ---- Optimizer invariants (report shape) -------------------------------
  const MinimizedSigma m = MinimizeSigma(sigma, w.schema);
  EXPECT_EQ(m.report.kept.size() + m.report.dropped.size(), sigma.size())
      << repro;
  EXPECT_EQ(m.sigma.size(), m.report.kept.size()) << repro;
  if (m.sigma.size() != m.report.kept.size()) return {};
  for (size_t k = 0; k < m.report.kept.size(); ++k) {
    if (k > 0) {
      EXPECT_LT(m.report.kept[k - 1], m.report.kept[k]) << repro;
    }
    // Kept rules are copied verbatim, in original relative order.
    EXPECT_EQ(m.sigma[k].name(),
              sigma[static_cast<size_t>(m.report.kept[k])].name())
        << repro;
  }
  // The same Σ resolved through the engine path must agree with the
  // direct call (and, second time around, with the cache).
  MinimizedSigma via_engine;
  if (ResolveMinimizedSigma(sigma, w.schema, MinimizeMode::kAlways, {},
                            &via_engine)) {
    EXPECT_EQ(via_engine.report.kept, m.report.kept) << repro;
  } else {
    EXPECT_TRUE(m.report.dropped.empty()) << repro;
  }

  DectOptions min_opts;
  min_opts.minimize_sigma = MinimizeMode::kAlways;

  // ---- Batch: Dect ---------------------------------------------------------
  const VioSet full = Dect(g, sigma);
  const VioSet minimized = Dect(g, sigma, min_opts);
  ExpectSameVioSet(FilterToKept(full, m.report.kept), minimized, sigma,
                   "Dect kept-rule violations", repro);
  EXPECT_EQ(full.empty(), minimized.empty())
      << "Dect emptiness diverged under minimization (" << repro << ")\n"
      << "full-sigma violations:\n"
      << Describe(full, sigma) << "minimized-run violations:\n"
      << Describe(minimized, sigma);

  const std::unordered_set<int> dropped(m.report.dropped.begin(),
                                        m.report.dropped.end());
  for (const Violation& v : full.items()) {
    if (dropped.count(v.ngd_index) == 0) continue;
    EXPECT_TRUE(CoveredByKept(g, v, m.sigma))
        << "no kept rule covers a violation of dropped rule "
        << sigma[v.ngd_index].name() << " (" << repro << ")";
  }

  // ---- Batch: PDect ------------------------------------------------------
  PDectOptions popts;
  popts.num_processors = static_cast<int>(rng.UniformInt(2, 4));
  const VioSet pfull = PDect(g, sigma, popts).vio;
  PDectOptions pmin = popts;
  pmin.minimize_sigma = MinimizeMode::kAlways;
  const VioSet pminimized = PDect(g, sigma, pmin).vio;
  ExpectSameVioSet(FilterToKept(pfull, m.report.kept), pminimized, sigma,
                   "PDect kept-rule violations", repro);
  EXPECT_EQ(pfull.empty(), pminimized.empty())
      << "PDect emptiness diverged (" << repro << ")";

  // ---- Incremental: IncDect + PIncDect -----------------------------------
  UpdateGenOptions up;
  up.fraction = rng.Bernoulli(0.5) ? 0.1 : 0.25;
  up.insert_fraction = 0.25 * static_cast<double>(rng.UniformInt(0, 4));
  up.new_node_prob = rng.Bernoulli(0.3) ? 0.2 : 0.0;
  up.seed = seed + 2;
  UpdateBatch batch = GenerateUpdateBatch(w.graph.get(), up);
  EXPECT_TRUE(ApplyUpdateBatch(w.graph.get(), &batch).ok()) << repro;

  auto oracle = IncDect(g, sigma, batch);
  EXPECT_TRUE(oracle.ok()) << repro << ": " << oracle.status().ToString();
  if (!oracle.ok()) return {};
  IncDectOptions imin;
  imin.minimize_sigma = MinimizeMode::kAlways;
  auto inc_min = IncDect(g, sigma, batch, imin);
  EXPECT_TRUE(inc_min.ok()) << repro << ": " << inc_min.status().ToString();
  if (!inc_min.ok()) return {};
  ExpectSameVioSet(FilterToKept(oracle->added, m.report.kept), inc_min->added,
                   sigma, "IncDect kept-rule dVio+", repro);
  ExpectSameVioSet(FilterToKept(oracle->removed, m.report.kept),
                   inc_min->removed, sigma, "IncDect kept-rule dVio-", repro);

  PIncDectOptions pi;
  pi.num_processors = popts.num_processors;
  pi.balance_interval_ms = 1;
  auto poracle = PIncDect(g, sigma, batch, pi);
  EXPECT_TRUE(poracle.ok()) << repro << ": " << poracle.status().ToString();
  if (!poracle.ok()) return {};
  PIncDectOptions pimin = pi;
  pimin.minimize_sigma = MinimizeMode::kAlways;
  auto pinc_min = PIncDect(g, sigma, batch, pimin);
  EXPECT_TRUE(pinc_min.ok()) << repro << ": "
                             << pinc_min.status().ToString();
  if (!pinc_min.ok()) return {};
  ExpectSameVioSet(FilterToKept(poracle->delta.added, m.report.kept),
                   pinc_min->delta.added, sigma, "PIncDect kept-rule dVio+",
                   repro);
  ExpectSameVioSet(FilterToKept(poracle->delta.removed, m.report.kept),
                   pinc_min->delta.removed, sigma, "PIncDect kept-rule dVio-",
                   repro);

  CaseOutcome outcome;
  outcome.ran = true;
  outcome.dropped_any = !m.report.dropped.empty();
  outcome.graph_dirty = !full.empty();
  return outcome;
}

TEST(SigmaOptimizerDifferentialTest, AllEnginesAgreeUnderMinimization) {
  if (const auto pinned = testing_util::EnvSeed("NGD_DIFF_SEED")) {
    RunCase(*pinned);
    return;
  }
  const size_t cases = CaseCount();
  size_t ran = 0, with_drops = 0, dirty = 0;
  for (uint64_t seed = 1; seed <= cases; ++seed) {
    CaseOutcome o = RunCase(seed);
    if (HasFailure()) {
      FAIL() << "first failing case: NGD_DIFF_SEED=" << seed;
    }
    ran += o.ran ? 1 : 0;
    with_drops += o.dropped_any ? 1 : 0;
    dirty += o.graph_dirty ? 1 : 0;
  }
  // The sweep must bite: most cases run, the optimizer drops rules in a
  // solid majority (the inflated variants are there to be dropped), and
  // both clean and dirty graphs appear.
  EXPECT_GT(ran, cases * 8 / 10);
  EXPECT_GT(with_drops, cases / 2);
  EXPECT_GT(dirty, cases / 10);
  EXPECT_LT(dirty, ran);
}

// The scale leg: a reduced-scale copy of the benchmark's sparse Σ, built
// as its `batch_sparse_par` workload builds it (50 generated rules on a
// YAGO2-like graph, each inflated with 3 implied variants, 200 rules in
// all), minimized once. Every violation of every dropped rule must be
// covered by the kept rules, and the kept rules' violations must come
// through minimized detection exactly.
TEST(SigmaOptimizerScaleTest, SparseBenchmarkSigmaDropsOnlyCoveredRules) {
#ifdef NGD_SANITIZED_BUILD
  constexpr double kGraphScale = 0.0005;
  constexpr size_t kRules = 20;
#else
  constexpr double kGraphScale = 0.002;
  constexpr size_t kRules = 50;
#endif
  SchemaPtr schema = Schema::Create();
  const std::unique_ptr<Graph> g =
      GenerateGraph(Yago2LikeConfig(kGraphScale, 7), schema);
  NgdGenOptions gen;
  gen.count = kRules;
  gen.max_diameter = 3;
  gen.wildcard_prob = 0.05;
  gen.violation_rate = 0.02;
  gen.seed = 8;
  InflateOptions inflate;
  inflate.variants_per_rule = 3;
  inflate.seed = 9;
  const NgdSet sigma =
      InflateWithImpliedVariants(GenerateNgdSet(*g, gen), inflate);
  ASSERT_EQ(sigma.size(), 4 * kRules);

  const MinimizedSigma m = MinimizeSigma(sigma, schema);
  ASSERT_EQ(m.sigma.size(), m.report.kept.size());
  EXPECT_FALSE(m.report.dropped.empty());

  const VioSet full = Dect(*g, sigma);
  DectOptions min_opts;
  min_opts.minimize_sigma = MinimizeMode::kAlways;
  ExpectSameVioSet(FilterToKept(full, m.report.kept),
                   Dect(*g, sigma, min_opts), sigma,
                   "scale-leg kept-rule violations", "scale leg");

  const std::unordered_set<int> dropped(m.report.dropped.begin(),
                                        m.report.dropped.end());
  size_t checked = 0;
  for (const Violation& v : full.items()) {
    if (dropped.count(v.ngd_index) == 0) continue;
    ++checked;
    EXPECT_TRUE(CoveredByKept(*g, v, m.sigma))
        << "no kept rule covers a violation of dropped rule "
        << sigma[v.ngd_index].name() << " (scale leg)";
  }
  EXPECT_GT(checked, 0u) << "no dropped rule has a violation to cover";
}

// The fingerprint is the catalog's structural identity: invariant under
// rule renaming and schema intern order, sensitive to any constant.
TEST(SigmaOptimizerDifferentialTest, FingerprintIsStructural) {
  auto parse = [](const char* text, const SchemaPtr& schema) {
    return testing_util::MustParse(text, schema);
  };
  SchemaPtr s1 = Schema::Create();
  NgdSet a = parse("ngd r1 { match (x:t)-[e]->(y:u) then y.val <= 7 }", s1);
  // Different rule name, same structure: same fingerprint.
  NgdSet b = parse("ngd other { match (x:t)-[e]->(y:u) then y.val <= 7 }", s1);
  EXPECT_EQ(FingerprintSigma(a, s1), FingerprintSigma(b, s1));
  // Different schema with different intern order, same names: equal.
  SchemaPtr s2 = Schema::Create();
  s2->InternLabel("zzz");
  s2->InternAttr("zzz");
  NgdSet c = parse("ngd r1 { match (x:t)-[e]->(y:u) then y.val <= 7 }", s2);
  EXPECT_EQ(FingerprintSigma(a, s1), FingerprintSigma(c, s2));
  // Any constant change changes the identity.
  NgdSet d = parse("ngd r1 { match (x:t)-[e]->(y:u) then y.val <= 8 }", s1);
  EXPECT_NE(FingerprintSigma(a, s1), FingerprintSigma(d, s1));
}

// kAlways fills the kept-set cache on its first call; the next call is
// served from the cache and detects the same violations.
TEST(SigmaOptimizerDifferentialTest, KeptSetIsCachedAndReused) {
  ClearSigmaOptimizerCache();
  Rng rng(991);
  testing_util::RandomWorkload w =
      testing_util::MakeRandomWorkload(991, &rng, 4, 0.3);
  ASSERT_FALSE(w.sigma.empty());
  InflateOptions inf;
  inf.variants_per_rule = 2;
  inf.seed = 5;
  NgdSet sigma = InflateWithImpliedVariants(w.sigma, inf);

  DectOptions opts;
  opts.minimize_sigma = MinimizeMode::kAlways;
  const VioSet min1 = Dect(*w.graph, sigma, opts);
  const VioSet min2 = Dect(*w.graph, sigma, opts);
  ExpectSameVioSet(min1, min2, sigma, "kAlways cached reuse", "seed 991");
  MinimizedSigma cached;
  ASSERT_TRUE(ResolveMinimizedSigma(sigma, w.schema, MinimizeMode::kAlways,
                                    SigmaOptimizerOptions(), &cached));
  EXPECT_TRUE(cached.report.from_cache);
}

}  // namespace
}  // namespace ngd
