// Fragment-native parallel detection, locked to the sequential oracles.
//
// Two layers of coverage:
//   - FragmentSnapshot structure: the induced CSR keeps exactly the
//     edges among members ∪ halo, candidates enumerate owned nodes only,
//     no halo node is owned;
//   - differential: fragment-native PDect and the skew-balanced PIncDect
//     (p ∈ {1,2,4,8}) reproduce the Dect/IncDect violation sets exactly
//     on randomized seed-reproducible workloads.
//
// NGD_FRAG_CASES resizes the randomized sweeps (sanitizer CI shrinks it).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "parallel/cluster.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"
#include "util/rng.h"

namespace ngd {
namespace {

using testing_util::MakeRandomWorkload;
using testing_util::RandomWorkload;

int FragCases() {
  const char* env = std::getenv("NGD_FRAG_CASES");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 6;
}

void ExpectSameVio(const VioSet& expected, const VioSet& actual) {
  EXPECT_EQ(expected.size(), actual.size());
  for (const auto& v : expected.items()) {
    EXPECT_TRUE(actual.Contains(v)) << "missing a violation of rule "
                                    << v.ngd_index;
  }
  for (const auto& v : actual.items()) {
    EXPECT_TRUE(expected.Contains(v)) << "extra violation of rule "
                                      << v.ngd_index;
  }
}

// ---- FragmentSnapshot structure -----------------------------------------

TEST(FragmentSnapshotTest, InducedCsrKeepsExactlyTheIncludedEdges) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(300, 900, 71), schema);
  const int p = 3;
  Partition part = PartitionGraph(*g, p);
  for (int f = 0; f < p; ++f) {
    FragmentSnapshot frag =
        BuildFragmentSnapshot(*g, part, f, GraphView::kNew, 2);
    ASSERT_NE(frag.csr, nullptr);
    EXPECT_EQ(frag.csr->NumNodes(), g->NumNodes());
    EXPECT_EQ(frag.candidates.NumOwned(), frag.members.size());
    NodeSet include(g->NumNodes());
    for (NodeId v : frag.members) include.Add(v);
    for (NodeId v : frag.halo) include.Add(v);
    // No halo node is owned.
    for (NodeId v : frag.halo) EXPECT_FALSE(frag.Owns(v));
    // Edge sets: per included node, the induced adjacency is the global
    // adjacency filtered to included endpoints; excluded nodes are husks.
    for (NodeId v = 0; v < g->NumNodes(); ++v) {
      size_t induced = 0;
      frag.csr->ForEachOutEdge(v, [&](LabelId label, NodeId w) {
        ++induced;
        EXPECT_TRUE(include.Contains(v));
        EXPECT_TRUE(include.Contains(w));
        EXPECT_TRUE(g->HasEdge(v, w, label, GraphView::kNew));
      });
      if (!include.Contains(v)) {
        EXPECT_EQ(induced, 0u);
        continue;
      }
      size_t expected = 0;
      for (const AdjEntry& e : g->OutEdges(v)) {
        if (EdgeInView(e.state, GraphView::kNew) && include.Contains(e.other)) {
          ++expected;
        }
      }
      EXPECT_EQ(induced, expected) << "node " << v << " fragment " << f;
    }
  }
}

TEST(FragmentSnapshotTest, OwnedCandidatesPartitionTheLabel) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(200, 500, 73), schema);
  const int p = 4;
  FragmentRuntime rt(*g, p, GraphView::kNew, 1);
  // Every node appears in exactly one fragment's candidate range for its
  // label (owner-computes: each seed is enumerated once cluster-wide).
  for (NodeId v = 0; v < g->NumNodes(); ++v) {
    const LabelId l = g->NodeLabel(v);
    int owners = 0;
    for (int f = 0; f < p; ++f) {
      const auto range = rt.fragment(f).candidates.Range(l);
      if (std::binary_search(range.begin(), range.end(), v)) ++owners;
    }
    EXPECT_EQ(owners, 1) << "node " << v;
  }
}

// ---- Differential: PDect vs Dect ----------------------------------------

class FragmentPDectTest : public ::testing::TestWithParam<int> {};

TEST_P(FragmentPDectTest, MatchesSequentialDectOnRandomWorkloads) {
  const int p = GetParam();
  const int cases = FragCases();
  for (int c = 0; c < cases; ++c) {
    const uint64_t seed = 1000 + 17 * static_cast<uint64_t>(c);
    SCOPED_TRACE("seed " + std::to_string(seed) + " p " + std::to_string(p));
    Rng rng(seed);
    RandomWorkload w = MakeRandomWorkload(seed, &rng);
    if (w.sigma.size() == 0) continue;
    const VioSet oracle = Dect(*w.graph, w.sigma);

    PDectOptions opts;
    opts.num_processors = p;
    PDectResult r = PDect(*w.graph, w.sigma, opts);
    ExpectSameVio(oracle, r.vio);
    EXPECT_EQ(r.fragments, p);
    if (p > 1) {
      // Halo replication is real whenever the cut is non-trivial.
      EXPECT_EQ(r.metrics.replicated_nodes > 0, r.crossing_edges > 0);
    }

    // Same seed, same engine: the violation set is reproducible.
    PDectResult again = PDect(*w.graph, w.sigma, opts);
    ExpectSameVio(r.vio, again.vio);
  }
}

INSTANTIATE_TEST_SUITE_P(Processors, FragmentPDectTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(FragmentPDectTest, ForwardingResolvesBoundaryCrossingHubs) {
  // 8 selective 'a' seeds point at one hub with 600 spokes: expanding z
  // from the hub is a halo-anchored scan for every fragment that does not
  // own the hub, and with C = 1 the cost model must ship those partial
  // matches to the hub's owner instead.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  LabelId a = schema->InternLabel("a");
  LabelId n = schema->InternLabel("n");
  LabelId e = schema->InternLabel("e");
  AttrId val = schema->InternAttr("v");
  NodeId hub = g.AddNode(n);
  g.SetAttr(hub, val, Value(int64_t{0}));
  for (int i = 0; i < 600; ++i) {
    NodeId leaf = g.AddNode(n);
    g.SetAttr(leaf, val, Value(int64_t{i}));
    ASSERT_TRUE(g.AddEdge(hub, leaf, e).ok());
  }
  for (int i = 0; i < 8; ++i) {
    NodeId src = g.AddNode(a);
    g.SetAttr(src, val, Value(int64_t{50}));
    ASSERT_TRUE(g.AddEdge(src, hub, e).ok());
  }
  NgdSet sigma = testing_util::MustParse(
      "ngd r { match (x:a)-[e]->(y:n), (y)-[e]->(z:n) then x.v <= z.v }",
      schema);
  ASSERT_EQ(sigma.size(), 1u);

  const VioSet oracle = Dect(g, sigma);
  ASSERT_GT(oracle.size(), 0u);

  PDectOptions opts;
  opts.num_processors = 4;
  opts.latency_c = 1.0;  // aggressive shipping
  opts.min_forward_adjacency = 8;
  PDectResult r = PDect(g, sigma, opts);
  ExpectSameVio(oracle, r.vio);
  EXPECT_GT(r.metrics.replicated_nodes, 0u);
  EXPECT_GT(r.metrics.messages, 0u);
  EXPECT_GT(r.metrics.forwards, 0u);

  // The hybrid policy only moves work around; the result set is
  // invariant. With C this large no hand-off ever pays.
  PDectOptions local_only = opts;
  local_only.latency_c = 1e12;
  PDectResult r2 = PDect(g, sigma, local_only);
  ExpectSameVio(oracle, r2.vio);
  EXPECT_EQ(r2.metrics.forwards, 0u);
  EXPECT_EQ(r2.metrics.splits, 0u);
  EXPECT_GT(r2.metrics.messages, 0u);  // halo scans remain
}

// ---- Differential: PIncDect vs IncDect -----------------------------------

class PIncDectDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(PIncDectDifferentialTest, BalancedRunMatchesOracle) {
  const int p = GetParam();
  const int cases = std::max(1, FragCases() / 2);
  for (int c = 0; c < cases; ++c) {
    const uint64_t seed = 2000 + 29 * static_cast<uint64_t>(c);
    SCOPED_TRACE("seed " + std::to_string(seed) + " p " + std::to_string(p));
    SchemaPtr schema = Schema::Create();
    auto g = GenerateGraph(SyntheticConfig(400, 1100, seed), schema);
    NgdGenOptions gen;
    gen.count = 8;
    gen.max_diameter = 3;
    gen.seed = seed + 1;
    gen.violation_rate = 0.25;
    NgdSet sigma = GenerateNgdSet(*g, gen);
    UpdateGenOptions up;
    up.fraction = 0.12;
    up.seed = seed + 2;
    UpdateBatch batch = GenerateUpdateBatch(g.get(), up);
    ASSERT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok());

    auto oracle = IncDect(*g, sigma, batch);
    ASSERT_TRUE(oracle.ok());

    PIncDectOptions opts;
    opts.num_processors = p;
    opts.balance_interval_ms = 5;
    auto result = PIncDect(*g, sigma, batch, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(oracle->added.size(), result->delta.added.size());
    EXPECT_EQ(oracle->removed.size(), result->delta.removed.size());
    for (const auto& v : oracle->added.items()) {
      EXPECT_TRUE(result->delta.added.Contains(v));
    }
    for (const auto& v : oracle->removed.items()) {
      EXPECT_TRUE(result->delta.removed.Contains(v));
    }
    // The paper's PIncDect balances by skew only: nothing is stolen.
    EXPECT_EQ(result->metrics.steals, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Processors, PIncDectDifferentialTest,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace ngd
