// Fragment-native parallel detection, locked to the sequential oracles.
//
// Two layers of coverage:
//   - FragmentSnapshot structure: each halo is the d-hop ball around its
//     fragment's boundary over the live graph, minus its members; every
//     PDect violation lies in members ∪ halo of the fragment owning its
//     start-node binding; candidates enumerate owned nodes only;
//   - differential: fragment-native PDect and the skew-balanced PIncDect
//     (p ∈ {1,2,4,8}) reproduce the Dect/IncDect violation sets exactly
//     on randomized seed-reproducible workloads.
//
// NGD_FRAG_CASES resizes the randomized sweeps (sanitizer CI shrinks it).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "graph/neighborhood.h"
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
  return static_cast<int>(testing_util::EnvCount("NGD_FRAG_CASES", 6));
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

TEST(FragmentSnapshotTest, HaloIsTheBoundaryBallOverTheLiveGraph) {
  // The runtime's BFS runs over its shared CSR; the reference runs over
  // the live graph's lists, in both views of a pending batch.
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(300, 900, 71), schema);
  UpdateGenOptions up;
  up.fraction = 0.1;
  up.seed = 72;
  UpdateBatch batch = GenerateUpdateBatch(g.get(), up);
  ASSERT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok());
  const int p = 3;
  for (GraphView view : {GraphView::kOld, GraphView::kNew}) {
    for (int hops : {1, 2}) {
      const FragmentRuntime rt(*g, p, view, hops);
      const Partition& part = rt.partition();
      for (int f = 0; f < p; ++f) {
        SCOPED_TRACE("fragment " + std::to_string(f) + " hops " +
                     std::to_string(hops));
        const FragmentSnapshot& frag = rt.fragment(f);
        EXPECT_EQ(frag.candidates.NumOwned(), part.members[f].size());
        std::vector<NodeId> want;
        const NodeSet ball =
            DHopNeighborhood(*g, part.boundary[f], hops, view);
        for (NodeId v : ball.members()) {
          if (part.fragment_of[v] != f) want.push_back(v);
        }
        std::sort(want.begin(), want.end());
        EXPECT_EQ(frag.halo, want);
      }
    }
  }
}

TEST(FragmentSnapshotTest, ViolationsLieInTheSeedingFragment) {
  // Nothing confines a search to members ∪ halo on the shared CSR; the
  // locality argument does. Every violation's start-node binding is owned
  // by the fragment that seeded it, and all its nodes must lie within
  // that fragment's members ∪ halo.
  size_t through_halo = 0;
  for (int c = 0; c < FragCases(); ++c) {
    const uint64_t seed = 3000 + 13 * static_cast<uint64_t>(c);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RandomWorkload w = MakeRandomWorkload(seed, &rng);
    if (w.sigma.size() == 0) continue;
    for (int p : {2, 4}) {
      const FragmentRuntime rt(*w.graph, p, GraphView::kNew,
                               w.sigma.MaxDiameter());
      PDectOptions opts;
      opts.num_processors = p;
      opts.runtime = &rt;
      const PDectResult r = PDect(*w.graph, w.sigma, opts);
      for (const Violation& v : r.vio.items()) {
        const int start = ChooseStartNode(w.sigma[v.ngd_index].pattern(),
                                          GraphAccessor(rt.snapshot()));
        const int owner = rt.OwnerOf(v.nodes[start]);
        const std::vector<NodeId>& halo = rt.fragment(owner).halo;
        bool used_halo = false;
        for (NodeId u : v.nodes) {
          if (rt.OwnerOf(u) == owner) continue;
          used_halo = true;
          EXPECT_TRUE(std::binary_search(halo.begin(), halo.end(), u))
              << "rule " << v.ngd_index << " node " << u << " p " << p;
        }
        if (used_halo) ++through_halo;
      }
    }
  }
  EXPECT_GT(through_halo, 0u);  // the check reached the halo at all
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

    const FragmentRuntime rt(*w.graph, p, GraphView::kNew,
                             w.sigma.MaxDiameter());
    PDectOptions opts;
    opts.num_processors = p;
    opts.runtime = &rt;
    PDectResult r = PDect(*w.graph, w.sigma, opts);
    ExpectSameVio(oracle, r.vio);
    if (p > 1) {
      // Halo replication is real whenever the cut is non-trivial.
      EXPECT_EQ(r.metrics.replicated_nodes > 0,
                rt.partition().crossing_edges > 0);
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
