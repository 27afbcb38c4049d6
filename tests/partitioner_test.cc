#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "graph/generators.h"
#include "graph/snapshot.h"
#include "parallel/partitioner.h"
#include "parallel/work_unit.h"

namespace ngd {
namespace {

/// `view` of g partitioned through its CSR, as FragmentRuntime does.
Partition PartitionView(const Graph& g, int p,
                        GraphView view = GraphView::kNew) {
  return PartitionGraph(GraphSnapshot(g, view), p);
}

/// Brute-force recount of the partition's derived structure straight from
/// the graph: crossing edges, per-fragment sizes, and boundary sets.
struct Recount {
  size_t crossing_edges = 0;
  std::vector<size_t> sizes;
  std::vector<std::vector<NodeId>> boundary;
};

Recount RecountFromGraph(const Graph& g, const Partition& r,
                         GraphView view = GraphView::kNew) {
  Recount out;
  out.sizes.assign(r.num_fragments, 0);
  out.boundary.resize(r.num_fragments);
  std::vector<bool> crossing(g.NumNodes(), false);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ++out.sizes[r.fragment_of[v]];
    for (const AdjEntry& e : g.OutEdges(v)) {
      if (!EdgeInView(e.state, view)) continue;
      if (r.fragment_of[v] != r.fragment_of[e.other]) {
        ++out.crossing_edges;
        crossing[v] = true;
        crossing[e.other] = true;
      }
    }
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (crossing[v]) out.boundary[r.fragment_of[v]].push_back(v);
  }
  return out;
}

TEST(PartitionerTest, CoversAllNodes) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(500, 1500, 3), schema);
  Partition r = PartitionView(*g, 4);
  ASSERT_EQ(r.fragment_of.size(), g->NumNodes());
  size_t total = 0;
  for (size_t s : r.fragment_sizes) total += s;
  EXPECT_EQ(total, g->NumNodes());
  for (int f : r.fragment_of) {
    EXPECT_GE(f, 0);
    EXPECT_LT(f, 4);
  }
}

TEST(PartitionerTest, FragmentsAreBalanced) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(1000, 3000, 4), schema);
  Partition r = PartitionView(*g, 5);
  size_t expected = g->NumNodes() / 5;
  for (size_t s : r.fragment_sizes) {
    EXPECT_GE(s, expected * 7 / 10);
    EXPECT_LE(s, expected * 13 / 10);
  }
}

TEST(PartitionerTest, SinglePartitionHasNoCrossingEdges) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(200, 500, 5), schema);
  Partition r = PartitionView(*g, 1);
  EXPECT_EQ(r.crossing_edges, 0u);
  EXPECT_EQ(r.fragment_sizes[0], g->NumNodes());
  EXPECT_TRUE(r.boundary[0].empty());
}

TEST(PartitionerTest, LocalityBeatsRandomAssignment) {
  // LDG should cut fewer edges than a hash partition on a clustered graph.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  LabelId n = schema->InternLabel("n");
  LabelId e = schema->InternLabel("e");
  // 10 dense cliques of 20 nodes, loosely chained.
  for (int c = 0; c < 10; ++c) {
    NodeId base = static_cast<NodeId>(g.NumNodes());
    for (int i = 0; i < 20; ++i) g.AddNode(n);
    for (NodeId i = 0; i < 20; ++i) {
      for (NodeId j = i + 1; j < 20; ++j) {
        ASSERT_TRUE(g.AddEdge(base + i, base + j, e).ok());
      }
    }
    if (c > 0) {
      ASSERT_TRUE(g.AddEdge(base - 1, base, e).ok());
    }
  }
  Partition ldg = PartitionView(g, 5);
  size_t random_cut = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const auto& adj : g.OutEdges(v)) {
      if (v % 5 != adj.other % 5) ++random_cut;
    }
  }
  EXPECT_LT(ldg.crossing_edges, random_cut / 2);
}

TEST(PartitionerTest, DerivedStructureMatchesBruteForce) {
  // members/boundary/crossing_edges are all consistent with fragment_of,
  // recomputed independently from the graph.
  SchemaPtr schema = Schema::Create();
  for (uint64_t seed : {11u, 12u, 13u}) {
    auto g = GenerateGraph(SyntheticConfig(300, 900, seed), schema);
    for (int p : {2, 3, 8}) {
      Partition r = PartitionView(*g, p);
      Recount want = RecountFromGraph(*g, r);
      EXPECT_EQ(r.crossing_edges, want.crossing_edges)
          << "seed " << seed << " p " << p;
      ASSERT_EQ(r.members.size(), static_cast<size_t>(p));
      for (int f = 0; f < p; ++f) {
        EXPECT_EQ(r.fragment_sizes[f], want.sizes[f]);
        EXPECT_EQ(r.members[f].size(), want.sizes[f]);
        EXPECT_TRUE(std::is_sorted(r.members[f].begin(), r.members[f].end()));
        for (NodeId v : r.members[f]) EXPECT_EQ(r.fragment_of[v], f);
        EXPECT_EQ(r.boundary[f], want.boundary[f])
            << "seed " << seed << " p " << p << " fragment " << f;
      }
    }
  }
}

TEST(PartitionerTest, DeterministicAcrossRuns) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(400, 1200, 9), schema);
  Partition a = PartitionView(*g, 4);
  Partition b = PartitionView(*g, 4);
  EXPECT_EQ(a.fragment_of, b.fragment_of);
  EXPECT_EQ(a.crossing_edges, b.crossing_edges);
}

TEST(PartitionerTest, EveryFragmentStaysUnderCapacity) {
  // The automatic capacity |V|/p + 1 always leaves some fragment with
  // room, so a node is never forced past it: every fragment ends with
  // fewer than |V|/p + 2 nodes. Covers random graphs, a single-label graph
  // of isolated nodes (no neighbor score, all label affinity) and more
  // fragments than nodes.
  SchemaPtr schema = Schema::Create();
  std::vector<std::unique_ptr<Graph>> graphs;
  for (uint64_t seed : {21u, 22u}) {
    graphs.push_back(GenerateGraph(SyntheticConfig(250, 700, seed), schema));
  }
  auto isolated = std::make_unique<Graph>(schema);
  for (int i = 0; i < 16; ++i) isolated->AddNode("n");
  graphs.push_back(std::move(isolated));
  auto tiny = std::make_unique<Graph>(schema);
  for (int i = 0; i < 3; ++i) tiny->AddNode("n");
  graphs.push_back(std::move(tiny));
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = *graphs[gi];
    for (int p = 1; p <= 8; ++p) {
      Partition r = PartitionView(g, p);
      const double bound = static_cast<double>(g.NumNodes()) / p + 2.0;
      for (int f = 0; f < p; ++f) {
        EXPECT_LT(static_cast<double>(r.fragment_sizes[f]), bound)
            << "graph " << gi << " p " << p << " fragment " << f;
      }
    }
  }
}

TEST(PartitionerTest, RespectsGraphView) {
  // An edge pending deletion keeps its endpoints together in kOld but not
  // necessarily in kNew; at minimum the views must count crossing edges
  // against their own edge sets.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  LabelId n = schema->InternLabel("n");
  LabelId e = schema->InternLabel("e");
  for (int i = 0; i < 8; ++i) g.AddNode(n);
  for (NodeId v = 0; v + 1 < 8; ++v) ASSERT_TRUE(g.AddEdge(v, v + 1, e).ok());
  ASSERT_TRUE(g.DeleteEdge(2, 3, e).ok());  // pending: gone in kNew only
  Partition rold = PartitionView(g, 2, GraphView::kOld);
  Partition rnew = PartitionView(g, 2, GraphView::kNew);
  EXPECT_EQ(rold.crossing_edges,
            RecountFromGraph(g, rold, GraphView::kOld).crossing_edges);
  EXPECT_EQ(rnew.crossing_edges,
            RecountFromGraph(g, rnew, GraphView::kNew).crossing_edges);
}

TEST(SkewnessTest, ComputesRelativeLoad) {
  std::vector<double> skew = ComputeSkewness({30, 10, 10, 10});
  ASSERT_EQ(skew.size(), 4u);
  EXPECT_DOUBLE_EQ(skew[0], 2.0);  // 30 / avg(15)
  EXPECT_DOUBLE_EQ(skew[1], 10.0 / 15.0);
}

TEST(SkewnessTest, HandlesEmptyAndZero) {
  EXPECT_TRUE(ComputeSkewness({}).empty());
  std::vector<double> zeros = ComputeSkewness({0, 0});
  EXPECT_DOUBLE_EQ(zeros[0], 0.0);
}

}  // namespace
}  // namespace ngd
