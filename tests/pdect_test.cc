#include <gtest/gtest.h>

#include "detect/dect.h"
#include "discovery/ngd_generator.h"
#include "graph/generators.h"
#include "parallel/pdect.h"
#include "test_util.h"

namespace ngd {
namespace {

class PDectTest : public ::testing::TestWithParam<int> {};

TEST_P(PDectTest, MatchesSequentialDect) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(600, 1500, 21), schema);
  NgdGenOptions gen;
  gen.count = 10;
  gen.max_diameter = 3;
  gen.seed = 22;
  gen.violation_rate = 0.25;
  NgdSet sigma = GenerateNgdSet(*g, gen);
  ASSERT_GT(sigma.size(), 0u);

  VioSet sequential = Dect(*g, sigma);
  PDectOptions opts;
  opts.num_processors = GetParam();
  PDectResult parallel = PDect(*g, sigma, opts);
  EXPECT_EQ(parallel.vio.size(), sequential.size());
  for (const auto& v : sequential.items()) {
    EXPECT_TRUE(parallel.vio.Contains(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Processors, PDectTest,
                         ::testing::Values(1, 2, 4, 8));

// Closure-edge patterns on a hub graph with the hybrid policy forced on
// (C = 0, every adjacency worth forwarding or splitting): the walker
// chooses among several anchors per step, and every forwarded or sliced
// unit must resume on the anchor it was handed off on.
class PDectHandoffTest : public ::testing::TestWithParam<int> {};

TEST_P(PDectHandoffTest, ClosurePatternsMatchDectUnderHandoff) {
  SchemaPtr schema = Schema::Create();
  auto g = testing_util::BuildHubGraph(schema, 120, 3, 400, 61);
  NgdSet sigma = testing_util::MustParse(testing_util::kClosureRules, schema);
  ASSERT_EQ(sigma.size(), 2u);
  for (size_t r = 0; r < sigma.size(); ++r) {
    EXPECT_TRUE(testing_util::HasMultiAnchorStep(BuildMatchPlan(
        sigma[r].pattern(), {0}, &sigma[r].X(), &sigma[r].Y())))
        << sigma[r].name();
  }

  DectOptions oracle_opts;
  oracle_opts.snapshot_mode = SnapshotMode::kNever;
  const VioSet oracle = Dect(*g, sigma, oracle_opts);
  ASSERT_GT(oracle.size(), 0u);

  PDectOptions opts;
  opts.num_processors = GetParam();
  opts.latency_c = 0.0;
  PDectResult parallel = PDect(*g, sigma, opts);
  EXPECT_EQ(parallel.vio.Sorted(), oracle.Sorted());
  if (GetParam() > 1) {
    EXPECT_GT(parallel.metrics.forwards, 0u);
    EXPECT_GT(parallel.metrics.splits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Processors, PDectHandoffTest,
                         ::testing::Values(1, 2, 4, 8));

// The anchor-disagreement case, by hand, on two fragments with 1-hop
// halos: x0 (fragment 0) -> y0 (fragment 1), both pointing at z1 and z2
// (fragment 0), x0 also at ten fragment-0 leaves and y0 at ten
// fragment-1 leaves. Each halo truncates the other fragment's node's
// adjacency, so fragment 0 ranks y0 the cheaper anchor for z and
// fragment 1 ranks x0 the cheaper one. A forwarded unit that re-chose its
// anchor on arrival would bounce between the two owners until the
// deadline; resuming on the anchor it was forwarded on, it completes.
TEST(PDectFixedTest, ForwardedUnitKeepsItsAnchor) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  const LabelId e = schema->InternLabel("e");
  Partition part;
  part.num_fragments = 2;
  auto node = [&](const char* label, int64_t v, int fragment) {
    const NodeId id = g.AddNode(label);
    g.SetAttr(id, "v", Value(v));
    part.fragment_of.push_back(fragment);
    return id;
  };
  const NodeId x0 = node("s", 5, 0);
  const NodeId y0 = node("n", 5, 1);
  const NodeId z1 = node("n", 1, 0);
  const NodeId z2 = node("n", 1, 0);
  for (NodeId src : {x0, y0}) {
    for (NodeId dst : {z1, z2}) testing_util::MustEdge(g.AddEdge(src, dst, e));
  }
  testing_util::MustEdge(g.AddEdge(x0, y0, e));
  for (int i = 0; i < 10; ++i) {
    testing_util::MustEdge(g.AddEdge(x0, node("n", 9, 0), e));
    testing_util::MustEdge(g.AddEdge(y0, node("n", 9, 1), e));
  }
  part.fragment_sizes.assign(2, 0);
  part.members.resize(2);
  part.boundary.resize(2);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const int f = part.fragment_of[v];
    ++part.fragment_sizes[f];
    part.members[f].push_back(v);
    bool crossing = false;
    for (const auto* adj : {&g.OutEdges(v), &g.InEdges(v)}) {
      for (const AdjEntry& a : *adj) {
        crossing = crossing || part.fragment_of[a.other] != f;
      }
    }
    if (crossing) part.boundary[f].push_back(v);
  }
  part.crossing_edges = 3;  // x0->y0, y0->z1, y0->z2
  const FragmentRuntime rt(g, std::move(part), GraphView::kNew, 1);

  NgdSet sigma = testing_util::MustParse(
      "ngd tri { match (x:s)-[e]->(y:n), (y)-[e]->(z:n), (x)-[e]->(z) "
      "then x.v <= z.v }",
      schema);
  PDectOptions opts;
  opts.num_processors = 2;
  opts.runtime = &rt;
  opts.latency_c = 0.0;
  opts.deadline = Deadline::After(10000);
  PDectResult r = PDect(g, sigma, opts);
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.metrics.forwards, 0u);
  EXPECT_EQ(r.vio.Sorted(),
            (std::vector<Violation>{Violation{0, {x0, y0, z1}},
                                    Violation{0, {x0, y0, z2}}}));
}

TEST(PDectFixedTest, FindsPaperFig1Violations) {
  auto g = testing_util::BuildG4();
  NgdSet rules = testing_util::MustParse(testing_util::kPhi4, g.schema);
  PDectOptions opts;
  opts.num_processors = 3;
  PDectResult r = PDect(*g.graph, rules, opts);
  EXPECT_EQ(r.vio.size(), 1u);
}

TEST(PDectFixedTest, EmptyRuleSetYieldsNoViolations) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(100, 200, 1), schema);
  PDectOptions opts;
  opts.num_processors = 2;
  EXPECT_TRUE(PDect(*g, NgdSet{}, opts).vio.empty());
}

}  // namespace
}  // namespace ngd
