#include <gtest/gtest.h>

#include "match/homomorphism.h"
#include "test_util.h"

namespace ngd {
namespace {

class MatchTest : public ::testing::Test {
 protected:
  MatchTest() : schema_(Schema::Create()), g_(schema_) {
    person_ = schema_->InternLabel("person");
    city_ = schema_->InternLabel("city");
    knows_ = schema_->InternLabel("knows");
    lives_ = schema_->InternLabel("lives_in");
  }

  std::vector<Binding> AllMatches(const Pattern& pattern,
                                  GraphView view = GraphView::kNew) {
    SearchConfig cfg;
    cfg.graph = GraphAccessor(g_, view);
    cfg.pattern = &pattern;
    cfg.find_violations = false;
    std::vector<Binding> out;
    RunBatchSearch(cfg, [&](const Binding& h) {
      out.push_back(h);
      return true;
    });
    return out;
  }

  SchemaPtr schema_;
  Graph g_;
  LabelId person_, city_, knows_, lives_;
};

TEST_F(MatchTest, SingleEdgePattern) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_),
         c = g_.AddNode(person_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.AddEdge(b, c, knows_).ok());

  Pattern p;
  int x = p.AddNode("x", person_);
  int y = p.AddNode("y", person_);
  ASSERT_TRUE(p.AddEdge(x, y, knows_).ok());

  auto matches = AllMatches(p);
  ASSERT_EQ(matches.size(), 2u);
}

TEST_F(MatchTest, LabelsFilterCandidates) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(city_);
  ASSERT_TRUE(g_.AddEdge(a, b, lives_).ok());

  Pattern wrong;
  int x = wrong.AddNode("x", city_);
  int y = wrong.AddNode("y", city_);
  ASSERT_TRUE(wrong.AddEdge(x, y, lives_).ok());
  EXPECT_TRUE(AllMatches(wrong).empty());

  Pattern right;
  x = right.AddNode("x", person_);
  y = right.AddNode("y", city_);
  ASSERT_TRUE(right.AddEdge(x, y, lives_).ok());
  EXPECT_EQ(AllMatches(right).size(), 1u);
}

TEST_F(MatchTest, EdgeLabelsMustAgree) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  Pattern p;
  int x = p.AddNode("x", person_);
  int y = p.AddNode("y", person_);
  ASSERT_TRUE(p.AddEdge(x, y, lives_).ok());
  EXPECT_TRUE(AllMatches(p).empty());
}

TEST_F(MatchTest, DirectionMatters) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  Pattern p;
  int x = p.AddNode("x", person_);
  int y = p.AddNode("y", person_);
  ASSERT_TRUE(p.AddEdge(y, x, knows_).ok());
  auto matches = AllMatches(p);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0][x], b);
  EXPECT_EQ(matches[0][y], a);
}

TEST_F(MatchTest, WildcardMatchesAnyNodeLabel) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(city_);
  ASSERT_TRUE(g_.AddEdge(a, b, lives_).ok());
  Pattern p;
  int x = p.AddNode("x", kWildcardLabel);
  int y = p.AddNode("y", kWildcardLabel);
  ASSERT_TRUE(p.AddEdge(x, y, lives_).ok());
  EXPECT_EQ(AllMatches(p).size(), 1u);
}

TEST_F(MatchTest, HomomorphismAllowsNodeFolding) {
  // Graph: a -> a (self loop). Pattern x -> y can fold both onto a.
  NodeId a = g_.AddNode(person_);
  ASSERT_TRUE(g_.AddEdge(a, a, knows_).ok());
  Pattern p;
  int x = p.AddNode("x", person_);
  int y = p.AddNode("y", person_);
  ASSERT_TRUE(p.AddEdge(x, y, knows_).ok());
  auto matches = AllMatches(p);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0][x], a);
  EXPECT_EQ(matches[0][y], a);
}

TEST_F(MatchTest, TrianglePatternRequiresAllEdges) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_),
         c = g_.AddNode(person_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.AddEdge(b, c, knows_).ok());
  Pattern tri;
  int x = tri.AddNode("x", person_);
  int y = tri.AddNode("y", person_);
  int z = tri.AddNode("z", person_);
  ASSERT_TRUE(tri.AddEdge(x, y, knows_).ok());
  ASSERT_TRUE(tri.AddEdge(y, z, knows_).ok());
  ASSERT_TRUE(tri.AddEdge(x, z, knows_).ok());
  EXPECT_TRUE(AllMatches(tri).empty());
  ASSERT_TRUE(g_.AddEdge(a, c, knows_).ok());
  EXPECT_EQ(AllMatches(tri).size(), 1u);
}

TEST_F(MatchTest, ViewDisciplineOldVsNew) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_),
         c = g_.AddNode(person_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.DeleteEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.InsertEdge(b, c, knows_).ok());
  Pattern p;
  int x = p.AddNode("x", person_);
  int y = p.AddNode("y", person_);
  ASSERT_TRUE(p.AddEdge(x, y, knows_).ok());
  auto old_matches = AllMatches(p, GraphView::kOld);
  ASSERT_EQ(old_matches.size(), 1u);
  EXPECT_EQ(old_matches[0][x], a);
  auto new_matches = AllMatches(p, GraphView::kNew);
  ASSERT_EQ(new_matches.size(), 1u);
  EXPECT_EQ(new_matches[0][x], b);
}

TEST_F(MatchTest, SeededSearchRespectsSeedLabelsAndEdges) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(city_);
  ASSERT_TRUE(g_.AddEdge(a, b, lives_).ok());
  Pattern p;
  int x = p.AddNode("x", person_);
  int y = p.AddNode("y", city_);
  ASSERT_TRUE(p.AddEdge(x, y, lives_).ok());
  MatchPlan plan = BuildMatchPlan(p, {x, y}, nullptr, nullptr);
  SearchConfig cfg;
  cfg.graph = GraphAccessor(g_, GraphView::kNew);
  cfg.pattern = &p;
  cfg.find_violations = false;
  int count = 0;
  Binding binding = {a, b};
  RunSeededSearch(cfg, plan, &binding, [&](const Binding&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
  // Wrong seed labels: no match, no crash.
  Binding bad = {b, a};
  count = 0;
  RunSeededSearch(cfg, plan, &bad, [&](const Binding&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0);
}

TEST_F(MatchTest, EarlyExitStopsSearch) {
  for (int i = 0; i < 10; ++i) {
    NodeId a = g_.AddNode(person_), b = g_.AddNode(person_);
    ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  }
  Pattern p;
  int x = p.AddNode("x", person_);
  int y = p.AddNode("y", person_);
  ASSERT_TRUE(p.AddEdge(x, y, knows_).ok());
  SearchConfig cfg;
  cfg.graph = GraphAccessor(g_, GraphView::kNew);
  cfg.pattern = &p;
  cfg.find_violations = false;
  int count = 0;
  bool completed = RunBatchSearch(cfg, [&](const Binding&) {
    ++count;
    return false;  // stop immediately
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 1);
}

TEST_F(MatchTest, LiteralPruningFindsOnlyViolations) {
  AttrId v = schema_->InternAttr("v");
  // Three knows-edges with different attribute configurations.
  auto mk = [&](int64_t xv, int64_t yv) {
    NodeId a = g_.AddNode(person_), b = g_.AddNode(person_);
    g_.SetAttr(a, v, Value(xv));
    g_.SetAttr(b, v, Value(yv));
    EXPECT_TRUE(g_.AddEdge(a, b, knows_).ok());
    return std::make_pair(a, b);
  };
  mk(1, 2);                 // X holds (x.v=1), Y holds (y.v=2)
  auto bad = mk(1, 99);     // X holds, Y fails -> violation
  mk(5, 99);                // X fails -> not a violation

  Pattern p;
  int x = p.AddNode("x", person_);
  int y = p.AddNode("y", person_);
  ASSERT_TRUE(p.AddEdge(x, y, knows_).ok());
  std::vector<Literal> X{
      Literal(Expr::Var(x, v), CmpOp::kEq, Expr::IntConst(1))};
  std::vector<Literal> Y{
      Literal(Expr::Var(y, v), CmpOp::kEq, Expr::IntConst(2))};

  SearchConfig cfg;
  cfg.graph = GraphAccessor(g_, GraphView::kNew);
  cfg.pattern = &p;
  cfg.x = &X;
  cfg.y = &Y;
  cfg.find_violations = true;
  std::vector<Binding> violations;
  RunBatchSearch(cfg, [&](const Binding& h) {
    violations.push_back(h);
    return true;
  });
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0][x], bad.first);
  EXPECT_EQ(violations[0][y], bad.second);
}

TEST_F(MatchTest, MissingAttributeMakesYFailAndXFail) {
  AttrId v = schema_->InternAttr("v");
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  // No attributes set at all.
  Pattern p;
  int x = p.AddNode("x", person_);
  int y = p.AddNode("y", person_);
  ASSERT_TRUE(p.AddEdge(x, y, knows_).ok());

  // Empty X, Y references missing attr: every match is a violation.
  std::vector<Literal> empty_x;
  std::vector<Literal> Y{
      Literal(Expr::Var(y, v), CmpOp::kGe, Expr::IntConst(0))};
  SearchConfig cfg;
  cfg.graph = GraphAccessor(g_, GraphView::kNew);
  cfg.pattern = &p;
  cfg.x = &empty_x;
  cfg.y = &Y;
  int count = 0;
  RunBatchSearch(cfg, [&](const Binding&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);

  // X references missing attr: precondition never holds, no violations.
  std::vector<Literal> X{
      Literal(Expr::Var(x, v), CmpOp::kGe, Expr::IntConst(0))};
  cfg.x = &X;
  count = 0;
  RunBatchSearch(cfg, [&](const Binding&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0);
}

// ---- MatchPlan structure ------------------------------------------------------

TEST_F(MatchTest, PlanCoversAllNodesConnected) {
  SchemaPtr schema = Schema::Create();
  NgdSet rules = testing_util::MustParse(testing_util::kPhi4, schema);
  ASSERT_EQ(rules.size(), 1u);
  const Pattern& p = rules[0].pattern();
  // Seed on the first pattern edge's endpoints.
  const PatternEdge& pe = p.edge(0);
  MatchPlan plan = BuildMatchPlan(p, {pe.src, pe.dst}, &rules[0].X(),
                                  &rules[0].Y());
  EXPECT_EQ(plan.seeds.size(), 2u);
  EXPECT_EQ(plan.steps.size(), p.NumNodes() - 2);
  // Every step's anchor must already be matched.
  std::vector<char> bound(p.NumNodes(), 0);
  for (int s : plan.seeds) bound[s] = 1;
  for (const auto& step : plan.steps) {
    EXPECT_TRUE(bound[step.anchor_node]);
    EXPECT_FALSE(bound[step.node]);
    bound[step.node] = 1;
  }
  // All pattern edges are covered exactly once (anchor or check).
  std::vector<int> edge_seen(p.NumEdges(), 0);
  for (int e : plan.seed_check_edges) ++edge_seen[e];
  for (const auto& step : plan.steps) {
    ++edge_seen[step.anchor_edge];
    for (int e : step.check_edges) ++edge_seen[e];
  }
  for (size_t e = 0; e < p.NumEdges(); ++e) {
    EXPECT_EQ(edge_seen[e], 1) << "edge " << e;
  }
}

TEST_F(MatchTest, PlanMarksLiteralsReadyExactlyOnce) {
  SchemaPtr schema = Schema::Create();
  NgdSet rules = testing_util::MustParse(testing_util::kPhi4, schema);
  const Pattern& p = rules[0].pattern();
  const PatternEdge& pe = p.edge(0);
  MatchPlan plan =
      BuildMatchPlan(p, {pe.src, pe.dst}, &rules[0].X(), &rules[0].Y());
  std::vector<int> x_ready(rules[0].X().size(), 0);
  std::vector<int> y_ready(rules[0].Y().size(), 0);
  for (int i : plan.seed_ready_x) ++x_ready[i];
  for (int i : plan.seed_ready_y) ++y_ready[i];
  for (const auto& step : plan.steps) {
    for (int i : step.ready_x) ++x_ready[i];
    for (int i : step.ready_y) ++y_ready[i];
  }
  for (int c : x_ready) EXPECT_EQ(c, 1);
  for (int c : y_ready) EXPECT_EQ(c, 1);
}

TEST_F(MatchTest, ChooseStartPrefersSelectiveLabel) {
  // 100 persons, 1 city.
  for (int i = 0; i < 100; ++i) g_.AddNode(person_);
  NodeId c = g_.AddNode(city_);
  ASSERT_TRUE(g_.AddEdge(0, c, lives_).ok());
  Pattern p;
  p.AddNode("x", person_);
  int y = p.AddNode("y", city_);
  ASSERT_TRUE(p.AddEdge(0, y, lives_).ok());
  EXPECT_EQ(ChooseStartNode(p, GraphAccessor(g_, GraphView::kNew)), y);
}

}  // namespace
}  // namespace ngd
