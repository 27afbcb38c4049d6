#include <gtest/gtest.h>
#include <set>

#include "detect/dect.h"
#include "test_util.h"

namespace ngd {
namespace {

using testing_util::BuildG1;
using testing_util::BuildG2;
using testing_util::BuildG3;
using testing_util::BuildG4;
using testing_util::MustParse;

TEST(DectTest, CatchesFig1G1LifespanError) {
  auto g = BuildG1();
  NgdSet rules = MustParse(testing_util::kPhi1, g.schema);
  VioSet vio = Dect(*g.graph, rules);
  EXPECT_EQ(vio.size(), 1u);
  EXPECT_FALSE(Dect(*g.graph, rules).empty());
}

TEST(DectTest, CatchesFig1G2PopulationError) {
  auto g = BuildG2();
  NgdSet rules = MustParse(testing_util::kPhi2, g.schema);
  VioSet vio = Dect(*g.graph, rules);
  EXPECT_EQ(vio.size(), 1u);  // 600 + 722 = 1322 != 1572
}

TEST(DectTest, CleanPopulationDataValidates) {
  auto g = BuildG2();
  // Fix the total: 600 + 722 = 1322.
  AttrId val = *g.schema->attrs().Find("val");
  LabelId tot = *g.schema->labels().Find("populationTotal");
  for (NodeId v = 0; v < g.graph->NumNodes(); ++v) {
    for (const auto& e : g.graph->OutEdges(v)) {
      if (e.label == tot) g.graph->SetAttr(e.other, val, Value(int64_t{1322}));
    }
  }
  NgdSet rules = MustParse(testing_util::kPhi2, g.schema);
  EXPECT_TRUE(Dect(*g.graph, rules).empty());
}

TEST(DectTest, CatchesFig1G3RankError) {
  auto g = BuildG3();
  NgdSet rules = MustParse(testing_util::kPhi3, g.schema);
  VioSet vio = Dect(*g.graph, rules);
  // Downey (smaller population) ranks ahead: exactly one violating match
  // (x = Downey, y = Corona).
  EXPECT_EQ(vio.size(), 1u);
}

TEST(DectTest, CatchesFig1G4FakeAccount) {
  testing_util::G4Nodes nodes;
  auto g = BuildG4(&nodes);
  NgdSet rules = MustParse(testing_util::kPhi4, g.schema);
  VioSet vio = Dect(*g.graph, rules);
  ASSERT_EQ(vio.size(), 1u);
  // The violating match maps y to the fake account.
  const Violation& v = *vio.items().begin();
  int y = rules[0].pattern().FindVar("y");
  EXPECT_EQ(v.nodes[y], nodes.fake_account);
}

TEST(DectTest, FlaggedFakeAccountValidates) {
  testing_util::G4Nodes nodes;
  auto g = BuildG4(&nodes);
  // Correct the data: flag the account as fake (status 0).
  g.graph->SetAttr(nodes.fake_status, "val", Value(int64_t{0}));
  NgdSet rules = MustParse(testing_util::kPhi4, g.schema);
  EXPECT_TRUE(Dect(*g.graph, rules).empty());
}

TEST(DectTest, AllFourRulesAcrossCombinedGraph) {
  // One schema, all four violating structures in one graph.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  auto import = [&](const testing_util::NamedGraph& src) {
    NodeId base = static_cast<NodeId>(g.NumNodes());
    for (NodeId v = 0; v < src.graph->NumNodes(); ++v) {
      NodeId nv = g.AddNode(src.graph->NodeLabelName(v));
      for (const auto& [attr, value] : src.graph->Attrs(v)) {
        g.SetAttr(nv, src.schema->attrs().NameOf(attr), value);
      }
    }
    for (NodeId v = 0; v < src.graph->NumNodes(); ++v) {
      for (const auto& e : src.graph->OutEdges(v)) {
        ASSERT_TRUE(g.AddEdge(base + v, base + e.other,
                              src.schema->labels().NameOf(e.label))
                        .ok());
      }
    }
  };
  import(BuildG1());
  import(BuildG2());
  import(BuildG3());
  import(BuildG4());
  NgdSet rules = MustParse(std::string(testing_util::kPhi1) +
                               testing_util::kPhi2 + testing_util::kPhi3 +
                               testing_util::kPhi4,
                           schema);
  VioSet vio = Dect(g, rules);
  EXPECT_EQ(vio.size(), 4u);
  // One violation per rule.
  std::set<int> rules_hit;
  for (const auto& v : vio.items()) rules_hit.insert(v.ngd_index);
  EXPECT_EQ(rules_hit.size(), 4u);
}

TEST(DectTest, MaxViolationsPerNgdCapsOutput) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  LabelId n = schema->InternLabel("n");
  LabelId e = schema->InternLabel("e");
  AttrId v = schema->InternAttr("v");
  // 20 violating edges.
  for (int i = 0; i < 20; ++i) {
    NodeId a = g.AddNode(n), b = g.AddNode(n);
    g.SetAttr(a, v, Value(int64_t{1}));
    g.SetAttr(b, v, Value(int64_t{1}));
    ASSERT_TRUE(g.AddEdge(a, b, e).ok());
  }
  NgdSet rules = MustParse(
      "ngd r { match (x:n)-[e]->(y:n) then x.v != y.v }", schema);
  DectOptions opts;
  opts.max_violations_per_ngd = 5;
  EXPECT_EQ(Dect(g, rules, opts).size(), 5u);
  EXPECT_EQ(Dect(g, rules).size(), 20u);
}

TEST(DectTest, ViolationToStringNamesRuleAndVars) {
  auto g = BuildG2();
  NgdSet rules = MustParse(testing_util::kPhi2, g.schema);
  VioSet vio = Dect(*g.graph, rules);
  ASSERT_EQ(vio.size(), 1u);
  std::string s = ViolationToString(*vio.items().begin(), rules, *g.graph);
  EXPECT_NE(s.find("phi2"), std::string::npos);
  EXPECT_NE(s.find("x->"), std::string::npos);
}

TEST(DectTest, GfdStyleConstantBindingRule) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  NodeId cap = g.AddNode("capital");
  NodeId country = g.AddNode("country");
  ASSERT_TRUE(g.AddEdge(cap, country, "locatedIn").ok());
  g.SetAttr(cap, "kind", Value("village"));  // wrong constant
  NgdSet rules = MustParse(R"(
    ngd capital_kind {
      match (x:capital)-[locatedIn]->(y:country)
      then x.kind = "capital-city"
    })",
                           schema);
  EXPECT_TRUE(rules[0].IsGfd());
  EXPECT_EQ(Dect(g, rules).size(), 1u);
  g.SetAttr(cap, "kind", Value("capital-city"));
  EXPECT_TRUE(Dect(g, rules).empty());
}

TEST(DectTest, VioSetMergeRemoveAndApplyDelta) {
  VioSet a, b;
  a.Add(Violation{0, {1, 2}});
  a.Add(Violation{0, {3, 4}});
  b.Add(Violation{0, {3, 4}});
  b.Add(Violation{1, {5}});
  VioSet merged;
  {
    VioSet tmp_a;
    for (const auto& v : a.items()) tmp_a.Add(v);
    merged.Merge(std::move(tmp_a));
  }
  {
    VioSet tmp_b;
    for (const auto& v : b.items()) tmp_b.Add(v);
    merged.Merge(std::move(tmp_b));
  }
  EXPECT_EQ(merged.size(), 3u);

  DeltaVio delta;
  delta.added.Add(Violation{2, {9}});
  delta.removed.Add(Violation{0, {1, 2}});
  VioSet updated = ApplyDelta(merged, delta);
  EXPECT_EQ(updated.size(), 3u);
  EXPECT_FALSE(updated.Contains(Violation{0, {1, 2}}));
  EXPECT_TRUE(updated.Contains(Violation{2, {9}}));
}

TEST(DectTest, SortedIsDeterministic) {
  VioSet s;
  s.Add(Violation{1, {5, 6}});
  s.Add(Violation{0, {7}});
  s.Add(Violation{1, {2, 3}});
  auto sorted = s.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].ngd_index, 0);
  EXPECT_EQ(sorted[1].nodes, (std::vector<NodeId>{2, 3}));
}

}  // namespace
}  // namespace ngd
