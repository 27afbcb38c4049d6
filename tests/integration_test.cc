// Cross-module integration: the full pipeline a downstream user runs —
// generate/load a graph, parse rules, batch-detect, then maintain the
// violation set incrementally (sequentially and in parallel) across a
// stream of update batches.

#include <gtest/gtest.h>

#include <sstream>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "discovery/miner.h"
#include "discovery/ngd_generator.h"
#include "graph/error_injector.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"

namespace ngd {
namespace {

TEST(IntegrationTest, MotifGraphFullPipeline) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  ErrorInjector inj(&g, 71);
  MotifStats life = inj.PlantLifespan(40, 0.2);
  MotifStats pop = inj.PlantPopulation(40, 0.2);
  MotifStats acct = inj.PlantFakeAccounts(30, 0.2);

  NgdSet rules = testing_util::MustParse(
      std::string(testing_util::kPhi1) + testing_util::kPhi2 +
          testing_util::kPhi4,
      schema);

  VioSet vio = Dect(g, rules);
  // Every planted error is caught, and nothing else: for these motifs
  // each error yields exactly one violating match... except φ4 motifs,
  // where the suspicious account pairs with the real one exactly once.
  EXPECT_EQ(vio.size(), life.errors + pop.errors + acct.errors);

  // Parallel batch agrees.
  PDectOptions popts;
  popts.num_processors = 4;
  EXPECT_EQ(PDect(g, rules, popts).vio.size(), vio.size());
}

TEST(IntegrationTest, IncrementalMaintenanceStream) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(600, 1600, 91), schema);
  NgdGenOptions gen;
  gen.count = 10;
  gen.max_diameter = 3;
  gen.seed = 92;
  gen.violation_rate = 0.3;
  NgdSet sigma = GenerateNgdSet(*g, gen);
  ASSERT_GT(sigma.size(), 0u);

  VioSet maintained = Dect(*g, sigma);
  for (int round = 0; round < 3; ++round) {
    UpdateGenOptions up;
    up.fraction = 0.1;
    up.seed = 900 + round;
    UpdateBatch batch = GenerateUpdateBatch(g.get(), up);
    ASSERT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok());

    // Sequential and parallel incremental agree with each other.
    auto seq = IncDect(*g, sigma, batch);
    ASSERT_TRUE(seq.ok());
    PIncDectOptions popts;
    popts.num_processors = 4;
    auto par = PIncDect(*g, sigma, batch, popts);
    ASSERT_TRUE(par.ok());
    EXPECT_EQ(seq->added.size(), par->delta.added.size());
    EXPECT_EQ(seq->removed.size(), par->delta.removed.size());

    maintained = ApplyDelta(maintained, *seq);
    g->Commit();
    VioSet fresh = Dect(*g, sigma);
    ASSERT_EQ(maintained.size(), fresh.size()) << "round " << round;
  }
}

TEST(IntegrationTest, SaveLoadDetectRoundTrip) {
  // Detection results survive serialization: violations on the loaded
  // graph equal violations on the original.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  ErrorInjector inj(&g, 73);
  inj.PlantPopulation(25, 0.3);
  NgdSet rules = testing_util::MustParse(testing_util::kPhi2, schema);
  VioSet original = Dect(g, rules);

  std::ostringstream os;
  ASSERT_TRUE(WriteGraphText(g, &os).ok());
  std::istringstream is(os.str());
  SchemaPtr schema2 = Schema::Create();
  auto loaded = ReadGraphText(&is, schema2);
  ASSERT_TRUE(loaded.ok());
  NgdSet rules2 = testing_util::MustParse(testing_util::kPhi2, schema2);
  EXPECT_EQ(Dect(**loaded, rules2).size(), original.size());
}

TEST(IntegrationTest, MixedRuleSetNumericAndGfd) {
  // NGDs and GFD-fragment rules evaluated uniformly in one Σ.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  ErrorInjector inj(&g, 79);
  MotifStats olympic = inj.PlantOlympicNations(30, 0.2);
  MotifStats constant = inj.PlantConstantBinding(30, 0.2);
  NgdSet rules = testing_util::MustParse(R"(
    ngd olympic {
      match (x:competition)-[nations]->(y:integer),
            (x)-[competitors]->(z:integer)
      where x.type = "Olympic"
      then y.val <= z.val
    }
    ngd capital_kind {
      match (x:capital)-[locatedIn]->(y:country)
      then x.kind = "capital-city"
    }
  )",
                                         schema);
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_FALSE(rules[0].IsGfd());
  EXPECT_TRUE(rules[1].IsGfd());
  VioSet vio = Dect(g, rules);
  EXPECT_EQ(vio.size(), olympic.errors + constant.errors);
}

TEST(IntegrationTest, LocalityIncDectTouchesOnlyNeighborhood) {
  // Build two disjoint communities; update only one. IncDect must not
  // report violations in the untouched one even though batch Dect sees
  // its violations.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  LabelId n = schema->InternLabel("n");
  LabelId e = schema->InternLabel("e");
  AttrId v = schema->InternAttr("v");
  auto mk_pair = [&](int64_t xv, int64_t yv) {
    NodeId a = g.AddNode(n), b = g.AddNode(n);
    g.SetAttr(a, v, Value(xv));
    g.SetAttr(b, v, Value(yv));
    EXPECT_TRUE(g.AddEdge(a, b, e).ok());
    return std::make_pair(a, b);
  };
  mk_pair(10, 1);               // community A: existing violation
  auto [c, d] = mk_pair(1, 10); // community B: clean
  NgdSet rules = testing_util::MustParse(
      "ngd r { match (x:n)-[e]->(y:n) then x.v <= y.v }", schema);

  // Batch sees the community-A violation.
  EXPECT_EQ(Dect(g, rules).size(), 1u);

  // Update community B only: no delta at all.
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kDelete, c, d, e});
  ASSERT_TRUE(ApplyUpdateBatch(&g, &batch).ok());
  auto delta = IncDect(g, rules, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
}

TEST(IntegrationTest, MinedRulesDriveIncrementalDetection) {
  // Rules mined from clean data catch errors introduced by later updates.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  ErrorInjector inj(&g, 83);
  inj.PlantLifespan(60, 0.0);

  // Hand-written stand-in for the mined lifespan rule (the miner's
  // pairwise literal x.val <= y.val over (created, destroyed) pairs needs
  // the 3-node shape, which DiscoverNgds finds as a fan-out pattern).
  MinerOptions mopts;
  mopts.min_support = 20;
  mopts.max_rules = 60;
  NgdSet mined = DiscoverNgds(g, mopts);
  ASSERT_TRUE(Dect(g, mined).empty());
  ASSERT_TRUE(ValidateForIncremental(mined).ok());

  // Re-wire one created/destroyed pair so the dates invert.
  LabelId created = *schema->labels().Find("wasCreatedOnDate");
  LabelId destroyed = *schema->labels().Find("wasDestroyedOnDate");
  NodeId org = kInvalidNode, c_node = kInvalidNode, d_node = kInvalidNode;
  for (NodeId u = 0; u < g.NumNodes() && org == kInvalidNode; ++u) {
    NodeId cn = kInvalidNode, dn = kInvalidNode;
    for (const auto& adj : g.OutEdges(u)) {
      if (adj.label == created) cn = adj.other;
      if (adj.label == destroyed) dn = adj.other;
    }
    if (cn != kInvalidNode && dn != kInvalidNode) {
      org = u;
      c_node = cn;
      d_node = dn;
    }
  }
  ASSERT_NE(org, kInvalidNode);
  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kDelete, org, c_node, created});
  batch.updates.push_back({UpdateKind::kDelete, org, d_node, destroyed});
  batch.updates.push_back({UpdateKind::kInsert, org, d_node, created});
  batch.updates.push_back({UpdateKind::kInsert, org, c_node, destroyed});
  ASSERT_TRUE(ApplyUpdateBatch(&g, &batch).ok());
  auto delta = IncDect(g, mined, batch);
  ASSERT_TRUE(delta.ok());
  // The inverted lifespan must surface as a new violation of some mined
  // rule (created.val <= destroyed.val mined from clean data).
  EXPECT_GT(delta->added.size(), 0u);
}

}  // namespace
}  // namespace ngd
