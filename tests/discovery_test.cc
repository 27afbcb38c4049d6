#include <gtest/gtest.h>

#include <set>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "discovery/miner.h"
#include "discovery/ngd_generator.h"
#include "graph/error_injector.h"
#include "graph/generators.h"

namespace ngd {
namespace {

// ---- NgdGenerator --------------------------------------------------------------

class NgdGeneratorTest : public ::testing::Test {
 protected:
  NgdGeneratorTest() : schema_(Schema::Create()) {
    graph_ = GenerateGraph(SyntheticConfig(800, 2000, 13), schema_);
  }
  SchemaPtr schema_;
  std::unique_ptr<Graph> graph_;
};

TEST_F(NgdGeneratorTest, ProducesRequestedCount) {
  NgdGenOptions opts;
  opts.count = 30;
  opts.seed = 1;
  NgdSet set = GenerateNgdSet(*graph_, opts);
  EXPECT_EQ(set.size(), 30u);
}

TEST_F(NgdGeneratorTest, AllRulesValidAndIncrementalReady) {
  NgdGenOptions opts;
  opts.count = 40;
  opts.seed = 2;
  NgdSet set = GenerateNgdSet(*graph_, opts);
  EXPECT_TRUE(set.Validate().ok());
  EXPECT_TRUE(ValidateForIncremental(set).ok());
}

TEST_F(NgdGeneratorTest, DiametersWithinRequestedRange) {
  NgdGenOptions opts;
  opts.count = 25;
  opts.min_diameter = 1;
  opts.max_diameter = 4;
  opts.seed = 3;
  NgdSet set = GenerateNgdSet(*graph_, opts);
  for (const auto& ngd : set.ngds()) {
    int d = ngd.pattern().Diameter();
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 6);  // walk may close cycles; stays near the target
  }
  EXPECT_LE(set.MaxDiameter(), 6);
}

TEST_F(NgdGeneratorTest, PatternsAreMostlyDistinct) {
  NgdGenOptions opts;
  opts.count = 40;
  opts.seed = 4;
  NgdSet set = GenerateNgdSet(*graph_, opts);
  std::set<std::string> shapes;
  for (const auto& ngd : set.ngds()) {
    shapes.insert(ngd.pattern().ToString(schema_->labels()));
  }
  // ≥90% distinct patterns, as in §7.
  EXPECT_GE(shapes.size() * 10, set.size() * 9);
}

TEST_F(NgdGeneratorTest, DeterministicForSeed) {
  NgdGenOptions opts;
  opts.count = 10;
  opts.seed = 5;
  NgdSet a = GenerateNgdSet(*graph_, opts);
  NgdSet b = GenerateNgdSet(*graph_, opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToString(schema_->labels(), schema_->attrs()),
              b[i].ToString(schema_->labels(), schema_->attrs()));
  }
}

TEST_F(NgdGeneratorTest, RulesProduceDetectableViolations) {
  NgdGenOptions opts;
  opts.count = 20;
  opts.seed = 6;
  opts.violation_rate = 0.5;
  NgdSet set = GenerateNgdSet(*graph_, opts);
  VioSet vio = Dect(*graph_, set);
  // Calibrated thresholds guarantee the sampled instances violate for
  // roughly half the rules.
  EXPECT_GT(vio.size(), 0u);
}

// ---- Miner ----------------------------------------------------------------------

TEST(MinerTest, RecoversPlantedSumRule) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  ErrorInjector inj(&g, 31);
  inj.PlantPopulation(60, 0.0);  // clean: female + male = total holds

  MinerOptions opts;
  opts.min_support = 20;
  opts.min_confidence = 1.0;
  opts.max_rules = 200;
  NgdSet mined = DiscoverNgds(g, opts);
  ASSERT_GT(mined.size(), 0u);

  // Some mined rule must be the population-sum dependency: the 4-node
  // fan-out pattern with a sum literal that the clean graph satisfies.
  bool found_sum = false;
  for (const auto& ngd : mined.ngds()) {
    if (ngd.pattern().NumNodes() == 4 && ngd.UsesArithmetic()) {
      found_sum = true;
    }
  }
  EXPECT_TRUE(found_sum);
  // All mined rules hold on the graph they were mined from.
  EXPECT_TRUE(Dect(g, mined).empty());
}

TEST(MinerTest, MinedRulesCatchSubsequentErrors) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  ErrorInjector inj(&g, 37);
  inj.PlantPopulation(50, 0.0);
  MinerOptions opts;
  opts.min_support = 20;
  opts.max_rules = 100;
  NgdSet mined = DiscoverNgds(g, opts);
  ASSERT_TRUE(Dect(g, mined).empty());

  // Now corrupt one motif; mined rules must flag it.
  ErrorInjector inj2(&g, 38);
  inj2.PlantPopulation(5, 1.0);  // all erroneous
  EXPECT_FALSE(Dect(g, mined).empty());
}

TEST(MinerTest, SupportThresholdFiltersRarePatterns) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  ErrorInjector inj(&g, 41);
  inj.PlantPopulation(5, 0.0);  // only 5 instances
  MinerOptions opts;
  opts.min_support = 50;  // above the instance count
  EXPECT_EQ(DiscoverNgds(g, opts).size(), 0u);
}

TEST(MinerTest, ConfidenceThresholdAllowsNoise) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  ErrorInjector inj(&g, 43);
  inj.PlantOlympicNations(80, 0.05);  // 5% noise
  MinerOptions strict;
  strict.min_support = 20;
  strict.min_confidence = 1.0;
  strict.mine_two_edge_patterns = true;
  NgdSet strict_rules = DiscoverNgds(g, strict);
  MinerOptions relaxed = strict;
  relaxed.min_confidence = 0.9;
  NgdSet relaxed_rules = DiscoverNgds(g, relaxed);
  EXPECT_GE(relaxed_rules.size(), strict_rules.size());
}

TEST(MinerTest, RespectsMaxRules) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  ErrorInjector inj(&g, 47);
  inj.PlantPopulation(40, 0.0);
  inj.PlantOlympicNations(40, 0.0);
  MinerOptions opts;
  opts.min_support = 10;
  opts.max_rules = 3;
  EXPECT_LE(DiscoverNgds(g, opts).size(), 3u);
}

}  // namespace
}  // namespace ngd
