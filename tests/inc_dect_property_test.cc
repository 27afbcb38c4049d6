// Property-based correctness of incremental detection (paper §5.2):
//
//   Vio(Σ, G ⊕ ΔG) = Vio(Σ, G) ⊕ ΔVio(Σ, G, ΔG)
//
// For randomized graphs, generated rule sets and random update batches,
// IncDect's delta applied to the batch result on G must equal the batch
// result on G ⊕ ΔG, and ΔVio+/ΔVio- must be disjoint from/contained in
// the respective sides.

#include <gtest/gtest.h>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "discovery/ngd_generator.h"
#include "graph/generators.h"

namespace ngd {
namespace {

struct PropertyCase {
  const char* name;
  size_t nodes;
  size_t edges;
  double update_fraction;
  double insert_fraction;
  uint64_t seed;
};

void PrintTo(const PropertyCase& c, std::ostream* os) { *os << c.name; }

class IncDectPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(IncDectPropertyTest, DeltaEqualsBatchDiff) {
  const PropertyCase& pc = GetParam();
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(pc.nodes, pc.edges, pc.seed),
                         schema);

  NgdGenOptions gen;
  gen.count = 12;
  gen.max_diameter = 3;
  gen.seed = pc.seed + 1;
  gen.violation_rate = 0.2;
  NgdSet sigma = GenerateNgdSet(*g, gen);
  ASSERT_GT(sigma.size(), 0u);
  ASSERT_TRUE(ValidateForIncremental(sigma).ok());

  // Batch result on G.
  VioSet before = Dect(*g, sigma);

  UpdateGenOptions up;
  up.fraction = pc.update_fraction;
  up.insert_fraction = pc.insert_fraction;
  up.seed = pc.seed + 2;
  UpdateBatch batch = GenerateUpdateBatch(g.get(), up);
  ASSERT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok());

  // The old view still reproduces Vio(Σ, G).
  DectOptions old_view;
  old_view.view = GraphView::kOld;
  VioSet before_check = Dect(*g, sigma, old_view);
  EXPECT_EQ(before.size(), before_check.size());

  auto delta = IncDect(*g, sigma, batch);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();

  // ΔVio+ contains only genuinely new violations; ΔVio- only old ones.
  for (const auto& v : delta->added.items()) {
    EXPECT_FALSE(before.Contains(v)) << "ΔVio+ item already in Vio(Σ,G)";
  }
  for (const auto& v : delta->removed.items()) {
    EXPECT_TRUE(before.Contains(v)) << "ΔVio- item not in Vio(Σ,G)";
  }

  VioSet incremental = ApplyDelta(before, *delta);
  VioSet after = Dect(*g, sigma);
  EXPECT_EQ(incremental.size(), after.size());
  for (const auto& v : after.items()) {
    EXPECT_TRUE(incremental.Contains(v))
        << "missing violation for rule " << sigma[v.ngd_index].name();
  }
  for (const auto& v : incremental.items()) {
    EXPECT_TRUE(after.Contains(v))
        << "spurious violation for rule " << sigma[v.ngd_index].name();
  }

  // After Commit, the new view is the only view and must agree.
  g->Commit();
  VioSet committed = Dect(*g, sigma);
  EXPECT_EQ(committed.size(), after.size());
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, IncDectPropertyTest,
    ::testing::Values(
        PropertyCase{"small_balanced", 300, 700, 0.10, 0.5, 101},
        PropertyCase{"small_insert_heavy", 300, 700, 0.15, 0.9, 102},
        PropertyCase{"small_delete_heavy", 300, 700, 0.15, 0.1, 103},
        PropertyCase{"medium_balanced", 800, 2000, 0.10, 0.5, 104},
        PropertyCase{"medium_big_batch", 800, 2000, 0.30, 0.5, 105},
        PropertyCase{"dense", 400, 2400, 0.10, 0.5, 106},
        PropertyCase{"sparse", 1200, 1500, 0.10, 0.5, 107},
        PropertyCase{"tiny_graph", 60, 150, 0.25, 0.5, 108},
        PropertyCase{"seed_variant_a", 500, 1200, 0.12, 0.5, 109},
        PropertyCase{"seed_variant_b", 500, 1200, 0.12, 0.5, 110}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return info.param.name;
    });

// Sequences of batches: incremental maintenance across commits.
TEST(IncDectSequenceTest, MaintainsViolationSetAcrossBatches) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(400, 1000, 55), schema);
  NgdGenOptions gen;
  gen.count = 8;
  gen.max_diameter = 3;
  gen.seed = 56;
  NgdSet sigma = GenerateNgdSet(*g, gen);
  ASSERT_GT(sigma.size(), 0u);

  VioSet vio = Dect(*g, sigma);
  for (int round = 0; round < 4; ++round) {
    UpdateGenOptions up;
    up.fraction = 0.08;
    up.seed = 200 + round;
    UpdateBatch batch = GenerateUpdateBatch(g.get(), up);
    ASSERT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok());
    auto delta = IncDect(*g, sigma, batch);
    ASSERT_TRUE(delta.ok());
    vio = ApplyDelta(vio, *delta);
    g->Commit();
    VioSet check = Dect(*g, sigma);
    ASSERT_EQ(vio.size(), check.size()) << "round " << round;
    for (const auto& v : check.items()) {
      ASSERT_TRUE(vio.Contains(v)) << "round " << round;
    }
  }
}

// Insert/delete ratio γ insensitivity (paper Exp-1(e)): correctness holds
// across the γ spectrum and deltas stay consistent.
class GammaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(GammaSweepTest, CorrectForAllRatios) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(300, 800, 77), schema);
  NgdGenOptions gen;
  gen.count = 6;
  gen.max_diameter = 2;
  gen.seed = 78;
  NgdSet sigma = GenerateNgdSet(*g, gen);
  VioSet before = Dect(*g, sigma);

  UpdateGenOptions up;
  up.fraction = 0.15;
  up.insert_fraction = GetParam();
  up.seed = 79;
  UpdateBatch batch = GenerateUpdateBatch(g.get(), up);
  ASSERT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok());
  auto delta = IncDect(*g, sigma, batch);
  ASSERT_TRUE(delta.ok());
  VioSet incremental = ApplyDelta(before, *delta);
  VioSet after = Dect(*g, sigma);
  EXPECT_EQ(incremental.size(), after.size());
}

INSTANTIATE_TEST_SUITE_P(Gamma, GammaSweepTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace ngd
