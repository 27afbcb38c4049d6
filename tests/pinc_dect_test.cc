#include <gtest/gtest.h>

#include "core/parser.h"
#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "discovery/ngd_generator.h"
#include "graph/generators.h"
#include "parallel/pinc_dect.h"

namespace ngd {
namespace {

struct Workload {
  SchemaPtr schema;
  std::unique_ptr<Graph> graph;
  NgdSet sigma;
  UpdateBatch batch;
  DeltaVio expected;
};

Workload MakeWorkload(uint64_t seed, size_t nodes = 500, size_t edges = 1300,
                      double fraction = 0.12) {
  Workload w;
  w.schema = Schema::Create();
  w.graph = GenerateGraph(SyntheticConfig(nodes, edges, seed), w.schema);
  NgdGenOptions gen;
  gen.count = 10;
  gen.max_diameter = 3;
  gen.seed = seed + 1;
  gen.violation_rate = 0.25;
  w.sigma = GenerateNgdSet(*w.graph, gen);
  UpdateGenOptions up;
  up.fraction = fraction;
  up.seed = seed + 2;
  w.batch = GenerateUpdateBatch(w.graph.get(), up);
  EXPECT_TRUE(ApplyUpdateBatch(w.graph.get(), &w.batch).ok());
  auto delta = IncDect(*w.graph, w.sigma, w.batch);
  EXPECT_TRUE(delta.ok());
  w.expected = std::move(delta).value();
  return w;
}

void ExpectSameDelta(const DeltaVio& expected, const DeltaVio& actual) {
  EXPECT_EQ(expected.added.size(), actual.added.size());
  EXPECT_EQ(expected.removed.size(), actual.removed.size());
  for (const auto& v : expected.added.items()) {
    EXPECT_TRUE(actual.added.Contains(v));
  }
  for (const auto& v : expected.removed.items()) {
    EXPECT_TRUE(actual.removed.Contains(v));
  }
}

class PIncDectProcessorsTest : public ::testing::TestWithParam<int> {};

TEST_P(PIncDectProcessorsTest, MatchesSequentialIncDect) {
  Workload w = MakeWorkload(31);
  PIncDectOptions opts;
  opts.num_processors = GetParam();
  opts.balance_interval_ms = 5;
  auto result = PIncDect(*w.graph, w.sigma, w.batch, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameDelta(w.expected, result->delta);
  EXPECT_GT(result->metrics.work_units, 0u);
  EXPECT_GT(result->candidate_neighborhood_nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Processors, PIncDectProcessorsTest,
                         ::testing::Values(1, 2, 4, 8));

struct VariantCase {
  const char* name;
  bool split;
  bool balance;
};

class PIncDectVariantTest : public ::testing::TestWithParam<VariantCase> {};

TEST_P(PIncDectVariantTest, AblationVariantsAreAllCorrect) {
  Workload w = MakeWorkload(37);
  PIncDectOptions opts;
  opts.num_processors = 4;
  opts.enable_split = GetParam().split;
  opts.enable_balance = GetParam().balance;
  opts.balance_interval_ms = 5;
  auto result = PIncDect(*w.graph, w.sigma, w.batch, opts);
  ASSERT_TRUE(result.ok());
  ExpectSameDelta(w.expected, result->delta);
  if (!GetParam().split) {
    EXPECT_EQ(result->metrics.splits, 0u);
  }
  if (!GetParam().balance) {
    EXPECT_EQ(result->metrics.balance_moves, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, PIncDectVariantTest,
    ::testing::Values(VariantCase{"full", true, true},
                      VariantCase{"ns_no_split", false, true},
                      VariantCase{"nb_no_balance", true, false},
                      VariantCase{"NO_neither", false, false}),
    [](const ::testing::TestParamInfo<VariantCase>& info) {
      return info.param.name;
    });

TEST(PIncDectTest, SplittingTriggersOnHubs) {
  // A hub with a huge adjacency list must trigger the hybrid splitter
  // when C is small.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  LabelId n = schema->InternLabel("n");
  LabelId e = schema->InternLabel("e");
  AttrId v = schema->InternAttr("v");
  NodeId hub = g.AddNode(n);
  g.SetAttr(hub, v, Value(int64_t{0}));
  for (int i = 0; i < 600; ++i) {
    NodeId leaf = g.AddNode(n);
    g.SetAttr(leaf, v, Value(int64_t{i}));
    ASSERT_TRUE(g.AddEdge(hub, leaf, e).ok());
  }
  NodeId src = g.AddNode(n);
  g.SetAttr(src, v, Value(int64_t{50}));

  auto parsed = ParseNgds(
      "ngd r { match (x:n)-[e]->(y:n), (y)-[e]->(z:n) then x.v <= z.v }",
      schema);
  ASSERT_TRUE(parsed.ok());

  UpdateBatch batch;
  batch.updates.push_back({UpdateKind::kInsert, src, hub, e});
  ASSERT_TRUE(ApplyUpdateBatch(&g, &batch).ok());

  auto sequential = IncDect(g, *parsed, batch);
  ASSERT_TRUE(sequential.ok());

  PIncDectOptions opts;
  opts.num_processors = 4;
  opts.latency_c = 1.0;  // aggressive splitting
  opts.min_split_adjacency = 8;
  auto result = PIncDect(g, *parsed, batch, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.splits, 0u);
  ExpectSameDelta(*sequential, result->delta);
}

TEST(PIncDectTest, LargeLatencyDisablesSplitting) {
  Workload w = MakeWorkload(41);
  PIncDectOptions opts;
  opts.num_processors = 4;
  opts.latency_c = 1e9;
  auto result = PIncDect(*w.graph, w.sigma, w.batch, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.splits, 0u);
  ExpectSameDelta(w.expected, result->delta);
}

TEST(PIncDectTest, DeterministicDeltaAcrossRuns) {
  Workload w = MakeWorkload(43);
  PIncDectOptions opts;
  opts.num_processors = 4;
  opts.balance_interval_ms = 1;
  auto r1 = PIncDect(*w.graph, w.sigma, w.batch, opts);
  auto r2 = PIncDect(*w.graph, w.sigma, w.batch, opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ExpectSameDelta(r1->delta, r2->delta);
}

TEST(PIncDectTest, ReplicationMetricsScaleWithProcessors) {
  Workload w = MakeWorkload(47);
  PIncDectOptions p2;
  p2.num_processors = 2;
  PIncDectOptions p8;
  p8.num_processors = 8;
  auto r2 = PIncDect(*w.graph, w.sigma, w.batch, p2);
  auto r8 = PIncDect(*w.graph, w.sigma, w.batch, p8);
  ASSERT_TRUE(r2.ok() && r8.ok());
  EXPECT_EQ(r2->candidate_neighborhood_nodes,
            r8->candidate_neighborhood_nodes);
  EXPECT_GT(r8->metrics.replicated_nodes, r2->metrics.replicated_nodes);
}

TEST(PIncDectTest, RejectsEdgelessPattern) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  g.AddNode("n");
  auto parsed = ParseNgds("ngd r { match (x:n) then x.v >= 0 }", schema);
  ASSERT_TRUE(parsed.ok());
  UpdateBatch batch;
  PIncDectOptions opts;
  auto result = PIncDect(g, *parsed, batch, opts);
  EXPECT_FALSE(result.ok());
}

TEST(PIncDectTest, EmptyBatchTerminatesImmediately) {
  Workload w = MakeWorkload(53, 100, 200, 0.0);
  PIncDectOptions opts;
  opts.num_processors = 4;
  auto result = PIncDect(*w.graph, w.sigma, w.batch, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->delta.empty());
}

}  // namespace
}  // namespace ngd
