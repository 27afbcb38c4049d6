// Shared fixtures: the paper's Fig. 1 graphs G1–G4 and Example 3 rules
// φ1–φ4, the randomized (graph, Σ) workload generator both differential
// harnesses draw from, plus small helpers used across the suite.

#ifndef NGD_TESTS_TEST_UTIL_H_
#define NGD_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "core/parser.h"
#include "discovery/ngd_generator.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "match/match_order.h"
#include "util/rng.h"

namespace ngd {
namespace testing_util {

// ---- Example 3 rules (φ1–φ4), in the DSL --------------------------------

// φ1: an entity cannot be destroyed within c = 100 days of its creation.
inline constexpr const char* kPhi1 = R"(
ngd phi1 {
  match (x:_)-[wasCreatedOnDate]->(y:date), (x)-[wasDestroyedOnDate]->(z:date)
  then z.val - y.val >= 100
}
)";

// φ2: total population = female + male.
inline constexpr const char* kPhi2 = R"(
ngd phi2 {
  match (x:area)-[femalePopulation]->(y:integer),
        (x)-[malePopulation]->(z:integer),
        (x)-[populationTotal]->(w:integer)
  then y.val + z.val = w.val
}
)";

// φ3: smaller population in the same census => numerically larger
// (worse) populationRank.
inline constexpr const char* kPhi3 = R"(
ngd phi3 {
  match (x:place)-[partof]->(z:place), (y:place)-[partof]->(z:place),
        (x)-[population]->(m1:integer), (y)-[population]->(m2:integer),
        (x)-[populationRank]->(n1:integer), (y)-[populationRank]->(n2:integer),
        (m1)-[date]->(w:date), (m2)-[date]->(w:date)
  where m1.val < m2.val
  then n1.val > n2.val
}
)";

// φ4: a = b = 1, c = 10000: big follower/following deficit vs a real
// account means the other account must be flagged fake (status 0).
inline constexpr const char* kPhi4 = R"(
ngd phi4 {
  match (x:account)-[keys]->(w:company), (y:account)-[keys]->(w:company),
        (x)-[following]->(m1:integer), (y)-[following]->(m2:integer),
        (x)-[follower]->(n1:integer), (y)-[follower]->(n2:integer),
        (x)-[status]->(s1:boolean), (y)-[status]->(s2:boolean)
  where s1.val = 1,
        1 * (m1.val - m2.val) + 1 * (n1.val - n2.val) > 10000
  then s2.val = 0
}
)";

// ---- Fig. 1 graphs -------------------------------------------------------

struct NamedGraph {
  SchemaPtr schema;
  std::unique_ptr<Graph> graph;
};

/// Fixture edges always join freshly created nodes under base labels, so
/// AddEdge cannot fail; the check-discard keeps the builders readable
/// without dropping the Status on the floor.
inline void MustEdge(Status s) { EXPECT_TRUE(s.ok()) << s.ToString(); }

/// G1: BBC_Trust created 2007, destroyed 1946 (violates φ1).
/// val attributes are day numbers; any created > destroyed pair works.
inline NamedGraph BuildG1() {
  NamedGraph g{Schema::Create(), nullptr};
  g.graph = std::make_unique<Graph>(g.schema);
  NodeId trust = g.graph->AddNode("institution");
  NodeId created = g.graph->AddNode("date");
  g.graph->SetAttr(created, "val", Value(int64_t{732800}));  // 2007-ish
  NodeId destroyed = g.graph->AddNode("date");
  g.graph->SetAttr(destroyed, "val", Value(int64_t{710700}));  // 1946-08-28
  MustEdge(g.graph->AddEdge(trust, created, "wasCreatedOnDate"));
  MustEdge(g.graph->AddEdge(trust, destroyed, "wasDestroyedOnDate"));
  return g;
}

/// G2: Bhonpur, 600 female + 722 male but total 1572 (violates φ2).
inline NamedGraph BuildG2() {
  NamedGraph g{Schema::Create(), nullptr};
  g.graph = std::make_unique<Graph>(g.schema);
  NodeId area = g.graph->AddNode("area");
  auto add_int = [&](const char* label, int64_t v) {
    NodeId n = g.graph->AddNode(label);
    g.graph->SetAttr(n, "val", Value(v));
    return n;
  };
  MustEdge(g.graph->AddEdge(area, add_int("integer", 600), "femalePopulation"));
  MustEdge(g.graph->AddEdge(area, add_int("integer", 722), "malePopulation"));
  MustEdge(g.graph->AddEdge(area, add_int("integer", 1572), "populationTotal"));
  return g;
}

/// G3: Corona (pop 160000, rank 33) vs Downey (pop 111772, rank 11) in
/// California — Downey has fewer people but a better rank (violates φ3).
inline NamedGraph BuildG3() {
  NamedGraph g{Schema::Create(), nullptr};
  g.graph = std::make_unique<Graph>(g.schema);
  NodeId california = g.graph->AddNode("place");
  NodeId corona = g.graph->AddNode("place");
  NodeId downey = g.graph->AddNode("place");
  MustEdge(g.graph->AddEdge(corona, california, "partof"));
  MustEdge(g.graph->AddEdge(downey, california, "partof"));
  auto add_int = [&](int64_t v) {
    NodeId n = g.graph->AddNode("integer");
    g.graph->SetAttr(n, "val", Value(v));
    return n;
  };
  NodeId pop_corona = add_int(160000);
  NodeId pop_downey = add_int(111772);
  NodeId rank_corona = add_int(33);
  NodeId rank_downey = add_int(11);
  MustEdge(g.graph->AddEdge(corona, pop_corona, "population"));
  MustEdge(g.graph->AddEdge(downey, pop_downey, "population"));
  MustEdge(g.graph->AddEdge(corona, rank_corona, "populationRank"));
  MustEdge(g.graph->AddEdge(downey, rank_downey, "populationRank"));
  NodeId census = g.graph->AddNode("date");
  g.graph->SetAttr(census, "val", Value(int64_t{20140401}));
  MustEdge(g.graph->AddEdge(pop_corona, census, "date"));
  MustEdge(g.graph->AddEdge(pop_downey, census, "date"));
  return g;
}

/// G4: NatWest with a real account (75900 followers / 22000 following /
/// status 1) and NatWest_Help (2 followers / 1 following / status 1 —
/// claims real, violates φ4).
struct G4Nodes {
  NodeId company;
  NodeId real_account;
  NodeId fake_account;
  NodeId fake_status;
};

inline NamedGraph BuildG4(G4Nodes* nodes = nullptr) {
  NamedGraph g{Schema::Create(), nullptr};
  g.graph = std::make_unique<Graph>(g.schema);
  NodeId natwest = g.graph->AddNode("company");
  auto add_int = [&](const char* label, int64_t v) {
    NodeId n = g.graph->AddNode(label);
    g.graph->SetAttr(n, "val", Value(v));
    return n;
  };
  NodeId real = g.graph->AddNode("account");
  MustEdge(g.graph->AddEdge(real, natwest, "keys"));
  MustEdge(g.graph->AddEdge(real, add_int("integer", 75900), "follower"));
  MustEdge(g.graph->AddEdge(real, add_int("integer", 22000), "following"));
  MustEdge(g.graph->AddEdge(real, add_int("boolean", 1), "status"));
  NodeId fake = g.graph->AddNode("account");
  NodeId fake_status = add_int("boolean", 1);  // claims to be real: error
  MustEdge(g.graph->AddEdge(fake, natwest, "keys"));
  MustEdge(g.graph->AddEdge(fake, add_int("integer", 2), "follower"));
  MustEdge(g.graph->AddEdge(fake, add_int("integer", 1), "following"));
  MustEdge(g.graph->AddEdge(fake, fake_status, "status"));
  if (nodes != nullptr) {
    *nodes = G4Nodes{natwest, real, fake, fake_status};
  }
  return g;
}

// ---- Randomized differential workloads ----------------------------------
//
// The PR 3 incremental differential harness and the Σ-optimizer harness
// stress the same space: a synthetic graph of a seed-derived size with a
// generated rule set calibrated against it. Both draw their workloads
// here so a seed means the same (graph, Σ) in either suite.

struct RandomWorkload {
  SchemaPtr schema;
  std::unique_ptr<Graph> graph;
  NgdSet sigma;
  size_t nodes = 0;
  size_t edges = 0;
};

/// Derives a randomized (graph, Σ) workload. Size and diameter draws come
/// from *rng (the caller's per-case stream); graph topology and rule
/// content derive from `seed` directly, as GenerateGraph/GenerateNgdSet
/// are seeded components. `violation_rate` 0 gives mostly-clean graphs
/// (the validation regime), larger values seed real violations.
inline RandomWorkload MakeRandomWorkload(uint64_t seed, Rng* rng,
                                         size_t rule_count = 5,
                                         double violation_rate = 0.25) {
  RandomWorkload w;
  w.nodes = 40 + static_cast<size_t>(rng->UniformInt(0, 100));
  w.edges =
      w.nodes + static_cast<size_t>(rng->UniformInt(
                    static_cast<int64_t>(w.nodes) / 2,
                    static_cast<int64_t>(w.nodes) * 2));
  w.schema = Schema::Create();
  w.graph = GenerateGraph(SyntheticConfig(w.nodes, w.edges, seed), w.schema);
  NgdGenOptions gen;
  gen.count = rule_count;
  gen.max_diameter = rng->Bernoulli(0.5) ? 2 : 3;
  gen.seed = seed + 1;
  gen.violation_rate = violation_rate;
  w.sigma = GenerateNgdSet(*w.graph, gen);
  return w;
}

// ---- Closure-edge patterns on a hub graph -------------------------------

// A triangle and a 4-cycle with a chord: the last plan step of each has
// two or more anchor options, so the walker's anchor choice is live.
inline constexpr const char* kClosureRules = R"(
ngd triangle {
  match (x:n)-[e]->(y:n), (y)-[e]->(z:n), (x)-[e]->(z)
  then x.v <= z.v
}
ngd chorded_square {
  match (a:n)-[e]->(b:n), (b)-[e]->(c:n), (c)-[e]->(d:n), (a)-[e]->(d),
        (a)-[e]->(c)
  then a.v + b.v <= c.v + d.v
}
)";

/// `nodes` nodes labelled n with a small int attribute v; the first
/// `hubs` reach most other nodes (and are reached by many), the rest are
/// wired by `extra_edges` random edges — long adjacencies next to short
/// ones, so anchor costs differ and the hybrid policy splits.
inline std::unique_ptr<Graph> BuildHubGraph(const SchemaPtr& schema,
                                            size_t nodes, size_t hubs,
                                            size_t extra_edges,
                                            uint64_t seed) {
  auto g = std::make_unique<Graph>(schema);
  const LabelId e = schema->InternLabel("e");
  Rng rng(seed);
  for (size_t i = 0; i < nodes; ++i) {
    const NodeId v = g->AddNode("n");
    g->SetAttr(v, "v", Value(rng.UniformInt(0, 9)));
  }
  for (NodeId hub = 0; hub < hubs; ++hub) {
    for (NodeId v = static_cast<NodeId>(hubs); v < nodes; ++v) {
      if (rng.Bernoulli(0.6)) MustEdge(g->AddEdge(hub, v, e));
      if (rng.Bernoulli(0.3)) MustEdge(g->AddEdge(v, hub, e));
    }
  }
  const int64_t last = static_cast<int64_t>(nodes) - 1;
  for (size_t k = 0; k < extra_edges; ++k) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, last));
    const NodeId d = static_cast<NodeId>(rng.UniformInt(0, last));
    if (s != d && !g->HasEdge(s, d, e, GraphView::kNew)) {
      MustEdge(g->AddEdge(s, d, e));
    }
  }
  return g;
}

/// True iff some step of `plan` can be anchored at two or more matched
/// nodes — the case where the walker's anchor choice is live.
inline bool HasMultiAnchorStep(const MatchPlan& plan) {
  for (const ExpansionStep& step : plan.steps) {
    if (step.anchor_options.size() >= 2) return true;
  }
  return false;
}

// ---- Sweep sizes and replay seeds from the environment ------------------

/// The case count of a randomized sweep: the positive integer in env var
/// `name`, else `fallback` (unset, non-numeric and non-positive values).
inline size_t EnvCount(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const long n = std::strtol(env, nullptr, 10);
  return n > 0 ? static_cast<size_t>(n) : fallback;
}

/// The seed of one case to replay, from env var `name`; nullopt if unset.
inline std::optional<uint64_t> EnvSeed(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  return std::strtoull(env, nullptr, 10);
}

/// Parses a rule set or aborts the test.
inline NgdSet MustParse(const std::string& text, const SchemaPtr& schema) {
  auto result = ParseNgds(text, schema);
  if (!result.ok()) {
    ADD_FAILURE() << "parse failed: " << result.status().ToString();
    return NgdSet{};
  }
  return std::move(result).value();
}

}  // namespace testing_util
}  // namespace ngd

#endif  // NGD_TESTS_TEST_UTIL_H_
