// Quickstart: catch the paper's Fig. 1 inconsistencies in ~60 lines.
//
// Builds the Yago population graph (G2 of Fig. 1), declares the NGD
//   φ2 = Q2[w,x,y,z](∅ → y.val + z.val = w.val)
// in the rule DSL, runs batch detection, then fixes the data and
// revalidates.
//
// Run: ./quickstart

#include <cstdio>

#include "core/parser.h"
#include "detect/dect.h"
#include "graph/graph.h"

int main() {
  using namespace ngd;

  // 1. A schema (shared label/attribute alphabets) and a graph.
  SchemaPtr schema = Schema::Create();
  Graph g(schema);

  // Bhonpur: 600 female + 722 male, but total population recorded 1572.
  NodeId bhonpur = g.AddNode("area");
  auto add_int = [&](const char* label, int64_t value) {
    NodeId n = g.AddNode(label);
    g.SetAttr(n, "val", Value(value));
    return n;
  };
  NodeId female = add_int("integer", 600);
  NodeId male = add_int("integer", 722);
  NodeId total = add_int("integer", 1572);
  (void)g.AddEdge(bhonpur, female, "femalePopulation");
  (void)g.AddEdge(bhonpur, male, "malePopulation");
  (void)g.AddEdge(bhonpur, total, "populationTotal");

  // 2. The data-quality rule, in the NGD DSL.
  auto rules = ParseNgds(R"(
    # total population must equal female + male (paper Example 3, φ2)
    ngd population_sum {
      match (x:area)-[femalePopulation]->(y:integer),
            (x)-[malePopulation]->(z:integer),
            (x)-[populationTotal]->(w:integer)
      then y.val + z.val = w.val
    }
  )",
                         schema);
  if (!rules.ok()) {
    std::fprintf(stderr, "rule parse error: %s\n",
                 rules.status().ToString().c_str());
    return 1;
  }

  // 3. Detect: Vio(Σ, G).
  VioSet violations = Dect(g, *rules);
  std::printf("violations found: %zu\n", violations.size());
  for (const Violation& v : violations.Sorted()) {
    std::printf("  %s\n", ViolationToString(v, *rules, g).c_str());
  }

  // 4. Repair and revalidate.
  g.SetAttr(total, "val", Value(int64_t{600 + 722}));
  std::printf("after repair, graph %s\n",
              Dect(g, *rules).empty() ? "satisfies the rules" : "still dirty");
  return 0;
}
