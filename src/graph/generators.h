// Synthetic graph generation.
//
// The paper evaluates on DBpedia (28M nodes / 33.4M edges, 200 node types /
// 160 edge types), YAGO2 (3.5M / 7.35M, 13 / 36), Pokec (1.63M / 30.6M,
// 269 / 11) and synthetic graphs with |L| = 500 labels and 2000 integer
// values. Those datasets are not redistributable here, so each preset
// below reproduces a graph family with the same label-alphabet sizes,
// density and skew, at a configurable scale (see EXPERIMENTS.md §1
// "Scale mapping"). All
// detection algorithms are driven by exactly these statistics — label
// selectivity, degree distribution, d-hop neighborhood size — so the
// relative behaviour (Fig. 4 shapes) is preserved.

#ifndef NGD_GRAPH_GENERATORS_H_
#define NGD_GRAPH_GENERATORS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "graph/graph.h"

namespace ngd {

struct GraphGenConfig {
  std::string name = "synthetic";
  size_t num_nodes = 10000;
  size_t num_edges = 20000;
  size_t num_node_labels = 500;
  size_t num_edge_labels = 50;
  /// Attribute alphabet size; each node gets attrs_per_node of them.
  size_t num_attrs = 20;
  size_t attrs_per_node = 3;
  int64_t value_min = 0;
  int64_t value_max = 1999;  // paper's Synthetic: 2000 integer values
  /// Zipf skew of node/edge label frequencies (0 = uniform).
  double label_skew = 0.8;
  /// Fraction of edge endpoints drawn by preferential attachment; higher
  /// values produce heavier-tailed degree distributions (social networks).
  double pref_attach = 0.3;
  uint64_t seed = 7;
};

/// Builds a random graph per the config. The schema receives interned
/// labels "t0..","e0.." and attributes "a0..".
std::unique_ptr<Graph> GenerateGraph(const GraphGenConfig& config,
                                     SchemaPtr schema);

/// Presets mirroring §7's datasets at `scale` (1.0 = paper-sized).
/// tools/ngdbench's fig4_panels and exp5 series use scale ≈ 1/500 so each
/// point finishes in seconds on a laptop; EXPERIMENTS.md records the
/// scaled sizes.
GraphGenConfig DBpediaLikeConfig(double scale, uint64_t seed = 7);
GraphGenConfig Yago2LikeConfig(double scale, uint64_t seed = 7);
GraphGenConfig PokecLikeConfig(double scale, uint64_t seed = 7);
/// Paper's Synthetic graph at explicit size.
GraphGenConfig SyntheticConfig(size_t num_nodes, size_t num_edges,
                               uint64_t seed = 7);

}  // namespace ngd

#endif  // NGD_GRAPH_GENERATORS_H_
