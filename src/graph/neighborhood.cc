#include "graph/neighborhood.h"

#include "graph/snapshot.h"

namespace ngd {

namespace {

/// Breadth-first over `for_each_neighbor(v, add)`, which passes every in-
/// and out-neighbor of v to add. The set's member list is in BFS order,
/// so each hop expands the members the previous hop added.
template <typename ForEachNeighbor>
NodeSet Ball(size_t num_nodes, const std::vector<NodeId>& seeds, int d,
             ForEachNeighbor&& for_each_neighbor) {
  NodeSet set(num_nodes);
  for (NodeId s : seeds) set.Add(s);
  size_t begin = 0;
  for (int hop = 0; hop < d && begin < set.size(); ++hop) {
    const size_t end = set.size();
    for (size_t i = begin; i < end; ++i) {
      for_each_neighbor(set.members()[i], [&set](NodeId w) { set.Add(w); });
    }
    begin = end;
  }
  return set;
}

}  // namespace

NodeSet DHopNeighborhood(const Graph& g, const std::vector<NodeId>& seeds,
                         int d, GraphView view) {
  return Ball(g.NumNodes(), seeds, d, [&](NodeId v, auto&& add) {
    for (const auto* adj : {&g.OutEdges(v), &g.InEdges(v)}) {
      for (const AdjEntry& e : *adj) {
        if (EdgeInView(e.state, view)) add(e.other);
      }
    }
  });
}

NodeSet DHopNeighborhood(const GraphSnapshot& snap,
                         const std::vector<NodeId>& seeds, int d) {
  return Ball(snap.NumNodes(), seeds, d, [&](NodeId v, auto&& add) {
    snap.ForEachOutEdge(v, [&](LabelId, NodeId w) { add(w); });
    snap.ForEachInEdge(v, [&](LabelId, NodeId w) { add(w); });
  });
}

}  // namespace ngd
