#include "graph/neighborhood.h"

#include <queue>

namespace ngd {

NodeSet DHopNeighborhood(const Graph& g, const std::vector<NodeId>& seeds,
                         int d, GraphView view) {
  NodeSet set(g.NumNodes());
  std::queue<std::pair<NodeId, int>> frontier;
  for (NodeId s : seeds) {
    if (!set.Contains(s)) {
      set.Add(s);
      frontier.push({s, 0});
    }
  }
  while (!frontier.empty()) {
    auto [v, dist] = frontier.front();
    frontier.pop();
    if (dist >= d) continue;
    auto visit = [&](const AdjEntry& e) {
      if (!EdgeInView(e.state, view)) return;
      if (!set.Contains(e.other)) {
        set.Add(e.other);
        frontier.push({e.other, dist + 1});
      }
    };
    for (const auto& e : g.OutEdges(v)) visit(e);
    for (const auto& e : g.InEdges(v)) visit(e);
  }
  return set;
}

}  // namespace ngd
