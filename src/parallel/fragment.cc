#include "parallel/fragment.h"

#include <algorithm>
#include <cassert>

#include "graph/accessor.h"

namespace ngd {

FragmentSnapshot BuildFragmentSnapshot(const Graph& g, const Partition& part,
                                       int fragment_id, GraphView view,
                                       int halo_hops) {
  assert(fragment_id >= 0 && fragment_id < part.num_fragments);
  FragmentSnapshot f;
  f.fragment_id = fragment_id;
  f.members = part.members[fragment_id];
  f.owned = NodeSet(g.NumNodes());
  for (NodeId v : f.members) f.owned.Add(v);

  // Halo = d-ball around the boundary members, minus the members. A node
  // within d hops of ANY member is within d hops of the last member on
  // the connecting path — which has a crossing edge, hence is boundary —
  // so seeding the BFS from the boundary only is exact, not a heuristic.
  NodeSet include(g.NumNodes());
  for (NodeId v : f.members) include.Add(v);
  if (halo_hops > 0 && !part.boundary[fragment_id].empty()) {
    NodeSet ball =
        DHopNeighborhood(g, part.boundary[fragment_id], halo_hops, view);
    for (NodeId v : ball.members()) include.Add(v);
  }
  std::vector<NodeId> all = include.members();
  std::sort(all.begin(), all.end());
  f.halo.reserve(all.size() - f.members.size());
  for (NodeId v : all) {
    if (!f.owned.Contains(v)) f.halo.push_back(v);
  }

  f.csr = std::make_unique<GraphSnapshot>(g, view, include);
  f.candidates = FragmentCandidates(GraphAccessor(*f.csr), f.members);
  return f;
}

}  // namespace ngd
