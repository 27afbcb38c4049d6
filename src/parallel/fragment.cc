#include "parallel/fragment.h"

#include <algorithm>
#include <cassert>

#include "graph/accessor.h"
#include "graph/neighborhood.h"

namespace ngd {

FragmentSnapshot BuildFragmentSnapshot(const GraphSnapshot& snap,
                                       const Partition& part, int f,
                                       int halo_hops) {
  assert(f >= 0 && f < part.num_fragments);
  FragmentSnapshot frag;
  // Halo = d-ball around the boundary members, minus the members. A node
  // within d hops of ANY member is within d hops of the last member on
  // the connecting path — which has a crossing edge, hence is boundary —
  // so seeding the BFS from the boundary only is exact, not a heuristic.
  if (halo_hops > 0 && !part.boundary[f].empty()) {
    const NodeSet ball = DHopNeighborhood(snap, part.boundary[f], halo_hops);
    for (NodeId v : ball.members()) {
      if (part.fragment_of[v] != f) frag.halo.push_back(v);
    }
    std::sort(frag.halo.begin(), frag.halo.end());
  }
  frag.candidates = FragmentCandidates(GraphAccessor(snap), part.members[f]);
  return frag;
}

}  // namespace ngd
