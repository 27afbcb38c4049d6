// FragmentSnapshot: one fragment of a fragmented graph (paper §7).
//
// The paper's parallel algorithms run over a graph fragmented across p
// workers by METIS; each worker holds its fragment F_i plus the d_Q-hop
// halo of replicated boundary nodes it needs to evaluate any match whose
// start node it owns without a per-candidate remote fetch. Here the
// workers are threads that read one CSR of the graph in GLOBAL node ids
// (FragmentRuntime::snapshot(), parallel/cluster.h), so a fragment keeps
// only what ownership needs:
//
//   - the owned nodes are Partition::members[f]; ownership decides which
//     fragment seeds a match and which adjacency scans are metered as
//     replica reads (FragmentRuntime::OwnerOf);
//   - `candidates` scope seed enumeration to owned nodes
//     (owner-computes: each match is seeded exactly once cluster-wide);
//   - `halo` is the d-hop ball around the fragment's BOUNDARY members,
//     minus the members: any node within d hops of an owned node is
//     within d hops of the last owned node on that path, so d = max_Σ
//     diameter(Q) puts every match anchored at an owned node inside
//     members ∪ halo (homomorphisms contract distances, so all nodes of a
//     match lie within d of every other matched node). The shared CSR
//     does not enforce that; the halo is the replication volume a
//     cluster would pay, metered as replicated_nodes.

#ifndef NGD_PARALLEL_FRAGMENT_H_
#define NGD_PARALLEL_FRAGMENT_H_

#include <vector>

#include "graph/snapshot.h"
#include "match/candidate_index.h"
#include "parallel/partitioner.h"

namespace ngd {

struct FragmentSnapshot {
  std::vector<NodeId> halo;       ///< replicated nodes, ascending
  FragmentCandidates candidates;  ///< owned-only C(u) index
};

/// Builds fragment `f` of `part`, a partition of `snap`, with a
/// `halo_hops`-hop halo around its boundary members.
FragmentSnapshot BuildFragmentSnapshot(const GraphSnapshot& snap,
                                       const Partition& part, int f,
                                       int halo_hops);

}  // namespace ngd

#endif  // NGD_PARALLEL_FRAGMENT_H_
