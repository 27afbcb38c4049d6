// FragmentSnapshot: one fragment of a fragmented graph, materialized as
// an induced-subgraph CSR (paper §7).
//
// The paper's parallel algorithms run over a graph fragmented across p
// workers by METIS; each worker holds its fragment F_i plus the d_Q-hop
// halo of replicated boundary nodes it needs to evaluate any match whose
// start node it owns without a per-candidate remote fetch. We reproduce
// that shape exactly:
//
//   - `csr` is the induced subgraph over members ∪ halo in GLOBAL node
//     ids (graph/snapshot.h induced constructor) — bindings, violations
//     and cross-fragment messages need no id translation;
//   - `members` are the owned nodes (Partition::members[f]); `halo` the
//     replicated non-owned nodes (their owners are the Partition's
//     fragment_of, which FragmentRuntime::OwnerOf answers);
//   - the halo is the d-hop ball around the fragment's BOUNDARY members:
//     any node within d hops of an owned node is within d hops of the
//     last owned node on that path, so d = max_Σ diameter(Q) makes every
//     match anchored at an owned node fully local (homomorphisms
//     contract distances, so all nodes of a match lie within d of every
//     other matched node);
//   - `candidates` scope seed enumeration to owned nodes
//     (owner-computes: each match is seeded exactly once cluster-wide).

#ifndef NGD_PARALLEL_FRAGMENT_H_
#define NGD_PARALLEL_FRAGMENT_H_

#include <memory>
#include <vector>

#include "graph/neighborhood.h"
#include "graph/snapshot.h"
#include "match/candidate_index.h"
#include "parallel/partitioner.h"

namespace ngd {

struct FragmentSnapshot {
  int fragment_id = 0;
  /// Induced CSR over members ∪ halo, global node ids.
  std::unique_ptr<GraphSnapshot> csr;
  std::vector<NodeId> members;    ///< owned nodes, ascending
  std::vector<NodeId> halo;       ///< replicated nodes, ascending
  NodeSet owned = NodeSet(0);     ///< mask over global ids
  FragmentCandidates candidates;  ///< owned-only C(u) index

  bool Owns(NodeId v) const { return owned.Contains(v); }
};

/// Builds fragment `fragment_id` of `part` over `view` of `g` with a
/// `halo_hops`-hop halo around its boundary members.
FragmentSnapshot BuildFragmentSnapshot(const Graph& g, const Partition& part,
                                       int fragment_id, GraphView view,
                                       int halo_hops);

}  // namespace ngd

#endif  // NGD_PARALLEL_FRAGMENT_H_
