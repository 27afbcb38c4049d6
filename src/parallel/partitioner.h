// Streaming edge-cut graph partitioner (the METIS stand-in; EXPERIMENTS.md
// §1 "Scale mapping").
//
// PIncDect/PDect work on a graph fragmented across p processors (paper §7
// fragments with METIS). The algorithms only depend on fragment locality
// — which nodes are co-resident and how many edges cross fragments — so a
// balanced streaming partitioner preserves their behaviour. We implement
// Linear Deterministic Greedy (LDG), label- and degree-aware:
//
//   - nodes are streamed in descending-degree order (ties by id), so hubs
//     are spread across fragments before their spokes arrive and the
//     spokes then cluster around them;
//   - each node goes to the fragment holding most of its already-placed
//     neighbors, weighted by remaining capacity, with a small affinity
//     bonus for fragments already rich in the node's label — candidate
//     scans C(u) are label-indexed, so co-locating a label keeps seed
//     enumeration fragment-local for the rules that select it;
//   - capacity is |V|/p plus one node of slack: until every node is
//     placed some fragment holds fewer than |V|/p nodes, so a node always
//     finds a fragment with room.
//
// The result carries full ownership structure: fragment_of, per-fragment
// member lists, and per-fragment boundary sets (owned nodes with at least
// one crossing edge) — the seeds of the halos FragmentRuntime meters
// (parallel/fragment.h). It reads the same CSR the runtime's fragments
// share.

#ifndef NGD_PARALLEL_PARTITIONER_H_
#define NGD_PARALLEL_PARTITIONER_H_

#include <vector>

#include "graph/snapshot.h"

namespace ngd {

struct Partition {
  int num_fragments = 1;
  std::vector<int> fragment_of;  ///< node id -> fragment [0, p)
  std::vector<size_t> fragment_sizes;
  /// Per-fragment owned node ids, ascending.
  std::vector<std::vector<NodeId>> members;
  /// Per-fragment boundary set: owned nodes with >= 1 edge (either
  /// direction) to a node owned elsewhere; ascending.
  std::vector<std::vector<NodeId>> boundary;
  size_t crossing_edges = 0;  ///< edges with endpoints in two fragments
};

/// Partitions the nodes of `g` into `p` balanced fragments.
/// Deterministic: same (g, p) -> same Partition.
Partition PartitionGraph(const GraphSnapshot& g, int p);

}  // namespace ngd

#endif  // NGD_PARALLEL_PARTITIONER_H_
