// Immutable CSR snapshot of one view of a Graph.
//
// The live Graph keeps pointer-chased vector<vector<AdjEntry>> adjacency
// plus a global (src, dst, label) hash index — the right shape for the
// batch-update overlay, the wrong shape for the homomorphism hot path
// (paper §6.2): Expand scans an anchor's whole adjacency filtering by
// label, and every closure edge costs a hash probe. A GraphSnapshot
// flattens one view (kOld or kNew) once:
//
//   - out/in neighbor ids in flat arrays, grouped per node by edge label
//     into contiguous ranges ("label-partitioned adjacency"), sorted by
//     neighbor id within a range — Expand touches only the anchor's
//     matching label range, and closure-edge checks become a binary
//     search on the smaller-degree endpoint instead of a hash probe;
//   - attribute tuples in one flat array with per-node offsets;
//   - label → node-id candidate arrays in CSR form (C(u) enumeration).
//
// The overlay state is resolved at build time, so a snapshot serves
// exactly one GraphView and stays valid until the source graph mutates.
// Dect / FindAnyViolation / PDect build one snapshot per call and
// amortize it across every rule in Σ; incremental detection keeps using
// the live overlay graph (its searches are update-local).

#ifndef NGD_GRAPH_SNAPSHOT_H_
#define NGD_GRAPH_SNAPSHOT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/neighborhood.h"

namespace ngd {

class GraphSnapshot {
 public:
  /// Contiguous, ascending run of neighbor (or candidate) node ids.
  /// Neighbor ids are unique within a (node, direction, label) range
  /// because edge identity is (src, dst, label).
  struct IdRange {
    const NodeId* ptr = nullptr;
    size_t count = 0;

    const NodeId* begin() const { return ptr; }
    const NodeId* end() const { return ptr + count; }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }
  };

  /// Materializes `view` of `g`. O(|V| + |E| log d) for max degree d.
  GraphSnapshot(const Graph& g, GraphView view);

  /// Materializes the subgraph of `view` of `g` induced by `include`,
  /// keeping GLOBAL node ids: the id space (and the node-label and
  /// label→candidate arrays, which the binary format requires to cover
  /// every node) stays full-width, but adjacency and attribute tuples are
  /// materialized only for included nodes, and only edges with both
  /// endpoints included survive. This is the fragment CSR of the
  /// fragment-native parallel runtime (parallel/fragment.h): member and
  /// halo nodes carry real adjacency, every other id is an empty husk.
  /// Callers must scope candidate enumeration themselves (the candidate
  /// arrays still list excluded nodes — see match/candidate_index.h's
  /// FragmentCandidates).
  GraphSnapshot(const Graph& g, GraphView view, const NodeSet& include);

  const SchemaPtr& schema() const { return schema_; }
  GraphView view() const { return view_; }
  size_t NumNodes() const { return node_labels_.size(); }
  size_t NumEdges() const { return out_.nbr.size(); }

  LabelId NodeLabel(NodeId v) const { return node_labels_[v]; }
  /// Flat per-node label array (NumNodes() entries, indexed by NodeId) —
  /// the raw form the match expander's block candidate filter gathers
  /// from (match/homomorphism.cc).
  const LabelId* node_labels_data() const { return node_labels_.data(); }

  /// nullptr when the node does not carry the attribute (paper §3
  /// condition (a)); same contract as Graph::GetAttr.
  const Value* GetAttr(NodeId v, AttrId attr) const;

  /// Neighbors w of v with an edge v -[label]-> w (resp. w -[label]-> v).
  IdRange OutNeighbors(NodeId v, LabelId label) const {
    return FindRange(out_, v, label);
  }
  IdRange InNeighbors(NodeId v, LabelId label) const {
    return FindRange(in_, v, label);
  }

  /// Total out/in degree of v in this view (all labels).
  size_t OutDegree(NodeId v) const { return TotalDegree(out_, v); }
  size_t InDegree(NodeId v) const { return TotalDegree(in_, v); }

  /// Edge membership via binary search over the smaller of src's
  /// out-range and dst's in-range for `label`.
  bool HasEdge(NodeId src, NodeId dst, LabelId label) const;

  /// Invokes fn(LabelId, NodeId) for every out-edge v -[label]-> w of v,
  /// label-ascending.
  template <typename Fn>
  void ForEachOutEdge(NodeId v, Fn&& fn) const {
    ForEachEdge(out_, v, std::forward<Fn>(fn));
  }

  /// All node ids with the given label, ascending (candidate array).
  IdRange NodesWithLabel(LabelId label) const;
  size_t CandidateCount(LabelId label) const {
    return NodesWithLabel(label).size();
  }

 private:
  /// Binary persistence (graph/snapshot_io.{h,cc}) reads and rebuilds the
  /// raw CSR arrays directly — a loaded snapshot needs no re-sort and no
  /// re-intern — via this codec, the only friend.
  friend class SnapshotCodec;
  GraphSnapshot() = default;

  /// One direction of the adjacency: a two-level CSR. Node v owns the
  /// label groups groups[group_off[v] .. group_off[v+1]), each group a
  /// (label, begin, end) run into `nbr`, label-ascending per node.
  struct Direction {
    std::vector<NodeId> nbr;
    struct LabelGroup {
      LabelId label;
      uint32_t begin;
      uint32_t end;
    };
    std::vector<LabelGroup> groups;
    std::vector<uint32_t> group_off;  // size NumNodes()+1
  };

  GraphSnapshot(const Graph& g, GraphView view, const NodeSet* include);

  template <typename Fn>
  void ForEachEdge(const Direction& d, NodeId v, Fn&& fn) const {
    for (uint32_t gi = d.group_off[v]; gi < d.group_off[v + 1]; ++gi) {
      const Direction::LabelGroup& group = d.groups[gi];
      for (uint32_t i = group.begin; i < group.end; ++i) {
        fn(group.label, d.nbr[i]);
      }
    }
  }

  static size_t TotalDegree(const Direction& d, NodeId v);
  IdRange FindRange(const Direction& d, NodeId v, LabelId label) const;
  static void Build(const Graph& g, GraphView view, bool out,
                    const NodeSet* include, Direction* d);

  SchemaPtr schema_;
  GraphView view_;
  std::vector<LabelId> node_labels_;
  Direction out_;
  Direction in_;
  std::vector<std::pair<AttrId, Value>> attrs_;  // per-node, AttrId-sorted
  std::vector<uint32_t> attr_off_;               // size NumNodes()+1
  std::vector<NodeId> label_nodes_;              // grouped by label
  std::vector<uint32_t> label_off_;              // size num_labels+1
};

}  // namespace ngd

#endif  // NGD_GRAPH_SNAPSHOT_H_
