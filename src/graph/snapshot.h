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
// exactly one GraphView. Its arrays live in one refcounted, immutable
// SnapshotCore, so a snapshot stays valid and unchanged however the
// source graph mutates afterwards, and copying one is O(1).
//
// A Graph keeps the core of its committed edge set (the kOld view). A
// full snapshot of that set — kOld always, kNew when no batch is pending
// — shares it instead of building one. After a Commit the first request
// refreshes it: clean nodes' label groups and neighbor runs are copied
// from the previous core in bulk, and only the nodes the epoch touched
// are re-sorted from the live lists (O(|ΔG| log d) plus a linear copy).
// So Dect, RotateState, IncDect's DeltaView base (graph/delta_view.h) and
// PDect's fragment runtime (parallel/cluster.h) all take the committed CSR
// in O(1) when it is current; only kNew with a batch pending builds its
// own. A Graph materialized from a loaded snapshot (graph/snapshot_io.h)
// starts with that snapshot's core as its committed one, and copies it at
// the first refresh instead of writing into it.

#ifndef NGD_GRAPH_SNAPSHOT_H_
#define NGD_GRAPH_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace ngd {

/// The arrays behind a GraphSnapshot; immutable once a snapshot holds
/// them.
struct SnapshotCore {
  /// One direction of the adjacency: a two-level CSR. Node v owns the
  /// label groups groups[group_off[v] .. group_off[v+1]), each group a
  /// (label, begin, end) run into `nbr`, label-ascending per node.
  struct LabelGroup {
    LabelId label;
    uint32_t begin;
    uint32_t end;
  };
  struct Direction {
    std::vector<NodeId> nbr;
    std::vector<LabelGroup> groups;
    std::vector<uint32_t> group_off;  // size NumNodes()+1
  };

  std::vector<LabelId> node_labels;
  Direction out;
  Direction in;
  std::vector<std::pair<AttrId, Value>> attrs;  // per-node, AttrId-sorted
  std::vector<uint32_t> attr_off;               // size NumNodes()+1
  std::vector<NodeId> label_nodes;              // grouped by label
  std::vector<uint32_t> label_off;              // size num_labels+1

  /// Leases of a committed core that snapshots have dropped (see
  /// CommittedCsr::leased). The release increment pairs with the
  /// refresh's acquire load, so every read through a dropped lease
  /// happens before the refresh writes in place.
  mutable std::atomic<uint64_t> leases_returned{0};
};

/// A Graph's committed CSR and what changed since it was built (guarded
/// by the Graph's csr_.mu).
struct CommittedCsr {
  /// nullptr until the first request.
  std::shared_ptr<SnapshotCore> core;
  /// Leases of `core` handed to snapshots; all returned means no snapshot
  /// holds it, and the refresh may write into it.
  uint64_t leased = 0;
  /// `core` came from a loaded snapshot, which reads it without a lease:
  /// requests hand it out unleased, and the refresh never writes into it.
  bool adopted = false;
  /// Nodes `core` covers whose committed adjacency changed since; may
  /// repeat.
  std::vector<NodeId> dirty;
  /// A covered node's attributes changed: the next request rebuilds all.
  bool stale = false;
  /// An adjacency buffer no snapshot holds; the refresh writes into it
  /// and swaps it with the core's, so an epoch allocates nothing O(|G|).
  SnapshotCore::Direction spare;
};

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

  /// `view` of `g`. Shares g's committed core when `view` is the
  /// committed edge set (kOld, or kNew with nothing pending): O(1) when it
  /// is current, a refresh of the touched nodes after a Commit, and
  /// O(|V| + |E| log d) for max degree d on the first request or after
  /// SetAttr on an existing node. Otherwise a full build.
  GraphSnapshot(const Graph& g, GraphView view);

  const SchemaPtr& schema() const { return schema_; }
  GraphView view() const { return view_; }
  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const { return num_edges_; }

  LabelId NodeLabel(NodeId v) const { return node_labels_[v]; }
  /// Flat per-node label array (NumNodes() entries, indexed by NodeId) —
  /// the raw form the match expander's block candidate filter gathers
  /// from (match/homomorphism.cc).
  const LabelId* node_labels_data() const { return node_labels_; }

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

  /// Edge membership via binary search over the smaller of src's
  /// out-range and dst's in-range for `label`.
  bool HasEdge(NodeId src, NodeId dst, LabelId label) const;

  /// Invokes fn(LabelId, NodeId) for every out-edge v -[label]-> w of v,
  /// label-ascending.
  template <typename Fn>
  void ForEachOutEdge(NodeId v, Fn&& fn) const {
    ForEachEdge(out_, v, std::forward<Fn>(fn));
  }
  /// Same for every in-edge w -[label]-> v of v.
  template <typename Fn>
  void ForEachInEdge(NodeId v, Fn&& fn) const {
    ForEachEdge(in_, v, std::forward<Fn>(fn));
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

  /// Raw views of one SnapshotCore::Direction.
  struct DirectionView {
    const NodeId* nbr = nullptr;
    const SnapshotCore::LabelGroup* groups = nullptr;
    const uint32_t* group_off = nullptr;
  };

  /// Holds `core` and points the raw views at its arrays.
  void Bind(std::shared_ptr<const SnapshotCore> core);
  /// g's committed core, refreshed first if g changed since it was built.
  static std::shared_ptr<const SnapshotCore> CommittedCore(const Graph& g);
  /// Makes `snap`'s core the committed one of g, which has none yet and
  /// holds exactly `snap`'s nodes, attributes and edges, all committed.
  static void AdoptCommittedCore(Graph* g, const GraphSnapshot& snap);

  template <typename Fn>
  void ForEachEdge(const DirectionView& d, NodeId v, Fn&& fn) const {
    for (uint32_t gi = d.group_off[v]; gi < d.group_off[v + 1]; ++gi) {
      const SnapshotCore::LabelGroup& group = d.groups[gi];
      for (uint32_t i = group.begin; i < group.end; ++i) {
        fn(group.label, d.nbr[i]);
      }
    }
  }

  static IdRange FindRange(const DirectionView& d, NodeId v, LabelId label);

  SchemaPtr schema_;
  GraphView view_ = GraphView::kNew;
  std::shared_ptr<const SnapshotCore> core_;
  // Raw views of core_'s arrays. The accessors read through these, one
  // load from `this` like the vectors a snapshot once owned.
  size_t num_nodes_ = 0;
  size_t num_edges_ = 0;
  size_t num_label_offs_ = 0;
  const LabelId* node_labels_ = nullptr;
  DirectionView out_;
  DirectionView in_;
  const std::pair<AttrId, Value>* attrs_ = nullptr;
  const uint32_t* attr_off_ = nullptr;
  const NodeId* label_nodes_ = nullptr;
  const uint32_t* label_off_ = nullptr;
};

}  // namespace ngd

#endif  // NGD_GRAPH_SNAPSHOT_H_
