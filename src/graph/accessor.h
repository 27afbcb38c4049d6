// GraphAccessor: one matching-engine-facing view over the live overlay
// Graph (a GraphView of it), an immutable CSR GraphSnapshot, or a
// DeltaView (an UpdateBatch overlaid on a base snapshot).
//
// The homomorphism engine (match/) is written once against this facade.
// Batch detection matches CSR label-partitioned adjacency: Dect a
// whole-graph GraphSnapshot, PDect the one its fragments share
// (parallel/fragment.h);
// incremental detection (IncDect, PIncDect) either matches the live
// overlay graph directly — whose adjacency carries the kInserted/kDeleted
// states — or a DeltaView, which serves the same two views from CSR
// label ranges plus per-node sorted delta ranges.
//
// It is the only way the match and detect layers name a backend: a
// search takes one in SearchConfig::graph, and Literal::Evaluate and
// Expr::Evaluate take one. The accessor is a tagged tuple of pointers
// with inline dispatch — no virtual calls on the hot path, and the branch
// is perfectly predicted inside any one search.

#ifndef NGD_GRAPH_ACCESSOR_H_
#define NGD_GRAPH_ACCESSOR_H_

#include <utility>

#include "graph/delta_view.h"
#include "graph/graph.h"
#include "graph/snapshot.h"

namespace ngd {

class GraphAccessor {
 public:
  GraphAccessor() = default;
  GraphAccessor(const Graph& g, GraphView view) : graph_(&g), view_(view) {}
  explicit GraphAccessor(const GraphSnapshot& snap)
      : snap_(&snap), view_(snap.view()) {}
  GraphAccessor(const DeltaView& dv, GraphView view)
      : delta_(&dv), view_(view) {}

  bool valid() const {
    return graph_ != nullptr || snap_ != nullptr || delta_ != nullptr;
  }
  bool is_snapshot() const { return snap_ != nullptr; }
  const GraphSnapshot* snapshot() const { return snap_; }

  /// Calls fn with the wrapped backend (a const GraphSnapshot&,
  /// DeltaView& or Graph&) and returns its result, so code templated on
  /// the backend branches once per call, not once per read. fn does not
  /// see the view; literal evaluation, its one user, reads attributes,
  /// which no view changes.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    if (snap_ != nullptr) return fn(*snap_);
    if (delta_ != nullptr) return fn(*delta_);
    return fn(*graph_);
  }

  size_t NumNodes() const {
    if (snap_ != nullptr) return snap_->NumNodes();
    if (delta_ != nullptr) return delta_->NumNodes();
    return graph_->NumNodes();
  }

  LabelId NodeLabel(NodeId v) const {
    if (snap_ != nullptr) return snap_->NodeLabel(v);
    if (delta_ != nullptr) return delta_->NodeLabel(v);
    return graph_->NodeLabel(v);
  }

  /// True iff graph node v can match a pattern node labelled `label`.
  bool NodeMatchesLabel(NodeId v, LabelId label) const {
    return label == kWildcardLabel || NodeLabel(v) == label;
  }

  const Value* GetAttr(NodeId v, AttrId attr) const {
    if (snap_ != nullptr) return snap_->GetAttr(v, attr);
    if (delta_ != nullptr) return delta_->GetAttr(v, attr);
    return graph_->GetAttr(v, attr);
  }

  bool HasEdge(NodeId src, NodeId dst, LabelId label) const {
    if (snap_ != nullptr) return snap_->HasEdge(src, dst, label);
    if (delta_ != nullptr) return delta_->HasEdge(src, dst, label, view_);
    return graph_->HasEdge(src, dst, label, view_);
  }

  /// |C(u)| for a pattern-node label.
  size_t CandidateCount(LabelId label) const {
    if (label == kWildcardLabel) return NumNodes();
    if (snap_ != nullptr) return snap_->CandidateCount(label);
    if (delta_ != nullptr) return delta_->CandidateCount(label);
    return graph_->NodesWithLabel(label).size();
  }

  /// Invokes fn(NodeId) -> bool for every candidate of `label`; fn
  /// returning false aborts the scan (early-exit searches stop paying
  /// for the remaining candidates). Returns false iff aborted.
  template <typename Fn>
  bool ForEachCandidate(LabelId label, Fn&& fn) const {
    if (label == kWildcardLabel) {
      const NodeId n = static_cast<NodeId>(NumNodes());
      for (NodeId v = 0; v < n; ++v) {
        if (!fn(v)) return false;
      }
      return true;
    }
    if (snap_ != nullptr) {
      for (NodeId v : snap_->NodesWithLabel(label)) {
        if (!fn(v)) return false;
      }
      return true;
    }
    if (delta_ != nullptr) {
      return delta_->ForEachCandidate(label, std::forward<Fn>(fn));
    }
    for (NodeId v : graph_->NodesWithLabel(label)) {
      if (!fn(v)) return false;
    }
    return true;
  }

  /// Invokes fn(NodeId) -> bool for each neighbor of v across an
  /// `edge_label` edge, outgoing (v -> w) when `out`, incoming (w -> v)
  /// otherwise; fn returning false aborts the scan. Returns false iff
  /// aborted. Snapshot/delta-view: touches exactly the matching label
  /// range (plus the delta entries). Live graph: scans the adjacency
  /// vector filtering label and overlay state.
  template <typename Fn>
  bool ForEachNeighbor(NodeId v, bool out, LabelId edge_label,
                       Fn&& fn) const {
    if (snap_ != nullptr) {
      GraphSnapshot::IdRange r = out ? snap_->OutNeighbors(v, edge_label)
                                     : snap_->InNeighbors(v, edge_label);
      for (NodeId w : r) {
        if (!fn(w)) return false;
      }
      return true;
    }
    if (delta_ != nullptr) {
      return delta_->ForEachNeighbor(v, out, edge_label, view_,
                                     std::forward<Fn>(fn));
    }
    const auto& adj = out ? graph_->OutEdges(v) : graph_->InEdges(v);
    for (const AdjEntry& e : adj) {
      if (e.label != edge_label) continue;
      if (!EdgeInView(e.state, view_)) continue;
      if (!fn(e.other)) return false;
    }
    return true;
  }

  /// Length of the sliceable neighbor sequence of (v, out, edge_label) —
  /// the index domain of ForEachNeighborSlice. Live graph: the raw
  /// adjacency vector (entries of other labels/states are skipped at
  /// iteration). Snapshot: the exact label range. Delta view: base label
  /// range plus inserted entries (see delta_view.h). The parallel engines
  /// partition this domain for work-unit splitting.
  size_t NeighborSeqLen(NodeId v, bool out, LabelId edge_label) const {
    if (snap_ != nullptr) {
      return (out ? snap_->OutNeighbors(v, edge_label)
                  : snap_->InNeighbors(v, edge_label))
          .size();
    }
    if (delta_ != nullptr) {
      return delta_->NeighborSeqLen(v, out, edge_label, view_);
    }
    return out ? graph_->OutEdges(v).size() : graph_->InEdges(v).size();
  }

  /// ForEachNeighbor restricted to positions [begin, end) of the
  /// neighbor sequence (work-unit slices: the receiving processor's
  /// partial copy v.adj_i). Returns false iff fn aborted.
  template <typename Fn>
  bool ForEachNeighborSlice(NodeId v, bool out, LabelId edge_label,
                            size_t begin, size_t end, Fn&& fn) const {
    if (snap_ != nullptr) {
      GraphSnapshot::IdRange r = out ? snap_->OutNeighbors(v, edge_label)
                                     : snap_->InNeighbors(v, edge_label);
      end = std::min(end, r.size());
      for (size_t i = begin; i < end; ++i) {
        if (!fn(r.ptr[i])) return false;
      }
      return true;
    }
    if (delta_ != nullptr) {
      return delta_->ForEachNeighborSlice(v, out, edge_label, view_, begin,
                                          end, std::forward<Fn>(fn));
    }
    const auto& adj = out ? graph_->OutEdges(v) : graph_->InEdges(v);
    end = std::min(end, adj.size());
    for (size_t i = begin; i < end; ++i) {
      const AdjEntry& e = adj[i];
      if (e.label != edge_label) continue;
      if (!EdgeInView(e.state, view_)) continue;
      if (!fn(e.other)) return false;
    }
    return true;
  }

 private:
  const Graph* graph_ = nullptr;
  const GraphSnapshot* snap_ = nullptr;
  const DeltaView* delta_ = nullptr;
  GraphView view_ = GraphView::kNew;
};

}  // namespace ngd

#endif  // NGD_GRAPH_ACCESSOR_H_
