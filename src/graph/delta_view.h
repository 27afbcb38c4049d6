// DeltaView: an UpdateBatch overlaid on an immutable base GraphSnapshot.
//
// Incremental detection (paper §6.2) needs both graph views at once, and
// its searches live in the d_Σ-neighborhood of ΔG — far too little work to
// amortize rebuilding a CSR snapshot per batch. A DeltaView keeps the CSR
// layout on the hot path anyway by overlaying the batch on a snapshot of
// the base graph G (the kOld view). That snapshot shares the Graph's
// committed CSR, which a Commit refreshes only for the nodes ΔG touched
// (graph/snapshot.h), so taking it costs O(1) within an epoch:
//
//   kOld — the base snapshot verbatim. Inserted edges are absent from the
//          base by construction; deleted edges are base edges, still
//          visible in G.
//   kNew — the base with ΔG⁻ edges masked and ΔG⁺ edges merged in, both
//          from per-node (label, neighbor)-sorted delta ranges.
//
// Pivot expansion therefore still gets label-range scans and id-sorted
// closure checks; the delta ranges are tiny (O(|ΔG|) total), so masking
// costs a binary search only on nodes ΔG actually touched. Nodes created
// by the batch (id ≥ base.NumNodes()) read labels/attributes from the
// live graph and draw their adjacency purely from the delta ranges.
//
// Like UpdateIndex, construction keeps only updates whose effect survives
// in the overlay of `g` (delete+reinsert of one edge cancels out), so the
// view agrees exactly with the live overlay graph's two views.
//
// Neighbor iteration is exposed both whole and as index slices over a
// stable sequence — positions [0, B) are the base label range (deleted
// entries skipped), positions [B, B+I) the inserted entries — so
// PIncDect's work-unit splitting can partition a logical adjacency list
// the same way it partitions a live one.

#ifndef NGD_GRAPH_DELTA_VIEW_H_
#define NGD_GRAPH_DELTA_VIEW_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/snapshot.h"
#include "graph/updates.h"

namespace ngd {

class DeltaView {
 public:
  /// Overlays `batch` (already applied to `g` as the pending overlay) on
  /// `base`, a snapshot of the pre-update graph G: either built before
  /// the batch was applied, or GraphSnapshot(g, GraphView::kOld) after.
  /// The view stays valid until `g` mutates beyond the pending batch.
  DeltaView(const GraphSnapshot& base, const Graph& g,
            const UpdateBatch& batch);

  const SchemaPtr& schema() const { return base_->schema(); }
  const GraphSnapshot& base() const { return *base_; }
  size_t NumNodes() const { return num_nodes_; }

  LabelId NodeLabel(NodeId v) const {
    return v < base_nodes_ ? base_->NodeLabel(v) : g_->NodeLabel(v);
  }

  /// nullptr when the node does not carry the attribute; same contract as
  /// Graph::GetAttr. ΔG is edge-only (paper §5.2), so base nodes read the
  /// snapshot and only batch-created nodes fall back to the live graph.
  const Value* GetAttr(NodeId v, AttrId attr) const {
    return v < base_nodes_ ? base_->GetAttr(v, attr) : g_->GetAttr(v, attr);
  }

  bool HasEdge(NodeId src, NodeId dst, LabelId label, GraphView view) const {
    if (view == GraphView::kNew &&
        (touched_[src] & (kTouchedOutIns | kTouchedOutDel)) != 0) {
      if (SideContains(out_ins_, src, label, dst)) return true;
      if (SideContains(out_del_, src, label, dst)) return false;
    }
    return src < base_nodes_ && dst < base_nodes_ &&
           base_->HasEdge(src, dst, label);
  }

  /// True iff (src, dst, label) is an effective ΔG⁺ (insert_side) or ΔG⁻
  /// entry of this batch. One byte load from the cache-resident touched
  /// bitmap rejects the untouched nodes that dominate — which lets pivot
  /// filters and canonicality checks treat base edges as non-updates
  /// without probing the update hash index (duplicate suppression only
  /// ever has to rank *update* edges; see PivotEdgeFilter).
  bool IsDeltaEdge(bool insert_side, NodeId src, NodeId dst,
                   LabelId label) const {
    if (!(touched_[src] & (insert_side ? kTouchedOutIns : kTouchedOutDel))) {
      return false;
    }
    return SideContains(insert_side ? out_ins_ : out_del_, src, label, dst);
  }

  /// Length of the sliceable neighbor sequence of (v, direction, label):
  /// base label range plus (in kNew) the inserted entries. Deleted base
  /// entries still occupy positions — they are skipped at iteration — so
  /// slice bounds stay stable across views.
  size_t NeighborSeqLen(NodeId v, bool out, LabelId label,
                        GraphView view) const {
    size_t len = BaseRange(v, out, label).size();
    if (view == GraphView::kNew &&
        (touched_[v] & (out ? kTouchedOutIns : kTouchedInIns)) != 0) {
      len += SideRange(out ? out_ins_ : in_ins_, v, label).size();
    }
    return len;
  }

  /// Invokes fn(NodeId) -> bool over positions [begin, end) of the
  /// neighbor sequence; fn returning false aborts. Returns false iff
  /// aborted.
  template <typename Fn>
  bool ForEachNeighborSlice(NodeId v, bool out, LabelId label,
                            GraphView view, size_t begin, size_t end,
                            Fn&& fn) const {
    const GraphSnapshot::IdRange base = BaseRange(v, out, label);
    const size_t base_end = std::min(end, base.size());
    if (view == GraphView::kOld) {
      for (size_t i = begin; i < base_end; ++i) {
        if (!fn(base.ptr[i])) return false;
      }
      return true;
    }
    const uint8_t touched = touched_[v];
    EntrySpan del;
    if ((touched & (out ? kTouchedOutDel : kTouchedInDel)) != 0) {
      del = SideRange(out ? out_del_ : in_del_, v, label);
    }
    for (size_t i = begin; i < base_end; ++i) {
      const NodeId w = base.ptr[i];
      if (!del.empty() && SpanContains(del, w)) continue;  // masked by ΔG⁻
      if (!fn(w)) return false;
    }
    EntrySpan ins;
    if ((touched & (out ? kTouchedOutIns : kTouchedInIns)) != 0) {
      ins = SideRange(out ? out_ins_ : in_ins_, v, label);
    }
    const size_t ins_begin = begin > base.size() ? begin - base.size() : 0;
    const size_t ins_end = std::min(end - std::min(end, base.size()),
                                    ins.size());
    for (size_t i = ins_begin; i < ins_end; ++i) {
      if (!fn(ins.first[i].other)) return false;
    }
    return true;
  }

  template <typename Fn>
  bool ForEachNeighbor(NodeId v, bool out, LabelId label, GraphView view,
                       Fn&& fn) const {
    return ForEachNeighborSlice(v, out, label, view, 0,
                                NeighborSeqLen(v, out, label, view),
                                std::forward<Fn>(fn));
  }

  /// Candidate enumeration C(u). Node existence is view-independent (the
  /// overlay tracks edge state only), so both views share the candidate
  /// arrays: the base snapshot's label→nodes CSR plus any batch-created
  /// nodes.
  size_t CandidateCount(LabelId label) const {
    size_t n = base_->NodesWithLabel(label).size();
    for (NodeId v = static_cast<NodeId>(base_nodes_); v < num_nodes_; ++v) {
      n += g_->NodeLabel(v) == label ? 1 : 0;
    }
    return n;
  }

  template <typename Fn>
  bool ForEachCandidate(LabelId label, Fn&& fn) const {
    for (NodeId v : base_->NodesWithLabel(label)) {
      if (!fn(v)) return false;
    }
    for (NodeId v = static_cast<NodeId>(base_nodes_); v < num_nodes_; ++v) {
      if (g_->NodeLabel(v) == label && !fn(v)) return false;
    }
    return true;
  }

 private:
  enum : uint8_t {
    kTouchedOutIns = 1,
    kTouchedOutDel = 2,
    kTouchedInIns = 4,
    kTouchedInDel = 8,
  };

  /// One entry of ΔG, keyed for per-node label-range lookup.
  struct DeltaEntry {
    LabelId label;
    NodeId other;

    bool operator<(const DeltaEntry& o) const {
      return label != o.label ? label < o.label : other < o.other;
    }
    bool operator==(const DeltaEntry& o) const {
      return label == o.label && other == o.other;
    }
  };
  struct EntrySpan {
    const DeltaEntry* first = nullptr;
    const DeltaEntry* last = nullptr;

    size_t size() const { return static_cast<size_t>(last - first); }
    bool empty() const { return first == last; }
  };
  /// One direction of one delta sign: per-node (label, other)-sorted
  /// entries in CSR form.
  struct Side {
    std::vector<DeltaEntry> entries;
    std::vector<uint32_t> off;  // size NumNodes()+1
  };

  static void BuildSide(std::vector<std::pair<NodeId, DeltaEntry>>* flat,
                        size_t num_nodes, Side* side);

  EntrySpan SideRange(const Side& s, NodeId v, LabelId label) const {
    if (v >= num_nodes_ || s.entries.empty()) return EntrySpan{};
    // Almost every node is untouched by ΔG: one offset comparison exits.
    if (s.off[v] == s.off[v + 1]) return EntrySpan{};
    const DeltaEntry* first = s.entries.data() + s.off[v];
    const DeltaEntry* last = s.entries.data() + s.off[v + 1];
    auto lo = std::lower_bound(
        first, last, label,
        [](const DeltaEntry& e, LabelId l) { return e.label < l; });
    auto hi = std::upper_bound(
        lo, last, label,
        [](LabelId l, const DeltaEntry& e) { return l < e.label; });
    return EntrySpan{lo, hi};
  }

  /// Membership of `other` in a label span (spans are other-sorted).
  static bool SpanContains(const EntrySpan& span, NodeId other) {
    const DeltaEntry* it = std::lower_bound(
        span.first, span.last, other,
        [](const DeltaEntry& e, NodeId o) { return e.other < o; });
    return it != span.last && it->other == other;
  }

  bool SideContains(const Side& s, NodeId v, LabelId label,
                    NodeId other) const {
    return SpanContains(SideRange(s, v, label), other);
  }

  GraphSnapshot::IdRange BaseRange(NodeId v, bool out, LabelId label) const {
    if (v >= base_nodes_) return GraphSnapshot::IdRange{};
    return out ? base_->OutNeighbors(v, label) : base_->InNeighbors(v, label);
  }

  const GraphSnapshot* base_;
  const Graph* g_;
  size_t base_nodes_;
  size_t num_nodes_;
  Side out_ins_, out_del_, in_ins_, in_del_;
  /// Per-node kTouched* bits: ~|V|/1024 KiB, cache-resident, loaded once
  /// per hot-path query to skip every delta structure for the untouched
  /// nodes that dominate any realistic ΔG.
  std::vector<uint8_t> touched_;
};

}  // namespace ngd

#endif  // NGD_GRAPH_DELTA_VIEW_H_
