// Directed property multigraph with an edge-state overlay.
//
// G = (V, E, L, F_A) per paper §2: nodes and edges carry labels from Γ,
// nodes carry attribute tuples with values from U. Edges are identified by
// (src, dst, label) — parallel edges with distinct labels are allowed.
//
// Incremental detection (paper §5.2) needs two views of the graph at once:
//   - GraphView::kOld — G (before the batch update ΔG)
//   - GraphView::kNew — G ⊕ ΔG (after)
// Instead of materializing both, each edge carries a state:
//   kBase      in both views
//   kInserted  only in kNew (insert(v,v') ∈ ΔG+)
//   kDeleted   only in kOld (delete(v,v') ∈ ΔG-)
// Commit() folds the overlay after ΔVio has been computed; Rollback()
// discards the pending update instead. Both walk only the keys the
// pending batch touched, so an epoch costs O(|ΔG|), not O(|E|).
//
// The Graph also keeps the CSR of its committed edge set (the kOld view),
// which every full GraphSnapshot of that view shares (graph/snapshot.h).
// Mutators record which nodes' committed adjacency changed; the next
// snapshot request refreshes only those.
//
// Edge identity is answered by a flat open-addressing index (EdgeMap):
// one 16-byte slot per edge in a power-of-two table, no per-edge heap
// node. Loaders that hold a whole edge list go through AddEdges, which
// sizes every adjacency list and the index once before inserting.

#ifndef NGD_GRAPH_GRAPH_H_
#define NGD_GRAPH_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/dictionary.h"
#include "graph/value.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ngd {

class GraphSnapshot;
class SnapshotCodec;
struct CommittedCsr;  // graph/snapshot.h
struct UpdateBatch;
struct UpdateGenOptions;

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

enum class EdgeState : uint8_t {
  kBase = 0,
  kInserted = 1,
  kDeleted = 2,
};

enum class GraphView : uint8_t {
  kOld = 0,  ///< G: base + deleted edges
  kNew = 1,  ///< G ⊕ ΔG: base + inserted edges
};

/// True iff an edge in `state` exists in `view`.
inline bool EdgeInView(EdgeState state, GraphView view) {
  switch (state) {
    case EdgeState::kBase:
      return true;
    case EdgeState::kInserted:
      return view == GraphView::kNew;
    case EdgeState::kDeleted:
      return view == GraphView::kOld;
  }
  return false;
}

/// Adjacency entry: one directed edge endpoint, with label and state.
struct AdjEntry {
  NodeId other;
  LabelId label;
  EdgeState state;
};

/// Canonical edge identity.
struct EdgeKey {
  NodeId src;
  NodeId dst;
  LabelId label;

  bool operator==(const EdgeKey& o) const {
    return src == o.src && dst == o.dst && label == o.label;
  }
};

struct EdgeKeyHash {
  size_t operator()(const EdgeKey& k) const {
    uint64_t h = (uint64_t(k.src) << 32) | k.dst;
    h ^= uint64_t(k.label) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    return static_cast<size_t>(h);
  }
};

/// Flat open-addressing map from EdgeKey to a small value: linear probing
/// over 16-byte slots in a power-of-two table kept at most 3/4 full.
/// Erase shifts the rest of the probe run back instead of leaving a
/// tombstone, so a miss always stops at the first empty slot. Find never
/// writes, so concurrent const readers need no lock. A key whose src is
/// kInvalidNode marks an empty slot and cannot be stored. A pointer from
/// Find or Insert stays valid until the next Insert, Erase or Reserve.
template <typename V, typename Hash = EdgeKeyHash>
class EdgeMap {
 public:
  size_t size() const { return size_; }

  /// Sizes the table so `n` keys fit without growing.
  void Reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap / 4 * 3 < n) cap *= 2;
    if (cap > slots_.size()) Rehash(cap);
  }

  const V* Find(const EdgeKey& key) const {
    if (size_ == 0) return nullptr;
    const Slot& slot = slots_[Probe(key)];
    return IsEmpty(slot) ? nullptr : &slot.value;
  }
  V* Find(const EdgeKey& key) {
    return const_cast<V*>(std::as_const(*this).Find(key));
  }

  /// Stores (key, value) unless key is present. Returns the stored value
  /// and whether key was new; the table is probed once either way, and a
  /// second time only when a new key makes it grow.
  std::pair<V*, bool> Insert(const EdgeKey& key, V value) {
    if (slots_.empty()) Rehash(kMinCapacity);
    size_t i = Probe(key);
    if (!IsEmpty(slots_[i])) return {&slots_[i].value, false};
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.size() * 2);
      i = Probe(key);
    }
    slots_[i] = Slot{key, value};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes key; false if it was absent.
  bool Erase(const EdgeKey& key) {
    if (size_ == 0) return false;
    size_t i = Probe(key);
    if (IsEmpty(slots_[i])) return false;
    // Backward shift: walk the rest of the run and pull back every entry
    // whose home slot lies at or before the hole, so no lookup that
    // passes the hole can miss it.
    for (size_t j = (i + 1) & mask_; !IsEmpty(slots_[j]);
         j = (j + 1) & mask_) {
      const size_t home = Hash()(slots_[j].key) & mask_;
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
    return true;
  }

 private:
  static_assert(sizeof(V) <= 4, "EdgeMap slots hold a key and 4 bytes");
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    EdgeKey key{kInvalidNode, 0, 0};
    V value{};
  };

  static bool IsEmpty(const Slot& s) { return s.key.src == kInvalidNode; }

  /// The slot holding key, or the empty slot that ends its probe run.
  size_t Probe(const EdgeKey& key) const {
    size_t i = Hash()(key) & mask_;
    while (!IsEmpty(slots_[i]) && !(slots_[i].key == key)) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Rehash(size_t capacity) {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(capacity));
    mask_ = capacity - 1;
    for (const Slot& s : old) {
      if (!IsEmpty(s)) slots_[Probe(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

class Graph {
 public:
  explicit Graph(SchemaPtr schema);

  const SchemaPtr& schema() const { return schema_; }

  // ---- Construction -------------------------------------------------------

  /// Adds a node with the given label; returns its id.
  NodeId AddNode(LabelId label);
  NodeId AddNode(std::string_view label_name);

  /// Sets (or overwrites) attribute A on node v.
  void SetAttr(NodeId v, AttrId attr, Value value);
  void SetAttr(NodeId v, std::string_view attr_name, Value value);

  /// Adds a base edge (present in both views). Fails with kAlreadyExists if
  /// the (src, dst, label) edge already exists in any state.
  Status AddEdge(NodeId src, NodeId dst, LabelId label);
  Status AddEdge(NodeId src, NodeId dst, std::string_view label_name);

  /// Adds base edges in order, as AddEdge over `edges` would, stopping at
  /// the first failure; `*failed_at` (if set) then gets its index, and the
  /// edges before it stay added. Sizes every adjacency list and the edge
  /// index once up front, so a whole graph's edges cost no regrowth.
  Status AddEdges(const std::vector<EdgeKey>& edges,
                  size_t* failed_at = nullptr);

  // ---- Batch-update overlay (ΔG) ------------------------------------------

  /// Records insert(src, dst, label) ∈ ΔG+. The edge becomes visible in
  /// kNew only. Fails if the edge already exists in kNew.
  Status InsertEdge(NodeId src, NodeId dst, LabelId label);

  /// Records delete(src, dst, label) ∈ ΔG-. A base edge is marked deleted
  /// (still visible in kOld); deleting a pending kInserted edge removes it
  /// outright. Fails if no such edge exists in kNew.
  Status DeleteEdge(NodeId src, NodeId dst, LabelId label);

  /// Folds the overlay: inserted edges become base, deleted edges vanish.
  /// O(|ΔG|): walks only the keys the pending batch changed.
  void Commit();

  /// Discards the overlay: inserted edges vanish, deleted edges revert.
  /// O(|ΔG|), like Commit().
  void Rollback();

  /// True if any kInserted/kDeleted edge is pending.
  bool HasPendingUpdate() const { return pending_updates_ > 0; }

  // ---- Inspection ----------------------------------------------------------

  size_t NumNodes() const { return nodes_.size(); }
  size_t NumEdges(GraphView view) const;

  LabelId NodeLabel(NodeId v) const { return nodes_[v].label; }
  const std::string& NodeLabelName(NodeId v) const {
    return schema_->labels().NameOf(nodes_[v].label);
  }

  /// nullptr when the node does not carry the attribute. Matching semantics
  /// depend on this (paper §3: "node v = h(x) carries attribute A").
  const Value* GetAttr(NodeId v, AttrId attr) const;
  const std::vector<std::pair<AttrId, Value>>& Attrs(NodeId v) const {
    return nodes_[v].attrs;
  }

  bool HasEdge(NodeId src, NodeId dst, LabelId label, GraphView view) const;

  /// Current overlay state of an edge, or nullopt if absent from both
  /// views. Incremental detection uses this to recognize update records
  /// that cancelled out (e.g. delete + reinsert of the same edge).
  std::optional<EdgeState> EdgeStateOf(NodeId src, NodeId dst,
                                       LabelId label) const;

  /// Raw adjacency including all states; callers filter with EdgeInView.
  const std::vector<AdjEntry>& OutEdges(NodeId v) const { return out_[v]; }
  const std::vector<AdjEntry>& InEdges(NodeId v) const { return in_[v]; }

  /// Total adjacency length (both directions, all states); the parallel
  /// cost model uses this as |v.adj|.
  size_t AdjSize(NodeId v) const { return out_[v].size() + in_[v].size(); }

  /// All node ids with the given label (label-indexed candidates).
  const std::vector<NodeId>& NodesWithLabel(LabelId label) const;

 private:
  // Shares and refreshes the committed CSR (snapshot.cc).
  friend class GraphSnapshot;
  // Sizes the node arrays and each attribute tuple once where the
  // lengths are known.
  friend class SnapshotCodec;
  friend UpdateBatch GenerateUpdateBatch(Graph* g,
                                         const UpdateGenOptions& opts);

  struct NodeRecord {
    LabelId label;
    std::vector<std::pair<AttrId, Value>> attrs;  // sorted by AttrId
  };

  void ReserveNodes(size_t n) {
    nodes_.reserve(n);
    out_.reserve(n);
    in_.reserve(n);
  }
  void ReserveAttrs(NodeId v, size_t n) { nodes_[v].attrs.reserve(n); }
  void SetEdgeState(NodeId src, NodeId dst, LabelId label, EdgeState state);
  void RemoveAdjEntries(NodeId src, NodeId dst, LabelId label);
  /// Records that the committed adjacency of src and dst changed.
  void MarkCsrDirty(NodeId src, NodeId dst);

  SchemaPtr schema_;
  std::vector<NodeRecord> nodes_;
  std::vector<std::vector<AdjEntry>> out_;
  std::vector<std::vector<AdjEntry>> in_;
  EdgeMap<EdgeState> edge_index_;
  std::vector<std::vector<NodeId>> label_index_;  // label -> node ids
  size_t num_base_edges_ = 0;
  size_t num_inserted_edges_ = 0;
  size_t num_deleted_edges_ = 0;
  size_t pending_updates_ = 0;
  // Keys the pending batch changed, in order; a key whose change cancelled
  // out within the batch stays listed, and Commit/Rollback skip it by its
  // state.
  std::vector<EdgeKey> pending_keys_;
  static const std::vector<NodeId> kEmptyNodeList;

  // The committed CSR and what changed since it was built. Snapshot
  // requests run under a const Graph&, possibly from several threads, so
  // the state sits behind `mu`. `covered` mirrors the number of nodes the
  // CSR covers, so mutators skip the lock for nodes it does not cover yet
  // (they are appended wholesale at the next refresh). A copied or
  // assigned Graph starts without a CSR.
  struct CsrCache {
    CsrCache();
    ~CsrCache();
    CsrCache(const CsrCache&) : CsrCache() {}
    CsrCache& operator=(const CsrCache&);

    mutable Mutex mu;
    const std::unique_ptr<CommittedCsr> state NGD_PT_GUARDED_BY(mu);
    mutable std::atomic<size_t> covered{0};
  };
  CsrCache csr_;
};

}  // namespace ngd

#endif  // NGD_GRAPH_GRAPH_H_
