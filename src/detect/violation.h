// Violations and violation sets (paper §5.1).
//
// A violation of φ = Q[x̄](X → Y) in G is a match h(x̄) with Gh ̸|= φ,
// identified by the NGD index and the node tuple h(x̄) in pattern-node
// order. Vio(Σ, G) collects violations of all NGDs in Σ; incremental
// detection computes the delta (ΔVio+, ΔVio-).
//
// Storage layout: VioSet is arena-backed SoA, not a node-per-violation
// hash set. Each violation is one flat record (ngd_index, len, nodes);
// tuples of up to kInlineNodes nodes live inside the record itself, and
// longer tuples spill into one shared NodeId arena. On the violation-
// heavy regime (the default 20k-node benchmark workload emits 669k
// violations) this removes the per-match heap allocation and the
// per-match hash-set insert that used to dominate enumeration:
//   - enumerators that provably cannot emit duplicates (batch Dect per
//     rule, the canonical-pivot incremental engines, the disjoint
//     per-worker partitions of PDect/PIncDect) append records without
//     hashing at all (AppendUnchecked / VioEmitter);
//   - set-semantics operations (Add, Contains, Merge, Remove) maintain an
//     open-addressing index over the flat records, built lazily and
//     caught up in one batched pass over whatever was appended since the
//     last indexed operation (EnsureIndex);
//   - per-worker results concatenate arena-to-arena without rehashing
//     (MergeDisjointUnchecked).
// The observable surface — Add/Contains/Merge/Remove/Sorted/items and
// ApplyDelta — keeps the exact semantics of the previous
// unordered_set<Violation> layout; the randomized differential sweep in
// tests/vio_set_test.cc locks the equivalence down across all four
// engines.

#ifndef NGD_DETECT_VIOLATION_H_
#define NGD_DETECT_VIOLATION_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/ngd.h"
#include "graph/graph.h"
#include "util/hash.h"
#include "util/status.h"

namespace ngd {

class VioCursor;
struct VioSpillState;

/// Spill-to-disk configuration for a VioSet (detect/vio_stream.{h,cc}).
/// Once enabled, resident records are sorted and flushed into checksummed
/// segment files ("<path_prefix>.seg<N>.ngdvio") whenever the resident
/// footprint approaches `budget_bytes`; VioSet::OpenCursor merges the
/// segments and the resident tail back into one globally sorted stream.
struct VioSpillOptions {
  std::string path_prefix;
  /// 64 MiB default. Budgets at or below one page still spill, floored at
  /// page-sized segments (vio_stream.cc's kMinSpillBytes).
  size_t budget_bytes = size_t{64} << 20;
};

struct Violation {
  int ngd_index = -1;
  std::vector<NodeId> nodes;  ///< h(x̄), indexed by pattern-node index

  bool operator==(const Violation& o) const {
    return ngd_index == o.ngd_index && nodes == o.nodes;
  }
};

/// FNV-1a over (ngd_index, nodes). The previous ad-hoc mix seeded with
/// ngd_index * golden-ratio degenerated for ngd_index == 0 (seed 0, so
/// single-node tuples hashed to n + const and structured node-id families
/// clustered into few buckets — exactly the shape of a violation-heavy
/// sweep where one rule emits most tuples). FNV-1a mixes every byte
/// through the prime, so sequential/strided node ids spread regardless of
/// the rule index. VioSet's internal index hashes records with the same
/// function, so the two views of a tuple always agree.
struct ViolationHash {
  size_t operator()(const Violation& v) const {
    uint64_t h = Fnv1a64(&v.ngd_index, sizeof(v.ngd_index));
    h = Fnv1a64(v.nodes.data(), v.nodes.size() * sizeof(NodeId), h);
    return static_cast<size_t>(h);
  }
};

class VioSet {
 public:
  // Out-of-line: spill_ is a pimpl (vio_stream.cc owns the definition),
  // so every special member — even the default ctor, whose unwind path
  // destroys spill_ — needs the complete type.
  VioSet();
  ~VioSet();
  VioSet(VioSet&& other) noexcept;
  VioSet& operator=(VioSet&& other) noexcept;
  /// Copying is allowed only while nothing has spilled (segment files are
  /// single-owner); asserted in debug builds.
  VioSet(const VioSet& other);
  VioSet& operator=(const VioSet& other);

  /// Checked insert (set semantics). Returns true if newly added.
  bool Add(const Violation& v) {
    return AddTuple(v.ngd_index, v.nodes.data(), v.nodes.size());
  }
  bool AddTuple(int ngd_index, const NodeId* nodes, size_t len);

  /// Append WITHOUT a duplicate check — the emission hot path. The caller
  /// must guarantee the tuple is not already present (the enumerator
  /// proofs: batch Dect emits each binding once per rule; the
  /// canonical-pivot discipline makes IncDect/PIncDect exactly-once per
  /// match; PDect's owner-computes seeding plus disjoint slice splits
  /// never revisit a match). No hashing, no allocation beyond amortized
  /// arena growth. A duplicate appended in breach of the contract is
  /// repaired (dropped) by the next indexed operation, but may be visible
  /// to Sorted()/items() before that.
  void AppendUnchecked(int ngd_index, const NodeId* nodes, size_t len);

  /// AppendUnchecked for `count` same-length tuples stored back-to-back
  /// in `flat` (VioEmitter's block flush): one capacity check per block.
  void AppendBlockUnchecked(int ngd_index, size_t tuple_len,
                            const NodeId* flat, size_t count);

  bool Contains(const Violation& v) const;
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Set union (duplicates across the two sets collapse).
  void Merge(VioSet&& other);

  /// Arena concatenation for provably disjoint sets (per-worker results
  /// of the parallel engines): no hashing, no per-record probe. Falls
  /// back to nothing clever — records and arena are appended, spilled
  /// offsets rebased.
  void MergeDisjointUnchecked(VioSet&& other);

  /// Erases every violation of `other` present in this set.
  void Remove(const VioSet& other);

  /// In-place rule-index remap through a strictly increasing table
  /// (Σ-optimizer: minimized index -> original index). Injective, so the
  /// set property is preserved; the hash index is invalidated and
  /// rebuilt lazily.
  void RemapNgdIndices(const std::vector<int>& kept);

  /// Deterministic ordering (for tests and diffing).
  std::vector<Violation> Sorted() const;

  // ---- Iteration -----------------------------------------------------
  // items() yields Violation BY VALUE (records materialize on demand);
  // `for (const Violation& v : set.items())` binds each temporary per
  // iteration, and `items().begin()->nodes[i]` goes through ArrowProxy.

  struct ArrowProxy {
    Violation v;
    const Violation* operator->() const { return &v; }
  };

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Violation;
    using difference_type = std::ptrdiff_t;
    using pointer = ArrowProxy;
    using reference = Violation;

    const_iterator() = default;
    const_iterator(const VioSet* set, size_t i) : set_(set), i_(i) {
      if (set_ != nullptr) i_ = set_->NextLive(i_);
    }
    Violation operator*() const { return set_->Materialize(i_); }
    ArrowProxy operator->() const { return ArrowProxy{set_->Materialize(i_)}; }
    const_iterator& operator++() {
      i_ = set_->NextLive(i_ + 1);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    // Both fields: iterators over *different* sets must never compare
    // equal just because their indices coincide.
    bool operator==(const const_iterator& o) const {
      return set_ == o.set_ && i_ == o.i_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    const VioSet* set_ = nullptr;
    size_t i_ = 0;
  };

  struct ItemsView {
    const VioSet* set;
    const_iterator begin() const { return const_iterator(set, 0); }
    const_iterator end() const {
      return const_iterator(set, set->recs_.size());
    }
  };

  ItemsView items() const { return ItemsView{this}; }

  /// Reserve capacity for `count` more records whose tuples spill
  /// `spill_nodes` arena entries in total (0 when all inline).
  void Reserve(size_t count, size_t spill_nodes = 0) {
    recs_.reserve(recs_.size() + count);
    if (spill_nodes > 0) arena_.reserve(arena_.size() + spill_nodes);
  }

  // ---- Spill-to-disk backend (detect/vio_stream.{h,cc}) --------------
  //
  // A spill-enabled set trades the resident guarantee for a byte budget:
  // the unchecked append paths (the only emission paths the engines use)
  // flush sorted, checksummed segments through WriteFileAtomic once the
  // resident footprint nears budget_bytes, and OpenCursor streams the
  // union back in Sorted() order with bounded resident memory. Once a
  // record has spilled, the checked/set-semantics surface (Add, Contains,
  // Merge, Remove) and Sorted()/items() see only the resident tail and
  // are disallowed (asserted in debug builds); size() stays total.
  // A failed flush is sticky in spill_status() and degrades the set to
  // resident-over-budget — no appended record is ever silently lost.

  void EnableSpill(const VioSpillOptions& opts);
  bool spill_enabled() const { return spill_ != nullptr; }
  /// Records flushed to segment files so far (0 until the budget trips).
  size_t spilled_records() const;
  size_t num_spill_segments() const;
  /// High-water mark of resident_bytes() observed by the spill checks.
  size_t peak_resident_bytes() const;
  /// First flush error, sticky (OK while everything has worked).
  [[nodiscard]] Status spill_status() const;
  /// Forces the resident tail into a final segment (e.g. before handing
  /// the segment files to another process). Not required for OpenCursor.
  [[nodiscard]] Status FlushSpill();

  /// Bytes held by the resident record/arena/index storage.
  size_t resident_bytes() const {
    return recs_.size() * sizeof(Rec) + arena_.size() * sizeof(NodeId) +
           table_.size() * sizeof(uint32_t);
  }

  /// Opens a pull cursor over the full set — spilled segments and the
  /// resident tail — in exactly Sorted() order (the stable paging order:
  /// ngd_index, then nodes lexicographically). `start_offset` resumes a
  /// prior stream at that record index (linear skip). The set must
  /// outlive the cursor and must not be mutated while it is open. Fails
  /// with kCorruption when a segment file fails its checksum.
  [[nodiscard]] StatusOr<VioCursor> OpenCursor(uint64_t start_offset = 0) const;

 private:
  friend struct ItemsView;
  friend class const_iterator;
  friend struct VioCursorImpl;

  /// Tuples up to this length are stored inside the record; longer ones
  /// spill into arena_. sizeof(Rec) stays at 24 bytes either way.
  static constexpr uint32_t kInlineNodes = 4;
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  struct Rec {
    int32_t ngd_index = -1;
    uint32_t len : 31;
    uint32_t dead : 1;
    union {
      uint32_t offset;               // arena offset when len > kInlineNodes
      NodeId inl[kInlineNodes];      // the tuple itself otherwise
    };
    Rec() : len(0), dead(0) { offset = 0; }
  };

  const NodeId* NodesOf(const Rec& r) const {
    return r.len <= kInlineNodes ? r.inl : arena_.data() + r.offset;
  }

  Violation Materialize(size_t i) const {
    const Rec& r = recs_[i];
    const NodeId* p = NodesOf(r);
    return Violation{r.ngd_index, std::vector<NodeId>(p, p + r.len)};
  }

  size_t NextLive(size_t i) const {
    while (i < recs_.size() && recs_[i].dead) ++i;
    return i;
  }

  static uint64_t HashTuple(int32_t ngd_index, const NodeId* nodes,
                            uint32_t len) {
    // Identical byte stream to ViolationHash, so the public hash functor
    // and the internal index can never disagree about a tuple.
    const int as_int = static_cast<int>(ngd_index);
    uint64_t h = Fnv1a64(&as_int, sizeof(as_int));
    return Fnv1a64(nodes, static_cast<size_t>(len) * sizeof(NodeId), h);
  }

  bool RecEquals(const Rec& r, int32_t ngd_index, const NodeId* nodes,
                 uint32_t len) const {
    if (r.ngd_index != ngd_index || r.len != len) return false;
    return len == 0 ||
           std::memcmp(NodesOf(r), nodes, len * sizeof(NodeId)) == 0;
  }

  /// Probes for (ngd_index, nodes, len). Returns the table slot that
  /// either holds an equal record (live or dead) or is the empty slot
  /// where the tuple would be inserted. Requires a non-empty table and
  /// indexed_ == recs_.size().
  size_t ProbeSlot(int32_t ngd_index, const NodeId* nodes,
                   uint32_t len) const;

  /// Brings the open-addressing index up to date with every record
  /// appended since the last indexed operation, repairing (marking dead)
  /// any contract-breaching duplicate among them. Amortized: one batched
  /// pass, not a per-append probe.
  void EnsureIndex();
  void GrowTable(size_t min_live);

  /// True while the checked/whole-set surface still sees every record
  /// (nothing has been flushed to disk).
  bool AllResident() const;

  /// Spill trigger, called from the append paths. Out of line so the
  /// non-spilling hot path pays only the null check in CheckSpill().
  void MaybeSpill();
  void CheckSpill() {
    if (spill_ != nullptr) MaybeSpill();
  }

  /// Sorts the resident live records and flushes them as one segment.
  [[nodiscard]] Status SpillResidentSegment();

  /// MergeDisjointUnchecked's spill half: takes over `other`'s segment
  /// files and sticky status before the resident records are merged
  /// (`other`'s resident storage is left intact for the caller).
  void AdoptSpillFrom(VioSet&& other);

  /// Records a RemapNgdIndices map for already-written segments; the
  /// cursor applies it at read time (order-preserving: `kept` is
  /// strictly increasing).
  void ComposeSpillRemap(const std::vector<int>& kept);

  std::vector<Rec> recs_;
  std::vector<NodeId> arena_;    ///< spill storage for long tuples
  std::vector<uint32_t> table_;  ///< open addressing: record indices
  size_t table_used_ = 0;        ///< occupied table slots (live + dead recs)
  size_t indexed_ = 0;           ///< recs_[0, indexed_) are in table_
  size_t size_ = 0;              ///< live records
  std::unique_ptr<VioSpillState> spill_;  ///< null = plain resident set
};

/// ΔVio = (ΔVio+, ΔVio-): violations introduced / removed by ΔG.
struct DeltaVio {
  VioSet added;
  VioSet removed;

  bool empty() const { return added.empty() && removed.empty(); }

  /// Spills ΔVio+ under "<path_prefix>.add" and ΔVio- under
  /// "<path_prefix>.rem", each with the full budget.
  void EnableSpill(const VioSpillOptions& opts);

  /// VioSet::MergeDisjointUnchecked on both halves.
  void MergeDisjointUnchecked(DeltaVio&& other);
};

/// Honest-partial-result report of one detection run (all engines). When
/// a run is cancelled or hits its deadline it returns the violations
/// found so far with `truncated` set; `rule_completed[f]` says whether
/// rule f's enumeration finished, i.e. whether its reported violations
/// are the complete set for that rule. An untruncated run marks every
/// rule completed. Under Σ-minimization the marks are remapped to the
/// caller's catalog through the implication cover: a dropped (implied)
/// rule counts completed exactly when every rule that (transitively)
/// implied it finished enumerating (see RemapRunInfo).
struct DetectRunInfo {
  bool truncated = false;
  std::vector<char> rule_completed;  // indexed by the caller's Σ

  void StartFull(size_t num_rules) {
    truncated = false;
    rule_completed.assign(num_rules, 1);
  }
};

/// Vio(Σ, G ⊕ ΔG) = (Vio(Σ, G) ∪ ΔVio+) \ ΔVio-. The paper's correctness
/// criterion; used by tests to cross-check IncDect against batch Dect.
VioSet ApplyDelta(const VioSet& base, const DeltaVio& delta);

std::string ViolationToString(const Violation& v, const NgdSet& sigma,
                              const Graph& g);

/// Batched emission sink for a single rule: stages fixed-length tuples in
/// a flat buffer and flushes them into the target VioSet in blocks via
/// AppendBlockUnchecked. Used where the enumerator provably cannot emit
/// duplicates (see VioSet::AppendUnchecked); the homomorphism engine
/// writes full matches here directly when SearchConfig::emitter is set,
/// bypassing the std::function callback on the hot path.
class VioEmitter {
 public:
  /// `limit` caps emissions (0 = unlimited): Emit returns false once the
  /// cap is reached, which aborts the enumeration like a callback stop.
  VioEmitter(VioSet* out, int ngd_index, size_t tuple_len, size_t limit = 0)
      : out_(out), ngd_index_(ngd_index), tuple_len_(tuple_len),
        limit_(limit) {
    buf_.reserve(tuple_len_ * kFlushTuples);
  }
  VioEmitter(const VioEmitter&) = delete;
  VioEmitter& operator=(const VioEmitter&) = delete;
  ~VioEmitter() { Flush(); }

  /// Appends h(x̄) (must have exactly tuple_len nodes). Returns false
  /// when the emission limit is reached.
  bool Emit(const Binding& binding) {
    assert(binding.size() == tuple_len_ &&
           "VioEmitter: binding length must match the rule's tuple_len");
    buf_.insert(buf_.end(), binding.begin(), binding.end());
    if (buf_.size() >= tuple_len_ * kFlushTuples) Flush();
    ++emitted_;
    return limit_ == 0 || emitted_ < limit_;
  }

  void Flush() {
    if (buf_.empty()) return;
    out_->AppendBlockUnchecked(ngd_index_, tuple_len_, buf_.data(),
                               buf_.size() / tuple_len_);
    buf_.clear();
  }

  size_t emitted() const { return emitted_; }

 private:
  static constexpr size_t kFlushTuples = 256;

  VioSet* out_;
  int ngd_index_;
  size_t tuple_len_;
  size_t limit_;
  size_t emitted_ = 0;
  std::vector<NodeId> buf_;
};

}  // namespace ngd

#endif  // NGD_DETECT_VIOLATION_H_
