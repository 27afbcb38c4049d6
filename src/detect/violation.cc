#include "detect/violation.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace ngd {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t VioSet::ProbeSlot(int32_t ngd_index, const NodeId* nodes,
                         uint32_t len) const {
  const size_t mask = table_.size() - 1;
  size_t slot = static_cast<size_t>(HashTuple(ngd_index, nodes, len)) & mask;
  while (true) {
    const uint32_t rec = table_[slot];
    if (rec == kEmptySlot) return slot;
    if (RecEquals(recs_[rec], ngd_index, nodes, len)) return slot;
    slot = (slot + 1) & mask;
  }
}

void VioSet::GrowTable(size_t min_live) {
  // Max load 1/2: the probe sequences stay short even on adversarial
  // tuple families (and the FNV-1a record hash spreads structured ids).
  table_.assign(NextPow2(2 * std::max<size_t>(min_live, 8)), kEmptySlot);
  table_used_ = 0;
  const size_t mask = table_.size() - 1;
  for (uint32_t i = 0; i < indexed_; ++i) {
    const Rec& r = recs_[i];
    // A rebuild forgets dead records: their slots are reclaimed, and a
    // re-added equal tuple simply appends a fresh record.
    if (r.dead) continue;
    size_t slot =
        static_cast<size_t>(HashTuple(r.ngd_index, NodesOf(r), r.len)) & mask;
    while (table_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    table_[slot] = i;
    ++table_used_;
  }
}

void VioSet::EnsureIndex() {
  if (indexed_ == recs_.size()) return;
  if (table_used_ + (recs_.size() - indexed_) > table_.size() / 2) {
    const size_t live_estimate = size_ + (recs_.size() - indexed_);
    // Index the prefix as-is, then catch up below.
    const size_t old_indexed = indexed_;
    GrowTable(live_estimate);
    indexed_ = old_indexed;
  }
  for (size_t i = indexed_; i < recs_.size(); ++i) {
    Rec& r = recs_[i];
    if (r.dead) continue;
    // Catch-up doubles as the single batched dedup pass: a duplicate
    // appended unchecked (contract breach, or the documented deferred
    // dedup of a checked op after unchecked appends) is repaired here.
    indexed_ = i;  // ProbeSlot ignores records >= indexed_ only via table_
    const size_t slot = ProbeSlot(r.ngd_index, NodesOf(r), r.len);
    if (table_[slot] != kEmptySlot) {
      if (!recs_[table_[slot]].dead) {
        r.dead = 1;
        --size_;
        continue;
      }
      // The tabled equal record is dead: this tuple was removed and then
      // re-appended unchecked. The newer live record supersedes it (the
      // batched analogue of AddTuple's revive path); the slot stays
      // occupied, so table_used_ is unchanged.
      table_[slot] = static_cast<uint32_t>(i);
      continue;
    }
    table_[slot] = static_cast<uint32_t>(i);
    ++table_used_;
    if (table_used_ * 2 > table_.size()) {
      indexed_ = i + 1;
      GrowTable(size_);
    }
  }
  indexed_ = recs_.size();
}

bool VioSet::AddTuple(int ngd_index, const NodeId* nodes, size_t len) {
  assert(AllResident() &&
         "checked ops see only the resident tail of a spilled VioSet");
  EnsureIndex();
  if (table_used_ * 2 >= table_.size()) GrowTable(size_ + 1);
  const size_t slot =
      ProbeSlot(static_cast<int32_t>(ngd_index), nodes,
                static_cast<uint32_t>(len));
  if (table_[slot] != kEmptySlot) {
    Rec& r = recs_[table_[slot]];
    if (!r.dead) return false;
    // Re-adding a tuple removed earlier revives its record in place.
    r.dead = 0;
    ++size_;
    return true;
  }
  AppendUnchecked(ngd_index, nodes, len);
  table_[slot] = static_cast<uint32_t>(recs_.size() - 1);
  ++table_used_;
  indexed_ = recs_.size();
  return true;
}

void VioSet::AppendUnchecked(int ngd_index, const NodeId* nodes, size_t len) {
  Rec r;
  r.ngd_index = static_cast<int32_t>(ngd_index);
  r.len = static_cast<uint32_t>(len);
  if (len <= kInlineNodes) {
    for (size_t k = 0; k < len; ++k) r.inl[k] = nodes[k];
  } else {
    r.offset = static_cast<uint32_t>(arena_.size());
    arena_.insert(arena_.end(), nodes, nodes + len);
  }
  recs_.push_back(r);
  ++size_;
  CheckSpill();
}

void VioSet::AppendBlockUnchecked(int ngd_index, size_t tuple_len,
                                  const NodeId* flat, size_t count) {
  // One capacity check per block — but never a bare reserve(size + count):
  // an exact-fit reserve on every flushed block would defeat geometric
  // growth and turn a long emission run quadratic (the default workload
  // emits 669k violations in 256-tuple blocks).
  if (recs_.size() + count > recs_.capacity()) {
    recs_.reserve(std::max(recs_.size() + count, 2 * recs_.capacity()));
  }
  if (tuple_len > kInlineNodes) {
    const size_t need = arena_.size() + tuple_len * count;
    if (need > arena_.capacity()) {
      arena_.reserve(std::max(need, 2 * arena_.capacity()));
    }
  }
  for (size_t i = 0; i < count; ++i) {
    AppendUnchecked(ngd_index, flat + i * tuple_len, tuple_len);
  }
}

bool VioSet::Contains(const Violation& v) const {
  assert(AllResident() &&
         "checked ops see only the resident tail of a spilled VioSet");
  if (size_ == 0) return false;
  // Logically const: building the index changes no observable state (the
  // catch-up repair only collapses duplicates a checked insert would
  // have collapsed at append time).
  const_cast<VioSet*>(this)->EnsureIndex();
  if (table_.empty()) return false;
  const size_t slot =
      ProbeSlot(static_cast<int32_t>(v.ngd_index), v.nodes.data(),
                static_cast<uint32_t>(v.nodes.size()));
  return table_[slot] != kEmptySlot && !recs_[table_[slot]].dead;
}

void VioSet::Merge(VioSet&& other) {
  assert(AllResident() && other.AllResident() &&
         "checked ops see only the resident tail of a spilled VioSet");
  if (recs_.empty() && spill_ == nullptr) {
    *this = std::move(other);
    return;
  }
  EnsureIndex();
  for (size_t i = 0; i < other.recs_.size(); ++i) {
    const Rec& r = other.recs_[i];
    if (r.dead) continue;
    AddTuple(r.ngd_index, other.NodesOf(r), r.len);
  }
}

void VioSet::MergeDisjointUnchecked(VioSet&& other) {
  if (recs_.empty() && spill_ == nullptr) {
    *this = std::move(other);
    return;
  }
  // Segment files (and a sticky flush error) transfer wholesale; the
  // cursor's k-way merge does not care which set wrote which segment.
  if (other.spill_ != nullptr) AdoptSpillFrom(std::move(other));
  const uint32_t base = static_cast<uint32_t>(arena_.size());
  arena_.insert(arena_.end(), other.arena_.begin(), other.arena_.end());
  recs_.reserve(recs_.size() + other.recs_.size());
  for (const Rec& r : other.recs_) {
    if (r.dead) continue;
    Rec copy = r;
    if (copy.len > kInlineNodes) copy.offset += base;
    recs_.push_back(copy);
  }
  size_ += other.size_;
  // Appended records sit beyond indexed_; the next indexed operation
  // catches them up in one pass (and would repair any overlap, though
  // disjointness is the caller's contract).
  CheckSpill();
}

void VioSet::Remove(const VioSet& other) {
  assert(AllResident() && other.AllResident() &&
         "checked ops see only the resident tail of a spilled VioSet");
  if (size_ == 0 || other.size_ == 0) return;
  EnsureIndex();
  for (size_t i = 0; i < other.recs_.size(); ++i) {
    const Rec& r = other.recs_[i];
    if (r.dead) continue;
    const size_t slot = ProbeSlot(r.ngd_index, other.NodesOf(r), r.len);
    if (table_[slot] == kEmptySlot) continue;
    Rec& mine = recs_[table_[slot]];
    if (mine.dead) continue;
    mine.dead = 1;
    --size_;
  }
}

void VioSet::RemapNgdIndices(const std::vector<int>& kept) {
  for (Rec& r : recs_) {
    if (r.dead) continue;
    assert(r.ngd_index >= 0 &&
           static_cast<size_t>(r.ngd_index) < kept.size());
    r.ngd_index = kept[static_cast<size_t>(r.ngd_index)];
  }
  // Record hashes changed wholesale; drop the index and rebuild lazily.
  table_.clear();
  table_used_ = 0;
  indexed_ = 0;
  // Spilled segments keep their raw indices on disk; the cursor applies
  // the (strictly increasing, hence order-preserving) map at read time.
  if (spill_ != nullptr) ComposeSpillRemap(kept);
}

std::vector<Violation> VioSet::Sorted() const {
  assert(AllResident() &&
         "Sorted() sees only the resident tail; use OpenCursor()");
  std::vector<Violation> out;
  out.reserve(size_);
  for (size_t i = 0; i < recs_.size(); ++i) {
    if (!recs_[i].dead) out.push_back(Materialize(i));
  }
  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              if (a.ngd_index != b.ngd_index) {
                return a.ngd_index < b.ngd_index;
              }
              return a.nodes < b.nodes;
            });
  return out;
}

void DeltaVio::EnableSpill(const VioSpillOptions& opts) {
  VioSpillOptions side = opts;
  side.path_prefix = opts.path_prefix + ".add";
  added.EnableSpill(side);
  side.path_prefix = opts.path_prefix + ".rem";
  removed.EnableSpill(side);
}

void DeltaVio::MergeDisjointUnchecked(DeltaVio&& other) {
  added.MergeDisjointUnchecked(std::move(other.added));
  removed.MergeDisjointUnchecked(std::move(other.removed));
}

VioSet ApplyDelta(const VioSet& base, const DeltaVio& delta) {
  VioSet result;
  for (const auto& v : base.items()) {
    if (!delta.removed.Contains(v)) result.Add(v);
  }
  for (const auto& v : delta.added.items()) result.Add(v);
  return result;
}

std::string ViolationToString(const Violation& v, const NgdSet& sigma,
                              const Graph& g) {
  std::ostringstream os;
  const Ngd& ngd = sigma[v.ngd_index];
  os << ngd.name() << "{";
  const auto& nodes = ngd.pattern().nodes();
  for (size_t i = 0; i < v.nodes.size(); ++i) {
    if (i > 0) os << ", ";
    os << nodes[i].var << "->" << v.nodes[i] << ":"
       << g.NodeLabelName(v.nodes[i]);
  }
  os << "}";
  return os.str();
}

}  // namespace ngd
