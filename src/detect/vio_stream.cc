#include "detect/vio_stream.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/failpoint.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/thread_annotations.h"

namespace ngd {

namespace {

// Segment wire format ("<prefix>.seg<N>.ngdvio"):
//   header (48 bytes):
//     char     magic[8]        "NGDVSEG1"
//     uint32   version         1
//     uint32   flags           0
//     uint64   record_count
//     uint64   payload_bytes
//     uint64   payload_fnv1a
//     uint64   header_fnv1a    over the preceding 40 bytes
//   payload: records back-to-back, already in Sorted() order:
//     int32 ngd_index, uint32 len, uint32 nodes[len]
constexpr char kSegMagic[8] = {'N', 'G', 'D', 'V', 'S', 'E', 'G', '1'};
constexpr uint32_t kSegVersion = 1;
constexpr size_t kSegHeaderBytes = 48;
/// int32 ngd_index + uint32 len ahead of every record's nodes.
constexpr size_t kRecHeaderBytes = 8;

/// Resident floor before a flush is worthwhile: one page. A budget below
/// this still spills, just never in sub-page segments (which would turn
/// per-record appends into per-record fsyncs).
constexpr size_t kMinSpillBytes = 4096;

/// Flush this far *before* the budget so the resident footprint stays
/// strictly under it (an append block is far smaller than the headroom).
constexpr size_t kSpillHeadroomBytes = size_t{256} << 10;

/// resident_bytes() at which the owner hands its records to the flush
/// thread: half the spill trigger, so the in-flight job and the refilling
/// resident tail together stay under the trigger (page-floored).
size_t HandOffBytes(const VioSpillOptions& o) {
  const size_t trigger = o.budget_bytes > kSpillHeadroomBytes
                             ? o.budget_bytes - kSpillHeadroomBytes
                             : o.budget_bytes;
  return std::max(kMinSpillBytes, trigger / 2);
}

/// Per-segment read buffer for the cursor — the "bounded resident
/// memory" unit of the k-way merge.
constexpr size_t kSegReadBufBytes = size_t{64} << 10;

/// Sanity cap when parsing a record header back (a tuple is one node per
/// pattern variable; anything near this is corruption).
constexpr uint32_t kMaxTupleLen = 1u << 20;

static_assert(sizeof(NodeId) == 4, "segment codec assumes 32-bit NodeId");

char* Put(char* out, const void* p, size_t n) {
  std::memcpy(out, p, n);
  return out + n;
}

/// (ngd_index, nodes lexicographic) — exactly VioSet::Sorted()'s order.
bool TupleLess(int32_t ai, const NodeId* an, uint32_t al, int32_t bi,
               const NodeId* bn, uint32_t bl) {
  if (ai != bi) return ai < bi;
  return std::lexicographical_compare(an, an + al, bn, bn + bl);
}

}  // namespace

// ---- Spill state (VioSet's pimpl) ----------------------------------------

struct VioSpillState {
  using Rec = VioSet::Rec;

  struct Segment {
    std::string path;
    uint64_t records = 0;
    /// remaps[remap_from..) were recorded after this segment was written
    /// and must be applied to its records at read time.
    size_t remap_from = 0;
  };

  /// One segment on its way to disk. The owner fills every field but
  /// `status`, then starts `worker`; from then until the owner joins it,
  /// the flush thread alone touches recs/arena/status (the thread start
  /// and join are the hand-over points).
  struct FlushJob {
    std::vector<Rec> recs;
    std::vector<NodeId> arena;
    std::string path;
    size_t remap_from = 0;  ///< remaps.size() at hand-off
    Status status;
    std::thread worker;

    FlushJob() = default;
    FlushJob(const FlushJob&) = delete;  // `worker` holds its address
    FlushJob& operator=(const FlushJob&) = delete;
    ~FlushJob() {
      if (worker.joinable()) worker.join();
    }
  };

  // Owner-thread only (VioSet is single-owner): the options and the byte
  // accounting (the in-flight job handle is the last member).
  VioSpillOptions opts;
  size_t inflight_bytes = 0;  ///< the in-flight job's record/arena bytes
  size_t peak_bytes = 0;      ///< resident + in-flight high-water mark

  /// Guards what the flush thread shares with the owner: it registers
  /// its segment here, and the owner reads the registry after joining.
  /// Critical sections are segment-granular, never per record.
  Mutex mu;
  std::vector<Segment> segments NGD_GUARDED_BY(mu);
  uint64_t spilled_records NGD_GUARDED_BY(mu) = 0;
  uint64_t next_segment_id NGD_GUARDED_BY(mu) = 0;
  /// Sticky: a failed flush stops further spill attempts (the records
  /// stay resident, correct but over budget) and surfaces here.
  bool flush_failed NGD_GUARDED_BY(mu) = false;
  Status status NGD_GUARDED_BY(mu);
  /// RemapNgdIndices history (Σ-minimized runs remap once, at the end).
  std::vector<std::vector<int>> remaps NGD_GUARDED_BY(mu);

  /// At most one flush in flight; owner-thread only. Declared last so it
  /// is destroyed (joined) first, while the registry it writes to lives.
  std::unique_ptr<FlushJob> job;

  /// The flush thread's body: sorts the job's live records into one
  /// sorted run for the cursor's k-way merge, serializes and checksums
  /// it, writes it through WriteFileAtomic and registers the segment.
  void RunJob(FlushJob* j) NGD_EXCLUDES(mu) {
    const NodeId* arena = j->arena.data();
    j->recs.erase(std::remove_if(j->recs.begin(), j->recs.end(),
                                 [](const Rec& r) { return r.dead; }),
                  j->recs.end());
    if (j->recs.empty()) return;
    std::sort(j->recs.begin(), j->recs.end(),
              [arena](const Rec& a, const Rec& b) {
                return TupleLess(a.ngd_index, VioSet::NodesOf(a, arena), a.len,
                                 b.ngd_index, VioSet::NodesOf(b, arena),
                                 b.len);
              });

    uint64_t payload_bytes = 0;
    for (const Rec& r : j->recs) {
      payload_bytes += kRecHeaderBytes + uint64_t{r.len} * sizeof(NodeId);
    }
    std::string blob(kSegHeaderBytes + payload_bytes, '\0');
    char* w = blob.data() + kSegHeaderBytes;
    for (const Rec& r : j->recs) {
      const uint32_t len = r.len;
      w = Put(w, &r.ngd_index, sizeof(int32_t));
      w = Put(w, &len, sizeof(len));
      w = Put(w, VioSet::NodesOf(r, arena), size_t{len} * sizeof(NodeId));
    }
    const uint32_t version = kSegVersion;
    const uint32_t flags = 0;
    const uint64_t count = j->recs.size();
    const uint64_t payload_fnv =
        Fnv1a64(blob.data() + kSegHeaderBytes, payload_bytes);
    char* h = Put(blob.data(), kSegMagic, sizeof(kSegMagic));
    h = Put(h, &version, sizeof(version));
    h = Put(h, &flags, sizeof(flags));
    h = Put(h, &count, sizeof(count));
    h = Put(h, &payload_bytes, sizeof(payload_bytes));
    h = Put(h, &payload_fnv, sizeof(payload_fnv));
    const uint64_t header_fnv = Fnv1a64(blob.data(), kSegHeaderBytes - 8);
    Put(h, &header_fnv, sizeof(header_fnv));

    j->status = WriteFileAtomic(j->path, blob, NGD_FAILPOINT("vioseg_write"));
    if (!j->status.ok()) return;  // the owner takes the records back
    MutexLock lock(&mu);
    segments.push_back(Segment{j->path, count, j->remap_from});
    spilled_records += count;
  }
};

// ---- VioSet special members (here: VioSpillState is complete) ------------

// Moves carry an in-flight job along inside spill_ (it never points back
// at the VioSet); destroying or overwriting spill_ joins it.
VioSet::VioSet() = default;
VioSet::~VioSet() = default;
VioSet::VioSet(VioSet&& other) noexcept = default;
VioSet& VioSet::operator=(VioSet&& other) noexcept = default;

VioSet::VioSet(const VioSet& other) : VioSet() { *this = other; }

VioSet& VioSet::operator=(const VioSet& other) {
  if (this == &other) return *this;
  // Segment files are single-owner; a copy is always a plain resident set.
  other.JoinFlush();
  assert(other.AllResident() && "cannot copy a spilled VioSet");
  recs_ = other.recs_;
  arena_ = other.arena_;
  table_ = other.table_;
  table_used_ = other.table_used_;
  indexed_ = other.indexed_;
  size_ = other.size_;
  spill_.reset();
  spill_at_ = kNoSpill;
  return *this;
}

// ---- Spill surface -------------------------------------------------------

bool VioSet::AllResident() const {
  if (spill_ == nullptr) return true;
  JoinFlush();
  MutexLock lock(&spill_->mu);
  return spill_->segments.empty();
}

void VioSet::EnableSpill(const VioSpillOptions& opts) {
  assert(!opts.path_prefix.empty());
  if (spill_ == nullptr) spill_ = std::make_unique<VioSpillState>();
  JoinFlush();
  spill_->opts = opts;
  RefreshSpillAt();
  CheckSpill();  // honor the budget immediately when enabled late
}

void VioSet::RefreshSpillAt() {
  bool failed;
  {
    MutexLock lock(&spill_->mu);
    failed = spill_->flush_failed;
  }
  spill_at_ = failed ? kNoSpill : HandOffBytes(spill_->opts);
}

size_t VioSet::spilled_records() const {
  if (spill_ == nullptr) return 0;
  JoinFlush();
  MutexLock lock(&spill_->mu);
  return static_cast<size_t>(spill_->spilled_records);
}

size_t VioSet::num_spill_segments() const {
  if (spill_ == nullptr) return 0;
  JoinFlush();
  MutexLock lock(&spill_->mu);
  return spill_->segments.size();
}

size_t VioSet::peak_resident_bytes() const {
  const size_t now = resident_bytes();
  if (spill_ == nullptr) return now;
  return std::max(spill_->peak_bytes, now + spill_->inflight_bytes);
}

Status VioSet::spill_status() const {
  if (spill_ == nullptr) return Status::OK();
  JoinFlush();
  MutexLock lock(&spill_->mu);
  return spill_->status;
}

Status VioSet::FlushSpill() {
  if (spill_ == nullptr) return Status::OK();
  if (!recs_.empty() && spill_at_ != kNoSpill) {
    HandOffResident(/*refill=*/false);
  }
  JoinFlush();
  MutexLock lock(&spill_->mu);
  return spill_->status;
}

void VioSet::HandOffResident(bool refill) {
  if (spill_ == nullptr) {  // moved-from: spill_at_ went stale
    spill_at_ = kNoSpill;
    return;
  }
  VioSpillState& s = *spill_;
  s.peak_bytes = std::max(s.peak_bytes, resident_bytes() + s.inflight_bytes);
  JoinFlush();  // at most one job in flight
  if (spill_at_ == kNoSpill) return;  // it failed: stay resident, sticky

  auto job = std::make_unique<VioSpillState::FlushJob>();
  job->recs.swap(recs_);
  job->arena.swap(arena_);
  if (refill) {
    // Slack for the block that crosses the next hand-off threshold.
    recs_.reserve(job->recs.size() + job->recs.size() / 16);
    arena_.reserve(job->arena.size() + job->arena.size() / 16);
  }
  table_.clear();
  table_.shrink_to_fit();
  table_used_ = 0;
  indexed_ = 0;
  {
    MutexLock lock(&s.mu);
    // A job that finds only dead records writes nothing and leaves a gap
    // in the numbering, which is harmless (readers walk the registry,
    // not the directory).
    job->path = s.opts.path_prefix + ".seg" +
                std::to_string(s.next_segment_id++) + ".ngdvio";
    job->remap_from = s.remaps.size();
  }
  s.inflight_bytes = job->recs.size() * sizeof(Rec) +
                     job->arena.size() * sizeof(NodeId);
  VioSpillState::FlushJob* j = job.get();
  job->worker = std::thread([&s, j] { s.RunJob(j); });
  s.job = std::move(job);
}

void VioSet::JoinFlush() const {
  if (spill_ == nullptr || spill_->job == nullptr) return;
  VioSpillState& s = *spill_;
  const std::unique_ptr<VioSpillState::FlushJob> job = std::move(s.job);
  job->worker.join();
  s.inflight_bytes = 0;
  if (job->status.ok()) return;
  // The synchronous contract: a failed flush keeps its records resident.
  VioSet* self = const_cast<VioSet*>(this);
  self->AppendRecs(job->recs, job->arena);
  self->spill_at_ = kNoSpill;
  MutexLock lock(&s.mu);
  if (!s.flush_failed) {
    s.flush_failed = true;
    s.status = job->status;
  }
}

void VioSet::AdoptSpillFrom(VioSet&& other) {
  // Both sides were joined by MergeDisjointUnchecked.
  if (spill_ == nullptr) {
    // Take the whole state (budget and prefix included); `other`'s
    // resident records stay behind for the caller to merge.
    spill_ = std::move(other.spill_);
    spill_at_ = std::exchange(other.spill_at_, kNoSpill);
    return;
  }
  VioSpillState& ours = *spill_;
  VioSpillState& theirs = *other.spill_;
  ours.peak_bytes = std::max(ours.peak_bytes, theirs.peak_bytes);
  {
    MutexLock our_lock(&ours.mu);
    MutexLock their_lock(&theirs.mu);
    // Engines merge worker-local results before any Σ-remap runs, so the
    // per-segment remap_from offsets stay valid across the adoption.
    assert(ours.remaps.empty() && theirs.remaps.empty());
    for (auto& seg : theirs.segments) ours.segments.push_back(std::move(seg));
    theirs.segments.clear();
    ours.spilled_records += theirs.spilled_records;
    if (theirs.flush_failed && !ours.flush_failed) {
      ours.flush_failed = true;
      ours.status = theirs.status;
    }
  }
  RefreshSpillAt();
}

void VioSet::ComposeSpillRemap(const std::vector<int>& kept) {
  // Segments written after this call hold already-remapped indices and
  // record remap_from past this entry, so they skip it at read time.
  MutexLock lock(&spill_->mu);
  spill_->remaps.push_back(kept);
}

// ---- Cursor --------------------------------------------------------------

struct VioCursorImpl {
  /// One sorted source: a segment file, its read buffer and its current
  /// record (valid while the source sits in the heap).
  struct SegSource {
    std::ifstream in;
    std::vector<char> buf;  ///< kSegReadBufBytes: the bounded-memory unit
    size_t pos = 0;         ///< unread bytes are buf[pos, end)
    size_t end = 0;
    uint64_t remaining = 0;  ///< records not yet decoded
    size_t remap_from = 0;
    int32_t ngd_index = -1;  ///< current record, remap already applied
    std::vector<NodeId> nodes;

    /// memcpy `n` bytes out of the buffer, refilling it as it drains (a
    /// record may straddle refills, or be longer than the buffer).
    bool Read(void* dst, size_t n) {
      char* d = static_cast<char*>(dst);
      while (n > 0) {
        if (pos == end) {
          in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
          pos = 0;
          end = static_cast<size_t>(in.gcount());
          if (end == 0) return false;
        }
        const size_t k = std::min(n, end - pos);
        std::memcpy(d, buf.data() + pos, k);
        pos += k;
        d += k;
        n -= k;
      }
      return true;
    }
  };

  /// Heap order: `a` comes out after `b` (std heaps are max-heaps).
  static bool After(const SegSource* a, const SegSource* b) {
    return TupleLess(b->ngd_index, b->nodes.data(),
                     static_cast<uint32_t>(b->nodes.size()), a->ngd_index,
                     a->nodes.data(), static_cast<uint32_t>(a->nodes.size()));
  }

  const VioSet* set = nullptr;
  std::vector<std::unique_ptr<SegSource>> segs;
  std::vector<SegSource*> heap;  ///< sources holding a current record
  std::vector<uint32_t> resident_order;  ///< live resident recs, sorted
  size_t resident_pos = 0;
  std::vector<std::vector<int>> remaps;  ///< the set's remap history
  Status status;

  /// Decodes s's next record (s->remaining > 0).
  Status Decode(SegSource* s) {
    uint32_t hdr[2];
    if (!s->Read(hdr, sizeof(hdr)) || hdr[1] > kMaxTupleLen) {
      return Status::Corruption("violation segment: truncated record");
    }
    int32_t ngd;
    std::memcpy(&ngd, &hdr[0], sizeof(ngd));
    s->nodes.resize(hdr[1]);
    if (!s->Read(s->nodes.data(), size_t{hdr[1]} * sizeof(NodeId))) {
      return Status::Corruption("violation segment: truncated tuple");
    }
    for (size_t ri = s->remap_from; ri < remaps.size(); ++ri) {
      const std::vector<int>& map = remaps[ri];
      assert(ngd >= 0 && static_cast<size_t>(ngd) < map.size());
      ngd = map[static_cast<size_t>(ngd)];
    }
    s->ngd_index = ngd;
    --s->remaining;
    return Status::OK();
  }

  bool Next(Violation* out) {
    if (!status.ok()) return false;
    const SegSource* best = heap.empty() ? nullptr : heap.front();
    if (resident_pos < resident_order.size()) {
      const VioSet::Rec& r = set->recs_[resident_order[resident_pos]];
      const NodeId* p = set->NodesOf(r);
      if (best == nullptr ||
          TupleLess(r.ngd_index, p, r.len, best->ngd_index,
                    best->nodes.data(),
                    static_cast<uint32_t>(best->nodes.size()))) {
        out->ngd_index = r.ngd_index;
        out->nodes.assign(p, p + r.len);
        ++resident_pos;
        return true;
      }
    }
    if (best == nullptr) return false;  // drained
    std::pop_heap(heap.begin(), heap.end(), After);
    SegSource* s = heap.back();
    out->ngd_index = s->ngd_index;
    out->nodes.swap(s->nodes);  // s decodes into out's old buffer
    if (s->remaining == 0) {
      heap.pop_back();
    } else {
      Status st = Decode(s);
      if (!st.ok()) {
        status = st;
        return false;
      }
      std::push_heap(heap.begin(), heap.end(), After);
    }
    return true;
  }
};

namespace {

/// Opens a segment, validates magic/version/checksums with one streamed
/// pass (bounded memory: the source's own read buffer), and leaves the
/// stream positioned at the first record.
Status OpenSegSource(const VioSpillState::Segment& seg,
                     VioCursorImpl::SegSource* s) {
  s->buf.resize(kSegReadBufBytes);
  s->in.rdbuf()->pubsetbuf(nullptr, 0);  // reads land in buf directly
  s->in.open(seg.path, std::ios::binary);
  if (!s->in.is_open()) {
    return Status::NotFound("violation segment missing: " + seg.path);
  }
  char header[kSegHeaderBytes];
  s->in.read(header, sizeof(header));
  if (!s->in || std::memcmp(header, kSegMagic, sizeof(kSegMagic)) != 0) {
    return Status::Corruption("violation segment: bad magic: " + seg.path);
  }
  uint32_t version = 0;
  uint64_t count = 0;
  uint64_t payload_bytes = 0;
  uint64_t payload_fnv = 0;
  uint64_t header_fnv = 0;
  std::memcpy(&version, header + 8, sizeof(version));
  std::memcpy(&count, header + 16, sizeof(count));
  std::memcpy(&payload_bytes, header + 24, sizeof(payload_bytes));
  std::memcpy(&payload_fnv, header + 32, sizeof(payload_fnv));
  std::memcpy(&header_fnv, header + 40, sizeof(header_fnv));
  if (version != kSegVersion) {
    return Status::Corruption("violation segment: unsupported version");
  }
  if (Fnv1a64(header, kSegHeaderBytes - 8) != header_fnv) {
    return Status::Corruption("violation segment: header checksum mismatch");
  }
  if (count != seg.records) {
    return Status::Corruption("violation segment: record count mismatch");
  }
  // Streamed checksum pass: fail before the merge emits a single record,
  // without ever holding the payload in memory.
  uint64_t fnv = kFnv1aOffset;
  uint64_t seen = 0;
  while (seen < payload_bytes) {
    const uint64_t want =
        std::min<uint64_t>(s->buf.size(), payload_bytes - seen);
    s->in.read(s->buf.data(), static_cast<std::streamsize>(want));
    if (s->in.gcount() != static_cast<std::streamsize>(want)) {
      return Status::Corruption("violation segment: truncated payload");
    }
    fnv = Fnv1a64(s->buf.data(), static_cast<size_t>(want), fnv);
    seen += want;
  }
  if (s->in.peek() != std::char_traits<char>::eof()) {
    return Status::Corruption("violation segment: trailing bytes");
  }
  if (fnv != payload_fnv) {
    return Status::Corruption("violation segment: payload checksum mismatch");
  }
  s->in.clear();
  s->in.seekg(kSegHeaderBytes, std::ios::beg);
  if (!s->in) {
    return Status::Internal("violation segment: seek failed");
  }
  s->remaining = count;
  s->remap_from = seg.remap_from;
  return Status::OK();
}

/// OpenSegSource over every segment, up to hardware_concurrency() at a
/// time; returns the first failure in segment order.
Status OpenSegSources(
    const std::vector<VioSpillState::Segment>& segments,
    std::vector<std::unique_ptr<VioCursorImpl::SegSource>>* srcs) {
  const size_t n = segments.size();
  std::vector<Status> results(n);
  srcs->clear();
  for (size_t i = 0; i < n; ++i) {
    srcs->push_back(std::make_unique<VioCursorImpl::SegSource>());
  }
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      results[i] = OpenSegSource(segments[i], (*srcs)[i].get());
    }
  };
  const size_t threads = std::min<size_t>(
      n, std::max<size_t>(1, std::thread::hardware_concurrency()));
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < threads; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& t : helpers) t.join();
  for (const Status& st : results) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace

StatusOr<VioCursor> VioSet::OpenCursor() const {
  auto impl = std::make_unique<VioCursorImpl>();
  impl->set = this;
  if (spill_ != nullptr) {
    JoinFlush();
    // Snapshot the registry; the cursor then reads segment FILES and the
    // resident arrays lock-free, which is sound because a cursor requires
    // a quiescent set for its whole lifetime (the same contract Sorted()
    // has — segments are immutable once registered).
    std::vector<VioSpillState::Segment> segments;
    {
      MutexLock lock(&spill_->mu);
      segments = spill_->segments;
      impl->remaps = spill_->remaps;
    }
    // Every checksum is verified before the first record is emitted.
    NGD_RETURN_IF_ERROR(OpenSegSources(segments, &impl->segs));
    for (auto& src : impl->segs) {
      if (src->remaining == 0) continue;
      NGD_RETURN_IF_ERROR(impl->Decode(src.get()));  // prime
      impl->heap.push_back(src.get());
    }
    std::make_heap(impl->heap.begin(), impl->heap.end(), VioCursorImpl::After);
  }
  impl->resident_order.reserve(recs_.size());
  for (uint32_t i = 0; i < recs_.size(); ++i) {
    if (!recs_[i].dead) impl->resident_order.push_back(i);
  }
  std::sort(impl->resident_order.begin(), impl->resident_order.end(),
            [this](uint32_t a, uint32_t b) {
              const Rec& ra = recs_[a];
              const Rec& rb = recs_[b];
              return TupleLess(ra.ngd_index, NodesOf(ra), ra.len,
                               rb.ngd_index, NodesOf(rb), rb.len);
            });
  return VioCursor(std::move(impl));
}

VioCursor::VioCursor(std::unique_ptr<VioCursorImpl> impl)
    : impl_(std::move(impl)) {}
VioCursor::VioCursor(VioCursor&&) noexcept = default;
VioCursor& VioCursor::operator=(VioCursor&&) noexcept = default;
VioCursor::~VioCursor() = default;

bool VioCursor::Next(Violation* out) { return impl_->Next(out); }
const Status& VioCursor::status() const { return impl_->status; }

}  // namespace ngd
