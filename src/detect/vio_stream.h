// Streaming results: the pull side of the violation subsystem.
//
// PR 8 made the violation *store* cheap; this layer makes storing
// optional. A spill-enabled VioSet (detect/violation.h) flushes sorted,
// checksummed segment files once its resident footprint nears a byte
// budget — the segment codec follows the snapshot_io idiom (magic +
// version + checksummed payload) and every segment is written through
// WriteFileAtomic under the "vioseg_write" failpoint site, so a killed
// flush never leaves a torn segment and never loses a record (a failed
// flush keeps the records resident and the error sticky).
//
// The flush is pipelined: at half the spill trigger the owner hands its
// resident records to one background job (sort, serialize, checksum,
// write, register) and keeps appending into fresh storage. At most one
// job is in flight; the next hand-off and every reader of spill state
// join it first, so the observable contract is the synchronous one.
//
// VioCursor is the read side: a k-way merge over the sorted segments
// plus the sorted resident tail, streaming the full result in exactly
// Sorted() order — the stable paging order — one record at a time with
// bounded resident memory (one 64 KiB read buffer per segment). A binary
// heap picks the next segment record in O(log k); every segment's
// checksums are verified, concurrently, before the first record is
// served. Cursors are resumable: OpenCursor(offset) continues a prior
// stream, and position() is the offset to resume from.
//
// VioSink packages the pair for result serving: engines emit into
// sink.set() (wired via the engines' spill options), clients page out of
// ReadPage/OpenCursor.

#ifndef NGD_DETECT_VIO_STREAM_H_
#define NGD_DETECT_VIO_STREAM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "detect/violation.h"
#include "util/status.h"

namespace ngd {

struct VioCursorImpl;

/// Pull cursor over one VioSet's full result (spilled segments + the
/// resident tail) in Sorted() order. Obtained from VioSet::OpenCursor;
/// the source set must outlive the cursor and stay unmodified while the
/// cursor is open.
class VioCursor {
 public:
  VioCursor(VioCursor&&) noexcept;
  VioCursor& operator=(VioCursor&&) noexcept;
  ~VioCursor();

  /// Streams the next violation into *out (reusing its nodes capacity).
  /// Returns false at end of stream or on error — check status().
  bool Next(Violation* out);

  /// OK, or the first stream error (kCorruption on a checksum mismatch).
  const Status& status() const;

  /// Absolute record offset of the next record — pass this back to
  /// OpenCursor to resume the stream later.
  uint64_t position() const;

  /// Total records in the stream (== the set's size()).
  uint64_t total() const;

 private:
  friend class VioSet;
  explicit VioCursor(std::unique_ptr<VioCursorImpl> impl);

  std::unique_ptr<VioCursorImpl> impl_;
};

/// Owning streaming result store: a spill-enabled VioSet plus the paging
/// surface. Engines emit into set() (pass `&sink.options()`-style spill
/// options through the engine's options, or append directly); clients
/// drain with ReadPage or a raw cursor.
class VioSink {
 public:
  explicit VioSink(VioSpillOptions opts);

  VioSet* set() { return &set_; }
  const VioSet& set() const { return set_; }

  /// Flushes the resident tail into a final segment and reports the
  /// sticky spill status. Optional: cursors do not require it.
  [[nodiscard]] Status Finish();

  /// See VioSet::OpenCursor.
  [[nodiscard]] StatusOr<VioCursor> OpenCursor(uint64_t offset = 0) const;

  /// Appends up to `max_records` violations starting at record `offset`
  /// to *out. Returns the offset to resume from (== total when the
  /// stream is drained).
  [[nodiscard]] StatusOr<uint64_t> ReadPage(uint64_t offset, size_t max_records,
                              std::vector<Violation>* out) const;

 private:
  VioSet set_;
};

}  // namespace ngd

#endif  // NGD_DETECT_VIO_STREAM_H_
