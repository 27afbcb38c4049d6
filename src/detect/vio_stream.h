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
// served.

#ifndef NGD_DETECT_VIO_STREAM_H_
#define NGD_DETECT_VIO_STREAM_H_

#include <memory>

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

 private:
  friend class VioSet;
  explicit VioCursor(std::unique_ptr<VioCursorImpl> impl);

  std::unique_ptr<VioCursorImpl> impl_;
};

}  // namespace ngd

#endif  // NGD_DETECT_VIO_STREAM_H_
