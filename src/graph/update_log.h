// The update journal: crash-safe epochs for the incremental engines.
//
// The paper's incremental detection (§5–6) consumes a stream of update
// batches, one per commit epoch. A resident service (the parked `ngdd`
// daemon) must be able to lose the process at any instant and recover the
// exact committed graph, so every epoch is journaled *before* it commits:
//
//   1. mutate the graph: new nodes + a pending edge overlay (ΔG)
//   2. wal->Append(EpochRecord::Capture(g, batch, ...));  wal->Sync();
//   3. g->Commit();
//
// A crash before (2) loses an uncommitted epoch — correct, it never
// became durable. A crash during (2) leaves a torn tail that Open()
// truncates. After (2), replay reproduces the epoch.
//
// File format NGDWAL1 (little-endian):
//   header   : magic "NGDWAL1\0" | u32 version | u32 endian probe
//              | u64 base_epoch
//   record   : u32 payload_len | u32 kind | u64 epoch | u64 fnv1a(payload)
//              | payload bytes
// Epoch ids are strictly consecutive from base_epoch+1. Records are
// self-describing: label/attribute *names* travel in a per-record string
// table (no dependence on the writer's dictionary ids), and insertions
// that introduced nodes journal those nodes' labels and attributes.
//
// Tail policy (the durability contract): a final record whose header or
// payload runs past EOF, or whose checksum fails *with no bytes after
// it*, is a torn tail — Open() truncates it and recovers. So is a bad
// record followed only by zero bytes up to EOF (an append torn onto
// pre-zeroed blocks; no committed record can be all zeros, since even an
// empty payload has a nonzero FNV-1a checksum). A checksum failure
// followed by nonzero bytes cannot be a crash artifact of an append-only
// writer and is rejected as kCorruption.
//
// Replay is idempotent: re-applying a record to a graph that already
// contains its effects (the RotateState crash window: new snapshot +
// old journal) is a no-op — node creation is guarded by the journaled
// first-new-node id, and edge inserts/deletes that already happened are
// dropped by ApplyUpdateBatch's no-op rule.

#ifndef NGD_GRAPH_UPDATE_LOG_H_
#define NGD_GRAPH_UPDATE_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/updates.h"
#include "util/status.h"

namespace ngd {

inline constexpr char kWalMagic[8] = {'N', 'G', 'D', 'W', 'A', 'L', '1', 0};
inline constexpr uint32_t kWalFormatVersion = 1;

/// One committed epoch, self-contained: the nodes the batch introduced
/// (with label/attribute names, not writer-local ids) plus the effective
/// edge updates.
struct EpochRecord {
  struct NewNode {
    std::string label;
    std::vector<std::pair<std::string, Value>> attrs;
  };
  struct EdgeUpdate {
    UpdateKind kind;
    NodeId src;
    NodeId dst;
    std::string label;
  };

  uint64_t epoch = 0;
  /// Id of the first node the epoch created; nodes
  /// [first_new_node, first_new_node + new_nodes.size()) are `new_nodes`.
  NodeId first_new_node = 0;
  std::vector<NewNode> new_nodes;
  std::vector<EdgeUpdate> updates;

  /// Snapshots the epoch from a live graph: `batch` must be the effective
  /// batch (post-ApplyUpdateBatch), `first_new_node` the NumNodes() value
  /// from before the batch was generated. Labels and attributes are
  /// resolved to names through g's schema.
  static EpochRecord Capture(const Graph& g, const UpdateBatch& batch,
                             NodeId first_new_node, uint64_t epoch);

  /// Replays the epoch onto `g` and commits it. Idempotent (see header
  /// comment); malformed contents (node-id gaps, out-of-range endpoints)
  /// return kCorruption with the graph rolled back to its committed
  /// state.
  [[nodiscard]] Status ApplyTo(Graph* g) const;
};

/// Append-only journal handle. Not thread-safe; the owner serializes
/// epochs by construction (one writer per state directory).
class UpdateLog {
 public:
  struct OpenInfo {
    bool created = false;          ///< file did not exist (or was empty)
    uint64_t base_epoch = 0;       ///< epoch of the snapshot this log extends
    uint64_t last_epoch = 0;       ///< last journaled epoch (== base if none)
    size_t records = 0;            ///< records found on open
    uint64_t truncated_bytes = 0;  ///< torn tail dropped on open
  };

  /// Create-or-recover: a missing/empty file becomes a fresh journal with
  /// base_epoch 0; an existing one is scanned, a torn tail truncated
  /// (never an error), and appends resume after the last good record.
  /// Mid-file corruption is kCorruption.
  [[nodiscard]] static StatusOr<std::unique_ptr<UpdateLog>> Open(const std::string& path,
                                                   OpenInfo* info = nullptr);

  /// Starts a fresh journal at base_epoch, atomically replacing any file
  /// at `path` (used by RotateState).
  [[nodiscard]] static StatusOr<std::unique_ptr<UpdateLog>> Create(const std::string& path,
                                                     uint64_t base_epoch);

  ~UpdateLog();
  UpdateLog(const UpdateLog&) = delete;
  UpdateLog& operator=(const UpdateLog&) = delete;

  /// Appends one epoch. rec.epoch must be last_epoch() + 1 (strictly
  /// consecutive ids are what lets recovery prove nothing is missing).
  /// The record is durable only after the next Sync().
  [[nodiscard]] Status Append(const EpochRecord& rec);

  /// Explicit sync point: flushes the OS pipeline with fsync. An epoch
  /// may only Commit() on the in-memory graph after its Sync succeeded.
  [[nodiscard]] Status Sync();

  const std::string& path() const { return path_; }
  uint64_t base_epoch() const { return base_epoch_; }
  uint64_t last_epoch() const { return last_epoch_; }

 private:
  UpdateLog(std::string path, int fd, uint64_t base_epoch,
            uint64_t last_epoch)
      : path_(std::move(path)),
        fd_(fd),
        base_epoch_(base_epoch),
        last_epoch_(last_epoch) {}

  std::string path_;
  int fd_ = -1;
  uint64_t base_epoch_ = 0;
  uint64_t last_epoch_ = 0;
  bool sync_failure_pending_ = false;  // injected via failpoint
};

/// Reads and validates a journal without opening it for append, applying
/// the same torn-tail policy (`info`, optional, reports what was found —
/// the file itself is not modified).
[[nodiscard]] StatusOr<std::vector<EpochRecord>> ReadLogRecords(const std::string& path,
                                                  UpdateLog::OpenInfo* info);

struct RecoverResult {
  std::unique_ptr<Graph> graph;
  uint64_t last_epoch = 0;       ///< epoch the recovered graph reflects
  size_t replayed_records = 0;   ///< journal records applied
  uint64_t truncated_bytes = 0;  ///< torn tail dropped from the journal
  bool snapshot_loaded = false;  ///< base came from the snapshot file
};

/// Rebuilds the committed graph: loads the latest good snapshot at
/// `snapshot_path` (a missing file means "empty base"), then replays the
/// journal at `wal_path` (a missing journal means "no suffix"). Both
/// missing yields an empty graph at epoch 0. A snapshot or journal that
/// exists but is corrupt beyond the torn-tail rule is kCorruption.
[[nodiscard]] StatusOr<RecoverResult> RecoverState(const std::string& snapshot_path,
                                     const std::string& wal_path,
                                     SchemaPtr schema);

/// Compaction: atomically writes `g` (GraphView::kNew; no pending overlay
/// allowed) to `snapshot_path`, then swaps `*wal` for a fresh journal
/// whose base_epoch is the old log's last_epoch. Both steps are atomic
/// file replacements, so a crash between them leaves "new snapshot + old
/// journal" — recoverable because replay is idempotent.
[[nodiscard]] Status RotateState(const Graph& g, const std::string& snapshot_path,
                   std::unique_ptr<UpdateLog>* wal);

}  // namespace ngd

#endif  // NGD_GRAPH_UPDATE_LOG_H_
