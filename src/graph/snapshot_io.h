// Binary snapshot persistence: the on-disk twin of GraphSnapshot.
//
// A snapshot file is a versioned, checksummed, section-based container in
// little-endian byte order. It holds the CSR arrays of one GraphSnapshot
// (label-partitioned adjacency both directions, flat attribute tuples,
// label→node candidate arrays) plus the interned label/attribute
// dictionaries of its schema, so loading is O(sections): one bulk file
// read, a header/table/checksum pass, then memcpy straight into the CSR
// vectors — no text parsing, no re-sort, no re-intern. This is what makes
// "load the graph" cheap enough to amortize detection over repeated runs
// (see the ngdbench `ingest` series and EXPERIMENTS.md §6).
//
// Layout:
//   FileHeader      magic "NGDSNAP1", format version, endian marker, the
//                   GraphView the snapshot materializes, section count,
//                   total file size (truncation check), table checksum
//   SectionEntry[]  per section: id, element size, element count, file
//                   offset, FNV-1a 64 checksum of the payload bytes
//   payload         8-byte-aligned section payloads
//
// Every load failure (bad magic, version or endian mismatch, truncation,
// checksum mismatch, structural invariant breakage) returns kCorruption;
// files from a schema that conflicts with the supplied one also fail
// rather than silently remapping ids.

#ifndef NGD_GRAPH_SNAPSHOT_IO_H_
#define NGD_GRAPH_SNAPSHOT_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "graph/graph.h"
#include "graph/snapshot.h"
#include "util/status.h"

namespace ngd {

inline constexpr uint32_t kSnapshotFormatVersion = 1;
inline constexpr char kSnapshotMagic[8] = {'N', 'G', 'D', 'S',
                                           'N', 'A', 'P', '1'};

/// Serializes the snapshot (with the full label/attr dictionaries of its
/// schema) into an in-memory snapshot file image.
[[nodiscard]] StatusOr<std::string> SerializeSnapshot(const GraphSnapshot& snap);

/// Parses a snapshot file image. Dictionary names are replayed into
/// `schema` in id order: a freshly created Schema always works; a
/// pre-populated one must agree on every id or the load fails with
/// kCorruption (no silent remapping).
[[nodiscard]] StatusOr<std::unique_ptr<GraphSnapshot>> DeserializeSnapshot(
    std::string_view bytes, SchemaPtr schema);

[[nodiscard]] Status SaveSnapshotFile(const GraphSnapshot& snap, const std::string& path);
[[nodiscard]] StatusOr<std::unique_ptr<GraphSnapshot>> LoadSnapshotFile(
    const std::string& path, SchemaPtr schema);

/// True iff the file starts with the snapshot magic (format sniffing for
/// tools that accept both TSV and snapshot graph inputs).
bool SniffSnapshotFile(const std::string& path);

/// Rebuilds a live overlay Graph (all edges kBase) from a snapshot, e.g.
/// to feed incremental detection — which needs a mutable graph to carry
/// ΔG — from a snapshot-file input. O(|V| + |E|) plus the edge-index
/// hashing any live graph pays. The Graph's committed CSR starts as
/// `snap`'s core, shared, so its first snapshot costs O(1); `snap` stays
/// unchanged however the Graph mutates (graph/snapshot.h).
[[nodiscard]] StatusOr<std::unique_ptr<Graph>> MaterializeGraph(const GraphSnapshot& snap);

/// Structural digest of the snapshot content (node labels, attribute
/// tuples including string bytes, out-adjacency with labels). Two
/// snapshots of structurally equal graphs under schemas with identical
/// intern order hash equal; ingestion paths (TSV sequential, TSV
/// parallel, binary load) are cross-checked against it.
uint64_t SnapshotFingerprint(const GraphSnapshot& snap);

}  // namespace ngd

#endif  // NGD_GRAPH_SNAPSHOT_IO_H_
