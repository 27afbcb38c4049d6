#include "parallel/fragment.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <fstream>

#include "graph/accessor.h"
#include "graph/graph_io.h"
#include "graph/snapshot_io.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/hash.h"

namespace ngd {

namespace {

// NGDFRAG1's ownership-array checksums: util/hash.h's FNV-1a 64 seeded
// with this constant, which is NOT the FNV offset basis
// (14695981039346656037) — a digit was dropped when the format was
// defined. It stays, because existing fragment files carry checksums
// computed with it. The embedded snapshot image carries its own
// per-section checksums (standard basis).
constexpr uint64_t kFragmentChecksumSeed = 1469598103934665603ULL;

#pragma pack(push, 1)
struct FragmentHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian;  // 0x01020304 written on a little-endian host
  int32_t fragment_id;
  int32_t num_fragments;
  int32_t halo_hops;
  uint32_t reserved;
  uint64_t member_count;
  uint64_t halo_count;
  uint64_t snapshot_bytes;
  uint64_t members_checksum;
  uint64_t halo_checksum;
  uint64_t owner_checksum;
};
#pragma pack(pop)
static_assert(sizeof(FragmentHeader) == 80, "FragmentHeader must be packed");

constexpr uint32_t kEndianMarker = 0x01020304;

bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  unsigned char b;
  std::memcpy(&b, &probe, 1);
  return b == 1;
}

}  // namespace

FragmentSnapshot BuildFragmentSnapshot(const Graph& g, const Partition& part,
                                       int fragment_id, GraphView view,
                                       int halo_hops) {
  assert(fragment_id >= 0 && fragment_id < part.num_fragments);
  FragmentSnapshot f;
  f.fragment_id = fragment_id;
  f.num_fragments = part.num_fragments;
  f.halo_hops = halo_hops;
  f.members = part.members[fragment_id];
  f.owned = NodeSet(g.NumNodes());
  for (NodeId v : f.members) f.owned.Add(v);

  // Halo = d-ball around the boundary members, minus the members. A node
  // within d hops of ANY member is within d hops of the last member on
  // the connecting path — which has a crossing edge, hence is boundary —
  // so seeding the BFS from the boundary only is exact, not a heuristic.
  NodeSet include(g.NumNodes());
  for (NodeId v : f.members) include.Add(v);
  if (halo_hops > 0 && !part.boundary[fragment_id].empty()) {
    NodeSet ball =
        DHopNeighborhood(g, part.boundary[fragment_id], halo_hops, view);
    for (NodeId v : ball.members()) include.Add(v);
  }
  std::vector<NodeId> all = include.members();
  std::sort(all.begin(), all.end());
  f.halo.reserve(all.size() - f.members.size());
  for (NodeId v : all) {
    if (!f.owned.Contains(v)) {
      f.halo.push_back(v);
      f.halo_owner.push_back(part.fragment_of[v]);
    }
  }

  f.csr = std::make_unique<GraphSnapshot>(g, view, include);
  f.candidates = FragmentCandidates(GraphAccessor(*f.csr), f.members);
  return f;
}

StatusOr<std::string> SerializeFragment(const FragmentSnapshot& frag) {
  if (!HostIsLittleEndian()) {
    return Status::Unimplemented("fragment format is little-endian only");
  }
  if (frag.csr == nullptr) {
    return Status::InvalidArgument("fragment has no CSR snapshot");
  }
  NGD_ASSIGN_OR_RETURN(std::string snap_image, SerializeSnapshot(*frag.csr));

  FragmentHeader header{};
  std::memcpy(header.magic, kFragmentMagic, sizeof(header.magic));
  header.version = kFragmentFormatVersion;
  header.endian = kEndianMarker;
  header.fragment_id = frag.fragment_id;
  header.num_fragments = frag.num_fragments;
  header.halo_hops = frag.halo_hops;
  header.member_count = frag.members.size();
  header.halo_count = frag.halo.size();
  header.snapshot_bytes = snap_image.size();
  header.members_checksum =
      Fnv1a64(frag.members.data(), frag.members.size() * sizeof(NodeId),
              kFragmentChecksumSeed);
  header.halo_checksum = Fnv1a64(frag.halo.data(),
                                 frag.halo.size() * sizeof(NodeId),
                                 kFragmentChecksumSeed);
  header.owner_checksum =
      Fnv1a64(frag.halo_owner.data(), frag.halo_owner.size() * sizeof(int32_t),
              kFragmentChecksumSeed);

  std::string out;
  out.reserve(sizeof(header) +
              (frag.members.size() + 2 * frag.halo.size()) * sizeof(NodeId) +
              snap_image.size());
  out.append(reinterpret_cast<const char*>(&header), sizeof(header));
  auto append_array = [&out](const void* data, size_t len) {
    if (len > 0) out.append(static_cast<const char*>(data), len);
  };
  append_array(frag.members.data(), frag.members.size() * sizeof(NodeId));
  append_array(frag.halo.data(), frag.halo.size() * sizeof(NodeId));
  append_array(frag.halo_owner.data(),
               frag.halo_owner.size() * sizeof(int32_t));
  out.append(snap_image);
  return out;
}

StatusOr<FragmentSnapshot> DeserializeFragment(std::string_view bytes,
                                               SchemaPtr schema) {
  if (!HostIsLittleEndian()) {
    return Status::Unimplemented("fragment format is little-endian only");
  }
  if (bytes.size() < sizeof(FragmentHeader)) {
    return Status::Corruption("truncated fragment: " +
                              std::to_string(bytes.size()) +
                              " bytes is smaller than the header");
  }
  FragmentHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kFragmentMagic, sizeof(header.magic)) != 0) {
    return Status::Corruption("not a fragment file (bad magic)");
  }
  if (header.endian != kEndianMarker) {
    return Status::Corruption("fragment byte order mismatch");
  }
  if (header.version != kFragmentFormatVersion) {
    return Status::Corruption("unsupported fragment format version " +
                              std::to_string(header.version));
  }
  if (header.num_fragments < 1 || header.fragment_id < 0 ||
      header.fragment_id >= header.num_fragments || header.halo_hops < 0) {
    return Status::Corruption("fragment identity out of range");
  }
  // Divide, don't multiply: counts come from the file.
  const size_t body = bytes.size() - sizeof(header);
  if (header.member_count > body / sizeof(NodeId) ||
      header.halo_count > (body - header.member_count * sizeof(NodeId)) /
                              (sizeof(NodeId) + sizeof(int32_t))) {
    return Status::Corruption("fragment ownership arrays extend past end "
                              "of file");
  }
  const size_t arrays_bytes = header.member_count * sizeof(NodeId) +
                              header.halo_count *
                                  (sizeof(NodeId) + sizeof(int32_t));
  if (header.snapshot_bytes != body - arrays_bytes) {
    return Status::Corruption("fragment: embedded snapshot size disagrees "
                              "with the file size");
  }

  FragmentSnapshot frag;
  frag.fragment_id = header.fragment_id;
  frag.num_fragments = header.num_fragments;
  frag.halo_hops = header.halo_hops;

  const char* cursor = bytes.data() + sizeof(header);
  auto read_array = [&](auto* vec, size_t count, uint64_t checksum,
                        const char* what) -> Status {
    using Elem = typename std::decay_t<decltype(*vec)>::value_type;
    if (Fnv1a64(cursor, count * sizeof(Elem), kFragmentChecksumSeed) !=
        checksum) {
      return Status::Corruption(std::string("checksum mismatch in fragment ") +
                                what + " array");
    }
    vec->resize(count);
    if (count > 0) std::memcpy(vec->data(), cursor, count * sizeof(Elem));
    cursor += count * sizeof(Elem);
    return Status::OK();
  };
  NGD_RETURN_IF_ERROR(read_array(&frag.members, header.member_count,
                                 header.members_checksum, "member"));
  NGD_RETURN_IF_ERROR(
      read_array(&frag.halo, header.halo_count, header.halo_checksum, "halo"));
  NGD_RETURN_IF_ERROR(read_array(&frag.halo_owner, header.halo_count,
                                 header.owner_checksum, "halo-owner"));

  NGD_ASSIGN_OR_RETURN(
      frag.csr,
      DeserializeSnapshot(
          std::string_view(cursor, static_cast<size_t>(header.snapshot_bytes)),
          std::move(schema)));

  // Ownership invariants on top of the snapshot's own validation.
  const size_t n = frag.csr->NumNodes();
  auto corrupt = [](const char* what) {
    return Status::Corruption(std::string("fragment invariant violated: ") +
                              what);
  };
  frag.owned = NodeSet(n);
  NodeId prev = 0;
  for (size_t i = 0; i < frag.members.size(); ++i) {
    const NodeId v = frag.members[i];
    if (v >= n) return corrupt("member id out of range");
    if (i > 0 && v <= prev) return corrupt("members not strictly ascending");
    prev = v;
    frag.owned.Add(v);
  }
  prev = 0;
  for (size_t i = 0; i < frag.halo.size(); ++i) {
    const NodeId v = frag.halo[i];
    if (v >= n) return corrupt("halo id out of range");
    if (i > 0 && v <= prev) {
      return corrupt("halo nodes not strictly ascending");
    }
    prev = v;
    if (frag.owned.Contains(v)) return corrupt("halo node is also a member");
    const int32_t owner = frag.halo_owner[i];
    if (owner < 0 || owner >= frag.num_fragments ||
        owner == frag.fragment_id) {
      return corrupt("halo owner tag out of range");
    }
  }

  frag.candidates =
      FragmentCandidates(GraphAccessor(*frag.csr), frag.members);
  return frag;
}

Status SaveFragmentFile(const FragmentSnapshot& frag,
                        const std::string& path) {
  NGD_ASSIGN_OR_RETURN(std::string image, SerializeFragment(frag));
  // Atomic replace: a crash mid-save must leave the previous file intact.
  return WriteFileAtomic(path, image, NGD_FAILPOINT("fragment_write"));
}

StatusOr<FragmentSnapshot> LoadFragmentFile(const std::string& path,
                                            SchemaPtr schema) {
  NGD_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return DeserializeFragment(bytes, std::move(schema));
}

}  // namespace ngd
