#include "graph/snapshot_io.h"

#include <cstring>

#include "graph/graph_io.h"
#include <fstream>
#include <limits>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/failpoint.h"
#include "util/fs.h"
#include "util/hash.h"

namespace ngd {

namespace {

constexpr uint32_t kEndianMarker = 0x01020304;

/// Section ids of format version 1. A v1 file carries exactly this set.
enum SectionId : uint32_t {
  kNodeLabels = 1,
  kOutNbr = 2,
  kOutGroups = 3,
  kOutGroupOff = 4,
  kInNbr = 5,
  kInGroups = 6,
  kInGroupOff = 7,
  kAttrOff = 8,
  kAttrKeys = 9,
  kAttrTags = 10,
  kAttrVals = 11,
  kStrOff = 12,
  kStrBytes = 13,
  kLabelNodes = 14,
  kLabelOff = 15,
  kLabelDictOff = 16,
  kLabelDictBytes = 17,
  kAttrDictOff = 18,
  kAttrDictBytes = 19,
};
constexpr uint32_t kSectionCount = 19;

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint32_t view;
  uint32_t section_count;
  uint64_t file_bytes;      // total size: the truncation check
  uint64_t table_checksum;  // FNV-1a 64 over the section table bytes
};
static_assert(sizeof(FileHeader) == 40, "FileHeader must be packed");

struct SectionEntry {
  uint32_t id;
  uint32_t elem_bytes;
  uint64_t count;
  uint64_t offset;
  uint64_t checksum;  // FNV-1a 64 over the payload bytes
};
static_assert(sizeof(SectionEntry) == 32, "SectionEntry must be packed");

bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  unsigned char byte0;
  std::memcpy(&byte0, &probe, 1);
  return byte0 == 1;
}

/// Flattens a Dictionary into (offsets, bytes) CSR form.
Status DictToArrays(const Dictionary& dict, std::vector<uint32_t>* off,
                    std::string* bytes) {
  off->clear();
  bytes->clear();
  off->push_back(0);
  for (size_t i = 0; i < dict.size(); ++i) {
    bytes->append(dict.NameOf(static_cast<uint32_t>(i)));
    if (bytes->size() > std::numeric_limits<uint32_t>::max()) {
      return Status::Internal("dictionary exceeds 4 GiB");
    }
    off->push_back(static_cast<uint32_t>(bytes->size()));
  }
  return Status::OK();
}

/// Slices a flattened dictionary into per-id names.
Status SliceDict(const std::vector<uint32_t>& off, std::string_view bytes,
                 std::vector<std::string_view>* names) {
  names->clear();
  for (size_t i = 0; i + 1 < off.size(); ++i) {
    if (off[i] > off[i + 1] || off[i + 1] > bytes.size()) {
      return Status::Corruption("dictionary offsets out of range");
    }
    names->push_back(bytes.substr(off[i], off[i + 1] - off[i]));
  }
  return Status::OK();
}

/// Checks that interning `names` in id order into `dict` would land every
/// name on its file id, WITHOUT mutating anything — so a load that fails
/// a later validation leaves the caller's schema untouched. Requires:
/// names are pairwise distinct, the existing dictionary entries are a
/// byte-exact prefix, and the remaining names are absent (they then
/// intern to exactly their index, by induction).
Status CheckDictCompatible(const std::vector<std::string_view>& names,
                           const Dictionary& dict) {
  std::unordered_set<std::string_view> seen;
  for (size_t i = 0; i < names.size(); ++i) {
    if (!seen.insert(names[i]).second) {
      return Status::Corruption("duplicate snapshot dictionary name \"" +
                                std::string(names[i]) + "\"");
    }
    if (i < dict.size()) {
      if (dict.NameOf(static_cast<uint32_t>(i)) != names[i]) {
        return Status::Corruption(
            "snapshot dictionary conflicts with the supplied schema (id " +
            std::to_string(i) + " is \"" +
            dict.NameOf(static_cast<uint32_t>(i)) + "\", file expects \"" +
            std::string(names[i]) + "\")");
      }
    } else if (dict.Find(names[i]).has_value()) {
      return Status::Corruption(
          "snapshot dictionary conflicts with the supplied schema (\"" +
          std::string(names[i]) + "\" is already interned to id " +
          std::to_string(*dict.Find(names[i])) + ", file expects " +
          std::to_string(i) + ")");
    }
  }
  return Status::OK();
}

}  // namespace

/// The one friend of GraphSnapshot: packs its private CSR arrays into the
/// section container and rebuilds them on load.
class SnapshotCodec {
 public:
  static StatusOr<std::string> Serialize(const GraphSnapshot& snap);
  static StatusOr<std::unique_ptr<GraphSnapshot>> Deserialize(
      std::string_view bytes, SchemaPtr schema);
  static StatusOr<std::unique_ptr<Graph>> Materialize(
      const GraphSnapshot& snap);
  static uint64_t Fingerprint(const GraphSnapshot& snap);

 private:
  using LabelGroup = SnapshotCore::LabelGroup;
  static_assert(sizeof(LabelGroup) == 12 &&
                    std::is_trivially_copyable<LabelGroup>::value,
                "LabelGroup is memcpy-serialized");
};

StatusOr<std::string> SnapshotCodec::Serialize(const GraphSnapshot& snap) {
  if (!HostIsLittleEndian()) {
    return Status::Unimplemented("snapshot format is little-endian only");
  }
  const SnapshotCore& c = *snap.core_;
  const size_t num_attrs = c.attrs.size();
  std::vector<uint32_t> attr_keys;
  std::vector<uint8_t> attr_tags;
  std::vector<int64_t> attr_vals;
  std::vector<uint32_t> str_off{0};
  std::string str_bytes;
  attr_keys.reserve(num_attrs);
  attr_tags.reserve(num_attrs);
  attr_vals.reserve(num_attrs);
  for (const auto& [attr, val] : c.attrs) {
    attr_keys.push_back(attr);
    if (val.is_int()) {
      attr_tags.push_back(0);
      attr_vals.push_back(val.AsInt());
    } else {
      attr_tags.push_back(1);
      attr_vals.push_back(static_cast<int64_t>(str_off.size() - 1));
      str_bytes.append(val.AsString());
      if (str_bytes.size() > std::numeric_limits<uint32_t>::max()) {
        return Status::Internal("attribute string pool exceeds 4 GiB");
      }
      str_off.push_back(static_cast<uint32_t>(str_bytes.size()));
    }
  }
  std::vector<uint32_t> label_dict_off, attr_dict_off;
  std::string label_dict_bytes, attr_dict_bytes;
  NGD_RETURN_IF_ERROR(DictToArrays(snap.schema_->labels(), &label_dict_off,
                                   &label_dict_bytes));
  // The core's label_off is sized to the schema when the core was built;
  // labels interned since own no nodes, so their candidate ranges are
  // empty: repeat the last offset up to the dictionary written beside it.
  std::vector<uint32_t> label_off = c.label_off;
  label_off.resize(snap.schema_->labels().size() + 1, label_off.back());
  NGD_RETURN_IF_ERROR(
      DictToArrays(snap.schema_->attrs(), &attr_dict_off, &attr_dict_bytes));

  struct SectionSpec {
    uint32_t id;
    uint32_t elem_bytes;
    uint64_t count;
    const void* data;
  };
  const SectionSpec specs[kSectionCount] = {
      {kNodeLabels, sizeof(LabelId), c.node_labels.size(),
       c.node_labels.data()},
      {kOutNbr, sizeof(NodeId), c.out.nbr.size(), c.out.nbr.data()},
      {kOutGroups, sizeof(LabelGroup), c.out.groups.size(),
       c.out.groups.data()},
      {kOutGroupOff, sizeof(uint32_t), c.out.group_off.size(),
       c.out.group_off.data()},
      {kInNbr, sizeof(NodeId), c.in.nbr.size(), c.in.nbr.data()},
      {kInGroups, sizeof(LabelGroup), c.in.groups.size(),
       c.in.groups.data()},
      {kInGroupOff, sizeof(uint32_t), c.in.group_off.size(),
       c.in.group_off.data()},
      {kAttrOff, sizeof(uint32_t), c.attr_off.size(),
       c.attr_off.data()},
      {kAttrKeys, sizeof(uint32_t), attr_keys.size(), attr_keys.data()},
      {kAttrTags, sizeof(uint8_t), attr_tags.size(), attr_tags.data()},
      {kAttrVals, sizeof(int64_t), attr_vals.size(), attr_vals.data()},
      {kStrOff, sizeof(uint32_t), str_off.size(), str_off.data()},
      {kStrBytes, 1, str_bytes.size(), str_bytes.data()},
      {kLabelNodes, sizeof(NodeId), c.label_nodes.size(),
       c.label_nodes.data()},
      {kLabelOff, sizeof(uint32_t), label_off.size(), label_off.data()},
      {kLabelDictOff, sizeof(uint32_t), label_dict_off.size(),
       label_dict_off.data()},
      {kLabelDictBytes, 1, label_dict_bytes.size(), label_dict_bytes.data()},
      {kAttrDictOff, sizeof(uint32_t), attr_dict_off.size(),
       attr_dict_off.data()},
      {kAttrDictBytes, 1, attr_dict_bytes.size(), attr_dict_bytes.data()},
  };

  SectionEntry table[kSectionCount];
  uint64_t offset = sizeof(FileHeader) + sizeof(table);
  for (size_t s = 0; s < kSectionCount; ++s) {
    offset = (offset + 7) & ~uint64_t{7};
    table[s].id = specs[s].id;
    table[s].elem_bytes = specs[s].elem_bytes;
    table[s].count = specs[s].count;
    table[s].offset = offset;
    table[s].checksum =
        Fnv1a64(specs[s].data, specs[s].elem_bytes * specs[s].count);
    offset += specs[s].elem_bytes * specs[s].count;
  }

  FileHeader header;
  std::memcpy(header.magic, kSnapshotMagic, sizeof(header.magic));
  header.version = kSnapshotFormatVersion;
  header.endian = kEndianMarker;
  header.view = static_cast<uint32_t>(snap.view_);
  header.section_count = kSectionCount;
  header.file_bytes = offset;
  header.table_checksum = Fnv1a64(table, sizeof(table));

  std::string out(offset, '\0');
  std::memcpy(&out[0], &header, sizeof(header));
  std::memcpy(&out[sizeof(header)], table, sizeof(table));
  for (size_t s = 0; s < kSectionCount; ++s) {
    const uint64_t bytes = specs[s].elem_bytes * specs[s].count;
    if (bytes > 0) std::memcpy(&out[table[s].offset], specs[s].data, bytes);
  }
  return out;
}

StatusOr<std::unique_ptr<GraphSnapshot>> SnapshotCodec::Deserialize(
    std::string_view bytes, SchemaPtr schema) {
  if (!HostIsLittleEndian()) {
    return Status::Unimplemented("snapshot format is little-endian only");
  }
  if (schema == nullptr) {
    return Status::InvalidArgument("null schema");
  }
  if (bytes.size() < sizeof(FileHeader)) {
    return Status::Corruption("truncated snapshot: " +
                              std::to_string(bytes.size()) +
                              " bytes is smaller than the header");
  }
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(header.magic)) != 0) {
    return Status::Corruption("not a snapshot file (bad magic)");
  }
  if (header.endian != kEndianMarker) {
    return Status::Corruption("snapshot byte order mismatch");
  }
  if (header.version != kSnapshotFormatVersion) {
    return Status::Corruption("unsupported snapshot format version " +
                              std::to_string(header.version) +
                              " (this build reads version " +
                              std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (header.view > static_cast<uint32_t>(GraphView::kNew)) {
    return Status::Corruption("bad snapshot view tag");
  }
  if (header.section_count != kSectionCount) {
    return Status::Corruption("snapshot section count mismatch");
  }
  if (header.file_bytes != bytes.size()) {
    return Status::Corruption(
        "truncated snapshot: header declares " +
        std::to_string(header.file_bytes) + " bytes, file has " +
        std::to_string(bytes.size()));
  }
  SectionEntry table[kSectionCount];
  if (bytes.size() < sizeof(FileHeader) + sizeof(table)) {
    return Status::Corruption("truncated snapshot: section table cut off");
  }
  std::memcpy(table, bytes.data() + sizeof(FileHeader), sizeof(table));
  if (Fnv1a64(table, sizeof(table)) != header.table_checksum) {
    return Status::Corruption("snapshot section table checksum mismatch");
  }

  const SectionEntry* by_id[kSectionCount + 1] = {nullptr};
  for (const SectionEntry& e : table) {
    if (e.id < 1 || e.id > kSectionCount) {
      return Status::Corruption("unknown snapshot section id " +
                                std::to_string(e.id));
    }
    if (by_id[e.id] != nullptr) {
      return Status::Corruption("duplicate snapshot section id " +
                                std::to_string(e.id));
    }
    // Divide, don't multiply: elem_bytes * count could wrap uint64 and
    // sneak a huge count past the bounds check.
    if (e.elem_bytes == 0 || e.offset > bytes.size() ||
        e.count > (bytes.size() - e.offset) / e.elem_bytes) {
      return Status::Corruption("snapshot section " + std::to_string(e.id) +
                                " extends past end of file");
    }
    const uint64_t len = e.elem_bytes * e.count;
    if (Fnv1a64(bytes.data() + e.offset, len) != e.checksum) {
      return Status::Corruption("checksum mismatch in snapshot section " +
                                std::to_string(e.id));
    }
    by_id[e.id] = &e;
  }

  auto copy_section = [&](uint32_t id, auto* out) -> Status {
    using Elem = typename std::decay_t<decltype(*out)>::value_type;
    const SectionEntry& e = *by_id[id];
    if (e.elem_bytes != sizeof(Elem)) {
      return Status::Corruption("snapshot section " + std::to_string(id) +
                                " element size mismatch");
    }
    out->resize(e.count);
    if (e.count > 0) {
      std::memcpy(&(*out)[0], bytes.data() + e.offset,
                  e.count * sizeof(Elem));
    }
    return Status::OK();
  };
#define NGD_COPY_SECTION(id, vec) \
  NGD_RETURN_IF_ERROR(copy_section(id, &(vec)))

  // Private ctor: make_unique cannot reach it. ngdlint:allow(naked-new)
  std::unique_ptr<GraphSnapshot> snap(new GraphSnapshot());
  snap->schema_ = schema;
  snap->view_ = static_cast<GraphView>(header.view);
  auto core = std::make_shared<SnapshotCore>();
  std::vector<uint32_t> attr_keys;
  std::vector<uint8_t> attr_tags;
  std::vector<int64_t> attr_vals;
  std::vector<uint32_t> str_off, label_dict_off, attr_dict_off;
  std::string str_bytes, label_dict_bytes, attr_dict_bytes;

  NGD_COPY_SECTION(kNodeLabels, core->node_labels);
  NGD_COPY_SECTION(kOutNbr, core->out.nbr);
  NGD_COPY_SECTION(kOutGroups, core->out.groups);
  NGD_COPY_SECTION(kOutGroupOff, core->out.group_off);
  NGD_COPY_SECTION(kInNbr, core->in.nbr);
  NGD_COPY_SECTION(kInGroups, core->in.groups);
  NGD_COPY_SECTION(kInGroupOff, core->in.group_off);
  NGD_COPY_SECTION(kAttrOff, core->attr_off);
  NGD_COPY_SECTION(kAttrKeys, attr_keys);
  NGD_COPY_SECTION(kAttrTags, attr_tags);
  NGD_COPY_SECTION(kAttrVals, attr_vals);
  NGD_COPY_SECTION(kStrOff, str_off);
  NGD_COPY_SECTION(kStrBytes, str_bytes);
  NGD_COPY_SECTION(kLabelNodes, core->label_nodes);
  NGD_COPY_SECTION(kLabelOff, core->label_off);
  NGD_COPY_SECTION(kLabelDictOff, label_dict_off);
  NGD_COPY_SECTION(kLabelDictBytes, label_dict_bytes);
  NGD_COPY_SECTION(kAttrDictOff, attr_dict_off);
  NGD_COPY_SECTION(kAttrDictBytes, attr_dict_bytes);
#undef NGD_COPY_SECTION

  // Dictionaries are sliced and compatibility-checked up front (so
  // label/attr id bounds can be validated against the final alphabet
  // sizes) but interned into the caller's schema only after EVERY
  // validation below has passed — a rejected file must leave the shared
  // schema untouched.
  if (label_dict_off.empty() || label_dict_off[0] != 0 ||
      attr_dict_off.empty() || attr_dict_off[0] != 0) {
    return Status::Corruption("malformed snapshot dictionary offsets");
  }
  std::vector<std::string_view> label_names, attr_names;
  NGD_RETURN_IF_ERROR(SliceDict(label_dict_off, label_dict_bytes,
                                &label_names));
  NGD_RETURN_IF_ERROR(SliceDict(attr_dict_off, attr_dict_bytes,
                                &attr_names));
  NGD_RETURN_IF_ERROR(CheckDictCompatible(label_names, schema->labels()));
  NGD_RETURN_IF_ERROR(CheckDictCompatible(attr_names, schema->attrs()));
  const size_t num_labels = label_names.size();
  const size_t num_attr_names = attr_names.size();

  // ---- Structural invariants the matching engine relies on ----------------
  const size_t n = core->node_labels.size();
  auto corrupt = [](const char* what) {
    return Status::Corruption(std::string("snapshot invariant violated: ") +
                              what);
  };
  for (LabelId l : core->node_labels) {
    if (l >= num_labels) return corrupt("node label id out of range");
  }
  auto check_direction = [&](const SnapshotCore::Direction& d) -> Status {
    if (d.group_off.size() != n + 1) {
      return corrupt("group offset array has wrong length");
    }
    if (n > 0 && (d.group_off[0] != 0 || d.group_off[n] != d.groups.size())) {
      return corrupt("group offsets do not tile the group array");
    }
    if (n == 0 && !d.groups.empty()) {
      return corrupt("adjacency groups without nodes");
    }
    uint32_t running = 0;
    for (size_t v = 0; v < n; ++v) {
      // Bound-check BEFORE the dereferencing loop below: a spiked
      // intermediate offset must not drive an out-of-range groups[] read.
      if (d.group_off[v] > d.group_off[v + 1] ||
          d.group_off[v + 1] > d.groups.size()) {
        return corrupt("group offsets decrease or overrun the group array");
      }
      LabelId prev_label = 0;
      for (uint32_t gi = d.group_off[v]; gi < d.group_off[v + 1]; ++gi) {
        const LabelGroup& group = d.groups[gi];
        if (group.label >= num_labels) {
          return corrupt("adjacency label id out of range");
        }
        if (gi > d.group_off[v] && group.label <= prev_label) {
          return corrupt("label groups not ascending within a node");
        }
        prev_label = group.label;
        if (group.begin != running || group.end < group.begin ||
            group.end > d.nbr.size()) {
          return corrupt("label group range does not tile the neighbor "
                         "array");
        }
        for (uint32_t i = group.begin; i < group.end; ++i) {
          if (d.nbr[i] >= n) return corrupt("neighbor id out of range");
          if (i > group.begin && d.nbr[i] <= d.nbr[i - 1]) {
            return corrupt("neighbors not strictly ascending in a range");
          }
        }
        running = group.end;
      }
    }
    if (running != d.nbr.size()) {
      return corrupt("neighbor array has unreferenced tail");
    }
    return Status::OK();
  };
  NGD_RETURN_IF_ERROR(check_direction(core->out));
  NGD_RETURN_IF_ERROR(check_direction(core->in));
  if (core->out.nbr.size() != core->in.nbr.size()) {
    return corrupt("out/in edge counts disagree");
  }
  // in_ must be the exact transpose of out_. The canonical per-direction
  // invariants above make each direction a unique function of its edge
  // multiset, so commutative multiset equality of (src, label, dst)
  // triples is an exact transpose check (modulo hash collisions, ample
  // for the buggy-writer threat the checksums cannot cover) — one O(|E|)
  // pass, no allocation.
  {
    auto mix_triple = [](NodeId src, LabelId label, NodeId dst) {
      uint64_t x = (uint64_t{src} << 32) | dst;
      x ^= uint64_t{label} * 0x9e3779b97f4a7c15ULL;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebULL;
      x ^= x >> 31;
      return x;
    };
    uint64_t out_hash = 0;
    uint64_t in_hash = 0;
    for (size_t v = 0; v < n; ++v) {
      const NodeId node = static_cast<NodeId>(v);
      for (uint32_t gi = core->out.group_off[v];
           gi < core->out.group_off[v + 1]; ++gi) {
        const LabelGroup& group = core->out.groups[gi];
        for (uint32_t i = group.begin; i < group.end; ++i) {
          out_hash += mix_triple(node, group.label, core->out.nbr[i]);
        }
      }
      for (uint32_t gi = core->in.group_off[v];
           gi < core->in.group_off[v + 1]; ++gi) {
        const LabelGroup& group = core->in.groups[gi];
        for (uint32_t i = group.begin; i < group.end; ++i) {
          in_hash += mix_triple(core->in.nbr[i], group.label, node);
        }
      }
    }
    if (out_hash != in_hash) {
      return corrupt("in-adjacency is not the transpose of the "
                     "out-adjacency");
    }
  }

  if (core->attr_off.size() != n + 1 || core->attr_off[0] != 0 ||
      core->attr_off[n] != attr_keys.size()) {
    return corrupt("attribute offsets malformed");
  }
  if (attr_tags.size() != attr_keys.size() ||
      attr_vals.size() != attr_keys.size()) {
    return corrupt("attribute arrays disagree on length");
  }
  if (str_off.empty() || str_off[0] != 0 ||
      str_off.back() != str_bytes.size()) {
    return corrupt("string pool offsets malformed");
  }
  for (size_t i = 0; i + 1 < str_off.size(); ++i) {
    if (str_off[i] > str_off[i + 1]) {
      return corrupt("string pool offsets decrease");
    }
  }
  const size_t num_strings = str_off.size() - 1;
  core->attrs.reserve(attr_keys.size());
  for (size_t v = 0; v < n; ++v) {
    if (core->attr_off[v] > core->attr_off[v + 1] ||
        core->attr_off[v + 1] > attr_keys.size()) {
      return corrupt("attribute offsets decrease or overrun the arrays");
    }
    for (uint32_t i = core->attr_off[v]; i < core->attr_off[v + 1]; ++i) {
      if (attr_keys[i] >= num_attr_names) {
        return corrupt("attribute id out of range");
      }
      if (i > core->attr_off[v] && attr_keys[i] <= attr_keys[i - 1]) {
        return corrupt("attribute tuple not AttrId-sorted");
      }
      if (attr_tags[i] == 0) {
        core->attrs.emplace_back(attr_keys[i], Value(attr_vals[i]));
      } else if (attr_tags[i] == 1) {
        const uint64_t s = static_cast<uint64_t>(attr_vals[i]);
        if (attr_vals[i] < 0 || s >= num_strings) {
          return corrupt("string attribute index out of range");
        }
        core->attrs.emplace_back(
            attr_keys[i],
            Value(str_bytes.substr(str_off[s], str_off[s + 1] - str_off[s])));
      } else {
        return corrupt("unknown attribute value tag");
      }
    }
  }

  if (core->label_off.size() != num_labels + 1 || core->label_off[0] != 0 ||
      core->label_off[num_labels] != core->label_nodes.size() ||
      core->label_nodes.size() != n) {
    return corrupt("label candidate arrays malformed");
  }
  for (size_t l = 0; l < num_labels; ++l) {
    if (core->label_off[l] > core->label_off[l + 1] ||
        core->label_off[l + 1] > core->label_nodes.size()) {
      return corrupt("label candidate offsets decrease or overrun");
    }
    for (uint32_t i = core->label_off[l]; i < core->label_off[l + 1]; ++i) {
      const NodeId v = core->label_nodes[i];
      if (v >= n || core->node_labels[v] != l) {
        return corrupt("label candidate array disagrees with node labels");
      }
      if (i > core->label_off[l] &&
          core->label_nodes[i] <= core->label_nodes[i - 1]) {
        return corrupt("label candidates not strictly ascending");
      }
    }
  }

  // Every validation passed — only now touch the caller's schema.
  // CheckDictCompatible guarantees each Intern lands on its file id.
  for (const std::string_view& name : label_names) {
    schema->InternLabel(name);
  }
  for (const std::string_view& name : attr_names) {
    schema->InternAttr(name);
  }
  snap->Bind(std::move(core));
  return snap;
}

StatusOr<std::unique_ptr<Graph>> SnapshotCodec::Materialize(
    const GraphSnapshot& snap) {
  const SnapshotCore& c = *snap.core_;
  auto g = std::make_unique<Graph>(snap.schema_);
  const size_t n = snap.NumNodes();
  g->ReserveNodes(n);
  for (size_t v = 0; v < n; ++v) {
    g->AddNode(c.node_labels[v]);
  }
  for (NodeId v = 0; v < n; ++v) {
    g->ReserveAttrs(v, c.attr_off[v + 1] - c.attr_off[v]);
    for (uint32_t i = c.attr_off[v]; i < c.attr_off[v + 1]; ++i) {
      g->SetAttr(v, c.attrs[i].first, c.attrs[i].second);
    }
  }
  std::vector<EdgeKey> edges;
  edges.reserve(c.out.nbr.size());
  for (NodeId v = 0; v < n; ++v) {
    for (uint32_t gi = c.out.group_off[v]; gi < c.out.group_off[v + 1];
         ++gi) {
      const auto& group = c.out.groups[gi];
      for (uint32_t i = group.begin; i < group.end; ++i) {
        edges.push_back(EdgeKey{v, c.out.nbr[i], group.label});
      }
    }
  }
  Status s = g->AddEdges(edges);
  if (!s.ok()) {
    return Status::Internal("snapshot materialization: " + s.ToString());
  }
  // g now holds exactly the snapshot's content, and the snapshot's core is
  // canonical (a build's, or validated on load): it is g's committed CSR.
  GraphSnapshot::AdoptCommittedCore(g.get(), snap);
  return g;
}

uint64_t SnapshotCodec::Fingerprint(const GraphSnapshot& snap) {
  const SnapshotCore& c = *snap.core_;
  const size_t n = snap.NumNodes();
  uint64_t h = Fnv1a64(&n, sizeof(n));
  if (n > 0) {
    h = Fnv1a64(c.node_labels.data(), n * sizeof(LabelId), h);
  }
  for (NodeId v = 0; v < n; ++v) {
    for (uint32_t i = c.attr_off[v]; i < c.attr_off[v + 1]; ++i) {
      const auto& [attr, val] = c.attrs[i];
      h = Fnv1a64(&attr, sizeof(attr), h);
      if (val.is_int()) {
        const int64_t x = val.AsInt();
        h = Fnv1a64("i", 1, h);
        h = Fnv1a64(&x, sizeof(x), h);
      } else {
        h = Fnv1a64("s", 1, h);
        h = Fnv1a64(val.AsString().data(), val.AsString().size(), h);
        h = Fnv1a64("\0", 1, h);
      }
    }
    for (uint32_t gi = c.out.group_off[v]; gi < c.out.group_off[v + 1];
         ++gi) {
      const auto& group = c.out.groups[gi];
      h = Fnv1a64(&group.label, sizeof(group.label), h);
      const uint32_t count = group.end - group.begin;
      h = Fnv1a64(&count, sizeof(count), h);
      h = Fnv1a64(c.out.nbr.data() + group.begin, count * sizeof(NodeId),
                  h);
    }
  }
  return h;
}

StatusOr<std::string> SerializeSnapshot(const GraphSnapshot& snap) {
  return SnapshotCodec::Serialize(snap);
}

StatusOr<std::unique_ptr<GraphSnapshot>> DeserializeSnapshot(
    std::string_view bytes, SchemaPtr schema) {
  return SnapshotCodec::Deserialize(bytes, std::move(schema));
}

Status SaveSnapshotFile(const GraphSnapshot& snap, const std::string& path) {
  NGD_ASSIGN_OR_RETURN(std::string image, SerializeSnapshot(snap));
  // Atomic replace: a crash mid-save must leave the previous file intact.
  return WriteFileAtomic(path, image, NGD_FAILPOINT("snapshot_write"));
}

StatusOr<std::unique_ptr<GraphSnapshot>> LoadSnapshotFile(
    const std::string& path, SchemaPtr schema) {
  // One sized bulk read — the load cost the format is designed around.
  NGD_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return DeserializeSnapshot(bytes, std::move(schema));
}

bool SniffSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  char magic[sizeof(kSnapshotMagic)];
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kSnapshotMagic, sizeof(magic)) == 0;
}

StatusOr<std::unique_ptr<Graph>> MaterializeGraph(const GraphSnapshot& snap) {
  return SnapshotCodec::Materialize(snap);
}

uint64_t SnapshotFingerprint(const GraphSnapshot& snap) {
  return SnapshotCodec::Fingerprint(snap);
}

}  // namespace ngd
