// Binary snapshot persistence correctness (graph/snapshot_io.{h,cc}).
//
// Coverage:
//   1. Round-trip: serialize -> deserialize reproduces the CSR content
//      exactly (public-API spot checks + fingerprint), including string
//      attributes and randomized generator graphs.
//   2. Robustness: bad magic, version/endian mismatch, truncation at
//      every prefix length, payload and table corruption, schema
//      conflicts, and on-disk damage through the file path (truncation
//      targeted at section boundaries, randomized single-bit flips) —
//      all fail with kCorruption, never crash.
//   3. Equivalence into detection results: the same graph ingested as
//      TSV text and as a binary snapshot produces identical violations
//      from all four engines (Dect/PDect fed the loaded snapshot
//      directly, IncDect/PIncDect using it as the DeltaView base), with
//      the batch violation serialization compared byte-for-byte.
//
// NGD_IO_CASES resizes the randomized sweeps (sanitizer CI runs a
// reduced one); `ctest -L io` runs this suite with graph_io_test.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "discovery/ngd_generator.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "graph/snapshot_io.h"
#include "graph/updates.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "test_util.h"

namespace ngd {
namespace {

size_t CaseCount() { return testing_util::EnvCount("NGD_IO_CASES", 25); }

std::string MustSerialize(const GraphSnapshot& snap) {
  auto bytes = SerializeSnapshot(snap);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return std::move(bytes).value();
}

/// A small graph with labels, int and (hostile) string attrs, and
/// multi-label adjacency.
std::unique_ptr<Graph> MakeSmallGraph(SchemaPtr schema) {
  auto g = std::make_unique<Graph>(schema);
  NodeId a = g->AddNode("person");
  NodeId b = g->AddNode("person");
  NodeId c = g->AddNode("city");
  g->SetAttr(a, "age", Value(int64_t{30}));
  g->SetAttr(a, "name", Value("al\t\"ice\"\n"));
  g->SetAttr(b, "age", Value(int64_t{-7}));
  g->SetAttr(c, "name", Value(""));
  EXPECT_TRUE(g->AddEdge(a, b, "knows").ok());
  EXPECT_TRUE(g->AddEdge(b, a, "knows").ok());
  EXPECT_TRUE(g->AddEdge(a, c, "lives_in").ok());
  EXPECT_TRUE(g->AddEdge(b, c, "lives_in").ok());
  return g;
}

/// Deterministic byte form of a violation set (rule names + node ids).
std::string VioBytes(const VioSet& vio, const NgdSet& sigma) {
  std::ostringstream os;
  for (const Violation& v : vio.Sorted()) {
    os << sigma[v.ngd_index].name() << ":";
    for (NodeId n : v.nodes) os << " " << n;
    os << "\n";
  }
  return os.str();
}

// ---- Round-trip -----------------------------------------------------------

TEST(SnapshotIoTest, RoundTripSmallGraph) {
  SchemaPtr schema = Schema::Create();
  auto g = MakeSmallGraph(schema);
  GraphSnapshot snap(*g, GraphView::kNew);
  const std::string bytes = MustSerialize(snap);

  SchemaPtr schema2 = Schema::Create();
  auto loaded = DeserializeSnapshot(bytes, schema2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const GraphSnapshot& snap2 = **loaded;

  EXPECT_EQ(snap2.view(), GraphView::kNew);
  ASSERT_EQ(snap2.NumNodes(), snap.NumNodes());
  EXPECT_EQ(snap2.NumEdges(), snap.NumEdges());
  // Same intern order: ids transfer directly.
  EXPECT_EQ(schema2->labels().size(), schema->labels().size());
  EXPECT_EQ(schema2->attrs().size(), schema->attrs().size());
  const LabelId knows = *schema2->labels().Find("knows");
  const AttrId name = *schema2->attrs().Find("name");
  EXPECT_TRUE(snap2.HasEdge(0, 1, knows));
  EXPECT_TRUE(snap2.HasEdge(1, 0, knows));
  EXPECT_FALSE(snap2.HasEdge(0, 2, knows));
  ASSERT_NE(snap2.GetAttr(0, name), nullptr);
  EXPECT_EQ(snap2.GetAttr(0, name)->AsString(), "al\t\"ice\"\n");
  ASSERT_NE(snap2.GetAttr(2, name), nullptr);
  EXPECT_EQ(snap2.GetAttr(2, name)->AsString(), "");
  EXPECT_EQ(snap2.NodesWithLabel(*schema2->labels().Find("person")).size(),
            2u);
  EXPECT_EQ(SnapshotFingerprint(snap2), SnapshotFingerprint(snap));
}

TEST(SnapshotIoTest, RoundTripRandomGraphs) {
  const size_t cases = CaseCount();
  for (size_t c = 0; c < cases; ++c) {
    GraphGenConfig config;
    config.num_nodes = 30 + 17 * c;
    config.num_edges = 60 + 23 * c;
    config.num_node_labels = 1 + c % 9;
    config.num_edge_labels = 1 + c % 7;
    config.seed = 4000 + c;
    SchemaPtr schema = Schema::Create();
    auto g = GenerateGraph(config, schema);
    for (GraphView view : {GraphView::kNew, GraphView::kOld}) {
      GraphSnapshot snap(*g, view);
      auto loaded = DeserializeSnapshot(MustSerialize(snap), Schema::Create());
      ASSERT_TRUE(loaded.ok()) << "case " << c << ": "
                               << loaded.status().ToString();
      EXPECT_EQ((*loaded)->view(), view);
      EXPECT_EQ(SnapshotFingerprint(**loaded), SnapshotFingerprint(snap))
          << "case " << c;
    }
  }
}

TEST(SnapshotIoTest, MaterializeRebuildsTheSameSnapshot) {
  SchemaPtr schema = Schema::Create();
  auto g = MakeSmallGraph(schema);
  GraphSnapshot snap(*g, GraphView::kNew);
  auto back = MaterializeGraph(snap);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ((*back)->NumNodes(), g->NumNodes());
  EXPECT_EQ((*back)->NumEdges(GraphView::kNew), g->NumEdges(GraphView::kNew));
  GraphSnapshot again(**back, GraphView::kNew);
  EXPECT_EQ(SnapshotFingerprint(again), SnapshotFingerprint(snap));
}

TEST(SnapshotIoTest, FileRoundTripAndSniffing) {
  SchemaPtr schema = Schema::Create();
  auto g = MakeSmallGraph(schema);
  GraphSnapshot snap(*g, GraphView::kNew);
  const std::string path = ::testing::TempDir() + "/snapshot_io_test.ngds";
  ASSERT_TRUE(SaveSnapshotFile(snap, path).ok());
  EXPECT_TRUE(SniffSnapshotFile(path));
  auto loaded = LoadSnapshotFile(path, Schema::Create());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SnapshotFingerprint(**loaded), SnapshotFingerprint(snap));
  std::remove(path.c_str());
  EXPECT_FALSE(SniffSnapshotFile(path));  // gone
}

// ---- Writer side: schema growth after the core was built ----------------
//
// The Graph's committed core is built once per commit epoch and shared by
// every snapshot of it, with candidate offsets sized to the schema of its
// build. A label interned afterwards (a rule file naming a label the graph
// lacks is enough) still reaches the file's dictionary, and the file must
// load.

TEST(SnapshotIoWriterTest, LabelInternedAfterTheCoreBuildStillLoads) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  const NodeId a = g.AddNode("person");
  const NodeId b = g.AddNode("person");
  ASSERT_TRUE(g.AddEdge(a, b, "knows").ok());
  { const GraphSnapshot first(g, GraphView::kNew); }  // builds the core
  const LabelId city = schema->InternLabel("city");
  const GraphSnapshot snap(g, GraphView::kNew);  // leases that core
  const std::string path = ::testing::TempDir() + "/snapshot_io_grown.ngds";
  ASSERT_TRUE(SaveSnapshotFile(snap, path).ok());
  SchemaPtr fresh = Schema::Create();
  auto loaded = LoadSnapshotFile(path, fresh);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SnapshotFingerprint(**loaded), SnapshotFingerprint(snap));
  ASSERT_EQ(fresh->labels().Find("city"), std::optional<LabelId>(city));
  EXPECT_TRUE((*loaded)->NodesWithLabel(city).empty());
  EXPECT_EQ((*loaded)->NodesWithLabel(*fresh->labels().Find("person")).size(),
            2u);
}

// Seeded writer-side property: under random schema growth, AddNode,
// AddEdge/InsertEdge, SetAttr and Commit steps, every snapshot requested
// of either view serializes to bytes that load back, into a fresh schema,
// with an equal fingerprint.
TEST(SnapshotIoWriterTest, EverySnapshotLoadsBackUnderSchemaGrowth) {
  const size_t cases = CaseCount();
  size_t snapshots = 0;
  for (size_t c = 0; c < cases; ++c) {
    const uint64_t seed = 7000 + c;
    Rng rng(seed);
    SchemaPtr schema = Schema::Create();
    Graph g(schema);
    std::vector<LabelId> labels{schema->InternLabel("l0")};
    std::vector<AttrId> attrs{schema->InternAttr("a0")};
    std::ostringstream trail;
    for (int step = 0; step < 80; ++step) {
      const auto pick = [&rng](size_t n) {
        return static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      };
      switch (rng.UniformInt(0, 7)) {
        case 0:
          labels.push_back(
              schema->InternLabel("l" + std::to_string(labels.size())));
          trail << " label";
          break;
        case 1:
          attrs.push_back(
              schema->InternAttr("a" + std::to_string(attrs.size())));
          trail << " attr";
          break;
        case 2:
          g.AddNode(labels[pick(labels.size())]);
          trail << " node";
          break;
        case 3:
          if (g.NumNodes() > 0) {
            const NodeId src = static_cast<NodeId>(pick(g.NumNodes()));
            const NodeId dst = static_cast<NodeId>(pick(g.NumNodes()));
            const LabelId label = labels[pick(labels.size())];
            // A duplicate edge is refused; either outcome is a valid step.
            const Status s = rng.Bernoulli(0.5)
                                 ? g.AddEdge(src, dst, label)
                                 : g.InsertEdge(src, dst, label);
            trail << (s.ok() ? " edge" : " dup-edge");
          }
          break;
        case 4:
          if (g.NumNodes() > 0) {
            const NodeId v = static_cast<NodeId>(pick(g.NumNodes()));
            const AttrId attr = attrs[pick(attrs.size())];
            g.SetAttr(v, attr,
                      rng.Bernoulli(0.5)
                          ? Value(rng.UniformInt(-50, 50))
                          : Value("s" + std::to_string(rng.UniformInt(0, 9))));
            trail << " set";
          }
          break;
        case 5:
          g.Commit();
          trail << " commit";
          break;
        default: {
          const GraphView view =
              rng.Bernoulli(0.5) ? GraphView::kOld : GraphView::kNew;
          const GraphSnapshot snap(g, view);
          auto loaded =
              DeserializeSnapshot(MustSerialize(snap), Schema::Create());
          ASSERT_TRUE(loaded.ok())
              << "seed " << seed << " step " << step << ":" << trail.str()
              << ": " << loaded.status().ToString();
          EXPECT_EQ(SnapshotFingerprint(**loaded), SnapshotFingerprint(snap))
              << "seed " << seed << " step " << step << ":" << trail.str();
          ++snapshots;
          trail << " snapshot";
          break;
        }
      }
    }
  }
  EXPECT_GT(snapshots, cases);
}

// ---- Robustness -----------------------------------------------------------

class SnapshotIoCorruptionTest : public ::testing::Test {
 protected:
  SnapshotIoCorruptionTest() {
    SchemaPtr schema = Schema::Create();
    auto g = MakeSmallGraph(schema);
    GraphSnapshot snap(*g, GraphView::kNew);
    bytes_ = MustSerialize(snap);
  }

  Status LoadStatus(const std::string& bytes) {
    auto r = DeserializeSnapshot(bytes, Schema::Create());
    return r.ok() ? Status::OK() : r.status();
  }

  std::string bytes_;
};

TEST_F(SnapshotIoCorruptionTest, BadMagicIsRejected) {
  std::string bad = bytes_;
  bad[0] = 'X';
  Status s = LoadStatus(bad);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotIoCorruptionTest, VersionMismatchIsRejected) {
  std::string bad = bytes_;
  bad[8] = static_cast<char>(kSnapshotFormatVersion + 1);  // version field
  Status s = LoadStatus(bad);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotIoCorruptionTest, EndianMismatchIsRejected) {
  std::string bad = bytes_;
  bad[12] = ~bad[12];  // endian marker field
  Status s = LoadStatus(bad);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("byte order"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotIoCorruptionTest, EveryTruncationIsRejected) {
  // Every proper prefix must fail cleanly (header cut, table cut, payload
  // cut) — this is the "truncated file" acceptance case, exhaustively.
  for (size_t len = 0; len < bytes_.size(); ++len) {
    Status s = LoadStatus(bytes_.substr(0, len));
    ASSERT_FALSE(s.ok()) << "prefix of " << len << " bytes parsed";
    ASSERT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  }
}

TEST_F(SnapshotIoCorruptionTest, PayloadBitflipsNeverCorruptSilently) {
  // Flipping any single payload byte must either trip a checksum (or a
  // structural validation) or — when it lands in the unchecksummed
  // alignment padding between sections — leave the loaded content
  // bit-identical. A flip that parses AND changes the content would be
  // silent corruption.
  SchemaPtr ref_schema = Schema::Create();
  auto ref = DeserializeSnapshot(bytes_, ref_schema);
  ASSERT_TRUE(ref.ok());
  const uint64_t want = SnapshotFingerprint(**ref);
  const size_t header_and_table = 40 + 19 * 32;
  for (size_t pos = header_and_table; pos < bytes_.size();
       pos += 7) {  // stride keeps the sweep fast; offsets cover all sections
    std::string bad = bytes_;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x2f);
    auto r = DeserializeSnapshot(bad, Schema::Create());
    if (r.ok()) {
      EXPECT_EQ(SnapshotFingerprint(**r), want)
          << "bit flip at byte " << pos << " parsed with changed content";
    }
  }
}

TEST_F(SnapshotIoCorruptionTest, TableCorruptionIsRejected) {
  for (size_t pos = 40; pos < 40 + 19 * 32; pos += 5) {
    std::string bad = bytes_;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x55);
    Status s = LoadStatus(bad);
    EXPECT_FALSE(s.ok()) << "table flip at byte " << pos << " parsed";
  }
}

TEST_F(SnapshotIoCorruptionTest, ConflictingSchemaIsRejected) {
  SchemaPtr schema = Schema::Create();
  schema->InternLabel("occupied");  // id 1 taken; file expects "person"
  auto r = DeserializeSnapshot(bytes_, schema);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("schema"), std::string::npos)
      << r.status().ToString();
}

TEST_F(SnapshotIoCorruptionTest, MatchingSchemaIsAccepted) {
  // Pre-interning the exact same names in the same order is fine.
  SchemaPtr schema = Schema::Create();
  schema->InternLabel("person");
  auto r = DeserializeSnapshot(bytes_, schema);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

// ---- Hostile but checksum-consistent files --------------------------------
//
// Bitflip tests never get past the checksums; an attacker (or a buggy
// writer) recomputes them. These tests forge structurally hostile files
// with VALID checksums and require a clean kCorruption — no OOB reads,
// no uncaught allocation failure, no side effects on the schema.

class SnapshotIoHostileTest : public SnapshotIoCorruptionTest {
 protected:
  static constexpr size_t kHeaderBytes = 40;
  static constexpr size_t kEntryBytes = 32;
  static constexpr size_t kNumSections = 19;

  static uint64_t Fnv1a(const void* data, size_t n) {
    uint64_t h = 14695981039346656037ULL;
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
    return h;
  }

  struct Entry {
    uint32_t id;
    uint32_t elem_bytes;
    uint64_t count;
    uint64_t offset;
    uint64_t checksum;
  };

  Entry ReadEntry(const std::string& bytes, size_t slot) {
    Entry e;
    std::memcpy(&e, bytes.data() + kHeaderBytes + slot * kEntryBytes,
                sizeof(e));
    return e;
  }

  void WriteEntry(std::string* bytes, size_t slot, const Entry& e) {
    std::memcpy(&(*bytes)[kHeaderBytes + slot * kEntryBytes], &e, sizeof(e));
  }

  size_t SlotOf(const std::string& bytes, uint32_t id) {
    for (size_t s = 0; s < kNumSections; ++s) {
      if (ReadEntry(bytes, s).id == id) return s;
    }
    ADD_FAILURE() << "section " << id << " not found";
    return 0;
  }

  /// Recomputes one section's payload checksum and the table checksum,
  /// so forged structural corruption survives the integrity pass.
  void RefreshChecksums(std::string* bytes, size_t slot) {
    Entry e = ReadEntry(*bytes, slot);
    e.checksum = Fnv1a(bytes->data() + e.offset, e.elem_bytes * e.count);
    WriteEntry(bytes, slot, e);
    const uint64_t table = Fnv1a(bytes->data() + kHeaderBytes,
                                 kNumSections * kEntryBytes);
    std::memcpy(&(*bytes)[32], &table, sizeof(table));
  }
};

TEST_F(SnapshotIoHostileTest, SpikedGroupOffsetIsRejectedWithoutOobRead) {
  // group_off[1] spiked past groups.size() with a valid checksum: the
  // validator must bound-check before dereferencing groups[].
  std::string bad = bytes_;
  const size_t slot = SlotOf(bad, /*kOutGroupOff=*/4);
  const Entry e = ReadEntry(bad, slot);
  ASSERT_GE(e.count, 2u);
  const uint32_t spiked = 1000;
  std::memcpy(&bad[e.offset + 4], &spiked, sizeof(spiked));
  RefreshChecksums(&bad, slot);
  Status s = LoadStatus(bad);
  ASSERT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("invariant"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotIoHostileTest, OverflowingSectionCountIsRejected) {
  // elem_bytes * count wraps uint64 to a tiny length; the bounds check
  // must divide instead of multiply, and never reach resize(count).
  std::string bad = bytes_;
  const size_t slot = SlotOf(bad, /*kOutNbr=*/2);
  Entry e = ReadEntry(bad, slot);
  e.count = uint64_t{1} << 62;  // 4 * 2^62 == 0 (mod 2^64)
  e.checksum = Fnv1a(bad.data() + e.offset, 0);
  WriteEntry(&bad, slot, e);
  RefreshChecksums(&bad, slot);
  Status s = LoadStatus(bad);
  ASSERT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("past end"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotIoHostileTest, NonTransposeInAdjacencyIsRejected) {
  // Rewrite one in-neighbor to another valid node id, keeping the
  // in-direction internally well-formed (sorted, in range) and the
  // checksums valid: the load must still reject, because in_ no longer
  // transposes out_ — the half of the structure the per-direction
  // checks cannot see.
  std::string bad = bytes_;
  const size_t slot = SlotOf(bad, /*kInNbr=*/5);
  const Entry e = ReadEntry(bad, slot);
  ASSERT_GE(e.count, 1u);
  // MakeSmallGraph node 2's lives_in in-range is [0, 1]; 1 -> 2 keeps it
  // strictly ascending but claims a 2 -> 2 edge out_ does not have.
  uint32_t last;
  std::memcpy(&last, &bad[e.offset + (e.count - 1) * 4], sizeof(last));
  const uint32_t forged = 2;
  ASSERT_NE(last, forged);
  std::memcpy(&bad[e.offset + (e.count - 1) * 4], &forged, sizeof(forged));
  RefreshChecksums(&bad, slot);
  Status s = LoadStatus(bad);
  ASSERT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_NE(s.message().find("transpose"), std::string::npos) << s.ToString();
}

TEST_F(SnapshotIoHostileTest, RejectedLoadLeavesSchemaUntouched) {
  // A file whose dictionaries are fine but whose CSR arrays fail a later
  // invariant must not intern anything into the caller's schema.
  std::string bad = bytes_;
  const size_t slot = SlotOf(bad, /*kOutGroupOff=*/4);
  const Entry e = ReadEntry(bad, slot);
  const uint32_t spiked = 1000;
  std::memcpy(&bad[e.offset + 4], &spiked, sizeof(spiked));
  RefreshChecksums(&bad, slot);
  SchemaPtr schema = Schema::Create();
  auto r = DeserializeSnapshot(bad, schema);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(schema->labels().size(), 1u);  // just the wildcard
  EXPECT_EQ(schema->attrs().size(), 0u);
}

// ---- On-disk damage (the file path, not the byte-image path) --------------
//
// The in-memory sweeps above cover every prefix and a strided multi-bit
// byte flip through DeserializeSnapshot. These drive the same policy
// through SaveSnapshotFile/LoadSnapshotFile: truncation targeted at each
// section boundary plus a few bytes either side (where a partial write
// or a lost tail block actually lands), and randomized single-bit flips
// (bit rot flips one bit, not a 0x2f pattern). Both must yield a clean
// kCorruption or a bit-identical load — never a crash, never silently
// changed content.

class SnapshotIoFileDamageTest : public SnapshotIoHostileTest {
 protected:
  static std::string TestPath(const std::string& name) {
    const std::string p = ::testing::TempDir() + "/" + name;
    std::remove(p.c_str());
    return p;
  }

  static void WriteBytes(const std::string& path, const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os.good()) << "cannot write " << path;
  }

  Status LoadFileStatus(const std::string& path) {
    auto r = LoadSnapshotFile(path, Schema::Create());
    return r.ok() ? Status::OK() : r.status();
  }
};

TEST_F(SnapshotIoFileDamageTest, TruncationAtSectionBoundariesIsRejected) {
  std::set<size_t> cuts = {0, kHeaderBytes,
                           kHeaderBytes + kNumSections * kEntryBytes};
  for (size_t s = 0; s < kNumSections; ++s) {
    const Entry e = ReadEntry(bytes_, s);
    cuts.insert(static_cast<size_t>(e.offset));
    cuts.insert(
        static_cast<size_t>(e.offset + uint64_t{e.elem_bytes} * e.count));
  }
  const std::string path = TestPath("snapshot_io_cut.ngds");
  for (size_t cut : cuts) {
    for (int delta = -3; delta <= 3; ++delta) {
      if (delta < 0 && cut < static_cast<size_t>(-delta)) continue;
      const size_t len = cut + static_cast<size_t>(delta);
      if (len >= bytes_.size()) continue;  // not a truncation
      WriteBytes(path, bytes_.substr(0, len));
      Status s = LoadFileStatus(path);
      ASSERT_FALSE(s.ok()) << "file cut to " << len << " bytes parsed";
      ASSERT_EQ(s.code(), StatusCode::kCorruption)
          << "cut to " << len << ": " << s.ToString();
    }
  }
}

TEST_F(SnapshotIoFileDamageTest, RandomizedSingleBitFlipsNeverCorruptSilently) {
  auto ref = DeserializeSnapshot(bytes_, Schema::Create());
  ASSERT_TRUE(ref.ok());
  const uint64_t want = SnapshotFingerprint(**ref);
  const std::string path = TestPath("snapshot_io_bitflip.ngds");
  uint64_t state = 0x9e3779b97f4a7c15ULL;  // fixed seed: reproducible sweep
  const size_t flips = CaseCount() * 8;
  for (size_t i = 0; i < flips; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const size_t pos = static_cast<size_t>((state >> 17) % bytes_.size());
    const unsigned bit = static_cast<unsigned>((state >> 11) & 7);
    std::string bad = bytes_;
    bad[pos] = static_cast<char>(bad[pos] ^ (1u << bit));
    WriteBytes(path, bad);
    auto r = LoadSnapshotFile(path, Schema::Create());
    if (r.ok()) {
      EXPECT_EQ(SnapshotFingerprint(**r), want)
          << "bit " << bit << " of byte " << pos
          << " flipped, file parsed with changed content";
    }
  }
}

// ---- Text-vs-binary equivalence into detection results --------------------

TEST(SnapshotIoEquivalenceTest, TextAndBinaryIngestAgreeOnAllFourEngines) {
  const size_t cases = std::max<size_t>(1, CaseCount() / 5);
  for (size_t c = 0; c < cases; ++c) {
    // Canonical source: a generated graph serialized to TSV once, then
    // re-parsed — so every ingestion path below interns in file order
    // and the same Σ (generated against the parsed graph) applies to all.
    GraphGenConfig config;
    config.num_nodes = 120 + 40 * c;
    config.num_edges = 300 + 90 * c;
    config.num_node_labels = 6;
    config.num_edge_labels = 5;
    config.seed = 5100 + c;
    std::string text;
    {
      SchemaPtr gen_schema = Schema::Create();
      auto g0 = GenerateGraph(config, gen_schema);
      std::ostringstream os;
      ASSERT_TRUE(WriteGraphText(*g0, &os).ok());
      text = os.str();
    }

    // Path T (text): parse the TSV.
    SchemaPtr schema_t = Schema::Create();
    auto gt = ParseGraphText(text, schema_t);
    ASSERT_TRUE(gt.ok()) << gt.status().ToString();

    NgdGenOptions gen;
    gen.count = 6;
    gen.max_diameter = 2;
    gen.seed = 600 + c;
    gen.violation_rate = 0.5;
    const NgdSet sigma = GenerateNgdSet(**gt, gen);
    if (sigma.empty()) continue;

    // Path B (binary): snapshot the parsed graph, round-trip it through
    // the codec, materialize the live graph from the loaded snapshot.
    GraphSnapshot snap(**gt, GraphView::kNew);
    SchemaPtr schema_b = Schema::Create();
    auto loaded = DeserializeSnapshot(MustSerialize(snap), schema_b);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto gb = MaterializeGraph(**loaded);
    ASSERT_TRUE(gb.ok()) << gb.status().ToString();

    // Batch: Dect and PDect, text path vs loaded-snapshot path; the
    // violation byte serialization must be identical.
    DectOptions dopts_t;
    const VioSet vio_t = Dect(**gt, sigma, dopts_t);
    DectOptions dopts_b;
    dopts_b.snapshot = loaded->get();
    const VioSet vio_b = Dect(**gb, sigma, dopts_b);
    EXPECT_EQ(VioBytes(vio_t, sigma), VioBytes(vio_b, sigma)) << "case " << c;

    PDectOptions popts_t;
    popts_t.num_processors = 3;
    const VioSet pvio_t = PDect(**gt, sigma, popts_t).vio;
    PDectOptions popts_b = popts_t;
    const VioSet pvio_b = PDect(**gb, sigma, popts_b).vio;
    EXPECT_EQ(VioBytes(pvio_t, sigma), VioBytes(pvio_b, sigma))
        << "case " << c;

    // Incremental: the loaded snapshot serves as the DeltaView base for
    // the binary path; the text path runs the live oracle.
    UpdateGenOptions up;
    up.fraction = 0.15;
    up.new_node_prob = 0.0;
    up.seed = 700 + c;
    UpdateBatch batch_t = GenerateUpdateBatch(gt->get(), up);
    ASSERT_TRUE(ApplyUpdateBatch(gt->get(), &batch_t).ok());
    UpdateBatch batch_b = batch_t;
    ASSERT_TRUE(ApplyUpdateBatch(gb->get(), &batch_b).ok());
    ASSERT_EQ(batch_t.size(), batch_b.size()) << "case " << c;

    IncDectOptions iopts_t;
    iopts_t.snapshot_mode = SnapshotMode::kNever;
    auto delta_t = IncDect(**gt, sigma, batch_t, iopts_t);
    ASSERT_TRUE(delta_t.ok()) << delta_t.status().ToString();
    IncDectOptions iopts_b;
    iopts_b.base_snapshot = loaded->get();
    auto delta_b = IncDect(**gb, sigma, batch_b, iopts_b);
    ASSERT_TRUE(delta_b.ok()) << delta_b.status().ToString();
    EXPECT_EQ(VioBytes(delta_t->added, sigma), VioBytes(delta_b->added, sigma))
        << "case " << c;
    EXPECT_EQ(VioBytes(delta_t->removed, sigma),
              VioBytes(delta_b->removed, sigma))
        << "case " << c;

    PIncDectOptions piopts_b;
    piopts_b.num_processors = 3;
    piopts_b.base_snapshot = loaded->get();
    auto pdelta_b = PIncDect(**gb, sigma, batch_b, piopts_b);
    ASSERT_TRUE(pdelta_b.ok()) << pdelta_b.status().ToString();
    EXPECT_EQ(VioBytes(delta_t->added, sigma),
              VioBytes(pdelta_b->delta.added, sigma))
        << "case " << c;
    EXPECT_EQ(VioBytes(delta_t->removed, sigma),
              VioBytes(pdelta_b->delta.removed, sigma))
        << "case " << c;
  }
}

}  // namespace
}  // namespace ngd
