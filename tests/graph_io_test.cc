// TSV ingest-path correctness (graph/graph_io.{h,cc}).
//
// Three layers of coverage:
//   1. Unit tests for the hardened record syntax: string-attr escaping
//      round-trips hostile values (quotes, tabs, newlines, backslashes),
//      malformed names/values/endpoints are rejected with kCorruption and
//      the offending line number, and write-side validation refuses
//      graphs whose names the format cannot represent.
//   2. A view-consistency regression over a graph carrying a pending
//      overlay (inserts AND deletes): the kNew serialization round-trips
//      to the committed graph, the kOld serialization to the rolled-back
//      graph.
//   3. A randomized round-trip property suite (generator graphs with
//      hostile string attrs injected, save -> load -> name-based
//      structural equality) that also pins the chunk-parallel parser to
//      the sequential oracle: same graph, same schema intern order, same
//      canonical re-serialization, any thread count.
//
// NGD_IO_CASES resizes the property sweep (sanitizer CI runs a reduced
// one); `ctest -L io` runs this suite together with snapshot_io_test.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_io.h"
#include "test_util.h"
#include "util/rng.h"

namespace ngd {
namespace {

size_t CaseCount() { return testing_util::EnvCount("NGD_IO_CASES", 25); }

std::string Serialize(const Graph& g, GraphView view = GraphView::kNew) {
  std::ostringstream os;
  Status s = WriteGraphText(g, &os, view);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return os.str();
}

StatusOr<std::unique_ptr<Graph>> Parse(const std::string& text,
                                       int threads = 1) {
  IngestOptions opts;
  opts.threads = threads;
  opts.min_parallel_bytes = 0;  // exercise the chunked path on small inputs
  return ParseGraphText(text, Schema::Create(), opts);
}

/// Name-based structural equality: schemas may intern in different
/// orders, so labels and attrs are compared through their names.
void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(GraphView::kNew), b.NumEdges(GraphView::kNew));
  const auto& aschema = *a.schema();
  const auto& bschema = *b.schema();
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    EXPECT_EQ(a.NodeLabelName(v), b.NodeLabelName(v)) << "node " << v;
    const auto& attrs_a = a.Attrs(v);
    const auto& attrs_b = b.Attrs(v);
    ASSERT_EQ(attrs_a.size(), attrs_b.size()) << "node " << v;
    for (const auto& [attr, val] : attrs_a) {
      auto id = bschema.attrs().Find(aschema.attrs().NameOf(attr));
      ASSERT_TRUE(id.has_value()) << aschema.attrs().NameOf(attr);
      const Value* other = b.GetAttr(v, *id);
      ASSERT_NE(other, nullptr) << aschema.attrs().NameOf(attr);
      EXPECT_EQ(val, *other) << "node " << v << " attr "
                             << aschema.attrs().NameOf(attr);
    }
  }
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    for (const AdjEntry& e : a.OutEdges(v)) {
      if (!EdgeInView(e.state, GraphView::kNew)) continue;
      auto label = bschema.labels().Find(aschema.labels().NameOf(e.label));
      ASSERT_TRUE(label.has_value());
      EXPECT_TRUE(b.HasEdge(v, e.other, *label, GraphView::kNew))
          << v << " -[" << aschema.labels().NameOf(e.label) << "]-> "
          << e.other;
    }
  }
}

// ---- Escaping -------------------------------------------------------------

TEST(GraphIoEscapingTest, HostileStringAttrsRoundTrip) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  NodeId a = g.AddNode("person");
  const std::vector<std::string> hostile = {
      "plain",
      "with \"quotes\"",
      "tab\there",
      "newline\nhere",
      "back\\slash",
      "carriage\rreturn",
      "\t\n\r\\\"",
      "",
      "trailing space ",
      " leading space",
      "looks=like_attr",
      "unicode \xc3\xa9\xe2\x82\xac",
  };
  for (size_t i = 0; i < hostile.size(); ++i) {
    g.SetAttr(a, "s" + std::to_string(i), Value(hostile[i]));
  }
  g.SetAttr(a, "n", Value(int64_t{-42}));

  auto loaded = Parse(Serialize(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameGraph(g, **loaded);
}

TEST(GraphIoEscapingTest, ReaderRejectsMalformedStrings) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"N\tp\ta=\"unterminated\n", "unterminated"},
      {"N\tp\ta=\"bad\\q escape\"\n", "unknown escape"},
      {"N\tp\ta=\"dangling\\\n", "dangling escape"},
      {"N\tp\ta=\"mid\"dle\"\n", "garbage after closing quote"},
  };
  for (const auto& [text, want] : cases) {
    auto r = Parse(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << text;
    EXPECT_NE(r.status().message().find("line 1"), std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find(want), std::string::npos)
        << r.status().ToString();
  }
}

// ---- Name validation ------------------------------------------------------

TEST(GraphIoNameTest, WriterRejectsUnserializableAttrNames) {
  for (const char* name : {"a=b", "a b", "a\tb", "a\"b", "a\nb"}) {
    SchemaPtr schema = Schema::Create();
    Graph g(schema);
    NodeId v = g.AddNode("person");
    g.SetAttr(v, name, Value(int64_t{1}));
    std::ostringstream os;
    Status s = WriteGraphText(g, &os);
    EXPECT_FALSE(s.ok()) << "attr name: " << name;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    // Validation runs before emission: a rejected graph must not leave
    // a truncated partial serialization behind.
    EXPECT_EQ(os.str(), "") << "attr name: " << name;
  }
}

TEST(GraphIoNameTest, WriterRejectsUnserializableLabels) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  g.AddNode("bad\tlabel");
  std::ostringstream os;
  EXPECT_EQ(WriteGraphText(g, &os).code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoNameTest, ReaderRejectsBadAttrAndLabelNames) {
  for (const char* text :
       {"N\tp\ta b=1\n",        // whitespace in attr name
        "N\tp\t=1\n",           // empty attr name
        "N\tp\t\"q\"=1\n",      // quote in attr name
        "N\t\n",                // empty label
        "N\ta b\n"}) {          // whitespace in label
    auto r = Parse(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << text;
    EXPECT_NE(r.status().message().find("line 1"), std::string::npos)
        << r.status().ToString();
  }
}

// ---- Edge endpoint validation ---------------------------------------------

TEST(GraphIoEndpointTest, RejectsNegativeEndpointsWithLineNumber) {
  auto r = Parse("N\tp\nN\tp\nE\t-1\t0\tknows\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("negative"), std::string::npos)
      << r.status().ToString();
}

TEST(GraphIoEndpointTest, RejectsOutOfRangeEndpointsWithLineNumber) {
  auto r = Parse("N\tp\nE\t0\t5\tknows\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
      << r.status().ToString();
}

TEST(GraphIoEndpointTest, RejectsUnsignedWraparoundIds) {
  // 2^32 + 1 used to wrap to node 1 through the NodeId cast and load a
  // bogus edge silently; it must be out-of-range now.
  auto r = Parse("N\tp\nN\tp\nE\t0\t4294967297\tknows\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().ToString();
}

TEST(GraphIoEndpointTest, ForwardReferencesToLaterNodesAreAllowed) {
  // Endpoint validation runs against the final node count, so an edge
  // record may precede the declarations of its endpoints.
  auto r = Parse("E\t0\t1\tknows\nN\tp\nN\tp\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Graph& g = **r;
  EXPECT_TRUE(
      g.HasEdge(0, 1, *g.schema()->labels().Find("knows"), GraphView::kNew));
}

TEST(GraphIoEndpointTest, DuplicateEdgeIsCorruptionWithLineNumber) {
  auto r = Parse("N\tp\nN\tp\nE\t0\t1\tk\nE\t0\t1\tk\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("line 4"), std::string::npos)
      << r.status().ToString();
}

// ---- View consistency with a pending overlay ------------------------------

TEST(GraphIoViewTest, PendingOverlayRoundTripsPerView) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  NodeId a = g.AddNode("person");
  NodeId b = g.AddNode("person");
  NodeId c = g.AddNode("city");
  g.SetAttr(a, "age", Value(int64_t{30}));
  LabelId knows = schema->InternLabel("knows");
  LabelId lives = schema->InternLabel("lives_in");
  ASSERT_TRUE(g.AddEdge(a, b, knows).ok());
  ASSERT_TRUE(g.AddEdge(a, c, lives).ok());
  // Pending overlay: delete a base edge, insert a fresh one.
  ASSERT_TRUE(g.DeleteEdge(a, b, knows).ok());
  ASSERT_TRUE(g.InsertEdge(b, c, lives).ok());
  ASSERT_TRUE(g.HasPendingUpdate());

  const std::string text_new = Serialize(g, GraphView::kNew);
  const std::string text_old = Serialize(g, GraphView::kOld);

  // kNew must equal the committed graph...
  Graph committed = g;
  committed.Commit();
  auto loaded_new = Parse(text_new);
  ASSERT_TRUE(loaded_new.ok()) << loaded_new.status().ToString();
  ExpectSameGraph(committed, **loaded_new);
  // The regression: the deleted edge must NOT appear in the kNew output.
  EXPECT_EQ(text_new.find("E\t0\t1\tknows"), std::string::npos);

  // ...and kOld the rolled-back (pre-update) graph.
  Graph rolled = g;
  rolled.Rollback();
  auto loaded_old = Parse(text_old);
  ASSERT_TRUE(loaded_old.ok()) << loaded_old.status().ToString();
  ExpectSameGraph(rolled, **loaded_old);
  EXPECT_EQ(text_old.find("E\t1\t2\tlives_in"), std::string::npos);
}

// ---- Randomized round-trip property suite ---------------------------------

TEST(GraphIoPropertyTest, RandomGraphsRoundTripAcrossThreadCounts) {
  const size_t cases = CaseCount();
  const std::string hostile[] = {
      "x\ty", "a\"b\"c", "line\nbreak", "w\\e\\i\\r\\d", "", "=", "\r\n",
  };
  for (size_t c = 0; c < cases; ++c) {
    Rng rng(1700 + c);
    GraphGenConfig config;
    config.num_nodes = 20 + static_cast<size_t>(rng.UniformInt(0, 200));
    config.num_edges = config.num_nodes +
                       static_cast<size_t>(rng.UniformInt(0, 400));
    config.num_node_labels = 1 + static_cast<size_t>(rng.UniformInt(0, 12));
    config.num_edge_labels = 1 + static_cast<size_t>(rng.UniformInt(0, 8));
    config.num_attrs = 1 + static_cast<size_t>(rng.UniformInt(0, 6));
    config.attrs_per_node = static_cast<size_t>(rng.UniformInt(0, 4));
    config.seed = 9000 + c;
    SchemaPtr schema = Schema::Create();
    std::unique_ptr<Graph> g = GenerateGraph(config, schema);
    // Sprinkle hostile string attrs over random nodes.
    const AttrId s_attr = schema->InternAttr("hostile");
    for (int k = 0; k < 8; ++k) {
      const NodeId v = static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(g->NumNodes()) - 1));
      g->SetAttr(v, s_attr,
                 Value(hostile[static_cast<size_t>(rng.UniformInt(
                     0, static_cast<int64_t>(std::size(hostile)) - 1))]));
    }

    const std::string text = Serialize(*g);
    const int threads = 1 + static_cast<int>(c % 4);
    auto loaded = Parse(text, threads);
    ASSERT_TRUE(loaded.ok()) << "case " << c << ": "
                             << loaded.status().ToString();
    ExpectSameGraph(*g, **loaded);

    // Canonical form: a parsed graph's schema is in file order, so from
    // the first round trip on, save∘load is byte-idempotent. (The very
    // first save need not be canonical — the generator's intern order
    // can differ from file-first-occurrence order.)
    const std::string canon = Serialize(**loaded);
    auto reparsed = Parse(canon, threads);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(Serialize(**reparsed), canon) << "case " << c;

    // The chunk-parallel parse matches the sequential oracle exactly —
    // including the schema intern order (file order of first occurrence).
    auto seq = Parse(text, 1);
    ASSERT_TRUE(seq.ok());
    const auto& lseq = (*seq)->schema()->labels();
    const auto& lpar = (*loaded)->schema()->labels();
    ASSERT_EQ(lseq.size(), lpar.size()) << "case " << c;
    for (size_t i = 0; i < lseq.size(); ++i) {
      EXPECT_EQ(lseq.NameOf(static_cast<uint32_t>(i)),
                lpar.NameOf(static_cast<uint32_t>(i)))
          << "case " << c << " label id " << i;
    }
  }
}

TEST(GraphIoPropertyTest, ParallelErrorsMatchSequentialOracle) {
  // An error deep in the file must surface with the same code and line
  // number from every thread count.
  std::string text;
  for (int i = 0; i < 200; ++i) text += "N\tp\tk=" + std::to_string(i) + "\n";
  text += "E\t0\t9999\tknows\n";  // line 201: out of range
  for (int i = 0; i < 200; ++i) text += "E\t" + std::to_string(i) + "\t" +
                                        std::to_string((i + 1) % 200) +
                                        "\tknows\n";
  for (int threads : {1, 2, 3, 8}) {
    auto r = Parse(text, threads);
    ASSERT_FALSE(r.ok()) << threads << " threads";
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    EXPECT_NE(r.status().message().find("line 201"), std::string::npos)
        << threads << " threads: " << r.status().ToString();
  }
}

TEST(GraphIoPropertyTest, FirstDuplicateOrBadEndpointWinsInFileOrder) {
  // Edges load in bulk after the endpoint checks, yet the error reported
  // is still the first one in the file, with its line, from every thread
  // count: a duplicate before a bad endpoint, or a bad endpoint before a
  // duplicate.
  std::string nodes;
  for (int i = 0; i < 200; ++i) nodes += "N\tp\n";
  std::string edges;  // lines 201..400
  for (int i = 0; i < 200; ++i) {
    edges += "E\t" + std::to_string(i) + "\t" + std::to_string((i + 1) % 200) +
             "\tknows\n";
  }
  const std::string dup = "E\t5\t6\tknows\n";
  const std::string bad = "E\t0\t9999\tknows\n";
  const struct {
    std::string text;
    std::string message;
  } cases[] = {
      {nodes + edges + dup + bad,
       "line 401: AlreadyExists: edge already exists"},
      {nodes + edges + bad + dup,
       "line 401: edge endpoint out of range (0, 9999); file declares 200 "
       "nodes"},
  };
  for (const auto& c : cases) {
    for (int threads : {1, 2, 3, 8}) {
      auto r = Parse(c.text, threads);
      ASSERT_FALSE(r.ok()) << threads << " threads";
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
      EXPECT_EQ(r.status().message(), c.message) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace ngd
