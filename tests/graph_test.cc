#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/neighborhood.h"
#include "util/rng.h"

namespace ngd {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  GraphTest() : schema_(Schema::Create()), g_(schema_) {}

  SchemaPtr schema_;
  Graph g_;
};

TEST_F(GraphTest, AddNodesAndLabels) {
  NodeId a = g_.AddNode("person");
  NodeId b = g_.AddNode("person");
  NodeId c = g_.AddNode("city");
  EXPECT_EQ(g_.NumNodes(), 3u);
  EXPECT_EQ(g_.NodeLabelName(a), "person");
  EXPECT_EQ(g_.NodeLabel(a), g_.NodeLabel(b));
  EXPECT_NE(g_.NodeLabel(a), g_.NodeLabel(c));
}

TEST_F(GraphTest, LabelIndex) {
  NodeId a = g_.AddNode("person");
  g_.AddNode("city");
  NodeId c = g_.AddNode("person");
  const auto& people = g_.NodesWithLabel(g_.NodeLabel(a));
  ASSERT_EQ(people.size(), 2u);
  EXPECT_EQ(people[0], a);
  EXPECT_EQ(people[1], c);
  EXPECT_TRUE(g_.NodesWithLabel(9999).empty());
}

TEST_F(GraphTest, AttributesSetGetOverwrite) {
  NodeId v = g_.AddNode("person");
  EXPECT_EQ(g_.GetAttr(v, 0), nullptr);
  g_.SetAttr(v, "age", Value(int64_t{30}));
  g_.SetAttr(v, "name", Value("alice"));
  AttrId age = *schema_->attrs().Find("age");
  ASSERT_NE(g_.GetAttr(v, age), nullptr);
  EXPECT_EQ(g_.GetAttr(v, age)->AsInt(), 30);
  g_.SetAttr(v, "age", Value(int64_t{31}));
  EXPECT_EQ(g_.GetAttr(v, age)->AsInt(), 31);
  EXPECT_EQ(g_.Attrs(v).size(), 2u);
}

TEST_F(GraphTest, AttrsSortedById) {
  NodeId v = g_.AddNode("n");
  g_.SetAttr(v, "z", Value(int64_t{1}));
  g_.SetAttr(v, "a", Value(int64_t{2}));
  g_.SetAttr(v, "m", Value(int64_t{3}));
  const auto& attrs = g_.Attrs(v);
  for (size_t i = 1; i < attrs.size(); ++i) {
    EXPECT_LT(attrs[i - 1].first, attrs[i].first);
  }
}

TEST_F(GraphTest, AddEdgeAndDuplicates) {
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b");
  LabelId knows = schema_->InternLabel("knows");
  EXPECT_TRUE(g_.AddEdge(a, b, knows).ok());
  EXPECT_EQ(g_.AddEdge(a, b, knows).code(), StatusCode::kAlreadyExists);
  // Same endpoints, different label: a distinct edge.
  EXPECT_TRUE(g_.AddEdge(a, b, "likes").ok());
  // Reverse direction is distinct.
  EXPECT_TRUE(g_.AddEdge(b, a, knows).ok());
  EXPECT_EQ(g_.NumEdges(GraphView::kNew), 3u);
}

TEST_F(GraphTest, EdgeEndpointValidation) {
  NodeId a = g_.AddNode("a");
  EXPECT_EQ(g_.AddEdge(a, 99, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g_.InsertEdge(99, a, 0).code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphTest, HasEdgePerView) {
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b");
  LabelId l = schema_->InternLabel("e");
  ASSERT_TRUE(g_.AddEdge(a, b, l).ok());
  EXPECT_TRUE(g_.HasEdge(a, b, l, GraphView::kOld));
  EXPECT_TRUE(g_.HasEdge(a, b, l, GraphView::kNew));
  EXPECT_FALSE(g_.HasEdge(b, a, l, GraphView::kNew));
}

TEST_F(GraphTest, OverlayInsertVisibleOnlyInNewView) {
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b");
  LabelId l = schema_->InternLabel("e");
  ASSERT_TRUE(g_.InsertEdge(a, b, l).ok());
  EXPECT_FALSE(g_.HasEdge(a, b, l, GraphView::kOld));
  EXPECT_TRUE(g_.HasEdge(a, b, l, GraphView::kNew));
  EXPECT_EQ(g_.NumEdges(GraphView::kOld), 0u);
  EXPECT_EQ(g_.NumEdges(GraphView::kNew), 1u);
  EXPECT_TRUE(g_.HasPendingUpdate());
}

TEST_F(GraphTest, OverlayDeleteVisibleOnlyInOldView) {
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b");
  LabelId l = schema_->InternLabel("e");
  ASSERT_TRUE(g_.AddEdge(a, b, l).ok());
  ASSERT_TRUE(g_.DeleteEdge(a, b, l).ok());
  EXPECT_TRUE(g_.HasEdge(a, b, l, GraphView::kOld));
  EXPECT_FALSE(g_.HasEdge(a, b, l, GraphView::kNew));
  EXPECT_EQ(g_.NumEdges(GraphView::kOld), 1u);
  EXPECT_EQ(g_.NumEdges(GraphView::kNew), 0u);
}

TEST_F(GraphTest, DeleteNonexistentEdgeFails) {
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b");
  LabelId l = schema_->InternLabel("e");
  EXPECT_EQ(g_.DeleteEdge(a, b, l).code(), StatusCode::kNotFound);
  ASSERT_TRUE(g_.AddEdge(a, b, l).ok());
  ASSERT_TRUE(g_.DeleteEdge(a, b, l).ok());
  // Double delete: the edge is no longer in G ⊕ ΔG.
  EXPECT_EQ(g_.DeleteEdge(a, b, l).code(), StatusCode::kNotFound);
}

TEST_F(GraphTest, DeleteCancelsPendingInsert) {
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b");
  LabelId l = schema_->InternLabel("e");
  ASSERT_TRUE(g_.InsertEdge(a, b, l).ok());
  ASSERT_TRUE(g_.DeleteEdge(a, b, l).ok());
  EXPECT_FALSE(g_.HasEdge(a, b, l, GraphView::kOld));
  EXPECT_FALSE(g_.HasEdge(a, b, l, GraphView::kNew));
  EXPECT_FALSE(g_.HasPendingUpdate());
  EXPECT_FALSE(g_.EdgeStateOf(a, b, l).has_value());
}

TEST_F(GraphTest, ReinsertDeletedEdgeFoldsToBase) {
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b");
  LabelId l = schema_->InternLabel("e");
  ASSERT_TRUE(g_.AddEdge(a, b, l).ok());
  ASSERT_TRUE(g_.DeleteEdge(a, b, l).ok());
  ASSERT_TRUE(g_.InsertEdge(a, b, l).ok());
  EXPECT_TRUE(g_.HasEdge(a, b, l, GraphView::kOld));
  EXPECT_TRUE(g_.HasEdge(a, b, l, GraphView::kNew));
  EXPECT_FALSE(g_.HasPendingUpdate());
  EXPECT_EQ(*g_.EdgeStateOf(a, b, l), EdgeState::kBase);
}

TEST_F(GraphTest, CommitFoldsOverlay) {
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b"), c = g_.AddNode("c");
  LabelId l = schema_->InternLabel("e");
  ASSERT_TRUE(g_.AddEdge(a, b, l).ok());
  ASSERT_TRUE(g_.DeleteEdge(a, b, l).ok());
  ASSERT_TRUE(g_.InsertEdge(b, c, l).ok());
  g_.Commit();
  EXPECT_FALSE(g_.HasPendingUpdate());
  EXPECT_FALSE(g_.HasEdge(a, b, l, GraphView::kOld));
  EXPECT_TRUE(g_.HasEdge(b, c, l, GraphView::kOld));
  EXPECT_EQ(g_.NumEdges(GraphView::kOld), 1u);
  EXPECT_EQ(g_.NumEdges(GraphView::kNew), 1u);
}

TEST_F(GraphTest, RollbackRestoresOldView) {
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b"), c = g_.AddNode("c");
  LabelId l = schema_->InternLabel("e");
  ASSERT_TRUE(g_.AddEdge(a, b, l).ok());
  ASSERT_TRUE(g_.DeleteEdge(a, b, l).ok());
  ASSERT_TRUE(g_.InsertEdge(b, c, l).ok());
  g_.Rollback();
  EXPECT_FALSE(g_.HasPendingUpdate());
  EXPECT_TRUE(g_.HasEdge(a, b, l, GraphView::kNew));
  EXPECT_FALSE(g_.HasEdge(b, c, l, GraphView::kNew));
}

TEST_F(GraphTest, InsertedEdgeIsInNewViewOnly) {
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b"), c = g_.AddNode("c");
  LabelId l = schema_->InternLabel("e");
  ASSERT_TRUE(g_.AddEdge(a, b, l).ok());
  ASSERT_TRUE(g_.InsertEdge(a, c, l).ok());
  EXPECT_EQ(g_.NumEdges(GraphView::kOld), 1u);
  EXPECT_EQ(g_.NumEdges(GraphView::kNew), 2u);
  EXPECT_FALSE(g_.HasEdge(a, c, l, GraphView::kOld));
  EXPECT_EQ(g_.AdjSize(a), 2u);
}

TEST_F(GraphTest, InOutAdjacencyConsistent) {
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b");
  LabelId l = schema_->InternLabel("e");
  ASSERT_TRUE(g_.AddEdge(a, b, l).ok());
  ASSERT_EQ(g_.OutEdges(a).size(), 1u);
  EXPECT_EQ(g_.OutEdges(a)[0].other, b);
  ASSERT_EQ(g_.InEdges(b).size(), 1u);
  EXPECT_EQ(g_.InEdges(b)[0].other, a);
  EXPECT_TRUE(g_.OutEdges(b).empty());
}

// ---- Randomized models ------------------------------------------------------

// Every key hashes to one of the table's last three slots, so probe runs
// wrap past the end and each erase shifts entries back across the wrap.
struct CollidingHash {
  size_t operator()(const EdgeKey& k) const {
    return ~size_t{0} - k.src % 3;
  }
};

struct EdgeKeyLess {
  bool operator()(const EdgeKey& a, const EdgeKey& b) const {
    return std::tie(a.src, a.dst, a.label) < std::tie(b.src, b.dst, b.label);
  }
};

// Mixed Insert/Find/Erase/Reserve against std::unordered_map. The key
// space (372 keys) outgrows the first tables, so growth runs too.
template <typename Map>
void CheckEdgeMapAgainstModel(uint64_t seed) {
  Rng rng(seed);
  Map map;
  std::unordered_map<EdgeKey, int, EdgeKeyHash> model;
  auto random_key = [&] {
    return EdgeKey{static_cast<NodeId>(rng.UniformInt(0, 30)),
                   static_cast<NodeId>(rng.UniformInt(0, 3)),
                   static_cast<LabelId>(rng.UniformInt(0, 2))};
  };
  for (int op = 0; op < 600; ++op) {
    const EdgeKey k = random_key();
    const int64_t dice = rng.UniformInt(0, 99);
    if (dice < 50) {
      const int value = op;
      auto [stored, added] = map.Insert(k, value);
      const bool model_added = model.emplace(k, value).second;
      ASSERT_EQ(added, model_added) << "seed " << seed << " op " << op;
      EXPECT_EQ(*stored, model.at(k));
    } else if (dice < 80) {
      ASSERT_EQ(map.Erase(k), model.erase(k) > 0)
          << "seed " << seed << " op " << op;
    } else if (dice < 98) {
      const int* found = map.Find(k);
      auto it = model.find(k);
      ASSERT_EQ(found != nullptr, it != model.end())
          << "seed " << seed << " op " << op;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    } else {
      map.Reserve(model.size() + static_cast<size_t>(rng.UniformInt(0, 64)));
    }
    ASSERT_EQ(map.size(), model.size());
    if (op % 50 == 49) {
      for (const auto& [key, value] : model) {
        const int* found = map.Find(key);
        ASSERT_NE(found, nullptr) << "seed " << seed << " op " << op;
        EXPECT_EQ(*found, value);
      }
    }
  }
  // Drain: erasing every key leaves nothing findable.
  for (const auto& [key, value] : model) ASSERT_TRUE(map.Erase(key));
  EXPECT_EQ(map.size(), 0u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(map.Find(random_key()), nullptr);
}

TEST(EdgeMapTest, MatchesUnorderedMapWithCollidingHash) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    CheckEdgeMapAgainstModel<EdgeMap<int, CollidingHash>>(seed);
  }
}

TEST(EdgeMapTest, MatchesUnorderedMapWithEdgeKeyHash) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    CheckEdgeMapAgainstModel<EdgeMap<int>>(seed);
  }
}

// Random AddEdge/AddEdges/InsertEdge/DeleteEdge/Commit/Rollback sequences
// against a std::map of edge states, checking every key's state, both
// edge counts and both adjacency directions after each step.
TEST(GraphModelTest, MatchesEdgeStateModel) {
  using Model = std::map<EdgeKey, EdgeState, EdgeKeyLess>;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    SchemaPtr schema = Schema::Create();
    Graph g(schema);
    Model model;
    const std::vector<LabelId> labels = {schema->InternLabel("l0"),
                                         schema->InternLabel("l1"),
                                         schema->InternLabel("l2")};
    for (int i = 0; i < 4; ++i) g.AddNode("n");
    // One node past the end, so range failures run too.
    auto random_key = [&] {
      const int64_t hi = static_cast<int64_t>(g.NumNodes());
      return EdgeKey{static_cast<NodeId>(rng.UniformInt(0, hi)),
                     static_cast<NodeId>(rng.UniformInt(0, hi)),
                     labels[rng.UniformInt(0, 2)]};
    };
    auto in_range = [&](const EdgeKey& k) {
      return k.src < g.NumNodes() && k.dst < g.NumNodes();
    };
    // AddEdge's contract, applied to the model; returns the expected code.
    auto model_add = [&](const EdgeKey& k) {
      if (!in_range(k)) return StatusCode::kInvalidArgument;
      if (!model.emplace(k, EdgeState::kBase).second) {
        return StatusCode::kAlreadyExists;
      }
      return StatusCode::kOk;
    };
    for (int op = 0; op < 200; ++op) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                   std::to_string(op));
      const int64_t dice = rng.UniformInt(0, 99);
      if (dice < 5) {
        g.AddNode("n");
      } else if (dice < 20) {
        const EdgeKey k = random_key();
        const StatusCode want = model_add(k);
        ASSERT_EQ(g.AddEdge(k.src, k.dst, k.label).code(), want);
      } else if (dice < 35) {
        std::vector<EdgeKey> batch(
            static_cast<size_t>(rng.UniformInt(0, 8)));
        for (EdgeKey& k : batch) k = random_key();
        StatusCode want = StatusCode::kOk;
        size_t want_failed = 0;
        for (; want_failed < batch.size(); ++want_failed) {
          want = model_add(batch[want_failed]);
          if (want != StatusCode::kOk) break;
        }
        size_t failed = batch.size() + 1;
        ASSERT_EQ(g.AddEdges(batch, &failed).code(), want);
        if (want != StatusCode::kOk) {
          EXPECT_EQ(failed, want_failed);
        }
      } else if (dice < 60) {
        const EdgeKey k = random_key();
        StatusCode want = StatusCode::kOk;
        auto it = model.find(k);
        if (!in_range(k)) {
          want = StatusCode::kInvalidArgument;
        } else if (it == model.end()) {
          model.emplace(k, EdgeState::kInserted);
        } else if (it->second == EdgeState::kDeleted) {
          it->second = EdgeState::kBase;
        } else {
          want = StatusCode::kAlreadyExists;
        }
        ASSERT_EQ(g.InsertEdge(k.src, k.dst, k.label).code(), want);
      } else if (dice < 85) {
        const EdgeKey k = random_key();
        StatusCode want = StatusCode::kOk;
        auto it = model.find(k);
        if (it == model.end() || it->second == EdgeState::kDeleted) {
          want = StatusCode::kNotFound;
        } else if (it->second == EdgeState::kInserted) {
          model.erase(it);
        } else {
          it->second = EdgeState::kDeleted;
        }
        ASSERT_EQ(g.DeleteEdge(k.src, k.dst, k.label).code(), want);
      } else {
        const bool commit = dice < 93;
        const EdgeState drop =
            commit ? EdgeState::kDeleted : EdgeState::kInserted;
        for (auto it = model.begin(); it != model.end();) {
          if (it->second == drop) {
            it = model.erase(it);
          } else {
            it->second = EdgeState::kBase;
            ++it;
          }
        }
        if (commit) {
          g.Commit();
        } else {
          g.Rollback();
        }
      }

      size_t old_edges = 0, new_edges = 0;
      bool pending = false;
      using Adj = std::tuple<NodeId, LabelId, EdgeState>;
      std::vector<std::vector<Adj>> out(g.NumNodes()), in(g.NumNodes());
      for (const auto& [k, state] : model) {
        old_edges += EdgeInView(state, GraphView::kOld) ? 1 : 0;
        new_edges += EdgeInView(state, GraphView::kNew) ? 1 : 0;
        pending |= state != EdgeState::kBase;
        out[k.src].emplace_back(k.dst, k.label, state);
        in[k.dst].emplace_back(k.src, k.label, state);
      }
      ASSERT_EQ(g.NumEdges(GraphView::kOld), old_edges);
      ASSERT_EQ(g.NumEdges(GraphView::kNew), new_edges);
      ASSERT_EQ(g.HasPendingUpdate(), pending);
      for (NodeId s = 0; s < g.NumNodes(); ++s) {
        for (NodeId d = 0; d < g.NumNodes(); ++d) {
          for (LabelId l : labels) {
            auto it = model.find(EdgeKey{s, d, l});
            const std::optional<EdgeState> want =
                it == model.end() ? std::nullopt
                                  : std::optional<EdgeState>(it->second);
            ASSERT_EQ(g.EdgeStateOf(s, d, l), want);
            for (GraphView view : {GraphView::kOld, GraphView::kNew}) {
              ASSERT_EQ(g.HasEdge(s, d, l, view),
                        want.has_value() && EdgeInView(*want, view));
            }
          }
        }
        auto sorted = [](const std::vector<AdjEntry>& adj) {
          std::vector<Adj> v;
          for (const AdjEntry& e : adj) {
            v.emplace_back(e.other, e.label, e.state);
          }
          std::sort(v.begin(), v.end());
          return v;
        };
        std::sort(out[s].begin(), out[s].end());
        std::sort(in[s].begin(), in[s].end());
        ASSERT_EQ(sorted(g.OutEdges(s)), out[s]);
        ASSERT_EQ(sorted(g.InEdges(s)), in[s]);
      }
    }
  }
}

// ---- d-hop neighborhoods ----------------------------------------------------

TEST_F(GraphTest, DHopNeighborhoodPath) {
  // 0 -> 1 -> 2 -> 3 -> 4 (chain).
  LabelId l = schema_->InternLabel("e");
  for (int i = 0; i < 5; ++i) g_.AddNode("n");
  for (NodeId i = 0; i + 1 < 5; ++i) ASSERT_TRUE(g_.AddEdge(i, i + 1, l).ok());
  NodeSet ball = DHopNeighborhood(g_, {2}, 1, GraphView::kNew);
  EXPECT_EQ(ball.size(), 3u);  // {1, 2, 3} — undirected hops
  EXPECT_TRUE(ball.Contains(1));
  EXPECT_TRUE(ball.Contains(3));
  EXPECT_FALSE(ball.Contains(0));
  NodeSet ball2 = DHopNeighborhood(g_, {2}, 2, GraphView::kNew);
  EXPECT_EQ(ball2.size(), 5u);
}

TEST_F(GraphTest, DHopNeighborhoodRespectsView) {
  LabelId l = schema_->InternLabel("e");
  NodeId a = g_.AddNode("a"), b = g_.AddNode("b"), c = g_.AddNode("c");
  ASSERT_TRUE(g_.AddEdge(a, b, l).ok());
  ASSERT_TRUE(g_.InsertEdge(b, c, l).ok());
  NodeSet old_ball = DHopNeighborhood(g_, {a}, 2, GraphView::kOld);
  EXPECT_FALSE(old_ball.Contains(c));
  NodeSet new_ball = DHopNeighborhood(g_, {a}, 2, GraphView::kNew);
  EXPECT_TRUE(new_ball.Contains(c));
}

// ---- Text I/O ---------------------------------------------------------------

TEST(GraphIoTest, RoundTrip) {
  SchemaPtr schema = Schema::Create();
  Graph g(schema);
  NodeId a = g.AddNode("person");
  g.SetAttr(a, "age", Value(int64_t{30}));
  g.SetAttr(a, "name", Value("alice"));
  NodeId b = g.AddNode("city");
  ASSERT_TRUE(g.AddEdge(a, b, "lives_in").ok());

  std::ostringstream os;
  ASSERT_TRUE(WriteGraphText(g, &os).ok());

  std::istringstream is(os.str());
  SchemaPtr schema2 = Schema::Create();
  auto loaded = ReadGraphText(&is, schema2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph& g2 = **loaded;
  ASSERT_EQ(g2.NumNodes(), 2u);
  EXPECT_EQ(g2.NodeLabelName(0), "person");
  AttrId age = *schema2->attrs().Find("age");
  AttrId name = *schema2->attrs().Find("name");
  EXPECT_EQ(g2.GetAttr(0, age)->AsInt(), 30);
  EXPECT_EQ(g2.GetAttr(0, name)->AsString(), "alice");
  EXPECT_TRUE(
      g2.HasEdge(0, 1, *schema2->labels().Find("lives_in"), GraphView::kNew));
}

TEST(GraphIoTest, RejectsMalformedInput) {
  SchemaPtr schema = Schema::Create();
  {
    std::istringstream is("X\tweird\n");
    EXPECT_FALSE(ReadGraphText(&is, schema).ok());
  }
  {
    std::istringstream is("N\tperson\tage=abc\n");
    EXPECT_FALSE(ReadGraphText(&is, schema).ok());
  }
  {
    std::istringstream is("N\tp\nE\t0\t5\te\n");
    EXPECT_FALSE(ReadGraphText(&is, schema).ok());
  }
}

TEST(GraphIoTest, SkipsCommentsAndBlankLines) {
  SchemaPtr schema = Schema::Create();
  std::istringstream is("# comment\n\nN\tperson\n");
  auto loaded = ReadGraphText(&is, schema);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->NumNodes(), 1u);
}

// ---- Values -----------------------------------------------------------------

TEST(ValueTest, TypesAndEquality) {
  Value i(int64_t{42}), s("hello");
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt(), 42);
  EXPECT_EQ(s.AsString(), "hello");
  EXPECT_EQ(i, Value(int64_t{42}));
  EXPECT_NE(i, Value(int64_t{43}));
  EXPECT_NE(Value(int64_t{1}), Value("1"));  // typed inequality
  EXPECT_EQ(i.ToString(), "42");
  EXPECT_EQ(s.ToString(), "\"hello\"");
  EXPECT_NE(i.Hash(), s.Hash());
}

}  // namespace
}  // namespace ngd
