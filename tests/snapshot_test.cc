// GraphSnapshot (CSR, label-partitioned adjacency) correctness.
//
// Four layers of coverage:
//   1. Structural unit tests: the CSR ranges, candidate arrays, flat
//      attributes and binary-search HasEdge agree with the live Graph on
//      hand-built graphs, including overlay states and both views.
//   2. An equivalence property test (random graphs × generated Σ, both
//      views): snapshot-based Dect returns exactly the same VioSet as
//      live-graph Dect — the pre-snapshot engine is kept as the oracle
//      via DectOptions snapshot_mode = kNever. Runs under ASan/UBSan in
//      the sanitizer CI job like every other suite.
//   3. The committed CSR a Graph keeps and refreshes per epoch: a seeded
//      mutation sequence compares every refreshed snapshot with a full
//      build, snapshots held across mutations must not change, and four
//      threads race the first request after a Commit (the TSan CI job
//      runs this suite under the `graph` label).
//   4. A Graph materialized from a loaded snapshot starts with that
//      snapshot's core as its committed CSR and copies it before the
//      first refresh, leaving the loaded snapshot unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "detect/dect.h"
#include "discovery/ngd_generator.h"
#include "graph/accessor.h"
#include "graph/generators.h"
#include "graph/snapshot.h"
#include "graph/snapshot_io.h"
#include "graph/updates.h"
#include "parallel/pdect.h"
#include "test_util.h"

namespace ngd {
namespace {

std::vector<NodeId> ToVector(GraphSnapshot::IdRange r) {
  return std::vector<NodeId>(r.begin(), r.end());
}

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : schema_(Schema::Create()), g_(schema_) {
    person_ = schema_->InternLabel("person");
    city_ = schema_->InternLabel("city");
    knows_ = schema_->InternLabel("knows");
    likes_ = schema_->InternLabel("likes");
    lives_ = schema_->InternLabel("lives_in");
  }

  SchemaPtr schema_;
  Graph g_;
  LabelId person_, city_, knows_, likes_, lives_;
};

TEST_F(SnapshotTest, LabelPartitionedRangesAreSortedAndComplete) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_),
         c = g_.AddNode(person_), d = g_.AddNode(city_);
  // Interleave labels so the partitioning actually has to regroup.
  ASSERT_TRUE(g_.AddEdge(a, c, knows_).ok());
  ASSERT_TRUE(g_.AddEdge(a, d, lives_).ok());
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.AddEdge(a, b, likes_).ok());
  ASSERT_TRUE(g_.AddEdge(b, a, knows_).ok());

  GraphSnapshot snap(g_, GraphView::kNew);
  EXPECT_EQ(snap.NumNodes(), 4u);
  EXPECT_EQ(snap.NumEdges(), 5u);

  EXPECT_EQ(ToVector(snap.OutNeighbors(a, knows_)),
            (std::vector<NodeId>{b, c}));  // sorted by id
  EXPECT_EQ(ToVector(snap.OutNeighbors(a, likes_)),
            (std::vector<NodeId>{b}));
  EXPECT_EQ(ToVector(snap.OutNeighbors(a, lives_)),
            (std::vector<NodeId>{d}));
  EXPECT_TRUE(snap.OutNeighbors(a, person_).empty());  // not an edge label
  EXPECT_EQ(ToVector(snap.InNeighbors(a, knows_)), (std::vector<NodeId>{b}));

  EXPECT_EQ(ToVector(snap.InNeighbors(b, knows_)),
            (std::vector<NodeId>{a}));
  EXPECT_EQ(ToVector(snap.InNeighbors(d, lives_)),
            (std::vector<NodeId>{a}));
  EXPECT_TRUE(snap.OutNeighbors(d, lives_).empty());
}

TEST_F(SnapshotTest, HasEdgeMatchesLiveGraph) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_),
         c = g_.AddNode(city_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.AddEdge(a, a, knows_).ok());  // self-loop
  ASSERT_TRUE(g_.AddEdge(b, c, lives_).ok());

  GraphSnapshot snap(g_, GraphView::kNew);
  for (NodeId s = 0; s < g_.NumNodes(); ++s) {
    for (NodeId d = 0; d < g_.NumNodes(); ++d) {
      for (LabelId l : {knows_, likes_, lives_}) {
        EXPECT_EQ(snap.HasEdge(s, d, l),
                  g_.HasEdge(s, d, l, GraphView::kNew))
            << s << "->" << d << " label " << l;
      }
    }
  }
  EXPECT_FALSE(snap.HasEdge(a, 99, knows_));  // out-of-range endpoint
}

TEST_F(SnapshotTest, ViewsResolveOverlayStates) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_),
         c = g_.AddNode(person_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.DeleteEdge(a, b, knows_).ok());   // kOld only
  ASSERT_TRUE(g_.InsertEdge(b, c, knows_).ok());   // kNew only
  ASSERT_TRUE(g_.AddEdge(c, a, knows_).ok());      // both

  GraphSnapshot old_snap(g_, GraphView::kOld);
  GraphSnapshot new_snap(g_, GraphView::kNew);

  EXPECT_TRUE(old_snap.HasEdge(a, b, knows_));
  EXPECT_FALSE(new_snap.HasEdge(a, b, knows_));
  EXPECT_FALSE(old_snap.HasEdge(b, c, knows_));
  EXPECT_TRUE(new_snap.HasEdge(b, c, knows_));
  EXPECT_TRUE(old_snap.HasEdge(c, a, knows_));
  EXPECT_TRUE(new_snap.HasEdge(c, a, knows_));
  EXPECT_EQ(old_snap.NumEdges(), 2u);
  EXPECT_EQ(new_snap.NumEdges(), 2u);
}

TEST_F(SnapshotTest, CandidateArraysAndAttributes) {
  AttrId age = schema_->InternAttr("age");
  AttrId name = schema_->InternAttr("name");
  NodeId a = g_.AddNode(person_);
  NodeId b = g_.AddNode(city_);
  NodeId c = g_.AddNode(person_);
  g_.SetAttr(a, age, Value(int64_t{41}));
  g_.SetAttr(c, name, Value("carol"));
  g_.SetAttr(c, age, Value(int64_t{7}));

  GraphSnapshot snap(g_, GraphView::kNew);
  EXPECT_EQ(ToVector(snap.NodesWithLabel(person_)),
            (std::vector<NodeId>{a, c}));
  EXPECT_EQ(ToVector(snap.NodesWithLabel(city_)), (std::vector<NodeId>{b}));
  EXPECT_EQ(snap.CandidateCount(person_), 2u);
  EXPECT_TRUE(snap.NodesWithLabel(kWildcardLabel).empty());

  ASSERT_NE(snap.GetAttr(a, age), nullptr);
  EXPECT_EQ(snap.GetAttr(a, age)->AsInt(), 41);
  EXPECT_EQ(snap.GetAttr(a, name), nullptr);
  ASSERT_NE(snap.GetAttr(c, name), nullptr);
  EXPECT_EQ(snap.GetAttr(c, name)->AsString(), "carol");
  ASSERT_NE(snap.GetAttr(c, age), nullptr);
  EXPECT_EQ(snap.GetAttr(c, age)->AsInt(), 7);
  EXPECT_EQ(snap.GetAttr(b, age), nullptr);
}

TEST_F(SnapshotTest, AccessorServesBothBackendsIdentically) {
  NodeId a = g_.AddNode(person_), b = g_.AddNode(person_),
         c = g_.AddNode(city_);
  ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  ASSERT_TRUE(g_.AddEdge(b, c, lives_).ok());
  GraphSnapshot snap(g_, GraphView::kNew);

  GraphAccessor live(g_, GraphView::kNew);
  GraphAccessor frozen(snap);
  for (const GraphAccessor* acc : {&live, &frozen}) {
    EXPECT_EQ(acc->NumNodes(), 3u);
    EXPECT_EQ(acc->NodeLabel(c), city_);
    EXPECT_TRUE(acc->HasEdge(a, b, knows_));
    EXPECT_FALSE(acc->HasEdge(b, a, knows_));
    EXPECT_EQ(acc->CandidateCount(person_), 2u);
    EXPECT_EQ(acc->CandidateCount(kWildcardLabel), 3u);
    std::vector<NodeId> nbrs;
    acc->ForEachNeighbor(a, /*out=*/true, knows_, [&](NodeId w) {
      nbrs.push_back(w);
      return true;
    });
    EXPECT_EQ(nbrs, (std::vector<NodeId>{b}));
    std::vector<NodeId> cands;
    acc->ForEachCandidate(person_, [&](NodeId v) {
      cands.push_back(v);
      return true;
    });
    std::sort(cands.begin(), cands.end());
    EXPECT_EQ(cands, (std::vector<NodeId>{a, b}));
  }
}

TEST_F(SnapshotTest, WantSnapshotCostModel) {
  // Empty graph: nothing to amortize.
  NgdSet empty_sigma;
  EXPECT_FALSE(WantSnapshot(g_, empty_sigma));

  for (int i = 0; i < 50; ++i) {
    NodeId a = g_.AddNode(person_), b = g_.AddNode(person_);
    ASSERT_TRUE(g_.AddEdge(a, b, knows_).ok());
  }
  NodeId lone_city = g_.AddNode(city_);
  ASSERT_TRUE(g_.AddEdge(0, lone_city, lives_).ok());

  auto make_rule = [&](LabelId start_label) {
    Pattern p;
    int x = p.AddNode("x", start_label);
    int y = p.AddNode("y", kWildcardLabel);
    EXPECT_TRUE(
        p.AddEdge(x, y, start_label == city_ ? lives_ : knows_).ok());
    return Ngd("r", std::move(p), {}, {});
  };

  // A handful of selective rules (one candidate each): live engine.
  NgdSet selective;
  for (int i = 0; i < 4; ++i) selective.Add(make_rule(city_));
  EXPECT_FALSE(WantSnapshot(g_, selective));

  // Many unselective rules (every person is a seed): seed volume crosses
  // the 8|V| threshold and the snapshot build amortizes.
  NgdSet broad;
  for (int i = 0; i < 12; ++i) broad.Add(make_rule(person_));
  EXPECT_TRUE(WantSnapshot(g_, broad));

  // Pending-overlay regression: delete every edge (pending, uncommitted).
  // kNew, the view Dect detects, is now edge-empty — a snapshot of it
  // would be pointless — while kOld still holds the full graph. The guard
  // and the seed counting must agree on kNew: the old code summed
  // kNew+kOld edges but counted candidates on kNew, so this graph took
  // the wrong branch.
  std::vector<std::tuple<NodeId, NodeId, LabelId>> edges;
  GraphAccessor acc(g_, GraphView::kNew);
  for (NodeId v = 0; v < g_.NumNodes(); ++v) {
    for (const LabelId lbl : {knows_, lives_}) {
      acc.ForEachNeighbor(v, /*out=*/true, lbl, [&](NodeId w) {
        edges.emplace_back(v, w, lbl);
        return true;
      });
    }
  }
  ASSERT_FALSE(edges.empty());
  for (const auto& [src, dst, lbl] : edges) {
    ASSERT_TRUE(g_.DeleteEdge(src, dst, lbl).ok());
  }
  ASSERT_EQ(g_.NumEdges(GraphView::kNew), 0u);
  ASSERT_GT(g_.NumEdges(GraphView::kOld), 0u);
  EXPECT_FALSE(WantSnapshot(g_, broad));
  g_.Rollback();
  EXPECT_TRUE(WantSnapshot(g_, broad));  // the same edges, back in kNew
}

// ---- Equivalence property: snapshot Dect == live Dect ----------------------

struct EquivCase {
  const char* name;
  size_t nodes;
  size_t edges;
  size_t rules;
  double wildcard_prob;
  uint64_t seed;
};

void PrintTo(const EquivCase& c, std::ostream* os) { *os << c.name; }

class SnapshotEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

/// Vio(Σ) read straight off the live graph's `view`, through the match
/// layer: the engines detect kNew only, so this is the live side of the
/// kOld comparison.
VioSet LiveViolations(const Graph& g, const NgdSet& sigma, GraphView view) {
  VioSet out;
  for (size_t f = 0; f < sigma.size(); ++f) {
    SearchConfig cfg;
    cfg.graph = GraphAccessor(g, view);
    cfg.pattern = &sigma[f].pattern();
    cfg.x = &sigma[f].X();
    cfg.y = &sigma[f].Y();
    RunBatchSearch(cfg, [&](const Binding& h) {
      out.Add(Violation{static_cast<int>(f), h});
      return true;
    });
  }
  return out;
}

TEST_P(SnapshotEquivalenceTest, DectAgreesOnBothViews) {
  const EquivCase& ec = GetParam();
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(ec.nodes, ec.edges, ec.seed),
                         schema);

  NgdGenOptions gen;
  gen.count = ec.rules;
  gen.max_diameter = 3;
  gen.seed = ec.seed + 1;
  gen.violation_rate = 0.2;
  gen.wildcard_prob = ec.wildcard_prob;
  NgdSet sigma = GenerateNgdSet(*g, gen);
  ASSERT_GT(sigma.size(), 0u);

  // Put the overlay in play so kOld and kNew genuinely differ.
  UpdateGenOptions up;
  up.fraction = 0.12;
  up.seed = ec.seed + 2;
  UpdateBatch batch = GenerateUpdateBatch(g.get(), up);
  ASSERT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok());

  // kNew, the view the engines detect: live, snapshot and fragment-
  // native Dect agree.
  DectOptions live_opts;
  live_opts.snapshot_mode = SnapshotMode::kNever;
  DectOptions snap_opts = live_opts;
  snap_opts.snapshot_mode = SnapshotMode::kAlways;
  VioSet live = Dect(*g, sigma, live_opts);
  VioSet snap = Dect(*g, sigma, snap_opts);
  ASSERT_EQ(live.size(), snap.size()) << ec.name;
  for (const auto& v : live.items()) {
    EXPECT_TRUE(snap.Contains(v))
        << "snapshot Dect missing a violation of rule "
        << sigma[v.ngd_index].name();
  }
  EXPECT_EQ(LiveViolations(*g, sigma, GraphView::kNew).Sorted(),
            live.Sorted());
  PDectOptions popts;
  popts.num_processors = 3;
  VioSet parallel = PDect(*g, sigma, popts).vio;
  EXPECT_EQ(parallel.size(), live.size());
  for (const auto& v : parallel.items()) {
    EXPECT_TRUE(live.Contains(v));
  }

  // kOld under the pending batch: Dect handed GraphSnapshot(g, kOld)
  // finds exactly what the live graph's kOld reads find.
  const GraphSnapshot old_snap(*g, GraphView::kOld);
  DectOptions old_opts;
  old_opts.snapshot = &old_snap;
  EXPECT_EQ(Dect(*g, sigma, old_opts).Sorted(),
            LiveViolations(*g, sigma, GraphView::kOld).Sorted())
      << ec.name << " kOld";
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, SnapshotEquivalenceTest,
    ::testing::Values(
        EquivCase{"small", 300, 700, 12, 0.05, 201},
        EquivCase{"medium", 800, 2000, 12, 0.05, 202},
        EquivCase{"dense", 400, 2400, 10, 0.05, 203},
        EquivCase{"wildcard_heavy", 400, 1200, 10, 0.5, 204},
        EquivCase{"sparse", 1200, 1500, 10, 0.15, 205},
        EquivCase{"seed_variant", 500, 1200, 12, 0.25, 206}),
    [](const ::testing::TestParamInfo<EquivCase>& info) {
      return info.param.name;
    });

// The hand-written paper fixture must agree as well: G4 × φ4 is the
// Example 3 fake-account violation (multi-edge pattern, linear literal
// with coefficients).
TEST(SnapshotFixtureTest, PaperRulesAgreeLiveVsSnapshot) {
  testing_util::NamedGraph g4 = testing_util::BuildG4();
  NgdSet rules = testing_util::MustParse(testing_util::kPhi4, g4.schema);
  ASSERT_EQ(rules.size(), 1u);

  DectOptions live_opts;
  live_opts.snapshot_mode = SnapshotMode::kNever;
  DectOptions snap_opts;
  snap_opts.snapshot_mode = SnapshotMode::kAlways;
  VioSet live = Dect(*g4.graph, rules, live_opts);
  VioSet snap = Dect(*g4.graph, rules, snap_opts);
  EXPECT_EQ(live.size(), 1u);  // the Example 3 violation
  ASSERT_EQ(snap.size(), live.size());
  for (const auto& v : live.items()) EXPECT_TRUE(snap.Contains(v));
}

// ---- The committed CSR: refresh == full build ------------------------------

/// A copy of a Graph starts without a committed CSR, so a snapshot of
/// the copy is built from the live lists: the reference for the shared,
/// refreshed one.
GraphSnapshot FullBuild(const Graph& g, GraphView view) {
  const Graph copy = g;
  return GraphSnapshot(copy, view);
}

/// v's out-adjacency in `snap` as (label, neighbor) pairs, label-ascending
/// and id-ascending within a label: every out-range of v in one pass.
void OutAdjacency(const GraphSnapshot& snap, NodeId v,
                  std::vector<std::pair<LabelId, NodeId>>* out) {
  out->clear();
  snap.ForEachOutEdge(v, [&](LabelId l, NodeId w) { out->emplace_back(l, w); });
}

void ExpectSameSnapshot(const Graph& g, GraphView view,
                        const GraphSnapshot& got, const GraphSnapshot& want,
                        const std::string& where) {
  ASSERT_EQ(got.NumNodes(), want.NumNodes()) << where;
  ASSERT_EQ(got.NumEdges(), want.NumEdges()) << where;
  ASSERT_EQ(got.NumEdges(), g.NumEdges(view)) << where;
  const size_t num_labels = g.schema()->labels().size();
  const size_t num_attrs = g.schema()->attrs().size();
  for (LabelId l = 0; l < num_labels; ++l) {
    ASSERT_EQ(ToVector(got.NodesWithLabel(l)), ToVector(want.NodesWithLabel(l)))
        << where << " label " << l;
  }
  std::vector<LabelId> edge_labels;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const AdjEntry& e : g.OutEdges(v)) edge_labels.push_back(e.label);
  }
  std::sort(edge_labels.begin(), edge_labels.end());
  edge_labels.erase(std::unique(edge_labels.begin(), edge_labels.end()),
                    edge_labels.end());
  std::vector<std::pair<LabelId, NodeId>> out_got, out_want;
  for (NodeId v = 0; v < got.NumNodes(); ++v) {
    ASSERT_EQ(got.NodeLabel(v), want.NodeLabel(v)) << where << " node " << v;
    // Whole out-adjacency at once: the same ranges as one OutNeighbors
    // call per label, without a lookup per (node, label).
    OutAdjacency(got, v, &out_got);
    OutAdjacency(want, v, &out_want);
    ASSERT_TRUE(out_got == out_want) << where << " out of " << v;
    for (LabelId l : edge_labels) {
      const auto in_got = got.InNeighbors(v, l);
      const auto in_want = want.InNeighbors(v, l);
      ASSERT_TRUE(std::equal(in_got.begin(), in_got.end(), in_want.begin(),
                             in_want.end()))
          << where << " in of " << v << " label " << l;
    }
    for (AttrId a = 0; a < num_attrs; ++a) {
      const Value* x = got.GetAttr(v, a);
      const Value* y = want.GetAttr(v, a);
      ASSERT_EQ(x == nullptr, y == nullptr) << where << " node " << v;
      if (x != nullptr) {
        ASSERT_EQ(*x, *y) << where << " node " << v;
      }
    }
    // Every edge the live graph knows in any state, against its view.
    for (const AdjEntry& e : g.OutEdges(v)) {
      ASSERT_EQ(got.HasEdge(v, e.other, e.label),
                g.HasEdge(v, e.other, e.label, view))
          << where << " edge " << v << "->" << e.other;
    }
  }
  ASSERT_EQ(SnapshotFingerprint(got), SnapshotFingerprint(want)) << where;
}

/// A random edge visible in `view`, or nullopt when 64 probes find none.
std::optional<EdgeKey> PickEdge(const Graph& g, GraphView view, Rng* rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const NodeId v = static_cast<NodeId>(
        rng->UniformInt(0, static_cast<int64_t>(g.NumNodes()) - 1));
    const auto& adj = g.OutEdges(v);
    if (adj.empty()) continue;
    const AdjEntry& e = adj[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(adj.size()) - 1))];
    if (EdgeInView(e.state, view)) return EdgeKey{v, e.other, e.label};
  }
  return std::nullopt;
}

// The mutation sweep's size. Sanitizer builds (CMake's NGD_SANITIZE, seen
// here as NGD_SANITIZED_BUILD) run a shorter one: the test is
// single-threaded, so TSan has no race to find in it, and at full size it
// was the longest test of the TSan job. Every other build runs the full
// size.
#ifdef NGD_SANITIZED_BUILD
constexpr uint64_t kCsrSeeds = 2;
constexpr int kCsrSteps = 100;
#else
constexpr uint64_t kCsrSeeds = 4;
constexpr int kCsrSteps = 300;
#endif

TEST(CommittedCsrTest, RefreshEqualsFullBuildUnderRandomMutations) {
  for (uint64_t seed = 1; seed <= kCsrSeeds; ++seed) {
    SchemaPtr schema = Schema::Create();
    auto g = GenerateGraph(SyntheticConfig(160, 400, seed), schema);
    const AttrId score = schema->InternAttr("score");
    const AttrId tag = schema->InternAttr("tag");
    Rng rng(seed * 7919 + 3);
    const size_t num_labels = schema->labels().size();
    auto node = [&] {
      return static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(g->NumNodes()) - 1));
    };
    auto label = [&] {
      return static_cast<LabelId>(
          rng.UniformInt(0, static_cast<int64_t>(num_labels) - 1));
    };
    // Snapshots held across later mutations, with the fingerprint each
    // had when it was taken.
    std::vector<std::pair<GraphSnapshot, uint64_t>> held;
    std::ostringstream trail;
    for (int step = 0; step < kCsrSteps; ++step) {
      const int op = static_cast<int>(rng.UniformInt(0, 9));
      switch (op) {
        case 0: {  // a new node with attributes
          const NodeId v = g->AddNode(label());
          g->SetAttr(v, score, Value(rng.UniformInt(0, 99)));
          trail << " add" << v;
          break;
        }
        case 1: {  // an attribute of a node the CSR already covers
          const NodeId v = node();
          g->SetAttr(v, rng.Bernoulli(0.5) ? score : tag,
                     Value(rng.UniformInt(0, 99)));
          trail << " attr" << v;
          break;
        }
        case 2: {  // a base edge, straight into the committed set
          const NodeId a = node(), b = node();
          if (g->AddEdge(a, b, label()).ok()) trail << " base" << a << "-" << b;
          break;
        }
        case 3:
        case 4: {  // ΔG+ and ΔG-
          const NodeId a = node(), b = node();
          if (g->InsertEdge(a, b, label()).ok()) trail << " ins";
          if (auto e = PickEdge(*g, GraphView::kNew, &rng)) {
            if (g->DeleteEdge(e->src, e->dst, e->label).ok()) trail << " del";
          }
          break;
        }
        case 5: {  // pairs that cancel within the batch
          const NodeId a = node(), b = node();
          const LabelId l = label();
          if (g->InsertEdge(a, b, l).ok()) {
            EXPECT_TRUE(g->DeleteEdge(a, b, l).ok());
          }
          if (auto e = PickEdge(*g, GraphView::kNew, &rng)) {
            if (g->DeleteEdge(e->src, e->dst, e->label).ok()) {
              EXPECT_TRUE(g->InsertEdge(e->src, e->dst, e->label).ok());
            }
          }
          trail << " cancel";
          break;
        }
        case 6:
        case 7:
          g->Commit();
          trail << " commit";
          break;
        case 8:
          g->Rollback();
          trail << " rollback";
          break;
        default:  // hold a snapshot across what follows (copy-on-write)
          if (held.size() < 8) {
            GraphSnapshot snap(*g, rng.Bernoulli(0.5) ? GraphView::kOld
                                                      : GraphView::kNew);
            const uint64_t fp = SnapshotFingerprint(snap);
            held.emplace_back(std::move(snap), fp);
          } else {
            held.erase(held.begin() + rng.UniformInt(0, 7));
          }
          trail << " hold";
          break;
      }
      if (rng.Bernoulli(0.6)) {
        const std::string where = "seed " + std::to_string(seed) + " step " +
                                  std::to_string(step) + ":" + trail.str();
        for (GraphView view : {GraphView::kOld, GraphView::kNew}) {
          const GraphSnapshot got(*g, view);
          ExpectSameSnapshot(*g, view, got, FullBuild(*g, view),
                             where + (view == GraphView::kOld ? " (old)"
                                                              : " (new)"));
          if (HasFatalFailure()) return;
        }
        trail.str("");
      }
    }
    for (const auto& [snap, fp] : held) {
      EXPECT_EQ(SnapshotFingerprint(snap), fp) << "seed " << seed;
    }
  }
}

// The first snapshot request after a Commit refreshes the committed CSR
// under a const Graph&; four threads race it and run snapshot Dect.
TEST(CommittedCsrTest, ConcurrentFirstRequestsAfterCommitAgree) {
  SchemaPtr schema = Schema::Create();
  auto g = GenerateGraph(SyntheticConfig(400, 1200, 31), schema);
  NgdGenOptions gen;
  gen.count = 6;
  gen.max_diameter = 2;
  gen.seed = 32;
  gen.violation_rate = 0.2;
  const NgdSet sigma = GenerateNgdSet(*g, gen);
  ASSERT_GT(sigma.size(), 0u);
  DectOptions live;
  live.snapshot_mode = SnapshotMode::kNever;
  DectOptions snap_opts;
  snap_opts.snapshot_mode = SnapshotMode::kAlways;
  { const GraphSnapshot warm(*g, GraphView::kOld); }

  for (uint64_t round = 0; round < 3; ++round) {
    UpdateGenOptions up;
    up.fraction = 0.05;
    up.new_node_prob = 0.1;
    up.seed = 40 + round;
    UpdateBatch batch = GenerateUpdateBatch(g.get(), up);
    ASSERT_TRUE(ApplyUpdateBatch(g.get(), &batch).ok());
    g->Commit();
    const Graph& committed = *g;
    const VioSet want = Dect(committed, sigma, live);
    const uint64_t want_fp =
        SnapshotFingerprint(FullBuild(committed, GraphView::kOld));
    std::vector<VioSet> got(4);
    std::vector<uint64_t> fps(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        const GraphSnapshot snap(committed, GraphView::kOld);
        fps[t] = SnapshotFingerprint(snap);
        got[t] = Dect(committed, sigma, snap_opts);
      });
    }
    for (std::thread& th : threads) th.join();
    for (size_t t = 0; t < 4; ++t) {
      EXPECT_EQ(fps[t], want_fp) << "round " << round << " thread " << t;
      ASSERT_EQ(got[t].size(), want.size()) << "round " << round;
      for (const Violation& v : want.items()) EXPECT_TRUE(got[t].Contains(v));
    }
  }
}

// ---- A Graph materialized from a loaded snapshot adopts its core ---------

/// A random graph's snapshot, serialized and loaded back under `schema`.
std::unique_ptr<GraphSnapshot> LoadedSnapshot(uint64_t seed,
                                              const SchemaPtr& schema) {
  auto source = GenerateGraph(SyntheticConfig(200, 600, seed), schema);
  auto image = SerializeSnapshot(GraphSnapshot(*source, GraphView::kNew));
  EXPECT_TRUE(image.ok());
  auto loaded = DeserializeSnapshot(*image, schema);
  EXPECT_TRUE(loaded.ok());
  return std::move(*loaded);
}

TEST(AdoptedCoreTest, MaterializedGraphServesTheLoadedCore) {
  SchemaPtr schema = Schema::Create();
  const auto loaded = LoadedSnapshot(5, schema);
  auto g = MaterializeGraph(*loaded);
  ASSERT_TRUE(g.ok());
  const GraphSnapshot adopted(**g, GraphView::kOld);
  // Shared, not rebuilt: the candidate array is the loaded snapshot's.
  const LabelId l = adopted.NodeLabel(0);
  EXPECT_EQ(adopted.NodesWithLabel(l).ptr, loaded->NodesWithLabel(l).ptr);
  // And equal to a build from the live lists, array by array: a
  // serialized image holds every array of the core.
  const GraphSnapshot want = FullBuild(**g, GraphView::kOld);
  ExpectSameSnapshot(**g, GraphView::kOld, adopted, want, "adopted");
  auto got_image = SerializeSnapshot(adopted);
  auto want_image = SerializeSnapshot(want);
  ASSERT_TRUE(got_image.ok() && want_image.ok());
  EXPECT_TRUE(*got_image == *want_image);
}

TEST(AdoptedCoreTest, LoadedSnapshotStaysUnchangedAsTheGraphMutates) {
  SchemaPtr schema = Schema::Create();
  const auto loaded = LoadedSnapshot(6, schema);
  const uint64_t fp = SnapshotFingerprint(*loaded);
  auto g = MaterializeGraph(*loaded);
  ASSERT_TRUE(g.ok());
  Graph& graph = **g;
  { const GraphSnapshot first(graph, GraphView::kOld); }
  const LabelId e = schema->InternLabel("e");
  ASSERT_TRUE(graph.AddEdge(0, 1, e).ok());
  ASSERT_TRUE(graph.InsertEdge(1, 2, e).ok());
  graph.Commit();
  graph.SetAttr(3, schema->InternAttr("score"), Value(int64_t{7}));
  const GraphSnapshot after(graph, GraphView::kOld);
  EXPECT_EQ(SnapshotFingerprint(*loaded), fp);
  EXPECT_NE(SnapshotFingerprint(after), fp);
  ExpectSameSnapshot(graph, GraphView::kOld, after,
                     FullBuild(graph, GraphView::kOld), "after mutation");
}

}  // namespace
}  // namespace ngd
