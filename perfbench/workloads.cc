// perfbench_workloads: the three benchmark workloads of ngdlib.
//
//   perfbench_workloads prepare --workload W --seed N --dir D [--scale F]
//   perfbench_workloads run --workload W --seed N --dir D --seconds S
//                           --trace 0|1 [--scale F] [--corrupt]
//
// `prepare` generates the workload's inputs from the seed (graph file,
// rule text, and for the batch workloads the oracle's answer) into D and
// exits, so input generation never shows in the measuring process's
// memory or time. `run` starts from those files: it sets up several
// times (the median is `setup_s`), then repeats the timed operation for
// S seconds, checks every result against the oracle, and prints one JSON
// report line. perfbench/run.py drives both steps; perfbench/README.md
// explains the workloads and metrics.
//
// The driver sees the library only through public calls. With --trace 1
// each call is a span (trace.h), and every other timed operation runs
// untraced, so the report can state the tracing overhead.

#include <sys/resource.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parser.h"
#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "detect/vio_stream.h"
#include "discovery/ngd_generator.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/snapshot.h"
#include "graph/snapshot_io.h"
#include "graph/update_log.h"
#include "graph/updates.h"
#include "parallel/pdect.h"
#include "reason/sigma_optimizer.h"
#include "trace.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using namespace ngd;  // NOLINT: the driver is a client of the whole library
namespace fs = std::filesystem;

// Threads any workload may use (parser threads, PDect processors).
constexpr int kThreads = 4;
// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;
// inc_stream: at least this many epochs, so the p95 has >= 10 beyond it.
constexpr size_t kMinEpochs = 200;
// inc_stream: RotateState after every this many epochs (~3% of epochs).
constexpr size_t kRotateEvery = 32;
// batch_dense: the spill budget; the resident result is ~16 MB.
constexpr size_t kSpillBudget = size_t{4} << 20;

struct Options {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  bool corrupt = false;
  fs::path dir;
};

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "perfbench_workloads: " << what << "\n";
  std::exit(2);
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

template <typename T>
T Take(StatusOr<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

std::string ReadText(const fs::path& p) {
  return Take(ReadFileBytes(p.string()), "reading " + p.string());
}

void WriteText(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::binary);
  out << text;
  if (!out.flush()) Die("writing " + p.string());
}

std::string RulesText(const NgdSet& sigma, const Schema& schema) {
  std::string text;
  for (const Ngd& n : sigma.ngds()) {
    text += n.ToString(schema.labels(), schema.attrs());
    text += "\n\n";
  }
  return text;
}

/// Order-sensitive digest of a violation stream (the cursor's order).
uint64_t ChainDigest(uint64_t h, const Violation& v) {
  h = Fnv1a64(&v.ngd_index, sizeof(v.ngd_index), h);
  return Fnv1a64(v.nodes.data(), v.nodes.size() * sizeof(NodeId), h);
}

/// Order-free digest contribution of one violation (summed over a set).
uint64_t SetDigest(const Violation& v) {
  return ChainDigest(kFnv1aOffset, v);
}

/// Σ over rules of the smallest candidate set among the pattern's node
/// labels (a wildcard node's candidates are all nodes): the seeds a
/// matcher must at least try.
double SeedVolume(const Graph& g, const NgdSet& sigma) {
  double volume = 0.0;
  for (const Ngd& n : sigma.ngds()) {
    size_t best = g.NumNodes();
    for (const PatternNode& pn : n.pattern().nodes()) {
      if (pn.label != kWildcardLabel) {
        best = std::min(best, g.NodesWithLabel(pn.label).size());
      }
    }
    volume += static_cast<double>(best);
  }
  return volume;
}

/// --corrupt: damages a resident result the way a lost or invented
/// record would, so the self-test can show the oracles catch it.
void Corrupt(VioSet* vio) {
  if (vio->empty()) {
    vio->Add(Violation{0, {0}});
    return;
  }
  VioSet one;
  one.Add(*vio->items().begin());
  vio->Remove(one);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- Oracle files -------------------------------------------------------
//
// "total <count> <digest>" then, for batch_sparse_par, one
// "rule <index> <count> <set-digest>" line per rule.

struct Oracle {
  uint64_t count = 0;
  uint64_t digest = 0;
  std::vector<std::pair<uint64_t, uint64_t>> per_rule;  // count, set digest
};

void WriteOracle(const fs::path& p, const Oracle& o) {
  std::ostringstream os;
  os << "total " << o.count << " " << o.digest << "\n";
  for (size_t r = 0; r < o.per_rule.size(); ++r) {
    os << "rule " << r << " " << o.per_rule[r].first << " "
       << o.per_rule[r].second << "\n";
  }
  WriteText(p, os.str());
}

Oracle ReadOracle(const fs::path& p) {
  std::istringstream is(ReadText(p));
  Oracle o;
  std::string tag;
  while (is >> tag) {
    if (tag == "total") {
      is >> o.count >> o.digest;
    } else if (tag == "rule") {
      size_t r = 0;
      uint64_t c = 0, d = 0;
      is >> r >> c >> d;
      if (r != o.per_rule.size()) Die("oracle rules out of order");
      o.per_rule.emplace_back(c, d);
    } else {
      Die("bad oracle line: " + tag);
    }
  }
  if (!is.eof()) Die("truncated oracle file");
  return o;
}

// ---- Workload inputs ----------------------------------------------------
//
// Each workload's shape — the generated graph and Σ — is pinned to one
// generator seed: rule sampling decides how many violations exist, and on
// batch_dense a different generator seed moves that from 7k to 669k, a
// different workload rather than another instance of it. --seed draws the
// instance: a random relabeling of the node ids (an isomorphic graph with
// new ids, adjacency order and hence partition), and on inc_stream the
// update stream too. Every seed therefore has the same violation count,
// while the tuples, the oracle digests and the memory layout differ.

constexpr uint64_t kShapeSeed = 7;

/// The graph with node ids permuted by a seeded Fisher-Yates shuffle and
/// edges re-added in the new id order. Shares g's schema.
std::unique_ptr<Graph> Relabel(const Graph& g, uint64_t seed) {
  const size_t n = g.NumNodes();
  std::vector<NodeId> old_of(n);
  for (size_t i = 0; i < n; ++i) old_of[i] = static_cast<NodeId>(i);
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    const auto j = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(old_of[i - 1], old_of[j]);
  }
  std::vector<NodeId> new_of(n);
  auto out = std::make_unique<Graph>(g.schema());
  for (size_t i = 0; i < n; ++i) {
    const NodeId old = old_of[i];
    new_of[old] = out->AddNode(g.NodeLabel(old));
    for (const auto& [attr, value] : g.Attrs(old)) out->SetAttr(new_of[old], attr, value);
  }
  for (size_t i = 0; i < n; ++i) {
    for (const AdjEntry& e : g.OutEdges(old_of[i])) {
      if (EdgeInView(e.state, GraphView::kNew)) {
        Check(out->AddEdge(static_cast<NodeId>(i), new_of[e.other], e.label),
              "relabeling an edge");
      }
    }
  }
  return out;
}

GraphGenConfig DenseGraphConfig(const Options& o) {
  GraphGenConfig c = SyntheticConfig(
      static_cast<size_t>(20000 * o.scale), static_cast<size_t>(60000 * o.scale),
      kShapeSeed);
  c.pref_attach = 0.85;
  c.num_node_labels = 25;
  c.num_edge_labels = 50;
  return c;
}

void PrepareDense(const Options& o) {
  SchemaPtr schema = Schema::Create();
  std::unique_ptr<Graph> shape = GenerateGraph(DenseGraphConfig(o), schema);
  NgdGenOptions gen;
  gen.count = 20;
  gen.max_diameter = 3;
  gen.wildcard_prob = 0.6;
  gen.violation_rate = 0.02;
  gen.seed = kShapeSeed + 1;
  const NgdSet sigma = GenerateNgdSet(*shape, gen);
  const std::unique_ptr<Graph> g = Relabel(*shape, o.seed);
  shape.reset();
  Check(SaveGraphFile(*g, (o.dir / "graph.tsv").string()), "writing graph");
  WriteText(o.dir / "rules.ngd", RulesText(sigma, *schema));
  // The oracle: the resident live-graph engine on the generated graph,
  // read in Sorted() order — the order the spilled cursor must replay.
  DectOptions d;
  d.snapshot_mode = SnapshotMode::kNever;
  const VioSet vio = Dect(*g, sigma, d);
  Oracle oracle;
  oracle.count = vio.size();
  oracle.digest = kFnv1aOffset;
  for (const Violation& v : vio.Sorted()) oracle.digest = ChainDigest(oracle.digest, v);
  WriteOracle(o.dir / "oracle.txt", oracle);
}

void PrepareSparse(const Options& o) {
  SchemaPtr schema = Schema::Create();
  std::unique_ptr<Graph> shape =
      GenerateGraph(Yago2LikeConfig(0.05 * o.scale, kShapeSeed), schema);
  NgdGenOptions gen;
  gen.count = 50;
  gen.max_diameter = 3;
  gen.wildcard_prob = 0.05;
  gen.violation_rate = 0.02;
  gen.seed = kShapeSeed + 1;
  InflateOptions inflate;
  inflate.variants_per_rule = 3;
  inflate.seed = kShapeSeed + 2;
  const NgdSet sigma = InflateWithImpliedVariants(GenerateNgdSet(*shape, gen), inflate);
  const std::unique_ptr<Graph> g = Relabel(*shape, o.seed);
  shape.reset();
  Check(SaveSnapshotFile(GraphSnapshot(*g, GraphView::kNew),
                         (o.dir / "graph.ngds").string()),
        "writing snapshot");
  WriteText(o.dir / "rules.ngd", RulesText(sigma, *schema));
  // The oracle: sequential Dect over the full, unminimized Σ, kept per
  // rule so the measuring process can filter it to the kept rules.
  const VioSet vio = Dect(*g, sigma);
  Oracle oracle;
  oracle.count = vio.size();
  oracle.per_rule.assign(sigma.size(), {0, 0});
  for (const Violation& v : vio.items()) {
    auto& slot = oracle.per_rule[static_cast<size_t>(v.ngd_index)];
    ++slot.first;
    slot.second += SetDigest(v);
  }
  WriteOracle(o.dir / "oracle.txt", oracle);
}

void PrepareInc(const Options& o) {
  SchemaPtr schema = Schema::Create();
  std::unique_ptr<Graph> shape =
      GenerateGraph(DBpediaLikeConfig(0.002 * o.scale, kShapeSeed), schema);
  NgdGenOptions gen;
  gen.count = 20;
  gen.violation_rate = 0.05;
  gen.seed = kShapeSeed + 1;
  WriteText(o.dir / "rules.ngd", RulesText(GenerateNgdSet(*shape, gen), *schema));
  Check(SaveSnapshotFile(GraphSnapshot(*Relabel(*shape, o.seed), GraphView::kNew),
                         (o.dir / "graph.ngds").string()),
        "writing snapshot");
}

// ---- Measurement --------------------------------------------------------

struct RunResult {
  std::vector<double> setup_s;     ///< per set-up repetition
  std::vector<double> op_s;        ///< per timed operation
  std::vector<double> traced_op_s;
  std::vector<double> untraced_op_s;
  double items = 0.0;  ///< violations delivered / unit updates committed
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, double>> sizes;
  std::map<std::string, double> layer;  ///< counters read off results
  double peak_rss_mb = 0.0;
};

/// Runs kSetupReps set-up repetitions — `reset` releases the previous
/// one's state untimed, `build` is timed as a "setup" root span — and
/// calls `op` until o.seconds have passed and at least `min_ops`
/// operations ran, or until `op` returns false. With `spread_setups` the
/// repetitions are spaced evenly over the run, each replacing the state
/// the operations use, so a burst of contention on a shared machine skews
/// fewer of them; otherwise all of them precede the first operation.
template <typename Reset, typename Build, typename Op>
void Measure(const Options& o, Tracer* tr, RunResult* r, size_t min_ops,
             bool spread_setups, Reset&& reset, Build&& build, Op&& op) {
  const size_t reps = kSetupReps;
  auto setup = [&] {
    reset();
    tr->enabled = o.trace;
    const int64_t t0 = NowNs();
    {
      ScopedSpan root(tr, "setup");
      build();
    }
    r->setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    tr->enabled = false;
  };
  do {
    setup();
  } while (!spread_setups && r->setup_s.size() < reps);
  // The operations' clock: set-ups inside the loop do not count.
  double op_clock = 0.0;
  while (op_clock < o.seconds || r->op_s.size() < min_ops) {
    if (r->setup_s.size() < reps &&
        op_clock * static_cast<double>(reps) >=
            o.seconds * static_cast<double>(r->setup_s.size())) {
      setup();
    }
    const int64_t t0 = NowNs();
    if (!op()) return;
    op_clock += static_cast<double>(NowNs() - t0) * 1e-9;
  }
  while (r->setup_s.size() < reps) setup();
}

/// Times one operation as an "op" root span; with tracing on, every
/// other operation runs untraced so the overhead can be measured. The
/// traced ones are the 2nd, 4th, ... so inc_stream's rotation epochs
/// (multiples of kRotateEvery) are among them.
template <typename Fn>
void TimeOp(const Options& o, Tracer* tr, RunResult* r, Fn&& fn) {
  const bool traced = o.trace && r->op_s.size() % 2 == 1;
  tr->enabled = traced;
  const int64_t t0 = NowNs();
  {
    ScopedSpan root(tr, "op");
    fn();
  }
  const double s = static_cast<double>(NowNs() - t0) * 1e-9;
  tr->enabled = false;
  r->op_s.push_back(s);
  (traced ? r->traced_op_s : r->untraced_op_s).push_back(s);
}

void RecordCheck(RunResult* r, const std::string& name, bool ok) {
  r->checks.emplace_back(name, ok);
}

NgdSet ParseRules(Tracer* tr, const fs::path& dir, const SchemaPtr& schema) {
  ScopedSpan span(tr, "core.parse_rules");
  return Take(ParseNgds(ReadText(dir / "rules.ngd"), schema), "parsing rules");
}

RunResult RunDense(const Options& o, Tracer* tr) {
  RunResult r;
  const Oracle oracle = ReadOracle(o.dir / "oracle.txt");
  SchemaPtr schema;
  std::unique_ptr<Graph> g;
  std::unique_ptr<GraphSnapshot> snap;
  NgdSet sigma;
  VioSpillOptions spill;
  spill.budget_bytes = kSpillBudget;
  spill.path_prefix = (o.dir / "vio").string();
  DectOptions d;
  d.spill = &spill;
  std::vector<double> segments, spilled, peak_resident;
  bool stream_ok = true;
  auto reset = [&] {
    snap.reset();
    g.reset();
    sigma = NgdSet();
  };
  auto build = [&] {
    schema = Schema::Create();
    {
      ScopedSpan span(tr, "graph.load_tsv");
      IngestOptions ingest;
      ingest.threads = kThreads;
      g = Take(LoadGraphFile((o.dir / "graph.tsv").string(), schema, ingest),
               "loading graph");
    }
    sigma = ParseRules(tr, o.dir, schema);
    ScopedSpan span(tr, "graph.snapshot_build");
    snap = std::make_unique<GraphSnapshot>(*g, GraphView::kNew);
    d.snapshot = snap.get();
  };
  auto op = [&] {
    uint64_t count = 0;
    uint64_t digest = kFnv1aOffset;
    bool ok = true;
    TimeOp(o, tr, &r, [&] {
      VioSet vio;
      {
        ScopedSpan span(tr, "detect.dect");
        vio = Dect(*g, sigma, d);
      }
      {
        ScopedSpan span(tr, "detect.cursor_drain");
        StatusOr<VioCursor> cursor = vio.OpenCursor();
        ok = cursor.ok();
        if (ok) {
          // --corrupt: the first operation loses its first record.
          bool lose = o.corrupt && r.attempted == 0;
          Violation v;
          while (cursor->Next(&v)) {
            if (lose) {
              lose = false;
              continue;
            }
            digest = ChainDigest(digest, v);
            ++count;
          }
          ok = cursor->status().ok();
        }
      }
      ok = ok && vio.spill_status().ok();
      segments.push_back(static_cast<double>(vio.num_spill_segments()));
      spilled.push_back(static_cast<double>(vio.spilled_records()));
      peak_resident.push_back(static_cast<double>(vio.peak_resident_bytes()));
      ScopedSpan span(tr, "detect.release");
      vio = VioSet();
    });
    ++r.attempted;
    const bool same = ok && count == oracle.count && digest == oracle.digest;
    if (!same) ++r.failed;
    stream_ok = stream_ok && same;
    r.items += static_cast<double>(count);
    return true;
  };
  Measure(o, tr, &r, 5, /*spread_setups=*/true, reset, build, op);
  r.peak_rss_mb = PeakRssMb();
  RecordCheck(&r, "cursor_stream_equals_resident_kNever_oracle", stream_ok);
  const double seed_volume = SeedVolume(*g, sigma);

  r.sizes = {{"nodes", static_cast<double>(g->NumNodes())},
             {"edges", static_cast<double>(g->NumEdges(GraphView::kNew))},
             {"rules", static_cast<double>(sigma.size())},
             {"kept_rules", static_cast<double>(sigma.size())},
             {"violations", static_cast<double>(oracle.count)},
             {"updates_per_epoch", 0.0},
             {"spill_budget_bytes", static_cast<double>(kSpillBudget)}};
  r.layer["reason.rules_in"] = static_cast<double>(sigma.size());
  r.layer["reason.rules_kept"] = static_cast<double>(sigma.size());
  r.layer["match.seed_volume"] = seed_volume;
  r.layer["match.violations_per_seed"] =
      static_cast<double>(oracle.count) / seed_volume;
  r.layer["detect.violations"] = static_cast<double>(oracle.count);
  r.layer["detect.spill_segments"] = Median(segments);
  r.layer["detect.spilled_records"] = Median(spilled);
  r.layer["detect.peak_resident_bytes"] = Median(peak_resident);
  return r;
}

RunResult RunSparse(const Options& o, Tracer* tr) {
  RunResult r;
  const Oracle oracle = ReadOracle(o.dir / "oracle.txt");
  SchemaPtr schema;
  std::unique_ptr<Graph> g;
  std::unique_ptr<FragmentRuntime> runtime;
  NgdSet sigma;
  MinimizedSigma minimized;
  bool dropped_any = false;
  std::vector<int> kept;
  uint64_t want_count = 0, want_digest = 0;
  PDectOptions po;
  po.num_processors = kThreads;
  po.minimize_sigma = MinimizeMode::kAlways;
  std::map<std::string, std::vector<double>> counters;
  bool set_ok = true;
  auto reset = [&] {
    runtime.reset();
    g.reset();
    sigma = NgdSet();
  };
  auto build = [&] {
    schema = Schema::Create();
    std::unique_ptr<GraphSnapshot> snap;
    {
      ScopedSpan span(tr, "graph.load_snapshot");
      snap = Take(LoadSnapshotFile((o.dir / "graph.ngds").string(), schema),
                  "loading snapshot");
    }
    {
      ScopedSpan span(tr, "graph.materialize");
      g = Take(MaterializeGraph(*snap), "materializing graph");
      snap.reset();
    }
    sigma = ParseRules(tr, o.dir, schema);
    {
      // Cold: the cache is cleared, then filled for PDect to reuse.
      ScopedSpan span(tr, "reason.minimize");
      ClearSigmaOptimizerCache();
      minimized = MinimizedSigma();
      dropped_any = ResolveMinimizedSigma(sigma, schema, MinimizeMode::kAlways,
                                          SigmaOptimizerOptions(), &minimized);
    }
    ScopedSpan span(tr, "parallel.runtime_build");
    runtime = std::make_unique<FragmentRuntime>(*g, kThreads, GraphView::kNew,
                                                sigma.MaxDiameter());
    po.runtime = runtime.get();
  };
  // The oracle's answer for the rules the latest set-up kept.
  auto expect = [&] {
    kept.clear();
    for (size_t i = 0; i < sigma.size(); ++i) kept.push_back(static_cast<int>(i));
    if (dropped_any) kept = minimized.report.kept;
    if (oracle.per_rule.size() != sigma.size()) Die("oracle does not match Sigma");
    want_count = want_digest = 0;
    for (int k : kept) {
      want_count += oracle.per_rule[static_cast<size_t>(k)].first;
      want_digest += oracle.per_rule[static_cast<size_t>(k)].second;
    }
  };
  auto op = [&] {
    PDectResult result;
    TimeOp(o, tr, &r, [&] {
      ScopedSpan span(tr, "parallel.pdect");
      result = PDect(*g, sigma, po);
    });
    if (o.corrupt && r.attempted == 0) Corrupt(&result.vio);
    uint64_t count = 0, digest = 0;
    for (const Violation& v : result.vio.items()) {
      ++count;
      digest += SetDigest(v);
    }
    expect();
    ++r.attempted;
    const bool same = !result.truncated && count == want_count &&
                      digest == want_digest &&
                      (oracle.count == 0) == (count == 0);
    if (!same) ++r.failed;
    set_ok = set_ok && same;
    r.items += static_cast<double>(count);
    const ClusterMetricsSnapshot& m = result.metrics;
    counters["parallel.messages"].push_back(static_cast<double>(m.messages));
    counters["parallel.steals"].push_back(static_cast<double>(m.steals));
    counters["parallel.splits"].push_back(static_cast<double>(m.splits));
    counters["parallel.forwards"].push_back(static_cast<double>(m.forwards));
    counters["parallel.work_units"].push_back(static_cast<double>(m.work_units));
    counters["parallel.inline_runs"].push_back(static_cast<double>(m.inline_runs));
    counters["parallel.peak_queue_depth"].push_back(
        static_cast<double>(m.peak_queue_depth));
    counters["parallel.messages_per_unit"].push_back(
        m.work_units > 0 ? static_cast<double>(m.messages) /
                               static_cast<double>(m.work_units)
                         : 0.0);
    return true;
  };
  Measure(o, tr, &r, 5, /*spread_setups=*/true, reset, build, op);
  r.peak_rss_mb = PeakRssMb();
  expect();
  const double seed_volume = SeedVolume(*g, dropped_any ? minimized.sigma : sigma);
  RecordCheck(&r, "pdect_equals_full_sigma_dect_filtered_to_kept_rules", set_ok);
  if (o.trace) {
    // Reference for parallel.pdect_s: sequential Dect over the kept rules
    // on the same graph, under its own root so it joins no op summary.
    tr->enabled = true;
    bool same_count = true;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      ScopedSpan root(tr, "reference");
      ScopedSpan span(tr, "detect.dect");
      same_count = same_count &&
                   Dect(*g, dropped_any ? minimized.sigma : sigma).size() == want_count;
    }
    tr->enabled = false;
    RecordCheck(&r, "sequential_dect_on_kept_rules_equals_oracle_count", same_count);
  }

  r.sizes = {{"nodes", static_cast<double>(g->NumNodes())},
             {"edges", static_cast<double>(g->NumEdges(GraphView::kNew))},
             {"rules", static_cast<double>(sigma.size())},
             {"kept_rules", static_cast<double>(kept.size())},
             {"violations", static_cast<double>(want_count)},
             {"updates_per_epoch", 0.0},
             {"processors", static_cast<double>(kThreads)}};
  for (auto& [name, values] : counters) r.layer[name] = Median(values);
  r.layer["reason.rules_in"] = static_cast<double>(sigma.size());
  r.layer["reason.rules_kept"] = static_cast<double>(kept.size());
  r.layer["reason.implication_checks"] =
      static_cast<double>(minimized.report.implication_checks);
  r.layer["reason.unknown_checks"] = static_cast<double>(minimized.report.unknown);
  r.layer["match.seed_volume"] = seed_volume;
  r.layer["match.violations_per_seed"] = static_cast<double>(want_count) / seed_volume;
  r.layer["detect.violations"] = static_cast<double>(want_count);
  r.layer["parallel.crossing_edges"] =
      static_cast<double>(runtime->partition().crossing_edges);
  r.layer["parallel.replicated_nodes"] =
      static_cast<double>(runtime->total_halo_nodes());
  return r;
}

bool SameVio(const VioSet& a, const VioSet& b) {
  if (a.size() != b.size()) return false;
  for (const Violation& v : a.items()) {
    if (!b.Contains(v)) return false;
  }
  return true;
}

RunResult RunInc(const Options& o, Tracer* tr) {
  RunResult r;
  const std::string snap_path = (o.dir / "graph.ngds").string();
  const std::string wal_path = (o.dir / "epochs.wal").string();
  SchemaPtr schema;
  std::unique_ptr<Graph> g;
  NgdSet sigma;
  VioSet maintained;
  std::unique_ptr<UpdateLog> wal;
  size_t initial_violations = 0, initial_nodes = 0, initial_edges = 0;
  uintmax_t wal_size = 0;
  auto reset = [&] {
    wal.reset();
    maintained = VioSet();
    g.reset();
    sigma = NgdSet();
  };
  auto build = [&] {
    schema = Schema::Create();
    std::unique_ptr<GraphSnapshot> snap;
    {
      ScopedSpan span(tr, "graph.load_snapshot");
      snap = Take(LoadSnapshotFile(snap_path, schema), "loading snapshot");
    }
    {
      ScopedSpan span(tr, "graph.materialize");
      g = Take(MaterializeGraph(*snap), "materializing graph");
      snap.reset();
    }
    sigma = ParseRules(tr, o.dir, schema);
    {
      ScopedSpan span(tr, "detect.initial_dect");
      maintained = Dect(*g, sigma);
    }
    ScopedSpan span(tr, "graph.wal_create");
    wal = Take(UpdateLog::Create(wal_path, 0), "creating journal");
  };

  UpdateGenOptions up;
  up.fraction = 0.01;
  up.insert_fraction = 0.5;
  up.new_node_prob = 0.05;
  IncDectOptions inc;
  inc.snapshot_mode = SnapshotMode::kAlways;
  double added = 0.0, removed = 0.0, wal_bytes = 0.0;
  bool epochs_ok = true;
  auto op = [&] {
    if (r.op_s.empty()) {
      initial_violations = maintained.size();
      initial_nodes = g->NumNodes();
      initial_edges = g->NumEdges(GraphView::kNew);
      wal_size = fs::file_size(wal_path);
    }
    // ΔG for this epoch: generated before the epoch and not timed.
    const size_t epoch = r.op_s.size() + 1;
    up.seed = o.seed * 1000003 + epoch;
    const NodeId first_new = static_cast<NodeId>(g->NumNodes());
    UpdateBatch batch = GenerateUpdateBatch(g.get(), up);
    Status s = Status::OK();
    TimeOp(o, tr, &r, [&] {
      {
        ScopedSpan span(tr, "graph.apply");
        s = ApplyUpdateBatch(g.get(), &batch);
      }
      if (!s.ok()) return;
      {
        ScopedSpan span(tr, "graph.wal_append");
        s = wal->Append(EpochRecord::Capture(*g, batch, first_new,
                                             wal->last_epoch() + 1));
      }
      if (!s.ok()) return;
      {
        ScopedSpan span(tr, "graph.wal_sync");
        s = wal->Sync();
      }
      if (!s.ok()) return;
      std::optional<GraphSnapshot> base;
      {
        ScopedSpan span(tr, "graph.snapshot_build");
        base.emplace(*g, GraphView::kOld);
      }
      inc.base_snapshot = &*base;
      std::optional<DeltaVio> delta;
      {
        ScopedSpan span(tr, "detect.inc_dect");
        StatusOr<DeltaVio> d = IncDect(*g, sigma, batch, inc);
        if (d.ok()) {
          delta.emplace(std::move(d).value());
        } else {
          s = d.status();
        }
      }
      if (!delta) return;
      added += static_cast<double>(delta->added.size());
      removed += static_cast<double>(delta->removed.size());
      {
        ScopedSpan span(tr, "detect.apply_delta");
        maintained = ApplyDelta(maintained, *delta);
        delta.reset();
      }
      {
        ScopedSpan span(tr, "graph.snapshot_release");
        base.reset();
      }
      {
        ScopedSpan span(tr, "graph.commit");
        g->Commit();
      }
      if (epoch % kRotateEvery == 0) {
        ScopedSpan span(tr, "graph.rotate");
        s = RotateState(*g, snap_path, &wal);
      }
    });
    ++r.attempted;
    if (!s.ok()) {
      std::cerr << "perfbench_workloads: epoch " << epoch << ": " << s.ToString()
                << "\n";
      ++r.failed;
      epochs_ok = false;
      return false;
    }
    r.items += static_cast<double>(batch.size());
    // Journal growth of this epoch; a rotation restarts the file.
    const uintmax_t now = fs::file_size(wal_path);
    if (now >= wal_size) wal_bytes += static_cast<double>(now - wal_size);
    wal_size = now;
    return true;
  };
  Measure(o, tr, &r, kMinEpochs, /*spread_setups=*/false, reset, build, op);
  r.peak_rss_mb = PeakRssMb();
  const double seed_volume = SeedVolume(*g, sigma);

  if (o.corrupt) Corrupt(&maintained);
  // The oracles: batch detection on the committed graph (the live-graph
  // engine, not the DeltaView one IncDect used), and journal recovery.
  DectOptions live;
  live.snapshot_mode = SnapshotMode::kNever;
  const VioSet batch_vio = Dect(*g, sigma, live);
  const bool vio_ok = SameVio(maintained, batch_vio);
  RecordCheck(&r, "maintained_vio_equals_dect_on_committed_graph", vio_ok);
  bool recover_ok = false;
  StatusOr<RecoverResult> rec = RecoverState(snap_path, wal_path, Schema::Create());
  if (rec.ok()) {
    recover_ok = SnapshotFingerprint(GraphSnapshot(*rec->graph, GraphView::kNew)) ==
                 SnapshotFingerprint(GraphSnapshot(*g, GraphView::kNew));
  }
  RecordCheck(&r, "recovered_graph_fingerprint_equals_live", recover_ok);
  RecordCheck(&r, "every_epoch_status_ok", epochs_ok);
  // The final state certifies every epoch that led to it.
  if (!vio_ok || !recover_ok) r.failed = r.attempted;

  const double epochs = static_cast<double>(r.op_s.size());
  r.sizes = {{"nodes", static_cast<double>(initial_nodes)},
             {"edges", static_cast<double>(initial_edges)},
             {"final_nodes", static_cast<double>(g->NumNodes())},
             {"final_edges", static_cast<double>(g->NumEdges(GraphView::kNew))},
             {"rules", static_cast<double>(sigma.size())},
             {"kept_rules", static_cast<double>(sigma.size())},
             {"violations", static_cast<double>(initial_violations)},
             {"final_violations", static_cast<double>(batch_vio.size())},
             {"updates_per_epoch", r.items / epochs},
             {"epochs", epochs},
             {"rotate_every_epochs", static_cast<double>(kRotateEvery)}};
  r.layer["reason.rules_in"] = static_cast<double>(sigma.size());
  r.layer["reason.rules_kept"] = static_cast<double>(sigma.size());
  r.layer["match.seed_volume"] = seed_volume;
  r.layer["match.violations_per_seed"] =
      static_cast<double>(initial_violations) / seed_volume;
  r.layer["detect.violations"] = static_cast<double>(batch_vio.size());
  r.layer["detect.delta_added"] = added / epochs;
  r.layer["detect.delta_removed"] = removed / epochs;
  r.layer["graph.wal_bytes_per_update"] = r.items > 0 ? wal_bytes / r.items : 0.0;
  return r;
}

// ---- Report -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer metrics a traced run reports, in the order they print. A
// metric a workload does not exercise reads 0 (README.md maps which
// workload moves which metric).
constexpr const char* kLayerMetrics[][2] = {
    {"core.parse_rules_s", "s"},
    {"graph.load_tsv_s", "s"},
    {"graph.load_snapshot_s", "s"},
    {"graph.materialize_s", "s"},
    {"graph.snapshot_build_s", "s"},
    {"graph.apply_s", "s"},
    {"graph.wal_append_s", "s"},
    {"graph.wal_sync_s", "s"},
    {"graph.commit_s", "s"},
    {"graph.rotate_s", "s"},
    {"graph.wal_bytes_per_update", "bytes"},
    {"reason.minimize_s", "s"},
    {"reason.rules_in", "count"},
    {"reason.rules_kept", "count"},
    {"reason.implication_checks", "count"},
    {"reason.unknown_checks", "count"},
    {"match.seed_volume", "count"},
    {"match.violations_per_seed", "ratio"},
    {"detect.dect_s", "s"},
    {"detect.cursor_drain_s", "s"},
    {"detect.violations", "count"},
    {"detect.spill_segments", "count"},
    {"detect.spilled_records", "count"},
    {"detect.peak_resident_bytes", "bytes"},
    {"detect.inc_dect_s", "s"},
    {"detect.apply_delta_s", "s"},
    {"detect.delta_added", "count"},
    {"detect.delta_removed", "count"},
    {"parallel.runtime_build_s", "s"},
    {"parallel.crossing_edges", "count"},
    {"parallel.replicated_nodes", "count"},
    {"parallel.pdect_s", "s"},
    {"parallel.messages", "count"},
    {"parallel.steals", "count"},
    {"parallel.splits", "count"},
    {"parallel.forwards", "count"},
    {"parallel.work_units", "count"},
    {"parallel.inline_runs", "count"},
    {"parallel.peak_queue_depth", "count"},
    {"parallel.messages_per_unit", "ratio"},
    {"self.setup.core_s", "s"},
    {"self.setup.graph_s", "s"},
    {"self.setup.reason_s", "s"},
    {"self.setup.detect_s", "s"},
    {"self.setup.parallel_s", "s"},
    {"self.setup.bench_s", "s"},
    {"self.op.graph_s", "s"},
    {"self.op.detect_s", "s"},
    {"self.op.parallel_s", "s"},
    {"self.op.bench_s", "s"},
    {"trace.setup_coverage_min", "ratio"},
    {"trace.op_coverage_min", "ratio"},
    {"trace.overhead_pct", "%"},
};

std::vector<Metric> EndToEndMetrics(const Options& o, const RunResult& r) {
  double op_total = 0.0;
  for (double s : r.op_s) op_total += s;
  const double attempted = static_cast<double>(r.attempted);
  std::vector<Metric> m = {
      {"setup_s", Median(r.setup_s), "s"},
      {"op_ms_p50", Median(r.op_s) * 1e3, "ms"},
      {"op_ms_p95", Percentile(r.op_s, 95.0) * 1e3, "ms"},
      {"items_per_s", op_total > 0 ? r.items / op_total : 0.0, "1/s"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
      {"fail_ratio", attempted > 0 ? static_cast<double>(r.failed) / attempted : 1.0,
       "ratio"},
      {"setup_samples", static_cast<double>(r.setup_s.size()), "count"},
      {"op_samples", static_cast<double>(r.op_s.size()), "count"},
  };
  if (o.workload == "inc_stream") {
    m.push_back({"epoch_ms_p50", Median(r.op_s) * 1e3, "ms"});
    m.push_back({"epoch_ms_p95", Percentile(r.op_s, 95.0) * 1e3, "ms"});
    m.push_back({"updates_per_s", op_total > 0 ? r.items / op_total : 0.0, "1/s"});
  } else {
    m.push_back({"detect_s_p50", Median(r.op_s), "s"});
  }
  return m;
}

std::vector<Metric> LayerMetrics(const RunResult& r, const Tracer& tr) {
  std::map<std::string, double> values = r.layer;
  for (const auto& [name, durations] : DurationsByName(tr.spans())) {
    values[name + "_s"] = Median(durations);
  }
  for (const char* root : {"setup", "op"}) {
    const std::vector<RootSummary> roots = SummariseRoots(tr.spans(), root);
    std::map<std::string, std::vector<double>> self;
    std::vector<double> coverage;
    for (const RootSummary& s : roots) {
      coverage.push_back(s.coverage);
      for (const char* layer : {"core", "graph", "reason", "detect", "parallel", "bench"}) {
        auto it = s.self_s.find(layer);
        self[layer].push_back(it == s.self_s.end() ? 0.0 : it->second);
      }
    }
    for (const auto& [layer, v] : self) {
      values[std::string("self.") + root + "." + layer + "_s"] = Median(v);
    }
    values[std::string("trace.") + root + "_coverage_min"] =
        coverage.empty() ? 0.0 : *std::min_element(coverage.begin(), coverage.end());
  }
  const double untraced = Median(r.untraced_op_s);
  values["trace.overhead_pct"] =
      untraced > 0 ? (Median(r.traced_op_s) / untraced - 1.0) * 100.0 : 0.0;

  std::vector<Metric> m;
  for (const auto& def : kLayerMetrics) {
    auto it = values.find(def[0]);
    m.push_back({def[0], it == values.end() ? 0.0 : it->second, def[1]});
    if (it != values.end()) values.erase(it);
  }
  // Spans without a listed metric (e.g. graph.wal_create) still print.
  for (const auto& [name, value] : values) {
    if (name.rfind("self.", 0) != 0) m.push_back({name, value, "s"});
  }
  return m;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void PrintReport(const Options& o, const RunResult& r, const Tracer& tr) {
  std::ostringstream js;
  js << std::setprecision(12);
  js << "{\"workload\": " << JsonString(o.workload) << ", \"seed\": " << o.seed
     << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"scale\": " << o.scale
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"threads\": " << kThreads
     << ", \"compiler\": " << JsonString(CompilerName())
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed;
  if (o.workload == "inc_stream") {
    js << ", \"flush_policy\": \"fsync every epoch\"";
  }
  js << ", \"checks\": {";
  for (size_t i = 0; i < r.checks.size(); ++i) {
    js << (i ? ", " : "") << JsonString(r.checks[i].first) << ": "
       << (r.checks[i].second ? "true" : "false");
  }
  js << "}, \"sizes\": {";
  for (size_t i = 0; i < r.sizes.size(); ++i) {
    js << (i ? ", " : "") << JsonString(r.sizes[i].first) << ": "
       << r.sizes[i].second;
  }
  js << "}, \"metrics\": {";
  const std::vector<Metric> metrics =
      o.trace ? LayerMetrics(r, tr) : EndToEndMetrics(o, r);
  for (size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << JsonString(metrics[i].name)
       << ": {\"value\": " << metrics[i].value
       << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  if (argc < 2) return false;
  o->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt") {
      o->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--dir") {
      o->dir = value;
    } else if (arg == "--seed") {
      auto n = ParseInt64(value);
      if (!n || *n < 0) return false;
      o->seed = static_cast<uint64_t>(*n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = value == "1";
    } else if (arg == "--seconds" || arg == "--scale") {
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(v > 0.0) || v > 1000.0) {
        return false;
      }
      (arg == "--seconds" ? o->seconds : o->scale) = v;
    } else {
      return false;
    }
  }
  return (o->mode == "prepare" || o->mode == "run") && !o->dir.empty() &&
         (o->workload == "batch_dense" || o->workload == "batch_sparse_par" ||
          o->workload == "inc_stream");
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::cerr << "usage: perfbench_workloads prepare|run --workload "
                 "batch_dense|batch_sparse_par|inc_stream --seed N --dir D "
                 "[--seconds S] [--trace 0|1] [--scale F] [--corrupt]\n";
    return 2;
  }
  if (o.mode == "prepare") {
    if (o.workload == "batch_dense") PrepareDense(o);
    if (o.workload == "batch_sparse_par") PrepareSparse(o);
    if (o.workload == "inc_stream") PrepareInc(o);
    return 0;
  }
  Tracer tracer;
  RunResult r;
  if (o.workload == "batch_dense") r = RunDense(o, &tracer);
  if (o.workload == "batch_sparse_par") r = RunSparse(o, &tracer);
  if (o.workload == "inc_stream") r = RunInc(o, &tracer);
  PrintReport(o, r, tracer);
  bool ok = r.failed == 0;
  for (const auto& check : r.checks) ok = ok && check.second;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
