// Shared harness for the Fig. 4 reproduction benches.
//
// Every bench binary is a google-benchmark executable. Workloads are
// cached per configuration (building a graph once, reusing it across
// algorithm series); update batches are applied as the pending overlay
// and rolled back after each measurement so runs stay independent. A
// TimingStore collects the measured seconds so each binary can print a
// SHAPE-CHECK summary (who wins, by what factor, where crossovers fall)
// after RunSpecifiedBenchmarks — the quantity the paper's figures convey.
//
// Scale: the paper runs minutes-long jobs on a 20-machine cluster over
// graphs of 10⁷–10⁸ edges; these benches use the same generators at
// ~1/500 scale so the full suite completes in minutes on a laptop.
// EXPERIMENTS.md (repo root) records the scale mapping and the BENCH
// JSON workflow (tools/ngdbench emits BENCH_detect.json; CI uploads it
// as an artifact every push).

#ifndef NGD_BENCH_BENCH_COMMON_H_
#define NGD_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "detect/dect.h"
#include "detect/inc_dect.h"
#include "discovery/ngd_generator.h"
#include "graph/generators.h"
#include "graph/updates.h"
#include "parallel/pdect.h"
#include "parallel/pinc_dect.h"
#include "util/timer.h"

namespace ngd {
namespace bench {

struct Workload {
  SchemaPtr schema;
  std::unique_ptr<Graph> graph;
  NgdSet sigma;
};

struct WorkloadSpec {
  GraphGenConfig graph_config;
  size_t num_rules = 20;
  int max_diameter = 3;
  uint64_t rule_seed = 5;
  double violation_rate = 0.15;
  /// Wildcard density in generated patterns. The paper's rules carry
  /// generic-entity wildcards (φ1's x:_); wildcards make batch matching
  /// expensive (no selective start) while update-driven incremental
  /// search stays local — the regime Fig 4(a)-(d) measures.
  double wildcard_prob = 0.35;
};

inline Workload BuildWorkload(const WorkloadSpec& spec) {
  Workload w;
  w.schema = Schema::Create();
  w.graph = GenerateGraph(spec.graph_config, w.schema);
  NgdGenOptions gen;
  gen.count = spec.num_rules;
  gen.max_diameter = spec.max_diameter;
  gen.seed = spec.rule_seed;
  gen.violation_rate = spec.violation_rate;
  gen.wildcard_prob = spec.wildcard_prob;
  w.sigma = GenerateNgdSet(*w.graph, gen);
  return w;
}

/// Cache: workloads are expensive to build; benches reuse them by key.
inline Workload& CachedWorkload(const std::string& key,
                                const WorkloadSpec& spec) {
  static std::map<std::string, Workload>* cache =
      new std::map<std::string, Workload>();
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, BuildWorkload(spec)).first;
  }
  return it->second;
}

/// Update batches never create nodes in benches, so Rollback() restores
/// the workload exactly.
inline UpdateBatch MakeBatch(Graph* g, double fraction, uint64_t seed) {
  UpdateGenOptions up;
  up.fraction = fraction;
  up.insert_fraction = 0.5;  // γ = 1, |G| unchanged (paper default)
  up.new_node_prob = 0.0;
  up.seed = seed;
  return GenerateUpdateBatch(g, up);
}

// ---- Algorithm runners (return elapsed seconds; overlay left applied) ----

/// The default kAuto lets the cost model pick the engine (what callers
/// get in production); kAlways/kNever pin the CSR snapshot or the
/// live-overlay baseline so benches can compare the two.
inline double RunDect(Workload& w,
                      SnapshotMode mode = SnapshotMode::kAuto) {
  DectOptions opts;
  opts.snapshot_mode = mode;
  WallTimer t;
  VioSet vio = Dect(*w.graph, w.sigma, opts);
  ::benchmark::DoNotOptimize(vio.size());
  return t.ElapsedSeconds();
}

/// The live-overlay baseline (prefilter off): the pre-DeltaView engine,
/// kept so the IncDect series keeps its PR-2 meaning and the _dv series
/// measures the DeltaView against it.
inline IncDectOptions LiveIncOptions() {
  IncDectOptions opts;
  opts.snapshot_mode = SnapshotMode::kNever;
  opts.affected_area_prefilter = false;
  return opts;
}

/// DeltaView over a base snapshot the caller maintains across batches
/// (the production shape — the snapshot build is amortized, not paid per
/// IncDect call, so it stays outside the timed region).
inline IncDectOptions DeltaViewIncOptions(const GraphSnapshot& base) {
  IncDectOptions opts;
  opts.snapshot_mode = SnapshotMode::kAlways;
  opts.base_snapshot = &base;
  return opts;
}

inline double RunIncDect(Workload& w, const UpdateBatch& batch,
                         const IncDectOptions& opts = LiveIncOptions()) {
  WallTimer t;
  auto delta = IncDect(*w.graph, w.sigma, batch, opts);
  if (!delta.ok()) {
    std::fprintf(stderr, "IncDect failed: %s\n",
                 delta.status().ToString().c_str());
    std::abort();
  }
  ::benchmark::DoNotOptimize(delta->added.size());
  return t.ElapsedSeconds();
}

/// Times fragment-native PDect. Pass a pre-built `runtime` (the amortized
/// per-epoch partition + fragment CSRs) to keep its construction out of
/// the timed region; `metrics` receives the run's ClusterMetrics.
inline double RunPDect(Workload& w, int processors,
                       const FragmentRuntime* runtime = nullptr,
                       ClusterMetricsSnapshot* metrics = nullptr) {
  PDectOptions opts;
  opts.num_processors = processors;
  opts.view = GraphView::kNew;
  opts.runtime = runtime;
  WallTimer t;
  PDectResult r = PDect(*w.graph, w.sigma, opts);
  ::benchmark::DoNotOptimize(r.vio.size());
  if (metrics != nullptr) *metrics = r.metrics;
  return t.ElapsedSeconds();
}

inline double RunPIncDect(Workload& w, const UpdateBatch& batch,
                          const PIncDectOptions& opts,
                          PIncDectResult* out = nullptr) {
  WallTimer t;
  auto r = PIncDect(*w.graph, w.sigma, batch, opts);
  if (!r.ok()) {
    std::fprintf(stderr, "PIncDect failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  double s = t.ElapsedSeconds();
  ::benchmark::DoNotOptimize(r->delta.added.size());
  if (out != nullptr) *out = std::move(r).value();
  return s;
}

inline PIncDectOptions VariantOptions(const std::string& variant,
                                      int processors) {
  PIncDectOptions opts;
  opts.num_processors = processors;
  opts.balance_interval_ms = 5;  // scaled intvl (EXPERIMENTS.md §1)
  // The Fig. 4 series keep their historical meaning: the live-overlay
  // engine without the affected-area prefilter. The `_dv` series opt in
  // to the DeltaView via DeltaViewVariantOptions.
  opts.snapshot_mode = SnapshotMode::kNever;
  opts.affected_area_prefilter = false;
  if (variant == "PIncDect_ns" || variant == "PIncDect_NO") {
    opts.enable_split = false;
  }
  if (variant == "PIncDect_nb" || variant == "PIncDect_NO") {
    opts.enable_balance = false;
  }
  return opts;
}

inline PIncDectOptions DeltaViewVariantOptions(const std::string& variant,
                                               int processors,
                                               const GraphSnapshot& base) {
  PIncDectOptions opts = VariantOptions(variant, processors);
  opts.snapshot_mode = SnapshotMode::kAlways;
  opts.base_snapshot = &base;
  opts.affected_area_prefilter = true;
  return opts;
}

// ---- Timing store for shape checks -----------------------------------------

class TimingStore {
 public:
  static TimingStore& Instance() {
    static TimingStore* store = new TimingStore();
    return *store;
  }

  void Record(const std::string& key, double seconds) {
    times_[key] = seconds;
  }
  double Get(const std::string& key) const {
    auto it = times_.find(key);
    return it == times_.end() ? -1.0 : it->second;
  }
  bool Has(const std::string& key) const { return times_.count(key) > 0; }

  /// Ratio a/b, or -1 when either is missing.
  double Speedup(const std::string& slow, const std::string& fast) const {
    double s = Get(slow), f = Get(fast);
    if (s <= 0 || f <= 0) return -1.0;
    return s / f;
  }

 private:
  std::map<std::string, double> times_;
};

/// Registers a single-iteration manual-time benchmark; `fn` returns
/// elapsed seconds and is also recorded into the TimingStore under `name`.
template <typename Fn>
void RegisterTimed(const std::string& name, Fn fn) {
  ::benchmark::RegisterBenchmark(
      name.c_str(),
      [name, fn](::benchmark::State& state) {
        for (auto _ : state) {
          double s = fn();
          state.SetIterationTime(s);
          TimingStore::Instance().Record(name, s);
        }
      })
      ->UseManualTime()
      ->Unit(::benchmark::kMillisecond)
      ->Iterations(1);
}

}  // namespace bench
}  // namespace ngd

#endif  // NGD_BENCH_BENCH_COMMON_H_
