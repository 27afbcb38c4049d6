// Fig. 4(m): impact of the cost-model latency constant C on PIncDect and
// PIncDect_nb (Exp-4), Pokec-like graph, p = 4, |ΔG| = 15%.
//
// Paper: C from 20 to 100 in steps of 20; PIncDect is best at a
// mid-range C (80 on their cluster) — small C over-splits (communication
// dominates), large C under-splits (stragglers run sequentially). The
// shape to reproduce is the U-curve / split-count monotonicity.

#include "bench_common.h"

namespace {

using ngd::bench::CachedWorkload;
using ngd::bench::MakeBatch;
using ngd::bench::RegisterTimed;
using ngd::bench::RunPIncDect;
using ngd::bench::TimingStore;
using ngd::bench::Workload;
using ngd::bench::WorkloadSpec;

constexpr double kLatencies[] = {20, 40, 60, 80, 100};
constexpr double kFraction = 0.15;

WorkloadSpec Spec() {
  WorkloadSpec spec;
  // Pokec-like: heavy-tailed degrees make splitting decisions matter.
  spec.graph_config = ngd::PokecLikeConfig(1.0 / 400);
  spec.num_rules = 20;
  spec.max_diameter = 3;
  return spec;
}

std::string Key(const char* algo, double c) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "Fig4m/pokec-like/%s/C=%d", algo,
                static_cast<int>(c));
  return buf;
}

uint64_t g_splits_at_c20 = 0;
uint64_t g_splits_at_c100 = 0;

void RegisterAll() {
  for (double c : kLatencies) {
    for (bool balance : {true, false}) {
      const char* algo = balance ? "PIncDect" : "PIncDect_nb";
      RegisterTimed(Key(algo, c), [c, balance]() {
        Workload& w = CachedWorkload("pokec", Spec());
        ngd::UpdateBatch batch = MakeBatch(w.graph.get(), kFraction, 66);
        if (!ngd::ApplyUpdateBatch(w.graph.get(), &batch).ok()) std::abort();
        ngd::PIncDectOptions opts;
        opts.num_processors = 4;
        opts.latency_c = c;
        opts.enable_balance = balance;
        opts.balance_interval_ms = 5;
        ngd::PIncDectResult result;
        double s = RunPIncDect(w, batch, opts, &result);
        if (balance && c == 20) g_splits_at_c20 = result.metrics.splits;
        if (balance && c == 100) g_splits_at_c100 = result.metrics.splits;
        w.graph->Rollback();
        return s;
      });
    }
  }
}

void PrintShapeCheck() {
  TimingStore& store = TimingStore::Instance();
  std::printf("\n=== SHAPE CHECK vs paper Fig 4(m) ===\n");
  double best_c = -1, best_t = 1e18;
  for (double c : kLatencies) {
    double t = store.Get(Key("PIncDect", c));
    if (t > 0 && t < best_t) {
      best_t = t;
      best_c = c;
    }
  }
  std::printf("  best C on this host: %.0f (paper: 80 on their cluster)\n",
              best_c);
  std::printf("  splits at C=20: %llu, at C=100: %llu  (smaller C => more "
              "splitting) -> %s\n",
              static_cast<unsigned long long>(g_splits_at_c20),
              static_cast<unsigned long long>(g_splits_at_c100),
              g_splits_at_c20 >= g_splits_at_c100 ? "REPRODUCED"
                                                  : "NOT reproduced");
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  PrintShapeCheck();
  return 0;
}
