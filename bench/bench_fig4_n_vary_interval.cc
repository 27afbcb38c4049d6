// Fig. 4(n): impact of the balancing interval intvl on PIncDect and
// PIncDect_ns (Exp-4), YAGO2-like graph, p = 4, C = 60, |ΔG| = 15%.
//
// Paper: intvl from 15s to 65s at cluster scale (ms here, EXPERIMENTS.md
// §1 "Scale mapping");
// best at the middle (45), since too-frequent balancing pays
// communication and too-rare balancing leaves processors skewed.

#include "bench_common.h"

namespace {

using ngd::bench::CachedWorkload;
using ngd::bench::MakeBatch;
using ngd::bench::RegisterTimed;
using ngd::bench::RunPIncDect;
using ngd::bench::TimingStore;
using ngd::bench::Workload;
using ngd::bench::WorkloadSpec;

constexpr int kIntervalsMs[] = {2, 5, 15, 30, 65};
constexpr double kFraction = 0.15;

WorkloadSpec Spec() {
  WorkloadSpec spec;
  spec.graph_config = ngd::Yago2LikeConfig(1.0 / 200);
  spec.num_rules = 20;
  spec.max_diameter = 3;
  return spec;
}

std::string Key(const char* algo, int intvl) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "Fig4n/yago2-like/%s/intvl=%dms", algo,
                intvl);
  return buf;
}

void RegisterAll() {
  for (int intvl : kIntervalsMs) {
    for (bool split : {true, false}) {
      const char* algo = split ? "PIncDect" : "PIncDect_ns";
      RegisterTimed(Key(algo, intvl), [intvl, split]() {
        Workload& w = CachedWorkload("yago", Spec());
        ngd::UpdateBatch batch = MakeBatch(w.graph.get(), kFraction, 44);
        if (!ngd::ApplyUpdateBatch(w.graph.get(), &batch).ok()) std::abort();
        ngd::PIncDectOptions opts;
        opts.num_processors = 4;
        opts.latency_c = 60;
        opts.enable_split = split;
        opts.balance_interval_ms = intvl;
        double s = RunPIncDect(w, batch, opts);
        w.graph->Rollback();
        return s;
      });
    }
  }
}

void PrintShapeCheck() {
  TimingStore& store = TimingStore::Instance();
  std::printf("\n=== SHAPE CHECK vs paper Fig 4(n) ===\n");
  double best_i = -1, best_t = 1e18;
  for (int intvl : kIntervalsMs) {
    double t = store.Get(Key("PIncDect", intvl));
    if (t > 0 && t < best_t) {
      best_t = t;
      best_i = intvl;
    }
  }
  std::printf("  best intvl on this host: %.0f ms (paper: 45 s at cluster "
              "scale; the curve bottoms in the middle)\n",
              best_i);
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  PrintShapeCheck();
  return 0;
}
