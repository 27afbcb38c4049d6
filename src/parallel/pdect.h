// PDect: parallel batch detection, fragment-native (paper §5.1 / §7,
// extended from the GFD algorithms of Fan-Wu-Xu SIGMOD'16 [24]).
//
// The graph is fragmented across p processors (FragmentRuntime,
// parallel/cluster.h), threads that share one CSR of it. Detection is
// owner-computes: every match is seeded exactly once cluster-wide, by
// the fragment that OWNS the candidate bound to the rule's start node
// (FragmentCandidates enumerates owned candidates only). Every two nodes
// of one match are within graph distance d_Σ of each other, so each match
// lies in its seeding fragment's members ∪ d_Σ-hop halo: the replication
// a cluster would pay (parallel/fragment.h), metered as replicated_nodes.
//
// Boundary-crossing matches are resolved by the paper's §7 hybrid
// policy, per expansion step with a non-owned (halo) anchor:
//   - read the halo adjacency locally — one simulated message per
//     halo-anchored adjacency scan (the replica must be fetched); or
//   - forward the partial match to the anchor's owner when the cost
//     model C·(k+1) + |adj|/p < |adj| says shipping k+1 bound nodes
//     beats shipping the scan — one message, counted in `forwards`.
// Large owned adjacencies split into p slice units under the same cost
// model (work-unit splitting, as in PIncDect), and at p > 1 idle
// processors steal seed chunks of 256 candidates across fragments; every
// stolen or forwarded unit is one simulated message (counted in
// PDectResult::metrics). The plan walk itself is match/'s shared
// walker; PDect decides, through a StepHandoff, which steps leave the
// local walk.

#ifndef NGD_PARALLEL_PDECT_H_
#define NGD_PARALLEL_PDECT_H_

#include "detect/dect.h"
#include "parallel/cluster.h"

namespace ngd {

/// PDect options: the shared contract (Σ-minimization, cancel/deadline,
/// run_info, spill) is DetectControl; the fields here tune the fragment
/// runtime and the §7 hybrid policy. Under minimization fragments seed
/// from the kept rules only (dropped rules spawn no work units). A
/// cancelled or deadlined run returns the violations its workers found
/// before the stop.
struct PDectOptions : DetectControl {
  int num_processors = 4;
  /// Pre-built fragment runtime to amortize partitioning + halo builds
  /// across calls (benchmarks, long-lived services). Used when it
  /// matches: num_fragments == num_processors, view kNew (PDect detects
  /// the kNew view, as Dect does), halo_hops >= max pattern diameter of
  /// Σ; otherwise the engine builds its own.
  const FragmentRuntime* runtime = nullptr;
  /// Communication-latency constant C of the hybrid cost model (the
  /// paper fixes 60; Fig. 4(m) varies it). It alone decides every
  /// forward and split: HandoffPays needs |adj|·(1 − 1/p) > C·(k+1) with
  /// k ≥ 1 bound nodes, so no adjacency of 2C or fewer entries is ever
  /// handed off.
  double latency_c = 60.0;
  /// Producer backpressure: a worker whose mid-run spawn (split slice,
  /// forward, child unit) targets a queue at or past this depth executes
  /// the unit inline instead of enqueueing it, bounding queue state under
  /// core starvation (the 1-core queue-starvation bug: p PIncDect workers
  /// sharing one core). 0 disables the bound. Initial seeding is exempt
  /// (bounded by the seed volume).
  size_t max_queue_depth = 4096;
};

struct PDectResult {
  VioSet vio;
  /// True iff the run was cut short by cancel/deadline and some rule's
  /// enumeration is incomplete (per-rule detail in opts.run_info).
  bool truncated = false;
  /// Communication / balancing counters. replicated_nodes = Σ_f |halo(f)|
  /// (actual replica volume); messages = halo scans + forwards + steals +
  /// split broadcasts.
  ClusterMetricsSnapshot metrics;
};

PDectResult PDect(const Graph& g, const NgdSet& sigma,
                  const PDectOptions& opts);

}  // namespace ngd

#endif  // NGD_PARALLEL_PDECT_H_
