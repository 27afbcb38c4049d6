// PIncDect: parallel incremental detection, parallel scalable relative to
// IncDect (paper §6.3, Theorem 6).
//
// Pipeline (mirroring Fig. 3):
//   1. Enumerate update pivots, pick the backend and build the plans:
//      IncDect's PivotBatch, so both engines run the same setup.
//   2. Extract the candidate neighborhood N_C(ΔG, Σ) — the union of
//      d_Σ-balls around pivot endpoints — and "replicate" it at all p
//      processors (simulated; replication volume is metered).
//   3. Partition the initial pivots round-robin into per-processor
//      workloads BVio_i. Adjacency lists are logically partitioned: a
//      split work unit carries the slice [begin, end) of the anchor's
//      adjacency that the receiving processor owns (its partial copy
//      v.adj_i).
//   4. Each processor expands partial solutions through match/'s shared
//      plan walker, one plan step per work unit (a StepHandoff spawns the
//      next step as a child unit): candidate filtering with the HYBRID
//      cost model — expand locally when
//          |adj| <= C·(k+1) + |adj|/p
//      and otherwise broadcast p slice units (work-unit splitting).
//      Verification of the remaining pattern edges is a point lookup per
//      edge here — a hash probe of the edge index on the live backend, a
//      binary search over the smaller endpoint's label range on the
//      DeltaView (GraphSnapshot::HasEdge) — so it is never worth
//      splitting: a documented deviation from the paper, whose
//      verification scans adjacency lists.
//   5. A balancer thread wakes every `intvl` ms, computes the skewness
//      ||BVio_i|| / avg ||BVio_t||, and moves work from processors above
//      η (= 3) to processors below η' (= 0.7).
//
// Ablation variants (Fig 4): PIncDect_ns (no split), PIncDect_nb (no
// balance), PIncDect_NO (neither) are the same engine with flags off.

#ifndef NGD_PARALLEL_PINC_DECT_H_
#define NGD_PARALLEL_PINC_DECT_H_

#include "detect/inc_dect.h"
#include "parallel/cluster.h"
#include "parallel/work_unit.h"

namespace ngd {

/// PIncDect options: the shared contract (Σ-minimization, cancel/deadline,
/// run_info, spill) is DetectControl; the fields here pick the backend and
/// tune the hybrid split and the skew balancer. Under minimization pivots,
/// N_C and the workloads cover the kept rules only. A cancelled or
/// deadlined run returns the ΔVio its workers found before the stop.
struct PIncDectOptions : DetectControl {
  int num_processors = 4;
  /// Backend selection, exactly as IncDectOptions: kNever = live overlay
  /// graph (the oracle/baseline), kAlways = DeltaView over the base
  /// snapshot, kAuto = cost model (or an already-provided base_snapshot).
  SnapshotMode snapshot_mode = SnapshotMode::kAuto;
  /// Optional pre-built snapshot of the base graph G (GraphView::kOld),
  /// shared read-only by all simulated processors and reused across
  /// batches by callers that maintain one per commit epoch.
  const GraphSnapshot* base_snapshot = nullptr;
  /// Communication-latency constant C of the cost model (paper fixes 60;
  /// Fig. 4(m) varies it). It alone decides every split: HandoffPays
  /// needs |adj|·(1 − 1/p) > C·(k+1) with k ≥ 1 bound nodes, so no
  /// adjacency of 2C or fewer entries is ever split.
  double latency_c = 60.0;
  /// Balancer wake-up interval in milliseconds (paper: 45 s at cluster
  /// scale; milliseconds at this scale — EXPERIMENTS.md §1 "Scale
  /// mapping").
  int balance_interval_ms = 45;
  bool enable_split = true;    ///< off = PIncDect_ns
  bool enable_balance = true;  ///< off = PIncDect_nb
  /// Producer backpressure (see PDectOptions::max_queue_depth): mid-run
  /// split broadcasts and child spawns targeting a queue at or past this
  /// depth execute inline on the producing worker. 0 disables; initial
  /// pivot seeding is exempt.
  size_t max_queue_depth = 4096;
};

struct PIncDectResult {
  DeltaVio delta;
  /// True iff the run was cut short and some rule's ΔVio is incomplete.
  bool truncated = false;
  /// Communication / balancing counters, the same shape PDectResult
  /// carries. replicated_nodes = |N_C|·(p-1), so |N_C| itself reads
  /// replicated_nodes / (p-1) for p > 1; messages = the N_C
  /// broadcast round + split broadcasts + balancer moves + steals.
  ClusterMetricsSnapshot metrics;
};

/// Computes ΔVio(Σ, G, ΔG) with p simulated processors. `g` must carry ΔG
/// as its pending overlay.
StatusOr<PIncDectResult> PIncDect(const Graph& g, const NgdSet& sigma,
                                  const UpdateBatch& batch,
                                  const PIncDectOptions& opts);

}  // namespace ngd

#endif  // NGD_PARALLEL_PINC_DECT_H_
