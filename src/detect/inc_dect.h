// IncDect: sequential localizable incremental error detection (paper §6.2).
//
// Given G with a pending batch update ΔG (the edge-state overlay), IncDect
// computes ΔVio(Σ, G, ΔG) = (ΔVio+, ΔVio-) by update-driven evaluation:
//
//   1. Every effective unit update (v,v') that can match some pattern edge
//      (u,u') of an NGD in Σ forms an UPDATE PIVOT hup(u,u') = (v,v').
//   2. IncMatch expands each pivot recursively (IncSubMatch), drawing
//      candidates only from neighbors of already-matched nodes — never
//      from a global scan. All work is confined to the d_Σ-neighborhood
//      of ΔG, which makes the algorithm localizable (§6.1).
//   3. View discipline: pivots from insertions search G ⊕ ΔG (kNew, which
//      excludes deleted edges); pivots from deletions search G (kOld,
//      which excludes inserted edges). Insertions only add violations,
//      deletions only remove them.
//   4. Duplicate suppression ("marks the combination of update pivots"):
//      a match found from pivot (update j, pattern edge p) is emitted only
//      if (j, p) is the lexicographically minimal update incidence of the
//      match; expansion additionally refuses update edges with index < j,
//      so each violation is enumerated exactly once across all pivots.
//
// PivotBatch holds the per-batch setup both IncDect and PIncDect run on
// (UpdateIndex, pivot tasks, backend, plans), so PIncDect distributes the
// same work units across processors.

#ifndef NGD_DETECT_INC_DECT_H_
#define NGD_DETECT_INC_DECT_H_

#include <optional>
#include <vector>

#include "detect/dect.h"
#include "detect/violation.h"
#include "graph/delta_view.h"
#include "graph/neighborhood.h"
#include "graph/updates.h"
#include "match/homomorphism.h"

namespace ngd {

/// An update that actually changed the graph (cancelled-out records like
/// delete+reinsert of one edge are filtered against the overlay state).
struct EffectiveUpdate {
  UpdateKind kind;
  EdgeKey edge;
};

/// Index over the effective updates of a batch; positions define the pivot
/// order used for duplicate suppression.
class UpdateIndex {
 public:
  UpdateIndex(const Graph& g, const UpdateBatch& batch);

  const std::vector<EffectiveUpdate>& updates() const { return updates_; }

  /// Position of an inserted/deleted edge in the pivot order.
  std::optional<int> IndexOf(UpdateKind kind, const EdgeKey& key) const;

 private:
  std::vector<EffectiveUpdate> updates_;
  EdgeMap<int> insert_index_;
  EdgeMap<int> delete_index_;
};

/// One unit of update-driven work: expand pivot hup(u,u') = (v,v') where
/// pattern edge `pattern_edge` of NGD `ngd_index` matches effective update
/// `update_index`.
struct PivotTask {
  int ngd_index;
  int pattern_edge;
  int update_index;
};

/// All pivot tasks for (Σ, ΔG): label-compatible (update, pattern-edge)
/// pairs.
std::vector<PivotTask> EnumeratePivotTasks(const Graph& g,
                                           const NgdSet& sigma,
                                           const UpdateIndex& index);

/// True iff (update_index, pattern_edge) is the minimal update incidence
/// of the full match `binding` — the emission-side duplicate check. With
/// a DeltaView backend (`dv` set) pattern edges whose bound graph edge is
/// not a delta entry are skipped with one CSR span check; only the
/// (typically one) real update edge of the match pays an UpdateIndex hash
/// lookup. This is the emission hot path — every violating match of every
/// pivot runs it — and the structural skip is a key part of the DeltaView
/// speedup. `dv == nullptr` means the live graph.
bool IsCanonicalPivot(const DeltaView* dv, const Pattern& pattern,
                      const Binding& binding, const UpdateIndex& index,
                      UpdateKind kind, int update_index, int pattern_edge);

/// Incremental detection requires every pattern to be connected with at
/// least one edge (edge updates cannot pivot edge-less patterns; the
/// paper's §6 preliminaries make the same connectivity assumption).
Status ValidateForIncremental(const NgdSet& sigma);

/// Incremental-engine options; the shared contract (Σ-minimization,
/// cancel/deadline, run_info, spill) is DetectControl. Under
/// minimization dropped rules spawn no pivot tasks, and since per-rule
/// deltas are independent the kept rules' deltas are exact. A
/// cancelled/deadlined run returns the ΔVio prefix found so far.
struct IncDectOptions : DetectControl {
  /// Mirrors DectOptions::snapshot_mode for the incremental path:
  ///   kNever  — match the live overlay graph (the pre-DeltaView engine,
  ///             kept as the equivalence oracle and benchmark baseline);
  ///   kAlways — match a DeltaView (base CSR snapshot ⊕ ΔG);
  ///   kAuto   — use the DeltaView when `base_snapshot` is provided (the
  ///             build is already paid), else when PivotBatch's cost
  ///             model expects the pivot searches to amortize an owned
  ///             base-snapshot build.
  SnapshotMode snapshot_mode = SnapshotMode::kAuto;
  /// Optional pre-built snapshot of the base graph G — GraphView::kOld of
  /// `g`, or a snapshot taken before the batch was applied. When null the
  /// engine takes GraphSnapshot(g, kOld) itself, which shares g's
  /// committed CSR (graph/snapshot.h): O(1) when it is current, else a
  /// refresh of the nodes the last Commit touched. Passing one saves
  /// only that refresh.
  const GraphSnapshot* base_snapshot = nullptr;
};

/// What an engine adds to each pivot search; every field is optional.
struct PivotHooks {
  CancelCheck* cancel = nullptr;
  StepHandoff* handoff = nullptr;  ///< PIncDect: splits, child units
};

/// The per-batch setup IncDect and PIncDect share: the UpdateIndex, the
/// pivot tasks, the backend (the live overlay graph, or a DeltaView over
/// the base snapshot, owned when the caller passes none) and one match
/// plan per (rule, pattern edge) that some task seeds. Built once per
/// batch and immutable afterwards, so PIncDect's workers expand units
/// through one instance concurrently. `g` must carry `batch` as its
/// pending overlay for the object's lifetime.
class PivotBatch {
 public:
  /// `mode` and `base_snapshot` are IncDectOptions' fields of that name.
  PivotBatch(const Graph& g, const NgdSet& sigma, const UpdateBatch& batch,
             SnapshotMode mode, const GraphSnapshot* base_snapshot);
  PivotBatch(const PivotBatch&) = delete;
  PivotBatch& operator=(const PivotBatch&) = delete;

  const UpdateIndex& index() const { return index_; }
  const std::vector<PivotTask>& tasks() const { return tasks_; }
  const MatchPlan& Plan(const PivotTask& task) const;

  /// The task's seed binding: the pivot pattern edge's endpoints bound to
  /// the update edge's, every other pattern node unbound.
  Binding SeedBinding(const PivotTask& task) const;

  /// Expands one pivot: a fresh one from SeedBinding when `at` is the
  /// default ResumePoint, else a unit a StepHandoff split or spawned,
  /// resumed at `at`. Appends each match whose minimal update incidence
  /// is this pivot to out->added (insert pivots) or out->removed (delete
  /// pivots), so every ΔVio entry is emitted once across all pivots.
  void Expand(const PivotTask& task, const ResumePoint& at, Binding* binding,
              const PivotHooks& hooks, DeltaVio* out) const;

 private:
  const Graph& g_;
  const NgdSet& sigma_;
  UpdateIndex index_;
  std::vector<PivotTask> tasks_;
  std::optional<GraphSnapshot> owned_base_;
  std::optional<DeltaView> dv_;
  /// plans_[plan_offset_[f] + p] for pattern edge p of rule f.
  std::vector<size_t> plan_offset_;
  std::vector<std::optional<MatchPlan>> plans_;
};

/// Computes ΔVio(Σ, G, ΔG). `g` must carry ΔG as its pending overlay
/// (apply via ApplyUpdateBatch before calling; Commit afterwards).
/// Requires every pattern in Σ to be connected with ≥ 1 edge.
StatusOr<DeltaVio> IncDect(const Graph& g, const NgdSet& sigma,
                           const UpdateBatch& batch,
                           const IncDectOptions& opts = {});

}  // namespace ngd

#endif  // NGD_DETECT_INC_DECT_H_
