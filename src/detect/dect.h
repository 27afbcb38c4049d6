// Batch error detection with NGDs (paper §5.1).
//
// Dect computes Vio(Σ, G) by full homomorphism enumeration per NGD — the
// sequential baseline extended from the GFD batch algorithm of [24].
// Validation (G |= Σ?) is the coNP decision version: an NP witness search
// that stops at the first violation.
//
// Both entry points can build one CSR GraphSnapshot of the requested
// view per call and amortize it across every rule in Σ
// (label-partitioned adjacency makes the Matchn expansion memory-lean;
// see graph/snapshot.h). The default SnapshotMode::kAuto decides by a
// cost model: the O(|E|) build only pays off when the live engine would
// stream a multiple of the adjacency, so selective rule sets on small
// graphs keep the live engine. kNever selects the pre-snapshot
// live-graph engine unconditionally — kept as the equivalence-test
// oracle and the benchmark baseline; kAlways forces the snapshot.

#ifndef NGD_DETECT_DECT_H_
#define NGD_DETECT_DECT_H_

#include <optional>
#include <vector>

#include "detect/violation.h"
#include "match/homomorphism.h"
#include "reason/sigma_optimizer.h"
#include "util/cancel.h"

namespace ngd {

enum class SnapshotMode : uint8_t {
  kAuto = 0,  ///< cost model decides (WantSnapshot)
  kAlways,    ///< always build + match against the CSR snapshot
  kNever,     ///< always match against the live overlay graph
};

/// The contract all four engines share (Dect, IncDect, PDect, PIncDect):
/// Σ-minimization, cancellation and deadline, the partial-result report,
/// and streaming results. Every engine's options struct derives from it,
/// so the fields read opts.minimize_sigma, opts.spill, and so on.
struct DetectControl {
  /// Σ-optimizer (reason/sigma_optimizer.h): kNever runs Σ verbatim (the
  /// default and the equivalence oracle); kAlways/kAuto detect against the
  /// implication-minimized rule set — dropped rules spawn no sweeps, pivot
  /// tasks or work units — and remap rule indices back to Σ. Kept-rule
  /// violations and deltas are preserved exactly; dropped (implied) rules
  /// report none — any graph violating them also violates a kept rule.
  MinimizeMode minimize_sigma = MinimizeMode::kNever;
  SigmaOptimizerOptions sigma_optimizer = {};
  /// Graceful degradation: an externally cancellable run and/or a time
  /// budget. When either trips mid-run the engine stops expanding (the
  /// parallel engines broadcast the stop to every worker and drain their
  /// queues unprocessed), returns the violations found so far, and
  /// reports the partial-result shape through `run_info`. The process
  /// never aborts.
  CancelToken* cancel = nullptr;
  Deadline deadline = {};
  /// Optional out-param (must outlive the call): filled on every run,
  /// truncated or not. A rule is complete when all of its work finished:
  /// its sweep (Dect), every pivot task (IncDect), every work unit — seed
  /// chunks, forwards, splits, spawned children (PDect, PIncDect).
  DetectRunInfo* run_info = nullptr;
  /// Streaming results: when set, result sets spill sorted checksummed
  /// segments past budget_bytes instead of holding everything resident;
  /// read them back with VioSet::OpenCursor (the checked/whole-set
  /// surface is then off limits — see detect/vio_stream.h). Vio spills
  /// under "<path_prefix>", ΔVio+ under "<path_prefix>.add" and ΔVio-
  /// under "<path_prefix>.rem". The parallel engines give each worker's
  /// local result budget_bytes/p under "<path_prefix>.w<i>" (plus the
  /// same .add/.rem suffixes for ΔVio), and the merged result keeps
  /// spilling under the caller's prefix.
  const VioSpillOptions* spill = nullptr;
};

struct DectOptions : DetectControl {
  GraphView view = GraphView::kNew;
  /// Safety valve for adversarial rule sets: stop collecting per NGD after
  /// this many violations (0 = unlimited).
  size_t max_violations_per_ngd = 0;
  SnapshotMode snapshot_mode = SnapshotMode::kAuto;
  /// Pre-built CSR snapshot to match against — e.g. loaded from a binary
  /// snapshot file (graph/snapshot_io.h) or reused across calls. Must
  /// describe `view` of `g`. When set it overrides snapshot_mode: the
  /// engine skips its own build and never falls back to the live graph.
  const GraphSnapshot* snapshot = nullptr;
};

/// The kAuto cost model, two regimes, both evaluated on `view` — the view
/// detection will actually match (a pending-heavy overlay graph must not
/// be judged by the other view's edges):
///   1. matching-dominated: the seed-candidate volume of Σ (the adjacency
///      the live engine would stream) must be large enough to amortize
///      the O(|E|) snapshot build within this one call;
///   2. emission-dominated: if a bounded density probe then finds the
///      graph violation-dense, materializing violations dominates either
///      engine and the build never pays for itself — stay live.
bool WantSnapshot(const Graph& g, const NgdSet& sigma,
                  GraphView view = GraphView::kNew);

/// Resolves a SnapshotMode to a concrete build-the-snapshot decision
/// (kAuto defers to WantSnapshot on `view`). Shared by Dect,
/// FindAnyViolation and PDect so all engines make the same choice for the
/// same options.
bool ResolveSnapshot(const Graph& g, const NgdSet& sigma, SnapshotMode mode,
                     GraphView view = GraphView::kNew);

/// Vio(Σ, G): all violations of all NGDs in Σ.
VioSet Dect(const Graph& g, const NgdSet& sigma, const DectOptions& opts = {});

/// First violation found, or nullopt if G |= Σ (early exit). Honors
/// opts.snapshot_mode (kNever skips the snapshot build callers who expect
/// an early witness would waste) and opts.minimize_sigma — minimization
/// preserves emptiness exactly, which makes it a pure win for validation:
/// the full sweep over a clean graph shrinks to the kept rules.
std::optional<Violation> FindAnyViolation(const Graph& g, const NgdSet& sigma,
                                          const DectOptions& opts);

inline std::optional<Violation> FindAnyViolation(
    const Graph& g, const NgdSet& sigma, GraphView view = GraphView::kNew,
    SnapshotMode mode = SnapshotMode::kAuto) {
  DectOptions opts;
  opts.view = view;
  opts.snapshot_mode = mode;
  return FindAnyViolation(g, sigma, opts);
}

/// The validation problem: G |= Σ.
inline bool Validate(const Graph& g, const NgdSet& sigma,
                     GraphView view = GraphView::kNew,
                     SnapshotMode mode = SnapshotMode::kAuto) {
  return !FindAnyViolation(g, sigma, view, mode).has_value();
}

}  // namespace ngd

#endif  // NGD_DETECT_DECT_H_
