// Batch error detection with NGDs (paper §5.1).
//
// Dect computes Vio(Σ, G) by full homomorphism enumeration per NGD — the
// sequential baseline extended from the GFD batch algorithm of [24].
// Validation (G |= Σ?) is the question whether Dect returns nothing.
//
// Dect detects on the graph's kNew view (committed edges plus any pending
// overlay). It can build one CSR GraphSnapshot of that view per call
// and amortize it across every rule in Σ
// (label-partitioned adjacency makes the Matchn expansion memory-lean;
// see graph/snapshot.h). The default SnapshotMode::kAuto decides by a
// cost model: the O(|E|) build only pays off when the live engine would
// stream a multiple of the adjacency, so selective rule sets on small
// graphs keep the live engine. kNever selects the pre-snapshot
// live-graph engine unconditionally — kept as the equivalence-test
// oracle and the benchmark baseline; kAlways forces the snapshot.

#ifndef NGD_DETECT_DECT_H_
#define NGD_DETECT_DECT_H_

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
  /// default and the equivalence oracle); kAlways detects against the
  /// implication-minimized rule set — dropped rules spawn no sweeps, pivot
  /// tasks or work units — and remap rule indices back to Σ. Kept-rule
  /// violations and deltas are preserved exactly; dropped (implied) rules
  /// report none — any graph violating them also violates a kept rule.
  MinimizeMode minimize_sigma = MinimizeMode::kNever;
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
  /// Safety valve for adversarial rule sets: stop collecting per NGD after
  /// this many violations (0 = unlimited).
  size_t max_violations_per_ngd = 0;
  SnapshotMode snapshot_mode = SnapshotMode::kAuto;
  /// Pre-built CSR snapshot to match against — e.g. loaded from a binary
  /// snapshot file (graph/snapshot_io.h) or reused across calls. Must
  /// describe the kNew view of `g`. When set it overrides snapshot_mode: the
  /// engine skips its own build and never falls back to the live graph.
  const GraphSnapshot* snapshot = nullptr;
};

/// The kAuto cost model, evaluated on the kNew view Dect matches (a
/// pending-heavy overlay graph must not be judged by the kOld view's
/// edges): build the snapshot iff kNew has edges and the seed-candidate
/// volume of Σ (the adjacency the live engine would stream) is large
/// enough to amortize the O(|E|) build within this one call.
bool WantSnapshot(const Graph& g, const NgdSet& sigma);

/// Vio(Σ, G): all violations of all NGDs in Σ.
VioSet Dect(const Graph& g, const NgdSet& sigma, const DectOptions& opts = {});

}  // namespace ngd

#endif  // NGD_DETECT_DECT_H_
