// The Matchn / SubMatchn homomorphism search engine (paper §6.2).
//
// A single recursive engine is the only code that walks a MatchPlan; it
// serves all four detection algorithms:
//   - Dect/PDect seed it with one candidate of the most selective pattern
//     node and let it expand;
//   - IncDect/PIncDect seed it with an update pivot h(u,u') = (v,v') and
//     drive the expansion from the update (update-driven evaluation), with
//     an EdgeFilter enforcing the ΔVio+/ΔVio- view discipline and the
//     minimal-pivot duplicate suppression;
//   - the parallel engines (PDect, PIncDect) additionally set a
//     StepHandoff, which may take a step out of the walk — forward it to
//     another fragment, split its anchor scan into slices, or spawn it as
//     a child work unit — and later resume each handed-off unit with
//     ResumeSearch.
//
// The engine sees its graph only through SearchConfig::graph, one
// GraphAccessor (graph/accessor.h), so the same walk serves the live
// overlay graph, a CSR snapshot and a DeltaView.
//
// The engine prunes with literals (paper §6.2 step (3)) soundly:
//   - any fully-bound X literal evaluating false prunes the branch (no
//     extension can satisfy X, hence none can violate X → Y);
//   - once ALL Y literals are bound and true the branch is pruned (every
//     extension satisfies Y, hence none violates).
// Callbacks receive full matches h(x̄) that are violations (X true, Y not
// all true), or every match when find_violations is off.

#ifndef NGD_MATCH_HOMOMORPHISM_H_
#define NGD_MATCH_HOMOMORPHISM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/ngd.h"
#include "detect/violation.h"
#include "graph/accessor.h"
#include "graph/snapshot.h"
#include "match/candidate_index.h"
#include "match/match_order.h"
#include "util/cancel.h"

namespace ngd {

/// Per-edge admissibility hook. Incremental detection uses it to (a) keep
/// ΔVio+ searches off update edges with smaller indices than the pivot
/// (duplicate avoidance across pivots) and (b) keep ΔVio- searches off
/// inserted edges / ΔVio+ searches off deleted edges.
class EdgeFilter {
 public:
  virtual ~EdgeFilter() = default;
  virtual bool Admit(int pattern_edge, NodeId src, NodeId dst,
                     LabelId label) const = 0;
};

/// Return false to abort the entire search.
using MatchCallback = std::function<bool(const Binding&)>;

/// Literal bookkeeping of a bound prefix: carried down the recursion by
/// value (backtracking restores it for free) and stored in handed-off
/// work units.
struct LiteralState {
  bool y_false = false;  ///< some bound Y literal is false
  uint32_t y_ready = 0;  ///< number of Y literals bound so far
};

/// Where a handed-off work unit re-enters the plan walk: the step to scan
/// next, the anchor option it was handed off on, an optional slice of
/// that anchor's neighbor sequence, and the prefix's literal state.
struct ResumePoint {
  int32_t step = 0;
  /// Index into plan.steps[step].anchor_options; -1 lets the walker pick
  /// the cheapest anchor. A unit handed off on an anchor must scan that
  /// anchor when it resumes: its slice indexes that anchor's neighbor
  /// sequence.
  int32_t anchor_option = -1;
  /// [slice_begin, slice_end) of the anchor's neighbor sequence (the
  /// GraphAccessor::NeighborSeqLen domain); slice_begin < 0 scans it all.
  int32_t slice_begin = -1;
  int32_t slice_end = -1;
  LiteralState literals;

  bool sliced() const { return slice_begin >= 0; }
};

/// Step hand-off hook, set only by the parallel engines. Before scanning
/// a step the walker offers it `at` (the step, the chosen anchor option,
/// the prefix's literal state), the anchor node, that anchor's neighbor
/// sequence length and the bound prefix. Returning true means the engine
/// took the step — forwarded it, split it into slice units or spawned it
/// as a child unit, each resuming from `at` — and the walker skips the
/// scan. A sliced entry step is offered too, so an engine can meter the
/// scan, but it was already handed off once and must not be taken.
class StepHandoff {
 public:
  virtual ~StepHandoff() = default;
  virtual bool Take(const ResumePoint& at, NodeId anchor, size_t seq_len,
                    const Binding& binding) = 0;
};

struct SearchConfig {
  /// The graph to match; must be valid(). Dect passes its CSR snapshot
  /// or the live graph, PDect its fragments' shared CSR, IncDect and
  /// PIncDect the DeltaView or the live graph in the view of the pivot's
  /// update.
  GraphAccessor graph;
  const Pattern* pattern = nullptr;
  const std::vector<Literal>* x = nullptr;
  const std::vector<Literal>* y = nullptr;
  const EdgeFilter* edge_filter = nullptr;  ///< optional
  /// true: emit only violations (X true, Y violated), with literal
  /// pruning; false: emit every match of the pattern.
  bool find_violations = true;
  /// Optional cooperative stop (util/cancel.h), polled in the expansion
  /// inner loop. When it trips the search unwinds and returns false, like
  /// a callback-requested stop; callers that need to tell the two apart
  /// check cancel->Stopped() afterwards.
  CancelCheck* cancel = nullptr;
  /// Optional batched emission sink. When set, full matches bypass the
  /// MatchCallback entirely: the engine appends h(x̄) to the emitter's
  /// staging buffer (flushed into its VioSet in blocks), and an emitter
  /// limit stop behaves like a callback-requested stop. Only valid for
  /// enumerations that provably cannot produce duplicate bindings (batch
  /// detection per rule — see VioSet::AppendUnchecked).
  VioEmitter* emitter = nullptr;
  /// Optional step hand-off hook (parallel engines only).
  StepHandoff* handoff = nullptr;
};

/// Runs the plan from pre-seeded `binding` (plan.seeds already bound).
/// Verifies seed edges/literals first. Returns false iff a callback
/// requested stop.
bool RunSeededSearch(const SearchConfig& config, const MatchPlan& plan,
                     Binding* binding, const MatchCallback& callback);

/// Resumes a handed-off unit: `binding` holds the prefix bound (and
/// verified) through step at.step - 1; the walk scans step at.step from
/// at.anchor_option, restricted to the slice when one is set. Returns
/// false iff a callback requested stop.
bool ResumeSearch(const SearchConfig& config, const MatchPlan& plan,
                  const ResumePoint& at, Binding* binding,
                  const MatchCallback& callback);

/// Full batch search for one NGD: picks the most selective start node,
/// iterates its candidates, expands each. Returns false iff stopped.
bool RunBatchSearch(const SearchConfig& config,
                    const MatchCallback& callback);

/// Batch search with a caller-chosen start node and prebuilt plan
/// (plan.seeds must be {start}). Dect and PDect hoist start/plan
/// selection out of the per-candidate loop so a rule's plan is built
/// once per detection call. `candidates` (optional) replaces the start
/// label's candidate list — PDect passes a chunk of a fragment's owned
/// candidates; either way the seeds' label is right by construction and
/// not re-checked. Returns false iff stopped.
bool RunBatchSearchWithPlan(
    const SearchConfig& config, int start, const MatchPlan& plan,
    const MatchCallback& callback,
    const GraphSnapshot::IdRange* candidates = nullptr);

}  // namespace ngd

#endif  // NGD_MATCH_HOMOMORPHISM_H_
