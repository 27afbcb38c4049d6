#include "detect/dect.h"

#include <optional>

namespace ngd {

namespace {

/// Resolves a SnapshotMode to a concrete build-the-snapshot decision
/// (kAuto defers to WantSnapshot).
bool ResolveSnapshot(const Graph& g, const NgdSet& sigma, SnapshotMode mode) {
  switch (mode) {
    case SnapshotMode::kAlways:
      return true;
    case SnapshotMode::kNever:
      return false;
    case SnapshotMode::kAuto:
      break;
  }
  return WantSnapshot(g, sigma);
}

/// Runs one detection sweep over every rule in Σ (already minimized —
/// the engine body under RunMinimized) against one materialized search
/// backend: the caller's snapshot, an owned one when opts.snapshot_mode
/// resolves to it, else the live graph. The start node and MatchPlan are
/// hoisted out of the candidate loop: one plan per rule per detection
/// call, shared across all of that rule's seed candidates (and, via the
/// snapshot, across all rules of the call).
///
/// Full matches stream straight into `sink` through a per-rule
/// VioEmitter — batched block appends, no std::function dispatch, no
/// per-match allocation and no per-match dedup (batch enumeration emits
/// each binding exactly once per rule). opts.max_violations_per_ngd caps
/// emissions per NGD (0 = unlimited).
///
/// opts.cancel/opts.deadline are polled between rules and inside the
/// expansion loops; a trip marks the interrupted rule and every rule
/// after it incomplete in opts.run_info and sets its `truncated`.
void SweepRules(const Graph& g, const NgdSet& sigma, const DectOptions& opts,
                VioSet* sink) {
  std::optional<GraphSnapshot> owned_snap;
  const GraphSnapshot* snap = opts.snapshot;
  if (snap == nullptr && ResolveSnapshot(g, sigma, opts.snapshot_mode)) {
    owned_snap.emplace(g, GraphView::kNew);
    snap = &*owned_snap;
  }
  const GraphAccessor graph = snap != nullptr
                                  ? GraphAccessor(*snap)
                                  : GraphAccessor(g, GraphView::kNew);
  DetectRunInfo local_info;
  DetectRunInfo* info = opts.run_info != nullptr ? opts.run_info : &local_info;
  info->StartFull(sigma.size());
  CancelCheck check(opts.cancel, opts.deadline);
  CancelCheck* cancel = check.active() ? &check : nullptr;

  auto mark_truncated_from = [&](size_t f) {
    info->truncated = true;
    for (size_t r = f; r < sigma.size(); ++r) info->rule_completed[r] = 0;
  };
  for (size_t f = 0; f < sigma.size(); ++f) {
    if (cancel != nullptr && cancel->ShouldStop()) {
      mark_truncated_from(f);
      return;
    }
    const Ngd& ngd = sigma[f];
    VioEmitter emitter(sink, static_cast<int>(f), ngd.pattern().NumNodes(),
                       opts.max_violations_per_ngd);
    SearchConfig cfg;
    cfg.graph = graph;
    cfg.pattern = &ngd.pattern();
    cfg.x = &ngd.X();
    cfg.y = &ngd.Y();
    cfg.find_violations = true;
    cfg.cancel = cancel;
    cfg.emitter = &emitter;
    const int start = ChooseStartNode(ngd.pattern(), graph);
    const MatchPlan plan =
        BuildMatchPlan(ngd.pattern(), {start}, &ngd.X(), &ngd.Y());
    RunBatchSearchWithPlan(cfg, start, plan, MatchCallback());
    emitter.Flush();
    if (cancel != nullptr && cancel->Stopped()) {
      // Cancel/deadline stop, not a limit stop: rule f is incomplete.
      mark_truncated_from(f);
      return;
    }
  }
}

}  // namespace

bool WantSnapshot(const Graph& g, const NgdSet& sigma) {
  // Guard and seed counting agree on the view being detected: a graph
  // whose edges are all pending deletion must not pay a build for an
  // edge-empty snapshot.
  if (g.NumEdges(GraphView::kNew) == 0) return false;
  // Σ_f |C(start_f)| approximates how many seed expansions the sweep
  // performs; each streams an adjacency of average length 2|E|/|V|,
  // while the snapshot build streams the adjacency a constant number of
  // times with a sort-like constant. Seed volume ≥ 8|V| ⇒ the live engine
  // would touch well over an order of magnitude more entries than the
  // build, so the snapshot amortizes within this call.
  const GraphAccessor acc(g, GraphView::kNew);
  size_t seed_candidates = 0;
  const size_t threshold = 8 * g.NumNodes();
  for (size_t f = 0; f < sigma.size(); ++f) {
    const Pattern& pattern = sigma[f].pattern();
    seed_candidates += acc.CandidateCount(
        pattern.node(ChooseStartNode(pattern, acc)).label);
    if (seed_candidates >= threshold) return true;
  }
  return false;
}

VioSet Dect(const Graph& g, const NgdSet& sigma, const DectOptions& opts) {
  return RunMinimized(
      sigma, g.schema(), opts,
      [&g](const NgdSet& rules, const DectOptions& o) {
        VioSet vio;
        if (o.spill != nullptr) vio.EnableSpill(*o.spill);
        SweepRules(g, rules, o, &vio);
        return vio;
      },
      RemapViolations);
}

}  // namespace ngd
