#include "detect/dect.h"

#include <algorithm>
#include <optional>

namespace ngd {

namespace {

/// Runs one detection sweep over every rule in Σ (already minimized —
/// the engine body under RunMinimized) against one materialized search
/// backend: the caller's snapshot, an owned one when opts.snapshot_mode
/// resolves to it, else the live graph. The start node and MatchPlan are
/// hoisted out of the candidate loop: one plan per rule per detection
/// call, shared across all of that rule's seed candidates (and, via the
/// snapshot, across all rules of the call).
///
/// Emission has two modes:
///   - `sink != nullptr` (Dect): full matches stream straight into the
///     sink through a per-rule VioEmitter — batched block appends, no
///     std::function dispatch, no per-match allocation and no per-match
///     dedup (batch enumeration emits each binding exactly once per
///     rule). opts.max_violations_per_ngd caps emissions per NGD
///     (0 = unlimited), matching the old callback-counting semantics.
///   - `sink == nullptr` (FindAnyViolation): `callback` receives each
///     violation; returning false ends that rule's search and — with
///     `stop_sweep_on_false` — the whole sweep (first-witness exit).
///
/// opts.cancel/opts.deadline are polled between rules and inside the
/// expansion loops; a trip marks the interrupted rule and every rule
/// after it incomplete in opts.run_info and sets its `truncated`.
template <typename PerViolation>
void SweepRules(const Graph& g, const NgdSet& sigma, const DectOptions& opts,
                bool stop_sweep_on_false, VioSet* sink,
                const PerViolation& callback) {
  std::optional<GraphSnapshot> owned_snap;
  const GraphSnapshot* snap = opts.snapshot;
  if (snap == nullptr &&
      ResolveSnapshot(g, sigma, opts.snapshot_mode, opts.view)) {
    owned_snap.emplace(g, opts.view);
    snap = &*owned_snap;
  }
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
    SearchConfig cfg;
    cfg.graph = &g;
    cfg.snapshot = snap;
    cfg.pattern = &ngd.pattern();
    cfg.x = &ngd.X();
    cfg.y = &ngd.Y();
    cfg.view = opts.view;
    cfg.find_violations = true;
    cfg.cancel = cancel;
    std::optional<VioEmitter> emitter;
    if (sink != nullptr) {
      emitter.emplace(sink, static_cast<int>(f), ngd.pattern().NumNodes(),
                      opts.max_violations_per_ngd);
      cfg.emitter = &*emitter;
    }
    const int start = ChooseStartNode(ngd.pattern(), cfg.MakeAccessor());
    const MatchPlan plan =
        BuildMatchPlan(ngd.pattern(), {start}, &ngd.X(), &ngd.Y());
    const bool completed = RunBatchSearchWithPlan(
        cfg, start, plan, [&](const Binding& binding) {
          return callback(static_cast<int>(f), binding);
        });
    if (emitter.has_value()) emitter->Flush();
    if (cancel != nullptr && cancel->Stopped()) {
      // Cancel/deadline stop, not a callback/limit stop: rule f is
      // incomplete.
      mark_truncated_from(f);
      return;
    }
    if (!completed && stop_sweep_on_false) return;
  }
}

/// Regime probe for the kAuto cost model: samples a few seed expansions
/// on the live graph and counts the violations they emit. When emission
/// dominates (violation-dense graphs), matching speed is not the
/// bottleneck and the O(|E|) snapshot build is pure overhead — the live
/// engine wins. The probe is bounded: at most kProbeRules rules (spread
/// across Σ), kProbeSeeds seed candidates each, and it stops the moment
/// kProbeMatchCap violations are seen (already decisively dense). Work
/// done here is a small prefix of what the live engine would do anyway,
/// and it only runs once the seed-volume test has said "big sweep".
bool EmissionDominated(const Graph& g, const NgdSet& sigma, GraphView view) {
  constexpr size_t kProbeRules = 4;
  constexpr size_t kProbeSeeds = 4;
  constexpr size_t kProbeMatchCap = 256;
  // Dense ⇔ sampled violations ≥ kDensePerSeed per probed seed.
  constexpr size_t kDensePerSeed = 4;

  const GraphAccessor acc(g, view);
  const size_t stride = std::max<size_t>(1, sigma.size() / kProbeRules);
  size_t seeds_probed = 0;
  size_t violations = 0;
  for (size_t f = 0; f < sigma.size() && violations < kProbeMatchCap;
       f += stride) {
    const Ngd& ngd = sigma[f];
    SearchConfig cfg;
    cfg.graph = &g;
    cfg.pattern = &ngd.pattern();
    cfg.x = &ngd.X();
    cfg.y = &ngd.Y();
    cfg.view = view;
    cfg.find_violations = true;
    const int start = ChooseStartNode(ngd.pattern(), acc);
    const MatchPlan plan =
        BuildMatchPlan(ngd.pattern(), {start}, &ngd.X(), &ngd.Y());
    Binding binding(ngd.pattern().NumNodes(), kInvalidNode);
    size_t rule_seeds = 0;
    acc.ForEachCandidate(
        ngd.pattern().node(start).label, [&](NodeId v) {
          ++seeds_probed;
          std::fill(binding.begin(), binding.end(), kInvalidNode);
          binding[start] = v;
          RunSeededSearch(cfg, plan, &binding, [&](const Binding&) {
            ++violations;
            return violations < kProbeMatchCap;
          });
          return ++rule_seeds < kProbeSeeds && violations < kProbeMatchCap;
        });
  }
  if (seeds_probed == 0) return false;
  return violations >= kDensePerSeed * seeds_probed;
}

}  // namespace

bool WantSnapshot(const Graph& g, const NgdSet& sigma, GraphView view) {
  // Regime guard and seed counting agree on the view being detected: a
  // graph whose edges are all pending in the OTHER view must not pay a
  // build for an edge-empty snapshot.
  if (g.NumEdges(view) == 0) return false;
  // Regime 1 — matching-dominated. Σ_f |C(start_f)| approximates how many
  // seed expansions the sweep performs; each streams an adjacency of
  // average length 2|E|/|V|, while the snapshot build streams the
  // adjacency a constant number of times with a sort-like constant. Seed
  // volume ≥ 8|V| ⇒ the live engine would touch well over an order of
  // magnitude more entries than the build, so the snapshot amortizes
  // within this call.
  const GraphAccessor acc(g, view);
  size_t seed_candidates = 0;
  const size_t threshold = 8 * g.NumNodes();
  bool big_sweep = false;
  for (size_t f = 0; f < sigma.size(); ++f) {
    const Pattern& pattern = sigma[f].pattern();
    seed_candidates += acc.CandidateCount(
        pattern.node(ChooseStartNode(pattern, acc)).label);
    if (seed_candidates >= threshold) {
      big_sweep = true;
      break;
    }
  }
  if (!big_sweep) return false;
  // Regime 2 — emission-dominated. A big sweep over a violation-dense
  // graph spends its time materializing violations, which both engines
  // pay identically; the build no longer amortizes against the (small)
  // matching share. Sample the violation density before committing.
  return !EmissionDominated(g, sigma, view);
}

bool ResolveSnapshot(const Graph& g, const NgdSet& sigma, SnapshotMode mode,
                     GraphView view) {
  switch (mode) {
    case SnapshotMode::kAlways:
      return true;
    case SnapshotMode::kNever:
      return false;
    case SnapshotMode::kAuto:
      break;
  }
  return WantSnapshot(g, sigma, view);
}

VioSet Dect(const Graph& g, const NgdSet& sigma, const DectOptions& opts) {
  return RunMinimized(
      sigma, g.schema(), opts,
      [&g](const NgdSet& rules, const DectOptions& o) {
        VioSet vio;
        if (o.spill != nullptr) vio.EnableSpill(*o.spill);
        SweepRules(g, rules, o, /*stop_sweep_on_false=*/false, &vio,
                   [](int, const Binding&) { return true; });
        return vio;
      },
      RemapViolations);
}

std::optional<Violation> FindAnyViolation(const Graph& g, const NgdSet& sigma,
                                          const DectOptions& opts) {
  // Minimization preserves emptiness (a dropped rule's violation always
  // comes with a kept rule's violation), so validation may sweep the kept
  // rules only; the witness index is remapped back to the caller's Σ.
  // The worst case (G |= Σ, the common validation outcome) is a full
  // sweep, so the same kAuto cost model applies as for Dect; callers who
  // know violations are common pass kNever to skip the O(|E|) build an
  // early witness would waste.
  return RunMinimized(
      sigma, g.schema(), opts,
      [&g](const NgdSet& rules, const DectOptions& o) {
        std::optional<Violation> witness;
        SweepRules(g, rules, o, /*stop_sweep_on_false=*/true,
                   /*sink=*/nullptr, [&](int f, const Binding& binding) {
                     witness = Violation{f, binding};
                     return false;  // stop at first violation
                   });
        return witness;
      },
      [](std::optional<Violation> witness, const std::vector<int>& kept) {
        if (witness.has_value()) {
          witness->ngd_index = kept[static_cast<size_t>(witness->ngd_index)];
        }
        return witness;
      });
}

}  // namespace ngd
