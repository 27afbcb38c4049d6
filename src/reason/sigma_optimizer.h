// Σ-optimizer: implication-driven rule-set minimization (paper §4 made
// load-bearing for detection).
//
// Heavy rule catalogs accumulate redundancy — weakened copies of a rule,
// exact duplicates from merged sources, consequences of rule pairs. Every
// redundant φ costs a full homomorphism sweep in Dect/PDect and spawns
// pivot tasks in IncDect/PIncDect, yet changes nothing about which graphs
// are clean: if Σ∖{φ} |= φ, any violation of φ is accompanied by a
// violation of some kept rule. MinimizeSigma computes a GREEDY IMPLICATION
// COVER: scan Σ in index order and drop φ whenever CheckImplication finds
// the remaining alive rules imply it, under a per-rule solver budget.
//
// Soundness: a rule is dropped only on an exact kYes (budget exhaustion
// keeps it), and implication is monotone in Σ, so by reverse induction on
// drop order the final kept set implies every dropped rule. Detection on
// the minimized set therefore preserves (a) graph cleanliness
// (Dect(G, Σ) empty ⟺ empty on Minimize(Σ)) and (b) the violations of
// every kept rule, exactly. kYes carries the same
// canonical-model-family caveat as the implication checker itself
// (satisfiability.h); the randomized differential harness
// (tests/sigma_optimizer_test.cc) locks the end-to-end equivalence down
// against all four detection engines.
//
// Cost control: the Σᵖ₂-flavoured solver only runs on PLAUSIBLE pairs.
//   - exact structural duplicates are dropped with no solver call at all;
//   - a structural pre-filter keeps, per candidate φ, only helper rules
//     whose pattern can embed into φ's canonical pattern graph (per-edge
//     label compatibility, wildcards one-sided: a helper wildcard matches
//     anything, a helper constant never matches φ's wildcard nodes — those
//     become fresh labels in the canonical model) and whose literals share
//     an attribute with φ's; the survivors go to the solver in index
//     order;
//   - the per-check budgets of SigmaOptimizerOptions bound one stubborn
//     pair, which then keeps its rule (kUnknown).
// Each stage is kept because a count shows it earns its place
// (EXPERIMENTS.md §20): without the duplicate pass other copies survive,
// without the pre-filter the kept set changes, and the budgets bound a
// detection call. Restricting helpers is sound: implication is monotone,
// so a kYes from a subset is a kYes from Σ∖{φ}; the pre-filter can only
// miss drops.
//
// Engines consume the optimizer through the `minimize_sigma` mode of
// DetectControl (detect/dect.h), the base of every engine's options
// struct, and run it through RunMinimized:
//   kNever  — detection runs Σ verbatim (the default and the oracle);
//   kAlways — minimize, run the kept rules, remap indices back to Σ;
//             the kept-set cache makes repeat calls pay a serialization
//             and a lookup only.
// The cache keys on a schema-independent structural serialization of Σ
// (label/attr NAMES, not interned ids), so production callers that detect
// per request against a stable catalog pay the solver once per catalog
// version and reuse the kept-set thereafter.

#ifndef NGD_REASON_SIGMA_OPTIMIZER_H_
#define NGD_REASON_SIGMA_OPTIMIZER_H_

#include <string>
#include <vector>

#include "core/ngd.h"
#include "detect/violation.h"
#include "reason/implication.h"

namespace ngd {

/// When detection engines minimize Σ before running.
enum class MinimizeMode : uint8_t {
  kNever = 0,  ///< run Σ verbatim (default; the equivalence oracle)
  kAlways,     ///< always minimize (first call pays, cache reuses)
};

struct SigmaOptimizerOptions {
  /// Per-rule solver budget for each implication check. Deliberately far
  /// below the ReasonOptions defaults: one stubborn pair must not stall a
  /// detection call, and kUnknown just keeps the rule.
  ReasonOptions reason = {{/*domain_bound=*/1000000,
                           /*max_branch_nodes=*/2000},
                          /*max_branches=*/4000,
                          /*max_obligations=*/64};
};

struct OptimizeReport {
  /// Original Σ indices of kept rules, ascending. Detection remaps the
  /// minimized set's rule indices through this table.
  std::vector<int> kept;
  /// Original Σ indices of dropped (implied) rules, ascending.
  std::vector<int> dropped;
  /// The implication cover, indexed by ORIGINAL Σ index: for each dropped
  /// rule d, implied_by[d] lists the original indices of the rules whose
  /// conjunction implied it (the single earlier copy for a duplicate
  /// drop; the helper set that produced the solver's kYes otherwise).
  /// Kept rules have empty lists; every dropped rule's list is non-empty.
  /// Edges always point to rules alive at drop time, so following them
  /// transitively from any dropped rule terminates in kept rules (a DAG
  /// ordered by drop order). RemapRunInfo walks it to propagate per-rule completion honestly.
  std::vector<std::vector<int>> implied_by;
  /// Implication checks that exhausted the budget (rule kept — an
  /// honest kUnknown is never treated as implied).
  size_t unknown = 0;
  /// Exact-duplicate drops (no solver run).
  size_t duplicate_drops = 0;
  /// Solver-backed implication checks actually run.
  size_t implication_checks = 0;
  /// Candidates resolved by the structural pre-filter alone (no helper
  /// survived, rule kept without a solver call).
  size_t prefilter_skips = 0;
  /// Wall-clock spent inside CheckImplication.
  double solver_seconds = 0.0;
  /// True when ResolveMinimizedSigma served the kept-set from the cache.
  bool from_cache = false;
};

struct MinimizedSigma {
  NgdSet sigma;  ///< the kept rules, in original relative order
  OptimizeReport report;
};

/// Computes the greedy implication cover of `sigma`. Always runs the
/// optimizer (no cache); engines go through ResolveMinimizedSigma instead.
/// Rules that fail Validate() are kept unconditionally.
MinimizedSigma MinimizeSigma(const NgdSet& sigma, const SchemaPtr& schema,
                             const SigmaOptimizerOptions& opts = {});

/// 64-bit digest of Σ's schema-independent structural serialization
/// (label/attr names, shapes, constants — not interned ids and not rule
/// names). Equal serializations ⟹ equal fingerprints ⟹ detection-
/// equivalent rule sets. The kept-set cache keys on the full
/// serialization (collision-free); this digest is the compact identity
/// for logs, reports and tests.
uint64_t FingerprintSigma(const NgdSet& sigma, const SchemaPtr& schema);

/// Engine entry point: resolves a MinimizeMode against the process-wide
/// cache. Returns true and fills *out when detection should run the
/// minimized set (something was actually dropped); false when Σ should
/// run verbatim (mode kNever, invalid Σ, or nothing droppable; the no-op
/// case skips the copy).
bool ResolveMinimizedSigma(const NgdSet& sigma, const SchemaPtr& schema,
                           MinimizeMode mode,
                           const SigmaOptimizerOptions& opts,
                           MinimizedSigma* out);

/// Test hook: drops every cached kept-set.
void ClearSigmaOptimizerCache();

/// Remaps rule indices of violations found against a minimized Σ back to
/// the original catalog via OptimizeReport::kept.
VioSet RemapViolations(VioSet vio, const std::vector<int>& kept);
DeltaVio RemapDelta(DeltaVio delta, const std::vector<int>& kept);

/// Remaps a DetectRunInfo produced against a minimized Σ back to the
/// caller's catalog: kept rules copy their marks; a dropped (implied)
/// rule is complete iff every rule on its implication cover
/// (OptimizeReport::implied_by, followed transitively to kept rules)
/// completed — its violations are covered by exactly those rules, so a
/// truncation elsewhere in the sweep does not poison its mark.
void RemapRunInfo(const DetectRunInfo& inner, const OptimizeReport& report,
                  size_t original_rules, DetectRunInfo* out);

/// The one minimized run every engine goes through. `opts` is an engine
/// options struct (derived from DetectControl); `detect(rules, o)` runs
/// the engine body on `rules` under `o`, and `remap(result, kept)` maps
/// its result's rule indices back to Σ (RemapViolations, RemapDelta).
/// When opts.minimize_sigma resolves to "run verbatim" (kNever, nothing
/// droppable) this is exactly
/// detect(sigma, opts). Otherwise detect runs once on the kept rules with
/// minimization cleared and a private run_info, whose marks RemapRunInfo
/// carries back into opts.run_info. Keeping this in ONE place means a
/// change to the resolve contract cannot drift across the engines.
template <typename Options, typename Detect, typename Remap>
auto RunMinimized(const NgdSet& sigma, const SchemaPtr& schema,
                  const Options& opts, const Detect& detect,
                  const Remap& remap) -> decltype(detect(sigma, opts)) {
  MinimizedSigma m;
  if (opts.minimize_sigma == MinimizeMode::kNever ||
      !ResolveMinimizedSigma(sigma, schema, opts.minimize_sigma,
                             SigmaOptimizerOptions(), &m)) {
    return detect(sigma, opts);
  }
  Options inner = opts;
  inner.minimize_sigma = MinimizeMode::kNever;
  DetectRunInfo inner_info;
  inner.run_info = &inner_info;
  auto result = remap(detect(m.sigma, inner), m.report.kept);
  if (opts.run_info != nullptr) {
    RemapRunInfo(inner_info, m.report, sigma.size(), opts.run_info);
  }
  return result;
}

}  // namespace ngd

#endif  // NGD_REASON_SIGMA_OPTIMIZER_H_
