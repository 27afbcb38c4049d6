// Satisfiability and strong satisfiability of NGD sets (paper §4).
//
// Both problems are Σᵖ₂-complete; the paper's decision procedure guesses a
// model of size ≤ 3(|Σ|+1)⁵ and validates it with a coNP oracle — far
// beyond practical enumeration. ngdlib implements an exact decision over
// the CANONICAL-MODEL FAMILY:
//
//   - plain satisfiability tries, for each NGD, the canonical graph of its
//     pattern (pattern nodes/edges materialized; wildcard labels replaced
//     by globally fresh labels, playing the role of the paper's "label
//     'b'" in Example 5);
//   - strong satisfiability tries the disjoint union of all canonical
//     pattern graphs (every pattern finds a match, condition (b));
//   - attribute values are symbolic: every match of every pattern in the
//     candidate contributes the obligation h |= X → Y, discharged by
//     case-splitting (falsify an X literal — by negated comparison or by
//     dropping an attribute — or satisfy all of Y) over the exact integer
//     linear solver.
//
// Soundness: a kYes answer always comes with a concrete witness model.
// kNo means no model exists in the canonical family — exact for rule
// sets whose conflicts are forced through their own patterns (all of the
// paper's examples, and typical data-quality rule sets); a conceivable
// exotic model outside the family is not ruled out, which is the
// deliberate trade-off against the Σᵖ₂ search space.
// kUnknown is returned when solver budgets are exhausted.

#ifndef NGD_REASON_SATISFIABILITY_H_
#define NGD_REASON_SATISFIABILITY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/ngd.h"
#include "reason/constraint_encoder.h"

namespace ngd {

enum class Decision : uint8_t { kYes, kNo, kUnknown };

struct ReasonOptions {
  SolverOptions solver;
  /// Branch budget across the obligation case split.
  size_t max_branches = 200000;
  /// Obligation-count ceiling: candidates whose match set exceeds it are
  /// answered kUnknown up front (0 = unlimited). The Σ-optimizer caps
  /// this so one wildcard-dense pair cannot stall a detection call; the
  /// honest kUnknown just keeps the rule.
  size_t max_obligations = 0;
};

/// One per (NGD, match) pair on a candidate model: require X → Y to hold,
/// or (for implication witnesses) to be violated.
struct MatchObligation {
  const Ngd* ngd = nullptr;
  Binding h;
  bool require_violation = false;
};

struct ReasonOutcome {
  Decision decision = Decision::kUnknown;
  std::string detail;
};

/// Shared DPLL core: can all obligations hold simultaneously with some
/// assignment of (symbolic) attribute values / presence? kYes includes a
/// witness description in `detail`.
ReasonOutcome SolveObligations(const std::vector<MatchObligation>& obs,
                               VarTable* vars, const Graph& model,
                               const ReasonOptions& opts);

struct SatisfiabilityReport {
  Decision satisfiable = Decision::kUnknown;
  std::string detail;
};

/// Is there a graph G with G |= Σ and at least one pattern matched?
SatisfiabilityReport CheckSatisfiability(const NgdSet& sigma,
                                         const SchemaPtr& schema,
                                         const ReasonOptions& opts = {});

/// Is there a graph G with G |= Σ where EVERY pattern finds a match?
SatisfiabilityReport CheckStrongSatisfiability(const NgdSet& sigma,
                                               const SchemaPtr& schema,
                                               const ReasonOptions& opts = {});

/// Builds the canonical graph of the given patterns (disjoint union),
/// replacing wildcard labels with fresh labels. Exposed for the
/// implication checker and tests. `origin_offset[i]` receives the node id
/// where pattern i's nodes begin.
std::unique_ptr<Graph> BuildCanonicalModel(
    const std::vector<const Pattern*>& patterns, const SchemaPtr& schema,
    std::vector<NodeId>* origin_offset);

}  // namespace ngd

#endif  // NGD_REASON_SATISFIABILITY_H_
