// Bridging NGD literals to the linear solver (reasoning substrate).
//
// The satisfiability / implication checkers work on CANDIDATE MODELS:
// concrete small graphs (canonical pattern graphs) whose attribute values
// are symbolic. Each (node, attribute) pair becomes an integer solver
// variable; asserting a literal true or false under a match h contributes
// linear constraints. Absolute values |e| are eliminated by case analysis
// (e ≥ 0 / e ≤ 0 alternatives), so one assertion may expand into several
// linear ALTERNATIVES — the checker branches over them.
//
// Attribute EXISTENCE is part of the model (paper: a literal is satisfied
// only if its attributes exist): the ConstraintSystem tracks per-variable
// presence. Falsifying a literal can be done either by negating its
// comparison (attributes present) or by dropping one of its attributes.
//
// Strings: equality/disequality with string constants is supported via a
// per-variable string domain; a variable cannot be both string- and
// integer-typed (the conflict makes the branch infeasible).

#ifndef NGD_REASON_CONSTRAINT_ENCODER_H_
#define NGD_REASON_CONSTRAINT_ENCODER_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/ngd.h"
#include "reason/linear_solver.h"

namespace ngd {

/// Symbolic attribute variable: attribute `attr` of model node `node`.
struct AttrVar {
  NodeId node;
  AttrId attr;
  bool operator==(const AttrVar& o) const {
    return node == o.node && attr == o.attr;
  }
};

struct AttrVarHash {
  size_t operator()(const AttrVar& v) const {
    return (static_cast<size_t>(v.node) << 20) ^ v.attr;
  }
};

class VarTable {
 public:
  int IdOf(const AttrVar& key);
  size_t size() const { return keys_.size(); }
  const AttrVar& KeyOf(int id) const { return keys_[id]; }

 private:
  std::vector<AttrVar> keys_;
  std::unordered_map<AttrVar, int, AttrVarHash> index_;
};

/// One linear alternative produced by abs-elimination: the constraints to
/// assert together.
struct NumericAlt {
  std::vector<LinConstraint> constraints;
};

/// Classification of a literal under a match.
enum class LitClass : uint8_t {
  kNumeric,     ///< pure linear arithmetic over integer attr vars
  kString,      ///< =/!= involving a string constant or string-typed vars
  kNeverTrue,   ///< cannot be satisfied (e.g. order comparison on strings)
};

struct EncodedLiteral {
  LitClass cls = LitClass::kNumeric;
  /// kNumeric: disjunctive alternatives (from abs case splits).
  std::vector<NumericAlt> alts;
  /// kString (bare-term =/!= with a string constant or var):
  std::optional<int> str_lhs_var;  ///< solver var id of lhs if VarAttr
  std::optional<int> str_rhs_var;
  std::optional<std::string> str_lhs_const;
  std::optional<std::string> str_rhs_const;
  CmpOp op = CmpOp::kEq;
  /// Attribute variables the literal mentions (presence prerequisites).
  std::vector<int> attr_vars;
};

/// Encodes literal truth (positive) or falsity-by-comparison (negated)
/// under the node binding `h`. The supported fragment is linear
/// arithmetic: products need a constant factor, divisors must be nonzero
/// constants, and string constants appear only in =/≠ against a bare
/// attribute (other string shapes decide to never-true). Anything else
/// (a non-linear product, a variable divisor, a string inside arithmetic)
/// fails with InvalidArgument.
StatusOr<EncodedLiteral> EncodeLiteral(const Literal& lit, bool positive,
                                       const Binding& h, VarTable* vars);

/// A branchable conjunction context: numeric constraints + string facts +
/// attribute presence/absence. Copy to branch; Check() decides
/// feasibility of the current conjunction.
class ConstraintSystem {
 public:
  explicit ConstraintSystem(SolverOptions solver_opts = {})
      : solver_opts_(solver_opts) {}

  /// Marks an attribute variable as required-present / absent.
  /// Returns false on conflict (var both required and absent).
  bool RequirePresent(int var);
  bool RequireAbsent(int var);

  void AddNumeric(const LinConstraint& c) { numeric_.push_back(c); }

  /// Number of numeric constraints asserted so far. The obligation case
  /// split probes feasibility (QuickCheck) only when this grew since the
  /// last probe — presence and string conflicts are already detected
  /// eagerly by RequirePresent/RequireAbsent/AddStringFact.
  size_t NumericCount() const { return numeric_.size(); }

  /// Asserts a string fact; returns false on immediate conflict.
  bool AddStringFact(const EncodedLiteral& lit, bool positive);

  /// Decides feasibility of everything asserted so far.
  SolveResult Check(const VarTable& vars) const;

  /// Budget-starved feasibility probe for branch pruning: runs the same
  /// pipeline with the branch-node budget clamped to a handful, so the
  /// answer comes from bounds propagation (plus a token amount of
  /// search). kUnsat is exact — safe to prune on; kSat/kUnknown just mean
  /// "keep going". The obligation case split calls this at every
  /// obligation boundary, which turns refutations that the leaf-only
  /// check reached in exponential time into linear walks.
  SolveResult QuickCheck(const VarTable& vars) const;

  /// Extracts a witness assignment (after Check() == kSat): integer
  /// values for numeric vars, strings for string vars.
  struct Witness {
    std::unordered_map<int, int64_t> ints;
    std::unordered_map<int, std::string> strings;
  };
  std::optional<Witness> BuildWitness(const VarTable& vars) const;

  const std::unordered_set<int>& present() const { return present_; }
  const std::unordered_set<int>& absent() const { return absent_; }

 private:
  SolveResult CheckWith(const VarTable& vars,
                        const SolverOptions& solver_opts) const;

  struct StringFacts {
    /// var -> forced constant (from positive equality with a constant).
    std::unordered_map<int, std::string> equals;
    /// var -> constants it must differ from.
    std::unordered_map<int, std::unordered_set<std::string>> not_equals;
    /// positive var-var equalities (union-find applied at Check time).
    std::vector<std::pair<int, int>> var_eq;
    std::vector<std::pair<int, int>> var_ne;
  };

  bool CheckStrings() const;

  SolverOptions solver_opts_;
  std::vector<LinConstraint> numeric_;
  StringFacts strings_;
  std::unordered_set<int> present_;
  std::unordered_set<int> absent_;
  std::unordered_set<int> int_typed_;
  std::unordered_set<int> str_typed_;

  friend class ConstraintSystemTestPeer;
};

}  // namespace ngd

#endif  // NGD_REASON_CONSTRAINT_ENCODER_H_
