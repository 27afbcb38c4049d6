// Literals l = e1 ⊗ e2 with ⊗ ∈ {=, ≠, <, ≤, >, ≥} (paper §3).
//
// Satisfaction of a literal by a match h (paper semantics):
//   (a) every term x.A must be carried by node h(x), and
//   (b) h(e1) ⊗ h(e2) must hold.
// Order comparisons are defined on integers; =/≠ additionally on strings.
// A type mismatch or missing attribute makes the literal UNSATISFIED —
// exactly condition (a). During backtracking search variables may still be
// unbound, so evaluation is three-valued (kTrue / kFalse / kNotReady).

#ifndef NGD_CORE_LITERAL_H_
#define NGD_CORE_LITERAL_H_

#include <string>
#include <vector>

#include "core/expr.h"

namespace ngd {

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);
CmpOp NegateCmpOp(CmpOp op);

enum class Truth : uint8_t {
  kTrue,
  kFalse,
  kNotReady,  ///< some variable unbound; re-evaluate later
};

class Literal {
 public:
  Literal() = default;
  Literal(Expr lhs, CmpOp op, Expr rhs)
      : lhs_(std::move(lhs)), op_(op), rhs_(std::move(rhs)) {}

  const Expr& lhs() const { return lhs_; }
  const Expr& rhs() const { return rhs_; }
  CmpOp op() const { return op_; }

  /// True iff both sides are linear (the NGD fragment).
  bool IsLinear() const { return lhs_.IsLinear() && rhs_.IsLinear(); }
  int Degree() const;

  /// GFD-form literal: x.A = c or x.A = y.B (equality between bare terms).
  /// NGDs restricted to such literals are exactly the GFDs of [23, 24].
  bool IsGfdLiteral() const;

  void CollectVars(std::vector<int>* vars) const;

  /// Three-valued evaluation under a partial binding. kFalse includes the
  /// attribute-missing and type-mismatch cases (condition (a)). Both sides
  /// read attributes through `g`, which picks its backend once per call.
  Truth Evaluate(const GraphAccessor& g, const Binding& binding) const;

  std::string ToString(const std::vector<std::string>& var_names,
                       const Dictionary& attr_dict) const;

 private:
  Expr lhs_;
  CmpOp op_ = CmpOp::kEq;
  Expr rhs_;
};

}  // namespace ngd

#endif  // NGD_CORE_LITERAL_H_
