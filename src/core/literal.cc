#include "core/literal.h"

#include <algorithm>

#include "core/expr_eval.h"
#include "graph/accessor.h"

namespace ngd {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

CmpOp NegateCmpOp(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return CmpOp::kNe;
    case CmpOp::kNe:
      return CmpOp::kEq;
    case CmpOp::kLt:
      return CmpOp::kGe;
    case CmpOp::kLe:
      return CmpOp::kGt;
    case CmpOp::kGt:
      return CmpOp::kLe;
    case CmpOp::kGe:
      return CmpOp::kLt;
  }
  return CmpOp::kEq;
}

int Literal::Degree() const {
  return std::max(lhs_.Degree(), rhs_.Degree());
}

bool Literal::IsGfdLiteral() const {
  if (op_ != CmpOp::kEq) return false;
  auto is_term = [](const Expr& e) {
    return e.kind() == Expr::Kind::kVarAttr ||
           e.kind() == Expr::Kind::kIntConst ||
           e.kind() == Expr::Kind::kStrConst;
  };
  if (!is_term(lhs_) || !is_term(rhs_)) return false;
  // At least one side must reference a variable (c = c' is degenerate but
  // harmless; keep it out of the GFD fragment for clarity).
  return lhs_.kind() == Expr::Kind::kVarAttr ||
         rhs_.kind() == Expr::Kind::kVarAttr;
}

void Literal::CollectVars(std::vector<int>* vars) const {
  lhs_.CollectVars(vars);
  rhs_.CollectVars(vars);
}

namespace {

/// Compares two evaluated sides under `op` (the type/missing discipline
/// of paper §3).
Truth CompareResults(const EvalResult& l, const EvalResult& r, CmpOp op) {
  if (l.tag == EvalResult::Tag::kUnbound ||
      r.tag == EvalResult::Tag::kUnbound) {
    return Truth::kNotReady;
  }
  if (l.tag == EvalResult::Tag::kMissing ||
      r.tag == EvalResult::Tag::kMissing) {
    return Truth::kFalse;  // condition (a): attribute must exist
  }
  if (l.tag == EvalResult::Tag::kStr && r.tag == EvalResult::Tag::kStr) {
    switch (op) {
      case CmpOp::kEq:
        return l.str == r.str ? Truth::kTrue : Truth::kFalse;
      case CmpOp::kNe:
        return l.str != r.str ? Truth::kTrue : Truth::kFalse;
      default:
        return Truth::kFalse;  // no order on strings in NGDs
    }
  }
  if (l.tag != EvalResult::Tag::kInt || r.tag != EvalResult::Tag::kInt) {
    return Truth::kFalse;  // int vs string type mismatch
  }
  bool holds = false;
  switch (op) {
    case CmpOp::kEq:
      holds = l.num == r.num;
      break;
    case CmpOp::kNe:
      holds = l.num != r.num;
      break;
    case CmpOp::kLt:
      holds = l.num < r.num;
      break;
    case CmpOp::kLe:
      holds = l.num <= r.num;
      break;
    case CmpOp::kGt:
      holds = l.num > r.num;
      break;
    case CmpOp::kGe:
      holds = l.num >= r.num;
      break;
  }
  return holds ? Truth::kTrue : Truth::kFalse;
}

}  // namespace

Truth Literal::Evaluate(const GraphAccessor& g, const Binding& binding) const {
  return g.Visit([&](const auto& backend) {
    return CompareResults(internal::EvaluateImpl(lhs_, backend, binding),
                          internal::EvaluateImpl(rhs_, backend, binding),
                          op_);
  });
}

std::string Literal::ToString(const std::vector<std::string>& var_names,
                              const Dictionary& attr_dict) const {
  return lhs_.ToString(var_names, attr_dict) + " " + CmpOpName(op_) + " " +
         rhs_.ToString(var_names, attr_dict);
}

}  // namespace ngd
