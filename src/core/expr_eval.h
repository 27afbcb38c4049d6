// Backend-generic expression evaluation, internal to core/: Expr::Evaluate
// and Literal::Evaluate pick the backend once per call through
// GraphAccessor::Visit and then run this template, so no attribute read
// pays a backend branch.

#ifndef NGD_CORE_EXPR_EVAL_H_
#define NGD_CORE_EXPR_EVAL_H_

#include "core/expr.h"

namespace ngd::internal {

/// G supplies GetAttr(NodeId, AttrId): the live Graph, a GraphSnapshot
/// or a DeltaView.
template <typename G>
EvalResult EvaluateImpl(const Expr& e, const G& g, const Binding& binding) {
  switch (e.kind()) {
    case Expr::Kind::kIntConst:
      return EvalResult::Int(Rational(e.int_value()));
    case Expr::Kind::kStrConst:
      return EvalResult::Str(e.str_value());
    case Expr::Kind::kVarAttr: {
      int x = e.var_index();
      if (x < 0 || static_cast<size_t>(x) >= binding.size() ||
          binding[x] == kInvalidNode) {
        return EvalResult::Unbound();
      }
      const Value* v = g.GetAttr(binding[x], e.attr());
      if (v == nullptr) return EvalResult::Missing();
      if (v->is_int()) return EvalResult::Int(Rational(v->AsInt()));
      return EvalResult::Str(v->AsString());
    }
    case Expr::Kind::kNeg:
    case Expr::Kind::kAbs: {
      EvalResult l = EvaluateImpl(e.lhs(), g, binding);
      if (l.tag == EvalResult::Tag::kUnbound) return l;
      if (l.tag != EvalResult::Tag::kInt) return EvalResult::Missing();
      return EvalResult::Int(e.kind() == Expr::Kind::kNeg ? -l.num
                                                          : l.num.Abs());
    }
    default: {
      EvalResult l = EvaluateImpl(e.lhs(), g, binding);
      EvalResult r = EvaluateImpl(e.rhs(), g, binding);
      // Unbound dominates Missing: the literal may still become evaluable
      // once more variables are matched.
      if (l.tag == EvalResult::Tag::kUnbound ||
          r.tag == EvalResult::Tag::kUnbound) {
        return EvalResult::Unbound();
      }
      if (l.tag != EvalResult::Tag::kInt || r.tag != EvalResult::Tag::kInt) {
        return EvalResult::Missing();
      }
      switch (e.kind()) {
        case Expr::Kind::kAdd:
          return EvalResult::Int(l.num + r.num);
        case Expr::Kind::kSub:
          return EvalResult::Int(l.num - r.num);
        case Expr::Kind::kMul:
          return EvalResult::Int(l.num * r.num);
        case Expr::Kind::kDiv:
          if (r.num == Rational(0)) return EvalResult::Missing();
          return EvalResult::Int(l.num / r.num);
        default:
          return EvalResult::Missing();
      }
    }
  }
}

}  // namespace ngd::internal

#endif  // NGD_CORE_EXPR_EVAL_H_
