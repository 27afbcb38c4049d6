#include "core/expr.h"

#include <algorithm>

#include "core/expr_eval.h"
#include "graph/accessor.h"

namespace ngd {

Expr Expr::IntConst(int64_t v) {
  auto n = std::make_shared<Node>();
  n->kind = Kind::kIntConst;
  n->int_value = v;
  return Expr(std::move(n));
}

Expr Expr::StrConst(std::string s) {
  auto n = std::make_shared<Node>();
  n->kind = Kind::kStrConst;
  n->str_value = std::move(s);
  return Expr(std::move(n));
}

Expr Expr::Var(int var_index, AttrId attr) {
  auto n = std::make_shared<Node>();
  n->kind = Kind::kVarAttr;
  n->var_index = var_index;
  n->attr = attr;
  return Expr(std::move(n));
}

Expr Expr::Add(Expr l, Expr r) {
  auto n = std::make_shared<Node>();
  n->kind = Kind::kAdd;
  n->lhs = std::move(l.node_);
  n->rhs = std::move(r.node_);
  return Expr(std::move(n));
}

Expr Expr::Sub(Expr l, Expr r) {
  auto n = std::make_shared<Node>();
  n->kind = Kind::kSub;
  n->lhs = std::move(l.node_);
  n->rhs = std::move(r.node_);
  return Expr(std::move(n));
}

Expr Expr::Mul(Expr l, Expr r) {
  auto n = std::make_shared<Node>();
  n->kind = Kind::kMul;
  n->lhs = std::move(l.node_);
  n->rhs = std::move(r.node_);
  return Expr(std::move(n));
}

Expr Expr::Div(Expr l, Expr r) {
  auto n = std::make_shared<Node>();
  n->kind = Kind::kDiv;
  n->lhs = std::move(l.node_);
  n->rhs = std::move(r.node_);
  return Expr(std::move(n));
}

Expr Expr::Neg(Expr e) {
  auto n = std::make_shared<Node>();
  n->kind = Kind::kNeg;
  n->lhs = std::move(e.node_);
  return Expr(std::move(n));
}

Expr Expr::Abs(Expr e) {
  auto n = std::make_shared<Node>();
  n->kind = Kind::kAbs;
  n->lhs = std::move(e.node_);
  return Expr(std::move(n));
}

int Expr::Degree() const {
  switch (node_->kind) {
    case Kind::kIntConst:
    case Kind::kStrConst:
      return 0;
    case Kind::kVarAttr:
      return 1;
    case Kind::kAdd:
    case Kind::kSub:
      return std::max(lhs().Degree(), rhs().Degree());
    case Kind::kMul:
    case Kind::kDiv:
      return lhs().Degree() + rhs().Degree();
    case Kind::kNeg:
    case Kind::kAbs:
      return lhs().Degree();
  }
  return 0;
}

bool Expr::IsLinear() const {
  if (Degree() > 1) return false;
  switch (node_->kind) {
    case Kind::kIntConst:
    case Kind::kStrConst:
    case Kind::kVarAttr:
      return true;
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul:
      return lhs().IsLinear() && rhs().IsLinear();
    case Kind::kDiv:
      // e ÷ c: divisor must be constant (degree 0).
      return lhs().IsLinear() && rhs().Degree() == 0 &&
             rhs().IsLinear();
    case Kind::kNeg:
    case Kind::kAbs:
      return lhs().IsLinear();
  }
  return false;
}

void Expr::CollectVars(std::vector<int>* vars) const {
  switch (node_->kind) {
    case Kind::kIntConst:
    case Kind::kStrConst:
      return;
    case Kind::kVarAttr:
      if (std::find(vars->begin(), vars->end(), node_->var_index) ==
          vars->end()) {
        vars->push_back(node_->var_index);
      }
      return;
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul:
    case Kind::kDiv:
      lhs().CollectVars(vars);
      rhs().CollectVars(vars);
      return;
    case Kind::kNeg:
    case Kind::kAbs:
      lhs().CollectVars(vars);
      return;
  }
}

EvalResult Expr::Evaluate(const GraphAccessor& g,
                          const Binding& binding) const {
  return g.Visit([&](const auto& backend) {
    return internal::EvaluateImpl(*this, backend, binding);
  });
}

std::string Expr::ToString(const std::vector<std::string>& var_names,
                           const Dictionary& attr_dict) const {
  switch (node_->kind) {
    case Kind::kIntConst:
      return std::to_string(node_->int_value);
    case Kind::kStrConst:
      return "\"" + node_->str_value + "\"";
    case Kind::kVarAttr: {
      std::string var =
          node_->var_index >= 0 &&
                  static_cast<size_t>(node_->var_index) < var_names.size()
              ? var_names[node_->var_index]
              : "$" + std::to_string(node_->var_index);
      return var + "." + attr_dict.NameOf(node_->attr);
    }
    case Kind::kAdd:
      return "(" + lhs().ToString(var_names, attr_dict) + " + " +
             rhs().ToString(var_names, attr_dict) + ")";
    case Kind::kSub:
      return "(" + lhs().ToString(var_names, attr_dict) + " - " +
             rhs().ToString(var_names, attr_dict) + ")";
    case Kind::kMul:
      return "(" + lhs().ToString(var_names, attr_dict) + " * " +
             rhs().ToString(var_names, attr_dict) + ")";
    case Kind::kDiv:
      return "(" + lhs().ToString(var_names, attr_dict) + " / " +
             rhs().ToString(var_names, attr_dict) + ")";
    case Kind::kNeg:
      return "-" + lhs().ToString(var_names, attr_dict);
    case Kind::kAbs:
      return "abs(" + lhs().ToString(var_names, attr_dict) + ")";
  }
  return "?";
}

}  // namespace ngd
