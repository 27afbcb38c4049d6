// Arithmetic expressions over pattern variables (paper §3).
//
//   e ::= t | |e| | e + e | e − e | c × e | e ÷ c
//
// where a term t is an integer constant or x.A for a pattern variable x and
// attribute A. NGDs restrict e to be LINEAR (degree ≤ 1): Theorem 3 shows
// that permitting degree-2 expressions already makes satisfiability and
// implication undecidable, so Ngd::Validate and the parser reject
// non-linear expressions. The AST itself can represent e × e / e ÷ e with
// arbitrary degree — the reasoning tests exercise the rejection path.
//
// Expressions are immutable trees with structural sharing (cheap copies).
// Evaluation is exact over Q (see util/rational.h); string constants are
// admitted as bare leaves so =/!= literals cover GFD/CFD constant bindings.

#ifndef NGD_CORE_EXPR_H_
#define NGD_CORE_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/rational.h"

namespace ngd {

class GraphAccessor;

/// A (possibly partial) homomorphism: var index -> node id, kInvalidNode
/// when the variable is not yet matched.
using Binding = std::vector<NodeId>;

/// Three-valued evaluation outcome.
struct EvalResult {
  enum class Tag : uint8_t {
    kInt,      ///< numeric value in `num`
    kStr,      ///< string value in `str`
    kMissing,  ///< bound node lacks the attribute / type error / div by 0
    kUnbound,  ///< some referenced variable is not yet matched
  };
  Tag tag = Tag::kMissing;
  Rational num;
  // Owned copy: a pointer into the Expr node (or the graph) here would
  // dangle as soon as the expression or value it came from is destroyed.
  std::string str;

  static EvalResult Int(Rational r) {
    EvalResult e;
    e.tag = Tag::kInt;
    e.num = r;
    return e;
  }
  static EvalResult Str(std::string s) {
    EvalResult e;
    e.tag = Tag::kStr;
    e.str = std::move(s);
    return e;
  }
  static EvalResult Missing() { return EvalResult{}; }
  static EvalResult Unbound() {
    EvalResult e;
    e.tag = Tag::kUnbound;
    return e;
  }
};

class Expr {
 public:
  enum class Kind : uint8_t {
    kIntConst,
    kStrConst,
    kVarAttr,  ///< x.A
    kAdd,
    kSub,
    kMul,
    kDiv,
    kNeg,
    kAbs,
  };

  Expr() = default;  // empty expression; only valid as a placeholder

  static Expr IntConst(int64_t v);
  static Expr StrConst(std::string s);
  static Expr Var(int var_index, AttrId attr);
  static Expr Add(Expr l, Expr r);
  static Expr Sub(Expr l, Expr r);
  static Expr Mul(Expr l, Expr r);
  static Expr Div(Expr l, Expr r);
  static Expr Neg(Expr e);
  static Expr Abs(Expr e);

  bool IsValid() const { return node_ != nullptr; }
  Kind kind() const { return node_->kind; }

  /// Degree of the polynomial: 0 for constants, 1 for x.A, additive under
  /// ×. Division contributes the degree of both sides (a non-constant
  /// divisor is never linear). String constants have degree 0.
  int Degree() const;

  /// True iff Degree() <= 1 and every divisor subexpression is constant —
  /// the exact fragment NGDs admit (paper §3 / Theorem 3).
  bool IsLinear() const;

  /// Appends the distinct variable indices referenced, in first-use order.
  void CollectVars(std::vector<int>* vars) const;

  /// Exact evaluation under the (partial) binding; x.A terms read their
  /// attributes through `g`, whichever backend it wraps.
  EvalResult Evaluate(const GraphAccessor& g, const Binding& binding) const;

  /// Renders with the given variable names (pattern-provided) and schema
  /// attribute names.
  std::string ToString(const std::vector<std::string>& var_names,
                       const Dictionary& attr_dict) const;

  // Introspection for the reasoning module.
  int64_t int_value() const { return node_->int_value; }
  const std::string& str_value() const { return node_->str_value; }
  int var_index() const { return node_->var_index; }
  AttrId attr() const { return node_->attr; }
  Expr lhs() const { return Expr(node_->lhs); }
  Expr rhs() const { return Expr(node_->rhs); }

 private:
  struct Node {
    Kind kind;
    int64_t int_value = 0;
    std::string str_value;
    int var_index = -1;
    AttrId attr = 0;
    std::shared_ptr<const Node> lhs;
    std::shared_ptr<const Node> rhs;
  };

  explicit Expr(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

}  // namespace ngd

#endif  // NGD_CORE_EXPR_H_
