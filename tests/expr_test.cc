#include <gtest/gtest.h>

#include "core/expr.h"
#include "graph/accessor.h"

namespace ngd {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() : schema_(Schema::Create()), g_(schema_) {
    v0_ = g_.AddNode("n");
    v1_ = g_.AddNode("n");
    a_ = schema_->InternAttr("a");
    b_ = schema_->InternAttr("b");
    g_.SetAttr(v0_, a_, Value(int64_t{10}));
    g_.SetAttr(v0_, b_, Value("text"));
    g_.SetAttr(v1_, a_, Value(int64_t{-4}));
    binding_ = {v0_, v1_};
  }

  Rational EvalInt(const Expr& e) {
    EvalResult r = e.Evaluate(acc_, binding_);
    EXPECT_EQ(r.tag, EvalResult::Tag::kInt);
    return r.num;
  }

  SchemaPtr schema_;
  Graph g_;
  const GraphAccessor acc_{g_, GraphView::kNew};
  NodeId v0_, v1_;
  AttrId a_, b_;
  Binding binding_;
};

TEST_F(ExprTest, ConstantsEvaluate) {
  EXPECT_EQ(EvalInt(Expr::IntConst(7)), Rational(7));
  EvalResult s = Expr::StrConst("x").Evaluate(acc_, binding_);
  ASSERT_EQ(s.tag, EvalResult::Tag::kStr);
  EXPECT_EQ(s.str, "x");
}

TEST_F(ExprTest, VarAttrEvaluates) {
  EXPECT_EQ(EvalInt(Expr::Var(0, a_)), Rational(10));
  EXPECT_EQ(EvalInt(Expr::Var(1, a_)), Rational(-4));
}

TEST_F(ExprTest, MissingAttributeIsMissing) {
  EvalResult r = Expr::Var(1, b_).Evaluate(acc_, binding_);
  EXPECT_EQ(r.tag, EvalResult::Tag::kMissing);
}

TEST_F(ExprTest, UnboundVariableIsUnbound) {
  Binding partial = {v0_, kInvalidNode};
  EvalResult r = Expr::Var(1, a_).Evaluate(acc_, partial);
  EXPECT_EQ(r.tag, EvalResult::Tag::kUnbound);
}

TEST_F(ExprTest, UnboundDominatesMissingInBinaryOps) {
  Binding partial = {v0_, kInvalidNode};
  // v0.b is a string (missing in arithmetic); v1 unbound. The combined
  // expression must report unbound so matching can continue.
  Expr e = Expr::Add(Expr::Var(0, b_), Expr::Var(1, a_));
  EXPECT_EQ(e.Evaluate(acc_, partial).tag, EvalResult::Tag::kUnbound);
}

TEST_F(ExprTest, Arithmetic) {
  Expr sum = Expr::Add(Expr::Var(0, a_), Expr::Var(1, a_));
  EXPECT_EQ(EvalInt(sum), Rational(6));
  Expr diff = Expr::Sub(Expr::Var(0, a_), Expr::Var(1, a_));
  EXPECT_EQ(EvalInt(diff), Rational(14));
  Expr scaled = Expr::Mul(Expr::IntConst(3), Expr::Var(0, a_));
  EXPECT_EQ(EvalInt(scaled), Rational(30));
  Expr neg = Expr::Neg(Expr::Var(0, a_));
  EXPECT_EQ(EvalInt(neg), Rational(-10));
  Expr abs = Expr::Abs(Expr::Var(1, a_));
  EXPECT_EQ(EvalInt(abs), Rational(4));
}

TEST_F(ExprTest, DivisionIsExactRational) {
  Expr half = Expr::Div(Expr::Var(0, a_), Expr::IntConst(4));
  EXPECT_EQ(EvalInt(half), Rational(5, 2));  // 10/4, no truncation
  Expr restored = Expr::Mul(Expr::IntConst(4), half);
  EXPECT_EQ(EvalInt(restored), Rational(10));
}

TEST_F(ExprTest, DivisionByZeroIsMissing) {
  Expr e = Expr::Div(Expr::Var(0, a_), Expr::IntConst(0));
  EXPECT_EQ(e.Evaluate(acc_, binding_).tag, EvalResult::Tag::kMissing);
}

TEST_F(ExprTest, StringInArithmeticIsMissing) {
  Expr e = Expr::Add(Expr::Var(0, b_), Expr::IntConst(1));
  EXPECT_EQ(e.Evaluate(acc_, binding_).tag, EvalResult::Tag::kMissing);
  EXPECT_EQ(Expr::Abs(Expr::StrConst("s")).Evaluate(acc_, binding_).tag,
            EvalResult::Tag::kMissing);
}

TEST_F(ExprTest, DegreeComputation) {
  EXPECT_EQ(Expr::IntConst(5).Degree(), 0);
  EXPECT_EQ(Expr::Var(0, a_).Degree(), 1);
  Expr linear = Expr::Add(Expr::Mul(Expr::IntConst(2), Expr::Var(0, a_)),
                          Expr::Var(1, a_));
  EXPECT_EQ(linear.Degree(), 1);
  Expr quadratic = Expr::Mul(Expr::Var(0, a_), Expr::Var(1, a_));
  EXPECT_EQ(quadratic.Degree(), 2);
  EXPECT_EQ(Expr::Mul(quadratic, Expr::Var(0, b_)).Degree(), 3);
}

TEST_F(ExprTest, LinearityFragment) {
  EXPECT_TRUE(Expr::Var(0, a_).IsLinear());
  EXPECT_TRUE(Expr::Mul(Expr::IntConst(2), Expr::Var(0, a_)).IsLinear());
  EXPECT_TRUE(Expr::Div(Expr::Var(0, a_), Expr::IntConst(2)).IsLinear());
  EXPECT_TRUE(Expr::Abs(Expr::Sub(Expr::Var(0, a_), Expr::Var(1, a_)))
                  .IsLinear());
  // Degree-2 product: outside the NGD fragment (Theorem 3).
  EXPECT_FALSE(Expr::Mul(Expr::Var(0, a_), Expr::Var(1, a_)).IsLinear());
  // Division by a variable: e ÷ c requires a constant divisor.
  EXPECT_FALSE(Expr::Div(Expr::IntConst(1), Expr::Var(0, a_)).IsLinear());
  EXPECT_FALSE(Expr::Div(Expr::Var(0, a_), Expr::Var(1, a_)).IsLinear());
}

TEST_F(ExprTest, CollectVarsDeduplicates) {
  Expr e = Expr::Add(Expr::Var(0, a_),
                     Expr::Sub(Expr::Var(1, a_), Expr::Var(0, b_)));
  std::vector<int> vars;
  e.CollectVars(&vars);
  EXPECT_EQ(vars, (std::vector<int>{0, 1}));
}

TEST_F(ExprTest, ToStringRendersReadably) {
  std::vector<std::string> names{"x", "y"};
  Expr e = Expr::Sub(Expr::Var(0, a_), Expr::Var(1, a_));
  EXPECT_EQ(e.ToString(names, schema_->attrs()), "(x.a - y.a)");
  EXPECT_EQ(Expr::Abs(Expr::Var(0, a_)).ToString(names, schema_->attrs()),
            "abs(x.a)");
  EXPECT_EQ(Expr::StrConst("v").ToString(names, schema_->attrs()), "\"v\"");
}

TEST_F(ExprTest, StructuralSharingCopiesAreCheapAndIndependent) {
  Expr e = Expr::Add(Expr::Var(0, a_), Expr::IntConst(1));
  Expr copy = e;
  EXPECT_EQ(EvalInt(copy), Rational(11));
  EXPECT_EQ(EvalInt(e), Rational(11));
}

}  // namespace
}  // namespace ngd
