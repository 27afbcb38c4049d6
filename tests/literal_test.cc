#include <gtest/gtest.h>

#include "core/literal.h"

namespace ngd {
namespace {

class LiteralTest : public ::testing::Test {
 protected:
  LiteralTest() : schema_(Schema::Create()), g_(schema_) {
    v0_ = g_.AddNode("n");
    v1_ = g_.AddNode("n");
    a_ = schema_->InternAttr("a");
    s_ = schema_->InternAttr("s");
    g_.SetAttr(v0_, a_, Value(int64_t{5}));
    g_.SetAttr(v0_, s_, Value("alpha"));
    g_.SetAttr(v1_, a_, Value(int64_t{8}));
    binding_ = {v0_, v1_};
  }

  SchemaPtr schema_;
  Graph g_;
  NodeId v0_, v1_;
  AttrId a_, s_;
  Binding binding_;
};

TEST_F(LiteralTest, IntegerComparisons) {
  struct Case {
    CmpOp op;
    Truth expect;
  };
  // 5 ⊗ 8
  for (Case c : {Case{CmpOp::kEq, Truth::kFalse}, Case{CmpOp::kNe, Truth::kTrue},
                 Case{CmpOp::kLt, Truth::kTrue}, Case{CmpOp::kLe, Truth::kTrue},
                 Case{CmpOp::kGt, Truth::kFalse},
                 Case{CmpOp::kGe, Truth::kFalse}}) {
    Literal lit(Expr::Var(0, a_), c.op, Expr::Var(1, a_));
    EXPECT_EQ(lit.Evaluate(g_, binding_), c.expect)
        << "op " << CmpOpName(c.op);
  }
}

TEST_F(LiteralTest, ArithmeticLiteral) {
  // 2*x.a - y.a = 2 -> 10 - 8 = 2: true.
  Literal lit(Expr::Sub(Expr::Mul(Expr::IntConst(2), Expr::Var(0, a_)),
                        Expr::Var(1, a_)),
              CmpOp::kEq, Expr::IntConst(2));
  EXPECT_EQ(lit.Evaluate(g_, binding_), Truth::kTrue);
}

TEST_F(LiteralTest, RationalComparisonIsExact) {
  // x.a / 2 = 5/2 — holds exactly despite odd numerator.
  Literal lit(Expr::Div(Expr::Var(0, a_), Expr::IntConst(2)), CmpOp::kEq,
              Expr::Div(Expr::IntConst(5), Expr::IntConst(2)));
  EXPECT_EQ(lit.Evaluate(g_, binding_), Truth::kTrue);
}

TEST_F(LiteralTest, StringEquality) {
  Literal eq(Expr::Var(0, s_), CmpOp::kEq, Expr::StrConst("alpha"));
  EXPECT_EQ(eq.Evaluate(g_, binding_), Truth::kTrue);
  Literal ne(Expr::Var(0, s_), CmpOp::kNe, Expr::StrConst("beta"));
  EXPECT_EQ(ne.Evaluate(g_, binding_), Truth::kTrue);
  Literal eq2(Expr::Var(0, s_), CmpOp::kEq, Expr::StrConst("beta"));
  EXPECT_EQ(eq2.Evaluate(g_, binding_), Truth::kFalse);
}

TEST_F(LiteralTest, NoOrderOnStrings) {
  Literal lt(Expr::Var(0, s_), CmpOp::kLt, Expr::StrConst("zzz"));
  EXPECT_EQ(lt.Evaluate(g_, binding_), Truth::kFalse);
}

TEST_F(LiteralTest, TypeMismatchIsFalse) {
  // int attr vs string constant.
  Literal lit(Expr::Var(0, a_), CmpOp::kEq, Expr::StrConst("5"));
  EXPECT_EQ(lit.Evaluate(g_, binding_), Truth::kFalse);
  // string attr vs int constant.
  Literal lit2(Expr::Var(0, s_), CmpOp::kNe, Expr::IntConst(1));
  EXPECT_EQ(lit2.Evaluate(g_, binding_), Truth::kFalse);
}

TEST_F(LiteralTest, MissingAttributeIsFalse) {
  // v1 has no 's' attribute: condition (a) fails.
  Literal lit(Expr::Var(1, s_), CmpOp::kEq, Expr::StrConst("x"));
  EXPECT_EQ(lit.Evaluate(g_, binding_), Truth::kFalse);
  Literal lit2(Expr::Var(1, s_), CmpOp::kNe, Expr::StrConst("x"));
  EXPECT_EQ(lit2.Evaluate(g_, binding_), Truth::kFalse);
}

TEST_F(LiteralTest, UnboundVariableIsNotReady) {
  Binding partial = {v0_, kInvalidNode};
  Literal lit(Expr::Var(0, a_), CmpOp::kLt, Expr::Var(1, a_));
  EXPECT_EQ(lit.Evaluate(g_, partial), Truth::kNotReady);
}

TEST_F(LiteralTest, NegateCmpOpInvolution) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    EXPECT_EQ(NegateCmpOp(NegateCmpOp(op)), op);
  }
  EXPECT_EQ(NegateCmpOp(CmpOp::kLt), CmpOp::kGe);
  EXPECT_EQ(NegateCmpOp(CmpOp::kEq), CmpOp::kNe);
}

TEST_F(LiteralTest, NegatedOpFlipsTruth) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kGe}) {
    Literal lit(Expr::Var(0, a_), op, Expr::Var(1, a_));
    Literal neg(Expr::Var(0, a_), NegateCmpOp(op), Expr::Var(1, a_));
    Truth t = lit.Evaluate(g_, binding_);
    Truth n = neg.Evaluate(g_, binding_);
    EXPECT_NE(t, n);
  }
}

TEST_F(LiteralTest, GfdLiteralClassification) {
  EXPECT_TRUE(Literal(Expr::Var(0, a_), CmpOp::kEq, Expr::IntConst(5))
                  .IsGfdLiteral());
  EXPECT_TRUE(Literal(Expr::Var(0, a_), CmpOp::kEq, Expr::Var(1, a_))
                  .IsGfdLiteral());
  EXPECT_TRUE(Literal(Expr::Var(0, s_), CmpOp::kEq, Expr::StrConst("x"))
                  .IsGfdLiteral());
  // Comparison beyond '=' is not a GFD literal.
  EXPECT_FALSE(Literal(Expr::Var(0, a_), CmpOp::kLe, Expr::IntConst(5))
                   .IsGfdLiteral());
  // Arithmetic is not a GFD literal.
  EXPECT_FALSE(Literal(Expr::Add(Expr::Var(0, a_), Expr::IntConst(1)),
                       CmpOp::kEq, Expr::IntConst(6))
                   .IsGfdLiteral());
  // Constant-only equality is excluded from the fragment.
  EXPECT_FALSE(Literal(Expr::IntConst(1), CmpOp::kEq, Expr::IntConst(1))
                   .IsGfdLiteral());
}

TEST_F(LiteralTest, ToStringIncludesOperator) {
  Literal lit(Expr::Var(0, a_), CmpOp::kGe, Expr::IntConst(3));
  EXPECT_EQ(lit.ToString({"x", "y"}, schema_->attrs()), "x.a >= 3");
}

}  // namespace
}  // namespace ngd
