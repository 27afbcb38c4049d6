#include <gtest/gtest.h>

#include "core/literal.h"
#include "graph/accessor.h"
#include "graph/delta_view.h"
#include "graph/snapshot.h"
#include "graph/updates.h"

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
  const GraphAccessor acc_{g_, GraphView::kNew};
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
    EXPECT_EQ(lit.Evaluate(acc_, binding_), c.expect)
        << "op " << CmpOpName(c.op);
  }
}

TEST_F(LiteralTest, ArithmeticLiteral) {
  // 2*x.a - y.a = 2 -> 10 - 8 = 2: true.
  Literal lit(Expr::Sub(Expr::Mul(Expr::IntConst(2), Expr::Var(0, a_)),
                        Expr::Var(1, a_)),
              CmpOp::kEq, Expr::IntConst(2));
  EXPECT_EQ(lit.Evaluate(acc_, binding_), Truth::kTrue);
}

TEST_F(LiteralTest, RationalComparisonIsExact) {
  // x.a / 2 = 5/2 — holds exactly despite odd numerator.
  Literal lit(Expr::Div(Expr::Var(0, a_), Expr::IntConst(2)), CmpOp::kEq,
              Expr::Div(Expr::IntConst(5), Expr::IntConst(2)));
  EXPECT_EQ(lit.Evaluate(acc_, binding_), Truth::kTrue);
}

TEST_F(LiteralTest, StringEquality) {
  Literal eq(Expr::Var(0, s_), CmpOp::kEq, Expr::StrConst("alpha"));
  EXPECT_EQ(eq.Evaluate(acc_, binding_), Truth::kTrue);
  Literal ne(Expr::Var(0, s_), CmpOp::kNe, Expr::StrConst("beta"));
  EXPECT_EQ(ne.Evaluate(acc_, binding_), Truth::kTrue);
  Literal eq2(Expr::Var(0, s_), CmpOp::kEq, Expr::StrConst("beta"));
  EXPECT_EQ(eq2.Evaluate(acc_, binding_), Truth::kFalse);
}

TEST_F(LiteralTest, NoOrderOnStrings) {
  Literal lt(Expr::Var(0, s_), CmpOp::kLt, Expr::StrConst("zzz"));
  EXPECT_EQ(lt.Evaluate(acc_, binding_), Truth::kFalse);
}

TEST_F(LiteralTest, TypeMismatchIsFalse) {
  // int attr vs string constant.
  Literal lit(Expr::Var(0, a_), CmpOp::kEq, Expr::StrConst("5"));
  EXPECT_EQ(lit.Evaluate(acc_, binding_), Truth::kFalse);
  // string attr vs int constant.
  Literal lit2(Expr::Var(0, s_), CmpOp::kNe, Expr::IntConst(1));
  EXPECT_EQ(lit2.Evaluate(acc_, binding_), Truth::kFalse);
}

TEST_F(LiteralTest, MissingAttributeIsFalse) {
  // v1 has no 's' attribute: condition (a) fails.
  Literal lit(Expr::Var(1, s_), CmpOp::kEq, Expr::StrConst("x"));
  EXPECT_EQ(lit.Evaluate(acc_, binding_), Truth::kFalse);
  Literal lit2(Expr::Var(1, s_), CmpOp::kNe, Expr::StrConst("x"));
  EXPECT_EQ(lit2.Evaluate(acc_, binding_), Truth::kFalse);
}

TEST_F(LiteralTest, UnboundVariableIsNotReady) {
  Binding partial = {v0_, kInvalidNode};
  Literal lit(Expr::Var(0, a_), CmpOp::kLt, Expr::Var(1, a_));
  EXPECT_EQ(lit.Evaluate(acc_, partial), Truth::kNotReady);
}

// One contract for every backend a search can evaluate literals through:
// on a graph carrying a pending batch, the live graph, a snapshot and a
// DeltaView, each in both views, return the same Truth for every literal
// and binding. Attributes do not depend on the view, and a node the batch
// created lies past the DeltaView's base snapshot, so the view reads it
// from the live graph.
TEST_F(LiteralTest, EveryBackendAgreesUnderAPendingBatch) {
  const LabelId e = schema_->InternLabel("e");
  const AttrId m = schema_->InternAttr("m");  // carried by no node
  const NodeId v2 = g_.AddNode("n");
  g_.SetAttr(v2, a_, Value(int64_t{-3}));  // no `s`
  ASSERT_TRUE(g_.AddEdge(v0_, v1_, e).ok());
  ASSERT_TRUE(g_.AddEdge(v1_, v2, e).ok());
  const GraphSnapshot base(g_, GraphView::kOld);

  const NodeId fresh = g_.AddNode("n");
  g_.SetAttr(fresh, a_, Value(int64_t{7}));
  g_.SetAttr(fresh, s_, Value("beta"));
  UpdateBatch batch;
  batch.updates = {{UpdateKind::kInsert, v0_, fresh, e},
                   {UpdateKind::kInsert, fresh, v2, e},
                   {UpdateKind::kDelete, v0_, v1_, e}};
  ASSERT_TRUE(ApplyUpdateBatch(&g_, &batch).ok());
  ASSERT_EQ(batch.size(), 3u);
  const GraphSnapshot old_snap(g_, GraphView::kOld);
  const GraphSnapshot new_snap(g_, GraphView::kNew);
  const DeltaView dv(base, g_, batch);
  ASSERT_EQ(base.NumNodes(), static_cast<size_t>(fresh));  // past the base

  const std::vector<std::pair<const char*, GraphAccessor>> backends = {
      {"live kOld", GraphAccessor(g_, GraphView::kOld)},
      {"live kNew", GraphAccessor(g_, GraphView::kNew)},
      {"snapshot kOld", GraphAccessor(old_snap)},
      {"snapshot kNew", GraphAccessor(new_snap)},
      {"delta view kOld", GraphAccessor(dv, GraphView::kOld)},
      {"delta view kNew", GraphAccessor(dv, GraphView::kNew)},
  };
  const Expr xa = Expr::Var(0, a_), ya = Expr::Var(1, a_);
  const Literal x_is_beta(Expr::Var(0, s_), CmpOp::kEq, Expr::StrConst("beta"));
  const std::vector<Literal> literals = {
      x_is_beta,
      Literal(xa, CmpOp::kLt, ya),
      Literal(Expr::Sub(Expr::Mul(Expr::IntConst(2), xa), ya), CmpOp::kEq,
              Expr::IntConst(3)),
      Literal(Expr::Div(xa, Expr::IntConst(2)), CmpOp::kGe,
              Expr::Sub(ya, Expr::IntConst(4))),
      Literal(Expr::Abs(Expr::Sub(xa, ya)), CmpOp::kLe, Expr::IntConst(3)),
      Literal(Expr::Neg(xa), CmpOp::kGt, ya),
      Literal(Expr::Var(0, s_), CmpOp::kNe, Expr::Var(1, s_)),
      Literal(Expr::Var(0, s_), CmpOp::kLt, ya),  // string vs int
      Literal(Expr::Var(0, m), CmpOp::kGe, Expr::IntConst(0)),
      Literal(xa, CmpOp::kEq, Expr::Var(2, a_)),  // variable 2 never bound
  };
  const std::vector<Binding> bindings = {
      {v0_, fresh}, {fresh, v2}, {v2, v0_}, {fresh, v1_}, {v1_, kInvalidNode}};

  int seen[3] = {0, 0, 0};
  for (const Binding& h : bindings) {
    for (const Literal& lit : literals) {
      const Truth want = lit.Evaluate(backends[1].second, h);
      ++seen[static_cast<int>(want)];
      for (const auto& [name, acc] : backends) {
        EXPECT_EQ(lit.Evaluate(acc, h), want)
            << name << ": " << lit.ToString({"x", "y", "z"}, schema_->attrs())
            << " at (" << h[0] << ", " << h[1] << ")";
      }
    }
  }
  // The matrix exercises all three outcomes, and the created node's
  // attributes are really read: x.s = "beta" holds at x = fresh.
  EXPECT_GT(seen[static_cast<int>(Truth::kTrue)], 0);
  EXPECT_GT(seen[static_cast<int>(Truth::kFalse)], 0);
  EXPECT_GT(seen[static_cast<int>(Truth::kNotReady)], 0);
  EXPECT_EQ(x_is_beta.Evaluate(GraphAccessor(dv, GraphView::kOld), {fresh, v2}),
            Truth::kTrue);
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
    Truth t = lit.Evaluate(acc_, binding_);
    Truth n = neg.Evaluate(acc_, binding_);
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
