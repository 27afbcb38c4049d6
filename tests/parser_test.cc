#include <gtest/gtest.h>

#include "core/parser.h"
#include "graph/accessor.h"
#include "test_util.h"

namespace ngd {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = Schema::Create();
};

TEST_F(ParserTest, ParsesMinimalRule) {
  auto ngd = ParseNgd(R"(
    ngd r1 {
      match (x:person)
      then x.age >= 0
    })",
                      schema_);
  ASSERT_TRUE(ngd.ok()) << ngd.status().ToString();
  EXPECT_EQ(ngd->name(), "r1");
  EXPECT_EQ(ngd->pattern().NumNodes(), 1u);
  EXPECT_EQ(ngd->pattern().NumEdges(), 0u);
  EXPECT_TRUE(ngd->X().empty());
  EXPECT_EQ(ngd->Y().size(), 1u);
}

TEST_F(ParserTest, ParsesEdgesAndLabels) {
  auto ngd = ParseNgd(R"(
    ngd r {
      match (x:person)-[knows]->(y:person), (y)-[lives_in]->(z:city)
      then z.population >= 0
    })",
                      schema_);
  ASSERT_TRUE(ngd.ok()) << ngd.status().ToString();
  EXPECT_EQ(ngd->pattern().NumNodes(), 3u);
  EXPECT_EQ(ngd->pattern().NumEdges(), 2u);
  // y was declared with a label at first mention, bare at second.
  int y = ngd->pattern().FindVar("y");
  EXPECT_EQ(ngd->pattern().node(y).label, *schema_->labels().Find("person"));
}

TEST_F(ParserTest, WildcardAndLateLabeling) {
  auto ngd = ParseNgd(R"(
    ngd r {
      match (x)-[e]->(y), (x:city)
      then x.population >= 0
    })",
                      schema_);
  ASSERT_TRUE(ngd.ok()) << ngd.status().ToString();
  int x = ngd->pattern().FindVar("x");
  int y = ngd->pattern().FindVar("y");
  EXPECT_EQ(ngd->pattern().node(x).label, *schema_->labels().Find("city"));
  EXPECT_EQ(ngd->pattern().node(y).label, kWildcardLabel);
}

TEST_F(ParserTest, ExplicitWildcardLabel) {
  auto ngd = ParseNgd(R"(
    ngd r { match (x:_)-[e]->(y:date) then y.val >= 0 })",
                      schema_);
  ASSERT_TRUE(ngd.ok());
  EXPECT_EQ(ngd->pattern().node(0).label, kWildcardLabel);
}

TEST_F(ParserTest, WhereTrueMeansEmptyX) {
  auto ngd = ParseNgd(R"(
    ngd r { match (x:a)-[e]->(y:b) where true then x.v = y.v })",
                      schema_);
  ASSERT_TRUE(ngd.ok());
  EXPECT_TRUE(ngd->X().empty());
}

TEST_F(ParserTest, MultipleLiteralsAndOperators) {
  auto ngd = ParseNgd(R"(
    ngd r {
      match (x:a)-[e]->(y:b)
      where x.v >= 1, x.v != 7, y.w <= 10
      then x.v < y.w, x.v + y.w > 0
    })",
                      schema_);
  ASSERT_TRUE(ngd.ok()) << ngd.status().ToString();
  EXPECT_EQ(ngd->X().size(), 3u);
  EXPECT_EQ(ngd->Y().size(), 2u);
  EXPECT_EQ(ngd->X()[1].op(), CmpOp::kNe);
}

TEST_F(ParserTest, ArithmeticPrecedenceAndParens) {
  auto ngd = ParseNgd(R"(
    ngd r {
      match (x:a)-[e]->(y:b)
      then 2 * (x.v - y.v) + x.v / 4 >= -3
    })",
                      schema_);
  ASSERT_TRUE(ngd.ok()) << ngd.status().ToString();
  // Check via evaluation: x.v = 8, y.v = 2 -> 2*(6) + 2 = 14 >= -3 true.
  SchemaPtr s2 = schema_;
  Graph g(s2);
  NodeId a = g.AddNode("a"), b = g.AddNode("b");
  g.SetAttr(a, "v", Value(int64_t{8}));
  g.SetAttr(b, "v", Value(int64_t{2}));
  Binding h = {a, b};
  EXPECT_EQ(ngd->Y()[0].Evaluate(GraphAccessor(g, GraphView::kNew), h),
            Truth::kTrue);
}

TEST_F(ParserTest, AbsFunction) {
  auto ngd = ParseNgd(R"(
    ngd r { match (x:a)-[e]->(y:a) then abs(x.v - y.v) <= 5 })",
                      schema_);
  ASSERT_TRUE(ngd.ok()) << ngd.status().ToString();
}

TEST_F(ParserTest, StringLiterals) {
  auto ngd = ParseNgd(R"(
    ngd r {
      match (x:event)-[has]->(y:tag)
      where x.type = "Olympic"
      then y.val != "living people"
    })",
                      schema_);
  ASSERT_TRUE(ngd.ok()) << ngd.status().ToString();
}

TEST_F(ParserTest, QuotedEdgeAndNodeLabels) {
  auto ngd = ParseNgd(R"(
    ngd r { match (x:"weird label")-["has-part"]->(y:b) then y.v >= 0 })",
                      schema_);
  ASSERT_TRUE(ngd.ok()) << ngd.status().ToString();
  EXPECT_TRUE(schema_->labels().Find("weird label").has_value());
  EXPECT_TRUE(schema_->labels().Find("has-part").has_value());
}

TEST_F(ParserTest, CommentsAreIgnored) {
  auto set = ParseNgds(R"(
    # leading comment
    ngd r { // trailing comment
      match (x:a)-[e]->(y:b)  # mid comment
      then x.v = y.v
    })",
                       schema_);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->size(), 1u);
}

TEST_F(ParserTest, MultipleRulesInOneFile) {
  auto set = ParseNgds(std::string(testing_util::kPhi1) +
                           testing_util::kPhi2 + testing_util::kPhi3 +
                           testing_util::kPhi4,
                       schema_);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->size(), 4u);
  // φ4: x, y, w, m1, m2, n1, n2, s1, s2 — 9 pattern nodes.
  EXPECT_EQ((*set)[3].pattern().NumNodes(), 9u);
  EXPECT_EQ((*set)[3].X().size(), 2u);
}

TEST_F(ParserTest, OperatorAliases) {
  auto ngd = ParseNgd(R"(
    ngd r { match (x:a)-[e]->(y:b) where x.v == 1, x.w <> 2 then y.v = 0 })",
                      schema_);
  ASSERT_TRUE(ngd.ok()) << ngd.status().ToString();
  EXPECT_EQ(ngd->X()[0].op(), CmpOp::kEq);
  EXPECT_EQ(ngd->X()[1].op(), CmpOp::kNe);
}

// ---- Error cases ------------------------------------------------------------

TEST_F(ParserTest, RejectsUnknownVariableInLiteral) {
  auto ngd = ParseNgd(
      "ngd r { match (x:a)-[e]->(y:b) then z.v = 1 }", schema_);
  ASSERT_FALSE(ngd.ok());
  EXPECT_NE(ngd.status().message().find("unknown pattern variable"),
            std::string::npos);
}

TEST_F(ParserTest, RejectsInconsistentRelabeling) {
  auto ngd = ParseNgd(
      "ngd r { match (x:a)-[e]->(y:b), (x:c)-[e]->(y) then y.v = 1 }",
      schema_);
  ASSERT_FALSE(ngd.ok());
  EXPECT_NE(ngd.status().message().find("relabelled"), std::string::npos);
}

TEST_F(ParserTest, RejectsNonLinearRule) {
  auto ngd = ParseNgd(
      "ngd r { match (x:a)-[e]->(y:b) then x.v * y.v = 1 }", schema_);
  ASSERT_FALSE(ngd.ok());
  EXPECT_NE(ngd.status().message().find("Theorem 3"), std::string::npos);
}

TEST_F(ParserTest, RejectsWildcardEdgeLabel) {
  auto ngd =
      ParseNgd("ngd r { match (x:a)-[_]->(y:b) then y.v = 1 }", schema_);
  ASSERT_FALSE(ngd.ok());
}

TEST_F(ParserTest, RejectsMissingThen) {
  auto ngd = ParseNgd("ngd r { match (x:a)-[e]->(y:b) }", schema_);
  ASSERT_FALSE(ngd.ok());
}

TEST_F(ParserTest, RejectsUnterminatedString) {
  auto ngd = ParseNgd(
      "ngd r { match (x:a) then x.v = \"oops }", schema_);
  ASSERT_FALSE(ngd.ok());
}

TEST_F(ParserTest, RejectsDuplicatePatternEdge) {
  auto ngd = ParseNgd(
      "ngd r { match (x:a)-[e]->(y:b), (x)-[e]->(y) then y.v = 1 }",
      schema_);
  ASSERT_FALSE(ngd.ok());
}

TEST_F(ParserTest, ErrorsCarryLineNumbers) {
  auto ngd = ParseNgd("ngd r {\n  match (x:a)\n  then z.v = 1\n}", schema_);
  ASSERT_FALSE(ngd.ok());
  EXPECT_NE(ngd.status().message().find("line 3"), std::string::npos);
}

}  // namespace
}  // namespace ngd
