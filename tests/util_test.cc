#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "util/hash.h"
#include "util/rational.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace ngd {
namespace {

// ---- Status / StatusOr ----------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad rule");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad rule");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad rule");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kCorruption, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kResourceExhausted}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::OutOfRange("not positive");
  return v;
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> good = ParsePositive(4);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 4);
  StatusOr<int> bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

StatusOr<int> UsesAssignOrReturn(int v) {
  NGD_ASSIGN_OR_RETURN(int doubled, ParsePositive(v));
  return doubled * 2;
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto ok = UsesAssignOrReturn(3);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 6);
  EXPECT_FALSE(UsesAssignOrReturn(0).ok());
}

// ---- Rng -------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextUint64() != b.NextUint64()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(5);
  size_t low = 0;
  const size_t trials = 4000;
  for (size_t i = 0; i < trials; ++i) {
    if (rng.Zipf(50, 1.2) < 5) ++low;
  }
  // Uniform would put ~10% in the first 5 ranks; zipf(1.2) far more.
  EXPECT_GT(low, trials / 4);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(5);
  for (size_t n : {size_t{1}, size_t{10}, size_t{100}, size_t{5000}}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Zipf(n, 0.9), n);
    }
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  EXPECT_NE(a.NextUint64(), child.NextUint64());
}

// ---- Rational --------------------------------------------------------------

TEST(HashTest, Fnv1a64MatchesPublishedVectors) {
  // Every checksummed format and the Σ-cache key depend on these bytes:
  // the empty input hashes to the offset basis, and "a" to the published
  // FNV-1a 64 test vector.
  EXPECT_EQ(Fnv1a64("", 0), 14695981039346656037ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  // Chaining through the seed equals hashing the concatenation.
  EXPECT_EQ(Fnv1a64("b", 1, Fnv1a64("a", 1)), Fnv1a64("ab", 2));
}

TEST(RationalTest, NormalizesSignAndGcd) {
  Rational r(6, -4);
  EXPECT_EQ(r.num(), -3);
  EXPECT_EQ(r.den(), 2);
  EXPECT_EQ(Rational(0, 7), Rational(0));
}

TEST(RationalTest, Arithmetic) {
  Rational half(1, 2), third(1, 3);
  EXPECT_EQ(half + third, Rational(5, 6));
  EXPECT_EQ(half - third, Rational(1, 6));
  EXPECT_EQ(half * third, Rational(1, 6));
  EXPECT_EQ(half / third, Rational(3, 2));
  EXPECT_EQ(-half, Rational(-1, 2));
  EXPECT_EQ(Rational(-7, 3).Abs(), Rational(7, 3));
}

TEST(RationalTest, DivisionRoundTripsExactly) {
  // (x / 2) * 2 == x must hold for odd x — the reason evaluation is
  // rational rather than integer-truncating.
  Rational x(7);
  EXPECT_EQ(x / Rational(2) * Rational(2), x);
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_NE(Rational(1, 3), Rational(2, 3));
}

TEST(RationalTest, LargeValueComparisonDoesNotOverflow) {
  Rational big1(int64_t{3037000498}, 1);
  Rational big2(int64_t{3037000499}, 1);
  EXPECT_LT(big1, big2);
  EXPECT_LT(Rational(1, int64_t{1000000007}),
            Rational(2, int64_t{1000000007}));
}

TEST(RationalTest, ToStringAndToInteger) {
  EXPECT_EQ(Rational(5).ToString(), "5");
  EXPECT_EQ(Rational(5, 2).ToString(), "5/2");
  EXPECT_TRUE(Rational(10, 5).IsInteger());
  EXPECT_EQ(Rational(10, 5).ToInteger(), 2);
}

TEST(RationalTest, NormalizeAtInt64Min) {
  // Negating INT64_MIN was signed-overflow UB in 64-bit normalization;
  // these must be exact (and clean under UBSan).
  Rational min_over_one(INT64_MIN, 1);
  EXPECT_EQ(min_over_one.num(), INT64_MIN);
  EXPECT_EQ(min_over_one.den(), 1);

  // den < 0 flips both signs: -INT64_MIN/2 = 2^62 is representable after
  // gcd reduction.
  Rational flipped(INT64_MIN, -2);
  EXPECT_EQ(flipped.num(), int64_t{1} << 62);
  EXPECT_EQ(flipped.den(), 1);

  Rational halved(INT64_MIN, 2);
  EXPECT_EQ(halved.num(), -(int64_t{1} << 62));
  EXPECT_EQ(halved.den(), 1);

  EXPECT_EQ(Rational(INT64_MIN, INT64_MIN), Rational(1));
}

TEST(RationalTest, ArithmeticAtInt64Extremes) {
  // Abs/negation of the most negative representable fraction p/q with
  // q > 1 (INT64_MIN is even, so pair it with an odd denominator).
  Rational r(INT64_MIN + 1, 3);
  EXPECT_EQ((-r).num(), -(INT64_MIN + 1));
  EXPECT_EQ(r.Abs(), -r);

  // Multiplication routes through 128 bits: cross-reduction alone used
  // to leave a silently wrapping 64-bit multiply.
  Rational big(int64_t{1} << 40);
  EXPECT_EQ(big * Rational(int64_t{1} << 22), Rational(int64_t{1} << 62));
  EXPECT_EQ(Rational(INT64_MAX) * Rational(1, INT64_MAX), Rational(1));
  EXPECT_EQ(Rational(INT64_MAX, 2) * Rational(2, INT64_MAX), Rational(1));
  EXPECT_EQ(Rational(INT64_MAX) / Rational(INT64_MAX), Rational(1));

  // (x ÷ 2) × 2 = x at the extremes — the exactness Rational exists for.
  EXPECT_EQ(Rational(INT64_MAX) / 2 * 2, Rational(INT64_MAX));
  EXPECT_EQ(Rational(INT64_MIN) / 2 * 2, Rational(INT64_MIN));

  // Subtraction and division go through exact 128-bit intermediates: a
  // representable result must never abort, even where the negated or
  // reciprocal operand would be unrepresentable on its own.
  EXPECT_EQ(Rational(INT64_MIN) - Rational(INT64_MIN), Rational(0));
  EXPECT_EQ(Rational(INT64_MIN) / Rational(INT64_MIN), Rational(1));
  EXPECT_EQ(Rational(INT64_MIN) / Rational(2), Rational(-(int64_t{1} << 62)));
  EXPECT_EQ(Rational(2) / Rational(INT64_MIN),
            Rational(-1, int64_t{1} << 62));
}

TEST(RationalTest, ToDoubleIsExactOnRepresentableValues) {
  EXPECT_EQ(Rational(0).ToDouble(), 0.0);
  EXPECT_EQ(Rational(1, 2).ToDouble(), 0.5);
  EXPECT_EQ(Rational(-3, 4).ToDouble(), -0.75);
  EXPECT_EQ(Rational(1, 3).ToDouble(), 1.0 / 3.0);
  // Integers up to 2^53 and dyadic fractions are exact by contract.
  EXPECT_EQ(Rational(int64_t{1} << 53).ToDouble(),
            9007199254740992.0);
  EXPECT_EQ(Rational((int64_t{1} << 53) - 1, int64_t{1} << 10).ToDouble(),
            9007199254740991.0 / 1024.0);
  // Sign and magnitude survive at the int64 rim (never overflows).
  EXPECT_EQ(Rational(INT64_MIN).ToDouble(), -9223372036854775808.0);
  EXPECT_GT(Rational(INT64_MAX, 3).ToDouble(), 3.0e18);
}

TEST(RationalTest, ToDoubleHugeNumeratorRegression) {
  // Huge-component quotients: the old double(num)/double(den) rounded
  // each int64 to 53 bits BEFORE dividing, compounding to multi-ulp
  // error. The widest-hardware-float contract requires ≤ 1 ulp of the
  // naive value always, and — where long double carries a 64-bit
  // mantissa (x86-64) — the correctly-rounded quotient itself.
  struct Case {
    int64_t num, den;
  };
  const Case cases[] = {
      {65087388489954841, 5299475676119306768},
      {12344750046124580, 29779593377879467},
      {165921603844198924, 19101073637333688},
      {806883593148498509, 154759624768608863},
      {192279616572508575, 500964903060065220},
      {62060824326624300, 59358982281248434},
      {16018723570806404, 1369904483839597488},
      {751810329574314310, 232059269233279135},
  };
  size_t differs_from_naive = 0;
  for (const Case& c : cases) {
    const Rational r(c.num, c.den);
    const double got = r.ToDouble();
    const double reference = static_cast<double>(
        static_cast<long double>(r.num()) /
        static_cast<long double>(r.den()));
    EXPECT_EQ(got, reference) << c.num << "/" << c.den;
    const double naive = static_cast<double>(r.num()) /
                         static_cast<double>(r.den());
    // Never drift beyond a neighbouring double of the naive quotient.
    EXPECT_LE(std::abs(got - naive),
              std::abs(std::nextafter(naive, got) - naive) +
                  std::abs(naive) * 1e-15)
        << c.num << "/" << c.den;
    if (got != naive) ++differs_from_naive;
  }
  // On a 64-bit-mantissa long double these pairs are the ones where the
  // naive division was off (a few reduce under gcd normalization and
  // coincide again); if the platform's long double is no wider than
  // double the two always coincide and the sweep is vacuous.
  if (static_cast<long double>((int64_t{1} << 60) + 1) !=
      static_cast<long double>(int64_t{1} << 60)) {
    EXPECT_GE(differs_from_naive, 4u);
  }
}

TEST(RationalDeathTest, GuardsStayActiveInReleaseBuilds) {
  // Zero denominators, division by zero, and unrepresentable results are
  // fatal even under NDEBUG — silent wraparound would corrupt detection.
  EXPECT_DEATH(Rational(1, 0), "zero denominator");
  EXPECT_DEATH(Rational(1) / Rational(0), "division by zero");
  EXPECT_DEATH(-Rational(INT64_MIN), "negation overflow");
  EXPECT_DEATH(Rational(INT64_MAX) * Rational(INT64_MAX),
               "multiplication overflow");
  EXPECT_DEATH(Rational(INT64_MAX) + Rational(1), "addition overflow");
  EXPECT_DEATH(Rational(INT64_MIN, -1), "normalization overflow");
}

// ---- String helpers ---------------------------------------------------------

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt64("12x").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
}

}  // namespace
}  // namespace ngd
