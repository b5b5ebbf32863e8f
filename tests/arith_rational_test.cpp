#include "cqa/arith/rational.h"

#include <random>

#include <gtest/gtest.h>

#include "cqa/arith/interval.h"

namespace cqa {
namespace {

TEST(Rational, Normalization) {
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, 4), Rational(1, -2));
  EXPECT_EQ(Rational(0, 7), Rational());
  EXPECT_EQ(Rational(0, -7).den(), BigInt(1));
  EXPECT_EQ(Rational(6, -3), Rational(-2));
  EXPECT_GT(Rational(3, 7).den(), BigInt(0));
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
  EXPECT_EQ(Rational(3, 5).inverse(), Rational(5, 3));
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_EQ(Rational(2, 6).cmp(Rational(1, 3)), 0);
  EXPECT_GT(Rational(7, 2), Rational(3));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), BigInt(3));
  EXPECT_EQ(Rational(7, 2).ceil(), BigInt(4));
  EXPECT_EQ(Rational(-7, 2).floor(), BigInt(-4));
  EXPECT_EQ(Rational(-7, 2).ceil(), BigInt(-3));
  EXPECT_EQ(Rational(4).floor(), BigInt(4));
  EXPECT_EQ(Rational(4).ceil(), BigInt(4));
}

TEST(Rational, Parsing) {
  EXPECT_EQ(Rational::parse("3/4"), Rational(3, 4));
  EXPECT_EQ(Rational::parse("-3/4"), Rational(-3, 4));
  EXPECT_EQ(Rational::parse("3/-4"), Rational(-3, 4));
  EXPECT_EQ(Rational::parse("5"), Rational(5));
  EXPECT_EQ(Rational::parse("3.25"), Rational(13, 4));
  EXPECT_EQ(Rational::parse("-0.5"), Rational(-1, 2));
  EXPECT_EQ(Rational::parse("-.5"), Rational(-1, 2));
  EXPECT_FALSE(Rational::from_string("1/0").is_ok());
  EXPECT_FALSE(Rational::from_string("x").is_ok());
  EXPECT_FALSE(Rational::from_string("1.").is_ok());
}

TEST(Rational, ToString) {
  EXPECT_EQ(Rational(1, 2).to_string(), "1/2");
  EXPECT_EQ(Rational(-3).to_string(), "-3");
  EXPECT_EQ(Rational(-1, 2).to_string(), "-1/2");
}

TEST(Rational, Pow) {
  EXPECT_EQ(Rational::pow(Rational(2, 3), 3), Rational(8, 27));
  EXPECT_EQ(Rational::pow(Rational(2, 3), -2), Rational(9, 4));
  EXPECT_EQ(Rational::pow(Rational(5), 0), Rational(1));
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-1, 3).to_double(), -1.0 / 3.0);
  // Huge numerator/denominator should still produce a finite sane value.
  Rational big(BigInt::pow(BigInt(7), 100), BigInt::pow(BigInt(7), 99));
  EXPECT_NEAR(big.to_double(), 7.0, 1e-9);
  Rational tiny(BigInt(1), BigInt::pow(BigInt(2), 200));
  EXPECT_NEAR(tiny.to_double(), 0.0, 1e-30);
}

TEST(Rational, FieldAxiomsRandomized) {
  std::mt19937_64 rng(7);
  auto rand_q = [&]() {
    std::int64_t n = static_cast<std::int64_t>(rng() % 2001) - 1000;
    std::int64_t d = static_cast<std::int64_t>(rng() % 1000) + 1;
    return Rational(n, d);
  };
  for (int i = 0; i < 200; ++i) {
    Rational a = rand_q(), b = rand_q(), c = rand_q();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, Rational());
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), Rational(1));
    }
  }
}

TEST(RationalInterval, Basics) {
  RationalInterval iv(Rational(-1), Rational(2));
  EXPECT_TRUE(iv.contains_zero());
  EXPECT_EQ(iv.definite_sign(), 0);
  EXPECT_EQ(iv.width(), Rational(3));
  EXPECT_EQ(iv.mid(), Rational(1, 2));
  EXPECT_TRUE(iv.contains(Rational(0)));
  EXPECT_FALSE(iv.contains(Rational(3)));

  RationalInterval pos(Rational(1, 3), Rational(2));
  EXPECT_EQ(pos.definite_sign(), 1);
  RationalInterval neg(Rational(-2), Rational(-1, 3));
  EXPECT_EQ(neg.definite_sign(), -1);
}

TEST(RationalInterval, Arithmetic) {
  RationalInterval a(Rational(1), Rational(2));
  RationalInterval b(Rational(-3), Rational(4));
  RationalInterval s = a + b;
  EXPECT_EQ(s.lo(), Rational(-2));
  EXPECT_EQ(s.hi(), Rational(6));
  RationalInterval d = a - b;
  EXPECT_EQ(d.lo(), Rational(-3));
  EXPECT_EQ(d.hi(), Rational(5));
  RationalInterval p = a * b;
  EXPECT_EQ(p.lo(), Rational(-6));
  EXPECT_EQ(p.hi(), Rational(8));
  RationalInterval n = -a;
  EXPECT_EQ(n.lo(), Rational(-2));
  EXPECT_EQ(n.hi(), Rational(-1));
}

TEST(RationalInterval, MultiplicationEnclosureRandomized) {
  std::mt19937_64 rng(11);
  auto rand_q = [&]() {
    return Rational(static_cast<std::int64_t>(rng() % 41) - 20,
                    static_cast<std::int64_t>(rng() % 9) + 1);
  };
  for (int i = 0; i < 200; ++i) {
    Rational a = rand_q(), b = rand_q(), c = rand_q(), d = rand_q();
    RationalInterval x(std::min(a, b), std::max(a, b));
    RationalInterval y(std::min(c, d), std::max(c, d));
    RationalInterval p = x * y;
    // Products of endpoints and midpoints must lie inside.
    for (const Rational& u : {x.lo(), x.hi(), x.mid()}) {
      for (const Rational& v : {y.lo(), y.hi(), y.mid()}) {
        EXPECT_TRUE(p.contains(u * v));
      }
    }
  }
}

}  // namespace
}  // namespace cqa
