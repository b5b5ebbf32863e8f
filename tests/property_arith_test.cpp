// Property-based torture tests for the exact-arithmetic bedrock.

#include <gtest/gtest.h>

#include "cqa/approx/random.h"
#include "cqa/arith/rational.h"

namespace cqa {
namespace {

class ArithProperty : public ::testing::TestWithParam<std::uint64_t> {};

BigInt random_big(Xoshiro* rng, int max_limbs) {
  BigInt x;
  const int limbs = 1 + static_cast<int>(rng->next() %
                                         static_cast<std::uint64_t>(max_limbs));
  for (int i = 0; i < limbs; ++i) {
    x = x.shl(32) +
        BigInt(static_cast<std::int64_t>(rng->next() & 0xffffffffu));
  }
  if (rng->next() & 1) x = -x;
  return x;
}

TEST_P(ArithProperty, RingLaws) {
  Xoshiro rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    BigInt a = random_big(&rng, 5);
    BigInt b = random_big(&rng, 5);
    BigInt c = random_big(&rng, 3);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, BigInt(0));
    EXPECT_EQ(a + (-a), BigInt(0));
  }
}

TEST_P(ArithProperty, DivModInvariant) {
  Xoshiro rng(GetParam() ^ 0x1);
  for (int i = 0; i < 100; ++i) {
    BigInt a = random_big(&rng, 6);
    BigInt b = random_big(&rng, 3);
    if (b.is_zero()) continue;
    auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
    // Exactly divisible round-trips.
    BigInt prod = a * b;
    BigInt::DivMod dm = prod.divmod(b);
    EXPECT_EQ(dm.quot, a);
    EXPECT_TRUE(dm.rem.is_zero());
  }
}

TEST_P(ArithProperty, GcdLaws) {
  Xoshiro rng(GetParam() ^ 0x2);
  for (int i = 0; i < 50; ++i) {
    BigInt a = random_big(&rng, 4);
    BigInt b = random_big(&rng, 4);
    BigInt g = BigInt::gcd(a, b);
    EXPECT_GE(g, BigInt(0));
    if (!g.is_zero()) {
      EXPECT_TRUE((a % g).is_zero());
      EXPECT_TRUE((b % g).is_zero());
      // gcd(a/g, b/g) == 1.
      EXPECT_EQ(BigInt::gcd(a / g, b / g), BigInt(1));
    }
    EXPECT_EQ(BigInt::gcd(a, b), BigInt::gcd(b, a));
    // gcd(ka, kb) = |k| gcd(a, b).
    BigInt k = random_big(&rng, 1);
    EXPECT_EQ(BigInt::gcd(a * k, b * k), g * k.abs());
  }
}

TEST_P(ArithProperty, ShiftsAreMultiplication) {
  Xoshiro rng(GetParam() ^ 0x3);
  for (int i = 0; i < 30; ++i) {
    BigInt a = random_big(&rng, 3);
    std::size_t bits = rng.next() % 90;
    EXPECT_EQ(a.shl(bits), a * BigInt::pow(BigInt(2), bits));
    // (a << bits) >> bits is the identity on the magnitude.
    EXPECT_EQ(a.shl(bits).shr(bits), a);
  }
}

TEST_P(ArithProperty, ToStringRoundTrip) {
  Xoshiro rng(GetParam() ^ 0x4);
  for (int i = 0; i < 30; ++i) {
    BigInt a = random_big(&rng, 5);
    EXPECT_EQ(BigInt::parse(a.to_string()), a);
  }
}

TEST_P(ArithProperty, RationalOrderCompatibility) {
  Xoshiro rng(GetParam() ^ 0x5);
  auto rand_q = [&]() {
    return Rational(static_cast<std::int64_t>(rng.next() % 401) - 200,
                    1 + static_cast<std::int64_t>(rng.next() % 50));
  };
  for (int i = 0; i < 60; ++i) {
    Rational a = rand_q(), b = rand_q(), c = rand_q();
    if (a < b) {
      EXPECT_LT(a + c, b + c);
      if (c.sign() > 0) {
        EXPECT_LT(a * c, b * c);
      }
      if (c.sign() < 0) {
        EXPECT_GT(a * c, b * c);
      }
    }
    // Double conversion preserves order for well-separated values.
    if ((a - b).abs() > Rational(1, 1000)) {
      EXPECT_EQ(a < b, a.to_double() < b.to_double());
    }
  }
}

TEST_P(ArithProperty, SimplestInOpenIsInsideAndMinimal) {
  Xoshiro rng(GetParam() ^ 0x6);
  for (int i = 0; i < 40; ++i) {
    Rational a(static_cast<std::int64_t>(rng.next() % 201) - 100,
               1 + static_cast<std::int64_t>(rng.next() % 20));
    Rational w(1 + static_cast<std::int64_t>(rng.next() % 30),
               1 + static_cast<std::int64_t>(rng.next() % 40));
    Rational b = a + w;
    Rational s = Rational::simplest_in_open(a, b);
    EXPECT_GT(s, a);
    EXPECT_LT(s, b);
    // Minimality: no rational with a smaller denominator lies inside.
    for (BigInt d(1); d < s.den(); d += BigInt(1)) {
      Rational dd(d);
      // Any p/d inside the interval would contradict minimality.
      BigInt lo_p = (a * dd).floor();
      BigInt hi_p = (b * dd).ceil();
      for (BigInt p = lo_p; p <= hi_p; p += BigInt(1)) {
        Rational cand(p, d);
        EXPECT_FALSE(a < cand && cand < b)
            << "simpler " << cand.to_string() << " in ("
            << a.to_string() << ", " << b.to_string() << ") than "
            << s.to_string();
      }
      if (d > BigInt(64)) break;  // keep the check bounded
    }
  }
}

TEST_P(ArithProperty, FloorCeilIdentities) {
  Xoshiro rng(GetParam() ^ 0x7);
  for (int i = 0; i < 60; ++i) {
    Rational q(static_cast<std::int64_t>(rng.next() % 801) - 400,
               1 + static_cast<std::int64_t>(rng.next() % 30));
    BigInt f = q.floor();
    BigInt c = q.ceil();
    EXPECT_LE(Rational(f), q);
    EXPECT_GT(Rational(f) + Rational(1), q);
    EXPECT_GE(Rational(c), q);
    EXPECT_LT(Rational(c) - Rational(1), q);
    if (q.is_integer()) {
      EXPECT_EQ(f, c);
    } else {
      EXPECT_EQ(c, f + BigInt(1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArithProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace cqa
