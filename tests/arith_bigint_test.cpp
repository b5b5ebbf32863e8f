#include "cqa/arith/bigint.h"

#include <cstdint>
#include <random>
#include <string>

#include <gtest/gtest.h>

namespace cqa {
namespace {

TEST(BigInt, ZeroBasics) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z, BigInt(0));
  EXPECT_EQ(-z, z);
}

TEST(BigInt, SmallArithmetic) {
  EXPECT_EQ(BigInt(2) + BigInt(3), BigInt(5));
  EXPECT_EQ(BigInt(2) - BigInt(3), BigInt(-1));
  EXPECT_EQ(BigInt(-2) * BigInt(3), BigInt(-6));
  EXPECT_EQ(BigInt(7) / BigInt(2), BigInt(3));
  EXPECT_EQ(BigInt(7) % BigInt(2), BigInt(1));
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(7) % BigInt(-2), BigInt(1));
}

TEST(BigInt, Int64Boundaries) {
  const std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  BigInt mn(kMin), mx(kMax);
  EXPECT_EQ(mn.to_string(), "-9223372036854775808");
  EXPECT_EQ(mx.to_string(), "9223372036854775807");
  EXPECT_EQ(mn.to_int64().value_or_die(), kMin);
  EXPECT_EQ(mx.to_int64().value_or_die(), kMax);
  EXPECT_FALSE((mx + BigInt(1)).to_int64().is_ok());
  EXPECT_FALSE((mn - BigInt(1)).to_int64().is_ok());
}

TEST(BigInt, ParseRoundTrip) {
  for (const char* s :
       {"0", "1", "-1", "123456789012345678901234567890",
        "-98765432109876543210987654321", "4294967296", "18446744073709551616"}) {
    EXPECT_EQ(BigInt::parse(s).to_string(), s);
  }
}

TEST(BigInt, ParseErrors) {
  EXPECT_FALSE(BigInt::from_string("").is_ok());
  EXPECT_FALSE(BigInt::from_string("-").is_ok());
  EXPECT_FALSE(BigInt::from_string("12a3").is_ok());
  EXPECT_FALSE(BigInt::from_string("1.5").is_ok());
}

TEST(BigInt, LargeMultiplication) {
  BigInt a = BigInt::parse("123456789012345678901234567890");
  BigInt b = BigInt::parse("987654321098765432109876543210");
  EXPECT_EQ((a * b).to_string(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigInt, PowAndBitLength) {
  EXPECT_EQ(BigInt::pow(BigInt(2), 100).to_string(),
            "1267650600228229401496703205376");
  EXPECT_EQ(BigInt::pow(BigInt(10), 30).bit_length(), 100u);
  EXPECT_EQ(BigInt::pow(BigInt(3), 0), BigInt(1));
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
}

TEST(BigInt, Shifts) {
  BigInt one(1);
  EXPECT_EQ(one.shl(100), BigInt::pow(BigInt(2), 100));
  EXPECT_EQ(one.shl(100).shr(100), one);
  EXPECT_EQ(BigInt(-5).shl(3), BigInt(-40));
  EXPECT_EQ(BigInt(7).shr(10), BigInt(0));
}

TEST(BigInt, GcdLcm) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(BigInt::lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_EQ(BigInt::lcm(BigInt(0), BigInt(6)), BigInt(0));
  BigInt big = BigInt::pow(BigInt(2), 200);
  EXPECT_EQ(BigInt::gcd(big, big * BigInt(3)), big);
}

TEST(BigInt, DivisionIdentityRandomized) {
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 500; ++iter) {
    // Build random magnitudes of varying limb counts.
    auto rand_big = [&](int limbs) {
      BigInt x;
      for (int i = 0; i < limbs; ++i) {
        x = x.shl(32) + BigInt(static_cast<std::int64_t>(rng() & 0xffffffffu));
      }
      if (rng() & 1) x = -x;
      return x;
    };
    BigInt a = rand_big(1 + static_cast<int>(rng() % 6));
    BigInt b = rand_big(1 + static_cast<int>(rng() % 4));
    if (b.is_zero()) continue;
    auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), a.sign());
    }
  }
}

TEST(BigInt, KnuthD6AddBackCase) {
  // Exercise divisors whose top limb forces the qhat clamp.
  BigInt a = BigInt::parse("340282366920938463463374607431768211455");  // 2^128-1
  BigInt b = BigInt::parse("18446744073709551615");                      // 2^64-1
  auto [q, r] = a.divmod(b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_EQ(q.to_string(), "18446744073709551617");
  EXPECT_EQ(r, BigInt(0));
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt::parse("10000000000000000000000"), BigInt(1));
  EXPECT_LE(BigInt(4), BigInt(4));
  EXPECT_EQ(BigInt(4).cmp(BigInt(4)), 0);
}

TEST(BigInt, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(123).to_double(), 123.0);
  EXPECT_DOUBLE_EQ(BigInt(-456).to_double(), -456.0);
  EXPECT_NEAR(BigInt::pow(BigInt(10), 20).to_double(), 1e20, 1e6);
}

}  // namespace
}  // namespace cqa
