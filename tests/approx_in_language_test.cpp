#include <gtest/gtest.h>

#include <cmath>

#include "cqa/approx/monte_carlo.h"
#include "cqa/logic/parser.h"
#include "cqa/runtime/parallel_sampler.h"

namespace cqa {
namespace {

TEST(FromDouble, ExactDyadics) {
  EXPECT_EQ(Rational::from_double(0.5).value_or_die(), Rational(1, 2));
  EXPECT_EQ(Rational::from_double(-0.75).value_or_die(), Rational(-3, 4));
  EXPECT_EQ(Rational::from_double(3.0).value_or_die(), Rational(3));
  EXPECT_EQ(Rational::from_double(0.0).value_or_die(), Rational(0));
  // Round-trips exactly for any finite double.
  for (double v : {0.1, 1.0 / 3.0, 1e-17, 12345.6789, -2.5e10}) {
    Rational q = Rational::from_double(v).value_or_die();
    EXPECT_DOUBLE_EQ(q.to_double(), v);
  }
  EXPECT_FALSE(Rational::from_double(std::nan("")).is_ok());
  EXPECT_FALSE(Rational::from_double(1.0 / 0.0).is_ok());
}

TEST(McInLanguage, TriangleVolume) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("0 <= x & 0 <= y & x + y <= 1", &vars)
                 .value_or_die();
  std::size_t x = static_cast<std::size_t>(vars.find("x"));
  std::size_t y = static_cast<std::size_t>(vars.find("y"));
  Rational frac =
      mc_volume_in_language(&db, phi, {x, y}, {}, 400, 77).value_or_die();
  EXPECT_NEAR(frac.to_double(), 0.5, 0.08);
  // The sample relation was materialized in the database.
  EXPECT_TRUE(db.has_relation("McSample"));
  EXPECT_EQ(db.tuples_of("McSample").value_or_die().size(), 400u);
}

TEST(McInLanguage, PolynomialDiskExactCounting) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("x^2 + y^2 <= 1", &vars).value_or_die();
  std::size_t x = static_cast<std::size_t>(vars.find("x"));
  std::size_t y = static_cast<std::size_t>(vars.find("y"));
  Rational frac =
      mc_volume_in_language(&db, phi, {x, y}, {}, 300, 13).value_or_die();
  EXPECT_NEAR(frac.to_double(), M_PI / 4.0, 0.1);
  // The fraction is an exact rational with denominator dividing M.
  EXPECT_TRUE((Rational(300) * frac).is_integer());
}

TEST(McInLanguage, ParameterizedFamily) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("0 <= x & x <= a & 0 <= y & y <= 1", &vars)
                 .value_or_die();
  std::size_t x = static_cast<std::size_t>(vars.find("x"));
  std::size_t y = static_cast<std::size_t>(vars.find("y"));
  std::size_t a = static_cast<std::size_t>(vars.find("a"));
  Rational frac = mc_volume_in_language(&db, phi, {x, y},
                                        {{a, Rational(1, 4)}}, 400, 5)
                      .value_or_die();
  EXPECT_NEAR(frac.to_double(), 0.25, 0.07);
  // Fresh relation names for repeated invocations.
  Rational frac2 = mc_volume_in_language(&db, phi, {x, y},
                                         {{a, Rational(3, 4)}}, 400, 6)
                       .value_or_die();
  EXPECT_NEAR(frac2.to_double(), 0.75, 0.07);
  EXPECT_TRUE(db.has_relation("McSample"));
  EXPECT_TRUE(db.has_relation("McSample0"));
}

TEST(McInLanguage, UnassignedParameterRejected) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("0 <= x & x <= a", &vars).value_or_die();
  std::size_t x = static_cast<std::size_t>(vars.find("x"));
  EXPECT_FALSE(mc_volume_in_language(&db, phi, {x}, {}, 50, 1).is_ok());
}

TEST(McInLanguage, AgreesWithDoubleEstimator) {
  // Same region, comparable estimates (different samplers, so only
  // statistical agreement).
  Database db;
  VarTable vars;
  auto phi = parse_formula("y <= x^2", &vars).value_or_die();
  std::size_t vx = static_cast<std::size_t>(vars.find("x"));
  std::size_t vy = static_cast<std::size_t>(vars.find("y"));
  Rational in_lang =
      mc_volume_in_language(&db, phi, {vx, vy}, {}, 500, 21).value_or_die();
  ParallelSampler est(&db, phi, {vx, vy}, 20000, 22);
  double fast = est.estimate({}).value_or_die();
  EXPECT_NEAR(in_lang.to_double(), fast, 0.08);
  EXPECT_NEAR(fast, 1.0 / 3.0, 0.02);
}

}  // namespace
}  // namespace cqa
