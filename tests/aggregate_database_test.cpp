#include "cqa/aggregate/database.h"

#include <gtest/gtest.h>

#include "cqa/aggregate/endpoints.h"
#include "cqa/logic/parser.h"

namespace cqa {
namespace {

RVec pt(std::vector<std::int64_t> v) {
  RVec out;
  for (auto x : v) out.emplace_back(x);
  return out;
}

TEST(Database, FiniteRelations) {
  Database db;
  ASSERT_TRUE(db.add_finite("U", 1, {pt({1}), pt({2}), pt({2})}).is_ok());
  EXPECT_TRUE(db.has_relation("U"));
  EXPECT_TRUE(db.is_finite("U"));
  EXPECT_EQ(db.arity_of("U").value_or_die(), 1u);
  EXPECT_EQ(db.tuples_of("U").value_or_die().size(), 2u);  // deduped
  EXPECT_TRUE(db.contains("U", pt({1})));
  EXPECT_FALSE(db.contains("U", pt({3})));
  EXPECT_FALSE(db.contains("U", pt({1, 2})));  // arity mismatch
  EXPECT_FALSE(db.add_finite("U", 1, {}).is_ok());  // duplicate
  EXPECT_FALSE(db.add_finite("V", 2, {pt({1})}).is_ok());  // arity
}

TEST(Database, ActiveDomain) {
  Database db;
  ASSERT_TRUE(db.add_finite("R", 2, {pt({1, 2}), pt({3, 1})}).is_ok());
  auto adom = db.active_domain();
  EXPECT_EQ(adom.size(), 3u);
  EXPECT_TRUE(adom.count(Rational(1)));
  EXPECT_TRUE(adom.count(Rational(3)));
}

TEST(Database, ConstraintRelations) {
  Database db;
  VarTable vars;
  // Disk of radius 1 -- truly polynomial.
  auto disk = parse_formula("x^2 + y^2 <= 1", &vars).value_or_die();
  ASSERT_TRUE(db.add_constraint_relation("Disk", 2, disk).is_ok());
  EXPECT_FALSE(db.is_finite("Disk"));
  EXPECT_TRUE(db.contains("Disk", {Rational(1, 2), Rational(1, 2)}));
  EXPECT_FALSE(db.contains("Disk", {Rational(1), Rational(1)}));
  EXPECT_FALSE(db.tuples_of("Disk").is_ok());
}

TEST(Database, InlinePredicates) {
  Database db;
  ASSERT_TRUE(db.add_finite("U", 1, {pt({1}), pt({2})}).is_ok());
  VarTable vars;
  auto f = parse_formula("U(x) & x > 1", &vars).value_or_die();
  auto g = db.inline_predicates(f).value_or_die();
  EXPECT_FALSE(g->has_predicates());
  // Semantics preserved.
  std::size_t x = static_cast<std::size_t>(vars.find("x"));
  EXPECT_TRUE(db.holds(f, {{x, Rational(2)}}).value_or_die());
  EXPECT_FALSE(db.holds(f, {{x, Rational(1)}}).value_or_die());
  EXPECT_FALSE(db.holds(f, {{x, Rational(3)}}).value_or_die());
  EXPECT_TRUE(eval_qf(g, {Rational(2)}).value_or_die());
}

TEST(Database, HoldsWithQuantifiers) {
  Database db;
  VarTable vars;
  auto seg = parse_formula("0 <= x & x <= 1 & y = 0", &vars).value_or_die();
  // Remap to slots 0,1.
  ASSERT_TRUE(db.add_constraint_relation("Seg", 2, seg).is_ok());
  // E p. E q. Seg(p, q) & p > t  -- linear with quantifiers.
  VarTable v2;
  auto f = parse_formula("E p. E q. Seg(p, q) & p > t", &v2).value_or_die();
  std::size_t t = static_cast<std::size_t>(v2.find("t"));
  EXPECT_TRUE(db.holds(f, {{t, Rational(1, 2)}}).value_or_die());
  EXPECT_FALSE(db.holds(f, {{t, Rational(1)}}).value_or_die());
}

TEST(Database, ActiveDomainQuantifiers) {
  Database db;
  ASSERT_TRUE(db.add_finite("U", 1, {pt({1}), pt({5}), pt({9})}).is_ok());
  // exists-adom x: U(x) & x > 4  -- via explicit construction.
  FormulaPtr body = Formula::f_and(
      Formula::predicate("U", {Polynomial::variable(0)}),
      Formula::gt(Polynomial::variable(0),
                  Polynomial::constant(Rational(4))));
  FormulaPtr f = Formula::exists(0, body, /*active_domain=*/true);
  EXPECT_TRUE(db.holds(f, {}).value_or_die());
  // forall-adom x: U(x) -> x > 4 is false (1 fails).
  FormulaPtr g = Formula::forall(
      0,
      Formula::f_or(Formula::f_not(Formula::predicate(
                        "U", {Polynomial::variable(0)})),
                    Formula::gt(Polynomial::variable(0),
                                Polynomial::constant(Rational(4)))),
      /*active_domain=*/true);
  EXPECT_FALSE(db.holds(g, {}).value_or_die());
}

TEST(Database, ExpandActiveDomainKeepsAFormulaWithoutOne) {
  Database db;
  ASSERT_TRUE(db.add_finite("U", 1, {pt({1}), pt({2})}).is_ok());
  VarTable vars;
  auto f = parse_formula("0 <= x & x <= 1 & 0 <= y & y <= x", &vars)
               .value_or_die();
  EXPECT_EQ(db.expand_active_domain(f).value_or_die().get(), f.get());
  // A plain quantifier over an unchanged body is kept as well.
  auto q = parse_formula("E u. 0 <= u & u <= x", &vars).value_or_die();
  EXPECT_EQ(db.expand_active_domain(q).value_or_die().get(), q.get());
  // Beside an active-domain quantifier the spine is rebuilt, and the
  // untouched sibling subtree is shared rather than copied.
  auto sibling = parse_formula("x <= 1/2 | y <= 1/2", &vars).value_or_die();
  FormulaPtr adom = Formula::exists(
      0, Formula::predicate("U", {Polynomial::variable(0)}),
      /*active_domain=*/true);
  FormulaPtr g = Formula::f_and(adom, sibling);
  auto expanded = db.expand_active_domain(g).value_or_die();
  EXPECT_NE(expanded.get(), g.get());
  ASSERT_EQ(expanded->kind(), Formula::Kind::kAnd);
  ASSERT_EQ(expanded->children().size(), 2u);
  EXPECT_EQ(expanded->children()[1].get(), sibling.get());
}

TEST(Database, HoldsSeesRelationsAddedAfterFirstCall) {
  // holds() keeps nothing between calls: an active-domain quantifier
  // decided once is decided again against the database as it is now.
  Database db;
  ASSERT_TRUE(db.add_finite("R", 1, {pt({1})}).is_ok());
  // exists-adom x: x = 2.
  FormulaPtr f = Formula::exists(
      0,
      Formula::eq(Polynomial::variable(0), Polynomial::constant(Rational(2))),
      /*active_domain=*/true);
  EXPECT_FALSE(db.holds(f, {}).value_or_die());
  ASSERT_TRUE(db.add_finite("S", 1, {pt({2})}).is_ok());
  EXPECT_TRUE(db.holds(f, {}).value_or_die());
}

TEST(Endpoints, FiniteRelationEndpoints) {
  Database db;
  ASSERT_TRUE(db.add_finite("U", 1, {pt({3}), pt({1}), pt({7})}).is_ok());
  VarTable vars;
  auto phi = parse_formula("U(y)", &vars).value_or_die();
  std::size_t y = static_cast<std::size_t>(vars.find("y"));
  auto eps = rational_endpoints_1d(db, phi, y, {}).value_or_die();
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0], Rational(1));
  EXPECT_EQ(eps[2], Rational(7));
  EXPECT_TRUE(is_finite_1d(db, phi, y, {}).value_or_die());
}

TEST(Endpoints, IntervalEndpoints) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("(0 <= y & y <= 1) | (2 < y & y < 3) | y = 5",
                           &vars)
                 .value_or_die();
  std::size_t y = static_cast<std::size_t>(vars.find("y"));
  auto decomp = decompose_1d(db, phi, y, {}).value_or_die();
  ASSERT_EQ(decomp.size(), 3u);
  EXPECT_TRUE(decomp[0].lo_closed);
  EXPECT_TRUE(decomp[0].hi_closed);
  EXPECT_FALSE(decomp[1].lo_closed);
  EXPECT_FALSE(decomp[1].hi_closed);
  EXPECT_EQ(decomp[2].lo.cmp(decomp[2].hi), 0);
  auto eps = rational_endpoints_1d(db, phi, y, {}).value_or_die();
  // {0, 1, 2, 3, 5}.
  ASSERT_EQ(eps.size(), 5u);
  EXPECT_EQ(eps[4], Rational(5));
  EXPECT_FALSE(is_finite_1d(db, phi, y, {}).value_or_die());
}

TEST(Endpoints, UnboundedRays) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("y >= 2", &vars).value_or_die();
  std::size_t y = static_cast<std::size_t>(vars.find("y"));
  auto decomp = decompose_1d(db, phi, y, {}).value_or_die();
  ASSERT_EQ(decomp.size(), 1u);
  EXPECT_FALSE(decomp[0].lo_infinite);
  EXPECT_TRUE(decomp[0].hi_infinite);
  auto eps = rational_endpoints_1d(db, phi, y, {}).value_or_die();
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0], Rational(2));
}

TEST(Endpoints, WholeLineAndEmpty) {
  Database db;
  VarTable vars;
  auto all = parse_formula("y = y | y != y", &vars).value_or_die();
  std::size_t y = 0;
  auto d1 = decompose_1d(db, all, y, {}).value_or_die();
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_TRUE(d1[0].lo_infinite);
  EXPECT_TRUE(d1[0].hi_infinite);
  auto none = parse_formula("y < 0 & y > 0", &vars).value_or_die();
  EXPECT_TRUE(decompose_1d(db, none, y, {}).value_or_die().empty());
  EXPECT_TRUE(is_finite_1d(db, none, y, {}).value_or_die());
}

TEST(Endpoints, ParameterizedEndpoints) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("a <= y & y <= a + 1", &vars).value_or_die();
  std::size_t a = static_cast<std::size_t>(vars.find("a"));
  std::size_t y = static_cast<std::size_t>(vars.find("y"));
  auto eps =
      rational_endpoints_1d(db, phi, y, {{a, Rational(5)}}).value_or_die();
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0], Rational(5));
  EXPECT_EQ(eps[1], Rational(6));
}

TEST(Endpoints, SemialgebraicEndpoints) {
  Database db;
  VarTable vars;
  // y^2 <= 2: endpoints are +-sqrt(2), irrational.
  auto phi = parse_formula("y^2 <= 2", &vars).value_or_die();
  std::size_t y = 0;
  auto eps = endpoints_1d(db, phi, y, {}).value_or_die();
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_FALSE(eps[0].is_rational());
  EXPECT_LT(eps[0].cmp(eps[1]), 0);
  // Exact rational extraction refuses.
  auto rational = rational_endpoints_1d(db, phi, y, {});
  EXPECT_FALSE(rational.is_ok());
  EXPECT_EQ(rational.status().code(), StatusCode::kUnsupported);
}

TEST(Endpoints, QuantifiedLinearSource) {
  Database db;
  VarTable vars;
  // E z. y <= z & z <= 1 & y >= 0  ==  0 <= y <= 1.
  auto phi = parse_formula("E z. y <= z & z <= 1 & y >= 0", &vars)
                 .value_or_die();
  std::size_t y = static_cast<std::size_t>(vars.find("y"));
  auto eps = rational_endpoints_1d(db, phi, y, {}).value_or_die();
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0], Rational(0));
  EXPECT_EQ(eps[1], Rational(1));
}

TEST(Endpoints, IsolatedPointBetweenIntervals) {
  Database db;
  VarTable vars;
  // (y-1)^2 (y-3) >= 0 restricted to [0,4]: point {1} union [3,4].
  auto phi = parse_formula(
                 "(y - 1)*(y - 1)*(y - 3) >= 0 & 0 <= y & y <= 4", &vars)
                 .value_or_die();
  std::size_t y = 0;
  auto decomp = decompose_1d(db, phi, y, {}).value_or_die();
  ASSERT_EQ(decomp.size(), 2u);
  EXPECT_EQ(decomp[0].lo.cmp(decomp[0].hi), 0);  // the isolated point 1
  EXPECT_TRUE(decomp[0].lo.is_rational());
  EXPECT_EQ(decomp[0].lo.rational_value(), Rational(1));
}

}  // namespace
}  // namespace cqa
