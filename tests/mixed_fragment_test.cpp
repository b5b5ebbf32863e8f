// Mixed FO+LIN / FO+POLY fragment tests: the seams between the exact
// linear pipeline and the polynomial sample-point machinery.

#include <gtest/gtest.h>

#include "cqa/aggregate/endpoints.h"
#include "cqa/aggregate/sql_aggregates.h"
#include "cqa/aggregate/sum_parser.h"
#include "cqa/core/constraint_database.h"
#include "cqa/core/query_engine.h"
#include "cqa/logic/decide.h"
#include "cqa/logic/parser.h"

namespace cqa {
namespace {

TEST(MixedFragment, PolynomialRegionLinearQuery) {
  // A polynomial-defined region queried with linear machinery where the
  // query itself stays linear after grounding.
  ConstraintDatabase db;
  CQA_CHECK(db.add_region("Disk", {"x", "y"}, "x^2 + y^2 <= 1").is_ok());
  // Pointwise membership through the polynomial path.
  EXPECT_TRUE(db.contains("Disk", {Rational(3, 5), Rational(4, 5)}));
  EXPECT_FALSE(db.contains("Disk", {Rational(4, 5), Rational(4, 5)}));
  // Sentences mixing the region with linear side conditions: the decide()
  // separable path handles one quantified variable per atom after the
  // other is fixed by an equality pivot... here both appear in one atom,
  // so route through holds() which substitutes and decides.
  auto f = db.parse("Disk(a, 0) & a > 1/2").value_or_die();
  EXPECT_TRUE(db.holds(f, {{"a", Rational(3, 4)}}).value_or_die());
  EXPECT_FALSE(db.holds(f, {{"a", Rational(1, 4)}}).value_or_die());
}

TEST(MixedFragment, QuantifiedPolynomialSentences) {
  ConstraintDatabase db;
  CQA_CHECK(db.add_region("Parab", {"x", "y"}, "y >= x^2").is_ok());
  QueryEngine q(&db);
  // E x: (x, 1) in Parab, i.e. 1 >= x^2: true.
  auto ask = [&](const char* sentence) {
    return q.ask(db.parse(sentence).value(), {});
  };
  EXPECT_TRUE(ask("E x. Parab(x, 1)").value_or_die());
  // E x: (x, -1) in Parab: -1 >= x^2 is impossible.
  EXPECT_FALSE(ask("E x. Parab(x, 0 - 1)").value_or_die());
  // A x: (x, x^2) on the boundary is in the region.
  EXPECT_TRUE(ask("A x. Parab(x, x^2)").value_or_die());
  // A x: (x, x^2 - 1) is NOT always inside.
  EXPECT_FALSE(ask("A x. Parab(x, x^2 - 1)").value_or_die());
}

TEST(MixedFragment, EndOverPolynomialRegionSection) {
  // END on a section of a polynomial region: endpoints of
  // { y : y >= y^2 } = [0, 1].
  ConstraintDatabase db;
  auto phi = db.parse("y >= y^2").value_or_die();
  const std::size_t y = db.var("y");
  auto eps = rational_endpoints_1d(db.db(), phi, y, {}).value_or_die();
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0], Rational(0));
  EXPECT_EQ(eps[1], Rational(1));
}

TEST(MixedFragment, SumOverPolynomialEndpoints) {
  // The Sum syntax over a polynomial END source with rational roots.
  Database db;
  auto term = parse_sum_term(
                  "sum[w in end(y : y*y <= 4*y - 3)](x : x = w)")
                  .value_or_die();
  // y^2 - 4y + 3 <= 0 on [1, 3]: endpoints 1 and 3.
  EXPECT_EQ(term->eval(db, {}).value_or_die(), Rational(4));
}

TEST(MixedFragment, IrrationalEndpointsRefusedExactly) {
  Database db;
  auto term = parse_sum_term("sum[w in end(y : y*y <= 2)](x : x = w)")
                  .value_or_die();
  auto r = term->eval(db, {});
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(MixedFragment, DecideHandlesParameterizedQuadratics) {
  // For which t does x^2 + t x + 1 = 0 have a root in (0, 1)? Needs
  // t <= -2 (both roots positive, product 1, sum -t); smaller root in
  // (0,1) iff t < -2.
  VarTable vars;
  auto f = parse_formula("E x. x^2 + t*x + 1 = 0 & 0 < x & x < 1", &vars)
               .value_or_die();
  std::size_t t = static_cast<std::size_t>(vars.find("t"));
  EXPECT_TRUE(decide(f, {{t, Rational(-3)}}).value_or_die());
  EXPECT_FALSE(decide(f, {{t, Rational(-2)}}).value_or_die());  // root = 1
  EXPECT_FALSE(decide(f, {{t, Rational(0)}}).value_or_die());
  EXPECT_FALSE(decide(f, {{t, Rational(5)}}).value_or_die());
}

TEST(MixedFragment, LinearEngineRejectsNonlinearGracefully) {
  ConstraintDatabase db;
  CQA_CHECK(db.add_region("Disk", {"x", "y"}, "x^2 + y^2 <= 1").is_ok());
  QueryEngine q(&db);
  // cells() needs linear QE; a quantified polynomial query must error
  // with kUnsupported, not crash or mis-answer.
  auto cells = q.cells(q.parse("E y. Disk(x, y)").value(), {"x"}, {});
  EXPECT_FALSE(cells.is_ok());
  EXPECT_EQ(cells.status().code(), StatusCode::kUnsupported);
  // Quantifier-free polynomial queries pass through rewrite() unchanged.
  auto qf = q.rewrite("Disk(x, y)", {});
  ASSERT_TRUE(qf.is_ok());
  EXPECT_TRUE(qf.value()->is_quantifier_free());
}

TEST(MixedFragment, SafeAggregateOverPolynomialQuery) {
  // COUNT of the rational roots of a polynomial via the SAF pipeline.
  ConstraintDatabase db;
  // (x-1)(x-2)(x+3) = 0.
  auto phi = db.parse("(x - 1)*(x - 2)*(x + 3) = 0").value_or_die();
  const std::size_t x = db.var("x");
  auto vals = saf_output(db.db(), phi, x, {}).value_or_die();
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_EQ(vals[0], Rational(-3));
  EXPECT_EQ(vals[2], Rational(2));
}

}  // namespace
}  // namespace cqa
