#include "cqa/constraint/qe.h"

#include <gtest/gtest.h>

#include "cqa/logic/eval.h"
#include "cqa/logic/parser.h"
#include "cqa/logic/printer.h"

namespace cqa {
namespace {

TEST(Cells, FormulaToCells) {
  VarTable vars;
  auto f = parse_formula("(0 <= x & x <= 1) | (2 <= x & x <= 3)", &vars)
               .value_or_die();
  auto cells = formula_to_cells(f, 1).value_or_die();
  EXPECT_EQ(cells.size(), 2u);
}

TEST(Cells, InfeasibleCellsDropped) {
  auto f = parse_formula("x < 0 & x > 1").value_or_die();
  auto cells = formula_to_cells(f, 1).value_or_die();
  EXPECT_TRUE(cells.empty());
}

TEST(Cells, DisequalitySplits) {
  VarTable vars;
  auto f = parse_formula("0 <= x & x <= 1 & x != 1/2", &vars).value_or_die();
  auto cells = formula_to_cells(f, 1).value_or_die();
  EXPECT_EQ(cells.size(), 2u);
}

TEST(Cells, BoundedDetection) {
  VarTable vars;
  auto box = parse_formula("0 <= x & x <= 1 & 0 <= y & y <= 1", &vars)
                 .value_or_die();
  auto cells = formula_to_cells(box, 2).value_or_die();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].is_bounded());
  auto half = parse_formula("0 <= x & 0 <= y & y <= 1", &vars).value_or_die();
  auto cells2 = formula_to_cells(half, 2).value_or_die();
  ASSERT_EQ(cells2.size(), 1u);
  EXPECT_FALSE(cells2[0].is_bounded());
}

TEST(Cells, IntersectBox) {
  VarTable vars;
  auto f = parse_formula("x >= 1/2", &vars).value_or_die();
  auto cells = formula_to_cells(f, 1).value_or_die();
  LinearCell boxed = cells[0].intersect_box(Rational(0), Rational(1));
  EXPECT_TRUE(boxed.is_bounded());
  AxisInterval iv = boxed.project_to_axis(0);
  EXPECT_EQ(*iv.lo, Rational(1, 2));
  EXPECT_EQ(*iv.hi, Rational(1));
}

TEST(QE, ExistsProjectsTriangle) {
  VarTable vars;
  // E y. 0 <= y & y <= x & x <= 1 : equivalent to 0 <= x <= 1.
  auto f = parse_formula("E y. 0 <= y & y <= x & x <= 1", &vars)
               .value_or_die();
  auto qf = qe_linear(f).value_or_die();
  EXPECT_TRUE(qf->is_quantifier_free());
  std::size_t x = static_cast<std::size_t>(vars.find("x"));
  // Check pointwise equivalence on a grid.
  for (int i = -4; i <= 8; ++i) {
    Rational v(i, 4);
    RVec pt(static_cast<std::size_t>(qf->max_var()) + 1);
    if (x < pt.size()) pt[x] = v;
    bool expect = Rational(0) <= v && v <= Rational(1);
    EXPECT_EQ(eval_qf(qf, pt).value_or_die(), expect) << v.to_string();
  }
}

TEST(QE, ForallViaDuality) {
  // A x. x < y : false for all y... actually for any fixed y there are
  // x >= y, so the formula is unsatisfiable: QE gives false.
  auto f = parse_formula("A x. x < y").value_or_die();
  auto qf = qe_linear(f).value_or_die();
  EXPECT_EQ(qf->kind(), Formula::Kind::kFalse);
  // A x. (x < y | x >= y) is true.
  auto g = parse_formula("A x. (x < y | x >= y)").value_or_die();
  auto qg = qe_linear(g).value_or_die();
  EXPECT_EQ(qg->kind(), Formula::Kind::kTrue);
}

TEST(QE, SentenceDecisions) {
  EXPECT_TRUE(qe_decide_sentence(
                  parse_formula("E x. E y. x < y & y < 1 & 0 < x")
                      .value_or_die())
                  .value_or_die());
  EXPECT_FALSE(qe_decide_sentence(
                   parse_formula("E x. x < 0 & x > 0").value_or_die())
                   .value_or_die());
  // Dense order: A x. A z. (x < z -> E y. x < y & y < z), written
  // without ->.
  EXPECT_TRUE(qe_decide_sentence(
                  parse_formula("A x. A z. (x >= z | (E y. x < y & y < z))")
                      .value_or_die())
                  .value_or_die());
}

TEST(QE, CoupledQuantifiersThatDecideCannotHandle) {
  // E x. E y. x < y -- the decide() module rejects this as non-separable;
  // FM-based QE handles it exactly.
  EXPECT_TRUE(qe_decide_sentence(parse_formula("E x. E y. x < y")
                                     .value_or_die())
                  .value_or_die());
}

TEST(QE, EliminationKeepsStrictness) {
  VarTable vars;
  // E y. x < y & y < 1  ==  x < 1 (strict).
  auto f = parse_formula("E y. x < y & y < 1", &vars).value_or_die();
  auto qf = qe_linear(f).value_or_die();
  std::size_t x = static_cast<std::size_t>(vars.find("x"));
  RVec at_one(static_cast<std::size_t>(std::max(qf->max_var(), 0)) + 1);
  if (x < at_one.size()) at_one[x] = Rational(1);
  EXPECT_FALSE(eval_qf(qf, at_one).value_or_die());
  RVec below(at_one.size());
  if (x < below.size()) below[x] = Rational(9, 10);
  EXPECT_TRUE(eval_qf(qf, below).value_or_die());
}

TEST(QE, RejectsNonlinearAndPredicates) {
  EXPECT_FALSE(qe_linear(parse_formula("E x. x*x < 1").value_or_die()).is_ok());
  EXPECT_FALSE(
      qe_linear(parse_formula("E x. U(x)").value_or_die()).is_ok());
}

TEST(QE, ArctanStyleNesting) {
  // Multi-level elimination: E y. E z. 0 <= z & z <= y & y <= x.
  VarTable vars;
  auto f = parse_formula("E y. E z. 0 <= z & z <= y & y <= x", &vars)
               .value_or_die();
  auto qf = qe_linear(f).value_or_die();
  std::size_t x = static_cast<std::size_t>(vars.find("x"));
  RVec neg(static_cast<std::size_t>(std::max(qf->max_var(), static_cast<int>(x))) + 1);
  neg[x] = Rational(-1);
  EXPECT_FALSE(eval_qf(qf, neg).value_or_die());
  RVec pos(neg.size());
  pos[x] = Rational(5);
  EXPECT_TRUE(eval_qf(qf, pos).value_or_die());
  RVec zero(neg.size());
  EXPECT_TRUE(eval_qf(qf, zero).value_or_die());
}

}  // namespace
}  // namespace cqa
