#include "cqa/volume/semilinear_volume.h"

#include <gtest/gtest.h>

#include "cqa/constraint/qe.h"
#include "cqa/geometry/affine.h"
#include "cqa/geometry/polytope_volume.h"
#include "cqa/logic/parser.h"
#include "cqa/logic/transform.h"
#include "cqa/volume/inclusion_exclusion.h"
#include "cqa/volume/variable_independence.h"

namespace cqa {
namespace {

std::vector<LinearCell> cells_of(const std::string& formula, std::size_t dim,
                                 VarTable* vars = nullptr) {
  VarTable local;
  auto f = parse_formula(formula, vars ? vars : &local).value_or_die();
  return formula_to_cells(f, dim).value_or_die();
}

TEST(SemilinearVolume, SingleBox) {
  auto cells = cells_of("0 <= x & x <= 1 & 0 <= y & y <= 1", 2);
  EXPECT_EQ(semilinear_volume(cells).value_or_die(), Rational(1));
}

TEST(SemilinearVolume, Triangle) {
  auto cells = cells_of("0 <= x & 0 <= y & x + y <= 1", 2);
  EXPECT_EQ(semilinear_volume(cells).value_or_die(), Rational(1, 2));
}

TEST(SemilinearVolume, DisjointUnionAdds) {
  auto cells = cells_of(
      "(0 <= x & x <= 1 & 0 <= y & y <= 1) | "
      "(2 <= x & x <= 3 & 0 <= y & y <= 2)",
      2);
  EXPECT_EQ(semilinear_volume(cells).value_or_die(), Rational(3));
}

TEST(SemilinearVolume, OverlappingUnion) {
  // [0,2]x[0,2] union [1,3]x[1,3]: 4 + 4 - 1 = 7.
  auto cells = cells_of(
      "(0 <= x & x <= 2 & 0 <= y & y <= 2) | "
      "(1 <= x & x <= 3 & 1 <= y & y <= 3)",
      2);
  EXPECT_EQ(semilinear_volume(cells).value_or_die(), Rational(7));
  // Inclusion-exclusion must agree.
  EXPECT_EQ(volume_inclusion_exclusion(cells).value_or_die(), Rational(7));
}

TEST(SemilinearVolume, OverlappingTriangles) {
  // Two overlapping triangles forming a non-convex region.
  auto cells = cells_of(
      "(0 <= x & 0 <= y & x + y <= 2) | "
      "(x <= 2 & y <= 2 & x + y >= 2 & 0 <= x & 0 <= y)",
      2);
  // The union is exactly the square [0,2]^2: 2 + 2 = 4, no overlap interior.
  EXPECT_EQ(semilinear_volume(cells).value_or_die(), Rational(4));
  EXPECT_EQ(volume_inclusion_exclusion(cells).value_or_die(), Rational(4));
}

TEST(SemilinearVolume, StrictVsWeakSameVolume) {
  auto open = cells_of("0 < x & x < 1 & 0 < y & y < 1", 2);
  auto closed = cells_of("0 <= x & x <= 1 & 0 <= y & y <= 1", 2);
  EXPECT_EQ(semilinear_volume(open).value_or_die(),
            semilinear_volume(closed).value_or_die());
}

TEST(SemilinearVolume, LowerDimensionalIsZero) {
  auto seg = cells_of("0 <= x & x <= 1 & y = x", 2);
  EXPECT_EQ(semilinear_volume(seg).value_or_die(), Rational(0));
  // Mixed: a square plus a segment sticking out adds nothing.
  auto mixed = cells_of(
      "(0 <= x & x <= 1 & 0 <= y & y <= 1) | (y = 0 & 1 <= x & x <= 5)", 2);
  EXPECT_EQ(semilinear_volume(mixed).value_or_die(), Rational(1));
}

TEST(SemilinearVolume, HoleViaDisequality) {
  // Unit square minus the diagonal line: same measure as the square.
  auto cells = cells_of("0 <= x & x <= 1 & 0 <= y & y <= 1 & x != y", 2);
  EXPECT_EQ(cells.size(), 2u);
  EXPECT_EQ(semilinear_volume(cells).value_or_die(), Rational(1));
}

TEST(SemilinearVolume, AnnulusSquare) {
  // [0,3]^2 minus (1,2)^2: area 9 - 1 = 8, nonconvex with a hole.
  auto cells = cells_of(
      "0 <= x & x <= 3 & 0 <= y & y <= 3 & "
      "(x <= 1 | x >= 2 | y <= 1 | y >= 2)",
      2);
  EXPECT_EQ(semilinear_volume(cells).value_or_die(), Rational(8));
  EXPECT_EQ(volume_inclusion_exclusion(cells).value_or_die(), Rational(8));
}

TEST(SemilinearVolume, ThreeDOverlap) {
  // Two unit cubes overlapping in a 1/2-thick slab.
  auto cells = cells_of(
      "(0 <= x & x <= 1 & 0 <= y & y <= 1 & 0 <= z & z <= 1) | "
      "(1/2 <= x & x <= 3/2 & 0 <= y & y <= 1 & 0 <= z & z <= 1)",
      3);
  EXPECT_EQ(semilinear_volume(cells).value_or_die(), Rational(3, 2));
  EXPECT_EQ(volume_inclusion_exclusion(cells).value_or_die(), Rational(3, 2));
}

TEST(SemilinearVolume, RotatedSquareSweep) {
  // Rotate the unit square by an exact rational rotation; volume invariant.
  LinearCell square = LinearCell(2).intersect_box(Rational(0), Rational(1));
  AffineMap rot = AffineMap::rotation2d(Rational(1, 3));
  LinearCell rotated = rot.apply(square).value_or_die();
  EXPECT_EQ(semilinear_volume({rotated}).value_or_die(), Rational(1));
  // Lasserre's recursion is the independent single-polytope oracle.
  EXPECT_EQ(polytope_volume(Polyhedron(rotated)).value_or_die(), Rational(1));
}

TEST(SemilinearVolume, AffineScalingLaw) {
  // Vol(T(S)) = |det T| Vol(S) for a sheared, scaled triangle union.
  auto cells = cells_of(
      "(0 <= x & 0 <= y & x + y <= 1) | "
      "(1 <= x & x <= 2 & 0 <= y & y <= 1/2)",
      2);
  Rational before = semilinear_volume(cells).value_or_die();
  EXPECT_EQ(before, Rational(1));
  Matrix a = Matrix::from_rows({{Rational(2), Rational(1)},
                                {Rational(0), Rational(3)}});
  AffineMap t(a, {Rational(5), Rational(-7)});
  std::vector<LinearCell> image;
  for (const auto& c : cells) image.push_back(t.apply(c).value_or_die());
  Rational after = semilinear_volume(image).value_or_die();
  EXPECT_EQ(after, t.determinant().abs() * before);
}

TEST(SemilinearVolume, UnboundedErrors) {
  auto cells = cells_of("x >= 0 & 0 <= y & y <= 1", 2);
  EXPECT_FALSE(semilinear_volume(cells).is_ok());
}

TEST(SemilinearVolume, EmptyIsZero) {
  EXPECT_EQ(semilinear_volume({}).value_or_die(), Rational(0));
  auto cells = cells_of("x < 0 & x > 1", 1);
  EXPECT_EQ(semilinear_volume(cells).value_or_die(), Rational(0));
}

TEST(SemilinearVolume, OneDimensionalUnion) {
  auto cells = cells_of(
      "(0 <= x & x <= 1) | (1/2 <= x & x <= 2) | (5 <= x & x <= 6)", 1);
  EXPECT_EQ(semilinear_volume(cells).value_or_die(), Rational(3));
}

TEST(FormulaVolume, DirectAndBoxed) {
  VarTable vars;
  auto f = parse_formula("0 <= x & x <= 2 & 0 <= y & y <= 2", &vars)
               .value_or_die();
  EXPECT_EQ(formula_volume(f, 2).value_or_die(), Rational(4));
  // VOL_I clips to the unit box.
  EXPECT_EQ(formula_volume_I(f, 2).value_or_die(), Rational(1));
  // VOL_I of an unbounded set is still defined.
  auto half = parse_formula("x >= 1/2", &vars).value_or_die();
  EXPECT_EQ(formula_volume_I(half, 2).value_or_die(), Rational(1, 2));
}

TEST(FormulaVolume, PaperSection3Example) {
  // The paper's running example: phi(x1,x2; y1,y2) over U with
  // x1 < y1 < x2, 0 <= y2 <= y1. VOL_I = (x2^2 - x1^2)/2 for
  // 0 <= x1 <= x2 <= 1. Take x1 = 1/4, x2 = 3/4.
  VarTable vars;
  auto f = parse_formula(
               "1/4 < y1 & y1 < 3/4 & 0 <= y2 & y2 <= y1", &vars)
               .value_or_die();
  Rational expect = (Rational(9, 16) - Rational(1, 16)) * Rational(1, 2);
  EXPECT_EQ(formula_volume_I(f, 2).value_or_die(), expect);
}

TEST(FormulaVolume, ThroughQuantifierElimination) {
  // E z binding: vol of the projection. S = {(x,y) : E z. x<=z<=y, 0<=x,
  // y<=1} == {(x,y) : 0 <= x <= y <= 1}, area 1/2.
  VarTable vars;
  auto f = parse_formula("E z. x <= z & z <= y & 0 <= x & y <= 1", &vars)
               .value_or_die();
  auto qf = qe_linear(f).value_or_die();
  // Variable indices: z=0? Depends on parse order; map via the table.
  // Free vars are x and y; build cells in terms of those two.
  std::size_t xi = static_cast<std::size_t>(vars.find("x"));
  std::size_t yi = static_cast<std::size_t>(vars.find("y"));
  // Remap x->0, y->1 for a clean 2-D volume.
  std::map<std::size_t, Polynomial> sub;
  sub.emplace(xi, Polynomial::variable(0));
  sub.emplace(yi, Polynomial::variable(1));
  auto remapped = substitute_vars(qf, sub);
  EXPECT_EQ(formula_volume(remapped, 2).value_or_die(), Rational(1, 2));
}

TEST(VariableIndependence, Detection) {
  auto boxes = cells_of(
      "(0 <= x & x <= 1 & 0 <= y & y <= 1) | (x >= 2 & x <= 3 & y >= 0 & "
      "y <= 1)",
      2);
  EXPECT_TRUE(is_variable_independent(boxes));
  auto tri = cells_of("0 <= x & 0 <= y & x + y <= 1", 2);
  EXPECT_FALSE(is_variable_independent(tri));
}

TEST(VariableIndependence, GridVolumeMatchesSweep) {
  auto boxes = cells_of(
      "(0 <= x & x <= 2 & 0 <= y & y <= 2) | "
      "(1 <= x & x <= 3 & 1 <= y & y <= 3) | "
      "(0 <= x & x <= 1/2 & 5/2 <= y & y <= 3)",
      2);
  ASSERT_TRUE(is_variable_independent(boxes));
  Rational grid = volume_variable_independent(boxes).value_or_die();
  Rational sweep = semilinear_volume(boxes).value_or_die();
  EXPECT_EQ(grid, sweep);
  EXPECT_EQ(grid, Rational(4) + Rational(4) - Rational(1) + Rational(1, 4));
}

TEST(VariableIndependence, RejectsNonVI) {
  auto tri = cells_of("0 <= x & 0 <= y & x + y <= 1", 2);
  EXPECT_FALSE(volume_variable_independent(tri).is_ok());
}

TEST(InclusionExclusion, MatchesSweepOnRandomBoxes) {
  auto cells = cells_of(
      "(0 <= x & x <= 2 & 0 <= y & y <= 1) | "
      "(1 <= x & x <= 3 & 0 <= y & y <= 2) | "
      "(0 <= x & x <= 1 & 1/2 <= y & y <= 3/2)",
      2);
  EXPECT_EQ(volume_inclusion_exclusion(cells).value_or_die(),
            semilinear_volume(cells).value_or_die());
}

TEST(InclusionExclusion, CellCap) {
  std::vector<LinearCell> many(
      25, LinearCell(1).intersect_box(Rational(0), Rational(1)));
  EXPECT_FALSE(volume_inclusion_exclusion(many, 20).is_ok());
}

TEST(VolumeStats, EveryUnionIsSwept) {
  // A single box, interior-disjoint boxes and an overlap all sweep: the
  // sweep is the only exact path, so each evaluates sections.
  for (const char* formula :
       {"0 <= x & x <= 1 & 0 <= y & y <= 1",
        "(0 <= x & x <= 1 & 0 <= y & y <= 1) | "
        "(2 <= x & x <= 3 & 0 <= y & y <= 2)",
        "(0 <= x & x <= 2 & 0 <= y & y <= 2) | "
        "(1 <= x & x <= 3 & 1 <= y & y <= 3)"}) {
    VolumeStats stats;
    semilinear_volume(cells_of(formula, 2), &stats).value_or_die();
    EXPECT_GE(stats.sweep_calls, 1u) << formula;
    EXPECT_GT(stats.breakpoints, 0u) << formula;
    EXPECT_GT(stats.sections_evaluated, 0u) << formula;
  }
}

TEST(VolumeStats, FeasibilityCallsArePerLevelNotPerSection) {
  auto cells = cells_of(
      "(0 <= x & x <= 2 & 0 <= y & y <= 2 & 0 <= z & z <= 2) | "
      "(1 <= x & x <= 3 & 1 <= y & y <= 3 & 1 <= z & z <= 3) | "
      "(0 <= x & 0 <= y & 0 <= z & x + y + z <= 4)",
      3);
  const std::size_t n = cells.size();
  const std::size_t dim = 3;
  VolumeStats stats;
  Rational v = semilinear_volume(cells, &stats).value_or_die();
  EXPECT_EQ(v, volume_inclusion_exclusion(cells).value_or_die());
  // The top level runs one full-dimension test and dim boundedness
  // projections per cell; every sweep call then projects each of its
  // cells onto x_0 once (1-D calls read the bounds off the constraints).
  EXPECT_LE(stats.feasibility_calls, n * (1 + dim) + n * stats.sweep_calls);
  // No Fourier-Motzkin per section: fewer calls than sections.
  EXPECT_LT(stats.feasibility_calls, stats.sections_evaluated);
}

TEST(SemilinearVolume, BreakpointsComeOnlyFromVerticesInACell) {
  // Two far-apart rotated triangles. Extended edges of one cross those of
  // the other, but only outside both, so those crossings are no
  // breakpoints: only the six vertices' x-coordinates are.
  auto cells = cells_of(
      "(x <= 2*y & 2*x + y <= 5 & 3*x >= y) | "
      "(2*x - 20 >= 3*y & 2*x - 24 <= y & 20 - 2*x <= y)",
      2);
  VolumeStats stats;
  Rational v = semilinear_volume(cells, &stats).value_or_die();
  EXPECT_EQ(v, Rational(5, 2) + Rational(4));
  EXPECT_EQ(v, volume_inclusion_exclusion(cells).value_or_die());
  // x-coordinates of the vertices: {0, 1, 2} and {10, 11, 13}.
  EXPECT_EQ(stats.breakpoints, 6u);
}

}  // namespace
}  // namespace cqa
