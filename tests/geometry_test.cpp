#include <gtest/gtest.h>

#include "cqa/geometry/affine.h"
#include "cqa/geometry/hull2d.h"
#include "cqa/geometry/polyhedron.h"
#include "cqa/geometry/polytope_volume.h"
#include "cqa/geometry/vertex_enum.h"
#include "cqa/logic/parser.h"

namespace cqa {
namespace {

RVec pt(std::vector<std::int64_t> v) {
  RVec out;
  for (auto x : v) out.emplace_back(x);
  return out;
}

TEST(Polyhedron, BoxBasics) {
  Polyhedron box = Polyhedron::box(2, Rational(0), Rational(1));
  EXPECT_FALSE(box.is_empty());
  EXPECT_TRUE(box.is_bounded());
  EXPECT_TRUE(box.contains(pt({0, 0})));
  EXPECT_TRUE(box.contains({Rational(1, 2), Rational(1, 2)}));
  EXPECT_FALSE(box.contains(pt({2, 0})));
}

TEST(Polyhedron, SimplexBasics) {
  Polyhedron s = Polyhedron::simplex(3, Rational(1));
  EXPECT_TRUE(s.is_bounded());
  EXPECT_TRUE(s.contains({Rational(1, 4), Rational(1, 4), Rational(1, 4)}));
  EXPECT_FALSE(s.contains({Rational(1, 2), Rational(1, 2), Rational(1, 2)}));
}

TEST(VertexEnum, UnitSquare) {
  Polyhedron box = Polyhedron::box(2, Rational(0), Rational(1));
  auto vs = enumerate_vertices(box);
  ASSERT_EQ(vs.size(), 4u);
  EXPECT_EQ(vs[0], pt({0, 0}));
  EXPECT_EQ(vs[3], pt({1, 1}));
  EXPECT_EQ(polytope_dimension(box), 2);
}

TEST(VertexEnum, Simplex3d) {
  Polyhedron s = Polyhedron::simplex(3, Rational(2));
  auto vs = enumerate_vertices(s);
  EXPECT_EQ(vs.size(), 4u);
}

TEST(VertexEnum, DegenerateSegment) {
  // x = y inside the unit square: a segment with 2 vertices, dim 1.
  VarTable vars;
  auto f = parse_formula("0 <= x & x <= 1 & 0 <= y & y <= 1 & x = y", &vars)
               .value_or_die();
  auto cells = formula_to_cells(f, 2).value_or_die();
  ASSERT_EQ(cells.size(), 1u);
  Polyhedron p(cells[0]);
  auto vs = enumerate_vertices(p);
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(polytope_dimension(p), 1);
}

TEST(VertexEnum, EmptyPolyhedron) {
  VarTable vars;
  auto f = parse_formula("x <= 0 & x >= 1", &vars).value_or_die();
  // formula_to_cells drops infeasible cells; build directly instead.
  LinearCell cell(1);
  LinearConstraint c1;
  c1.coeffs = {Rational(1)};
  c1.rhs = Rational(0);
  c1.cmp = LinCmp::kLe;
  LinearConstraint c2;
  c2.coeffs = {Rational(-1)};
  c2.rhs = Rational(-1);
  c2.cmp = LinCmp::kLe;
  cell.add(c1);
  cell.add(c2);
  Polyhedron p(cell);
  EXPECT_TRUE(p.is_empty());
  EXPECT_TRUE(enumerate_vertices(p).empty());
  EXPECT_EQ(polytope_dimension(p), -1);
}

TEST(PolytopeVolume, Boxes) {
  EXPECT_EQ(polytope_volume(Polyhedron::box(1, Rational(0), Rational(1)))
                .value_or_die(),
            Rational(1));
  EXPECT_EQ(polytope_volume(Polyhedron::box(2, Rational(-1), Rational(1)))
                .value_or_die(),
            Rational(4));
  EXPECT_EQ(polytope_volume(Polyhedron::box(3, Rational(0), Rational(2)))
                .value_or_die(),
            Rational(8));
  EXPECT_EQ(polytope_volume(Polyhedron::box(4, Rational(0), Rational(1)))
                .value_or_die(),
            Rational(1));
}

TEST(PolytopeVolume, Simplices) {
  // Vol of standard simplex in R^n with side s is s^n / n!.
  EXPECT_EQ(polytope_volume(Polyhedron::simplex(2, Rational(1)))
                .value_or_die(),
            Rational(1, 2));
  EXPECT_EQ(polytope_volume(Polyhedron::simplex(3, Rational(1)))
                .value_or_die(),
            Rational(1, 6));
  EXPECT_EQ(polytope_volume(Polyhedron::simplex(4, Rational(1)))
                .value_or_die(),
            Rational(1, 24));
  EXPECT_EQ(polytope_volume(Polyhedron::simplex(3, Rational(2)))
                .value_or_die(),
            Rational(8, 6));
}

TEST(PolytopeVolume, DegenerateIsZero) {
  VarTable vars;
  auto f = parse_formula("0 <= x & x <= 1 & y = x", &vars).value_or_die();
  auto cells = formula_to_cells(f, 2).value_or_die();
  Polyhedron p(cells[0]);
  EXPECT_EQ(polytope_volume(p).value_or_die(), Rational(0));
}

TEST(PolytopeVolume, ImplicitEqualityIsZero) {
  // x <= 1/2 and x >= 1/2 without an explicit equality.
  LinearCell cell(2);
  LinearConstraint up;
  up.coeffs = {Rational(1), Rational(0)};
  up.rhs = Rational(1, 2);
  up.cmp = LinCmp::kLe;
  LinearConstraint dn;
  dn.coeffs = {Rational(-1), Rational(0)};
  dn.rhs = Rational(-1, 2);
  dn.cmp = LinCmp::kLe;
  cell.add(up);
  cell.add(dn);
  cell = cell.intersect_box(Rational(0), Rational(1));
  EXPECT_EQ(polytope_volume(Polyhedron(cell)).value_or_die(), Rational(0));
}

TEST(PolytopeVolume, UnboundedErrors) {
  LinearCell cell(2);
  LinearConstraint c;
  c.coeffs = {Rational(1), Rational(0)};
  c.rhs = Rational(0);
  c.cmp = LinCmp::kLe;
  cell.add(c);
  EXPECT_FALSE(polytope_volume(Polyhedron(cell)).is_ok());
}

TEST(PolytopeVolume, CrossPolytope2d) {
  // |x| + |y| <= 1 has area 2.
  VarTable vars;
  auto f = parse_formula(
               "x + y <= 1 & x - y <= 1 & 0 - x + y <= 1 & 0 - x - y <= 1",
               &vars)
               .value_or_die();
  auto cells = formula_to_cells(f, 2).value_or_die();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(polytope_volume(Polyhedron(cells[0])).value_or_die(), Rational(2));
}

TEST(PolytopeVolume, AgainstSimplexFormula) {
  // Simplex with vertices 0, 2e1, 3e2, 4e3: volume |det|/6 = 24/6 = 4.
  std::vector<RVec> verts = {pt({0, 0, 0}), pt({2, 0, 0}), pt({0, 3, 0}),
                             pt({0, 0, 4})};
  EXPECT_EQ(simplex_volume(verts), Rational(4));
  auto hull = Polyhedron::hull_of(verts).value_or_die();
  EXPECT_EQ(polytope_volume(hull).value_or_die(), Rational(4));
}

TEST(PolyhedronHull, SquareFromPoints) {
  std::vector<RVec> pts = {pt({0, 0}), pt({1, 0}), pt({0, 1}), pt({1, 1}),
                           pt({0, 0})};  // duplicate ok
  auto hull = Polyhedron::hull_of(pts).value_or_die();
  EXPECT_TRUE(hull.contains({Rational(1, 2), Rational(1, 2)}));
  EXPECT_FALSE(hull.contains({Rational(2), Rational(0)}));
  EXPECT_EQ(polytope_volume(hull).value_or_die(), Rational(1));
}

TEST(PolyhedronHull, InteriorPointsIgnored) {
  std::vector<RVec> pts = {pt({0, 0}), pt({4, 0}), pt({0, 4}),
                           pt({1, 1})};  // interior
  auto hull = Polyhedron::hull_of(pts).value_or_die();
  EXPECT_EQ(polytope_volume(hull).value_or_die(), Rational(8));
  auto vs = enumerate_vertices(hull);
  EXPECT_EQ(vs.size(), 3u);
}

TEST(PolyhedronHull, DegenerateRejected) {
  std::vector<RVec> pts = {pt({0, 0}), pt({1, 1}), pt({2, 2})};
  EXPECT_FALSE(Polyhedron::hull_of(pts).is_ok());
  // Single point OK.
  auto single = Polyhedron::hull_of({pt({3, 4})}).value_or_die();
  EXPECT_TRUE(single.contains(pt({3, 4})));
  EXPECT_FALSE(single.contains(pt({3, 5})));
}

TEST(Hull2d, MonotoneChain) {
  std::vector<Point2> pts = {
      {Rational(0), Rational(0)}, {Rational(2), Rational(0)},
      {Rational(2), Rational(2)}, {Rational(0), Rational(2)},
      {Rational(1), Rational(1)},  // interior
      {Rational(1), Rational(0)},  // on edge
  };
  auto hull = convex_hull(pts);
  ASSERT_EQ(hull.size(), 4u);
  EXPECT_EQ(polygon_area(hull), Rational(4));
  EXPECT_TRUE(convex_contains(hull, {Rational(1), Rational(1)}));
  EXPECT_TRUE(convex_contains(hull, {Rational(0), Rational(0)}));
  EXPECT_FALSE(convex_contains(hull, {Rational(3), Rational(0)}));
}

TEST(Hull2d, TriangulationSumsToArea) {
  std::vector<Point2> pts = {
      {Rational(0), Rational(0)}, {Rational(3), Rational(0)},
      {Rational(4), Rational(2)}, {Rational(2), Rational(4)},
      {Rational(0), Rational(3)},
  };
  auto hull = convex_hull(pts);
  ASSERT_EQ(hull.size(), 5u);
  Rational total;
  for (const auto& tri : fan_triangulate(hull)) {
    total += triangle_area(tri[0], tri[1], tri[2]);
  }
  EXPECT_EQ(total, polygon_area(hull));
}

TEST(Hull2d, CollinearDegenerate) {
  std::vector<Point2> pts = {
      {Rational(0), Rational(0)}, {Rational(1), Rational(1)},
      {Rational(2), Rational(2)},
  };
  auto hull = convex_hull(pts);
  EXPECT_EQ(hull.size(), 2u);  // just the segment endpoints
  EXPECT_EQ(polygon_area(hull), Rational(0));
}

TEST(Affine, PointsAndComposition) {
  AffineMap t = AffineMap::translation({Rational(1), Rational(2)});
  AffineMap s = AffineMap::scaling(2, Rational(3));
  RVec p = {Rational(1), Rational(1)};
  EXPECT_EQ(t.apply(p), (RVec{Rational(2), Rational(3)}));
  EXPECT_EQ(s.apply(p), (RVec{Rational(3), Rational(3)}));
  AffineMap st = s.compose(t);  // scale after translate
  EXPECT_EQ(st.apply(p), (RVec{Rational(6), Rational(9)}));
  EXPECT_EQ(st.determinant(), Rational(9));
}

TEST(Affine, Rotation2dIsOrthogonal) {
  AffineMap r = AffineMap::rotation2d(Rational(1, 2));
  EXPECT_EQ(r.determinant(), Rational(1));
  // Image of the unit square has the same volume.
  LinearCell square = LinearCell(2).intersect_box(Rational(0), Rational(1));
  LinearCell rotated = r.apply(square).value_or_die();
  EXPECT_EQ(polytope_volume(Polyhedron(rotated)).value_or_die(), Rational(1));
}

TEST(Affine, CellImageScalesVolume) {
  AffineMap s = AffineMap::scaling(2, Rational(2));
  LinearCell square = LinearCell(2).intersect_box(Rational(0), Rational(1));
  LinearCell img = s.apply(square).value_or_die();
  EXPECT_EQ(polytope_volume(Polyhedron(img)).value_or_die(), Rational(4));
  AffineMap sh = AffineMap::shear2d(Rational(5));
  LinearCell sheared = sh.apply(square).value_or_die();
  EXPECT_EQ(polytope_volume(Polyhedron(sheared)).value_or_die(), Rational(1));
}

TEST(Affine, CellImageContainsMappedPoints) {
  AffineMap r = AffineMap::rotation2d(Rational(1, 3));
  LinearCell square = LinearCell(2).intersect_box(Rational(0), Rational(1));
  LinearCell img = r.apply(square).value_or_die();
  for (int i = 0; i <= 2; ++i) {
    for (int j = 0; j <= 2; ++j) {
      RVec p = {Rational(i, 2), Rational(j, 2)};
      EXPECT_TRUE(img.contains(r.apply(p)));
    }
  }
  EXPECT_FALSE(img.contains(r.apply({Rational(2), Rational(0)})));
}

}  // namespace
}  // namespace cqa
