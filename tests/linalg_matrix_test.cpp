#include "cqa/linalg/matrix.h"

#include <random>

#include <gtest/gtest.h>

namespace cqa {
namespace {

Matrix mat2(std::int64_t a, std::int64_t b, std::int64_t c, std::int64_t d) {
  return Matrix::from_rows({{Rational(a), Rational(b)},
                            {Rational(c), Rational(d)}});
}

TEST(VecOps, Basics) {
  RVec a{Rational(1), Rational(2)};
  RVec b{Rational(3), Rational(-1)};
  EXPECT_EQ(dot(a, b), Rational(1));
  EXPECT_EQ(vec_add(a, b), (RVec{Rational(4), Rational(1)}));
  EXPECT_EQ(vec_sub(a, b), (RVec{Rational(-2), Rational(3)}));
  EXPECT_EQ(vec_scale(Rational(2), a), (RVec{Rational(2), Rational(4)}));
  EXPECT_FALSE(vec_is_zero(a));
  EXPECT_TRUE(vec_is_zero(RVec{Rational(), Rational()}));
}

TEST(Matrix, Determinant) {
  EXPECT_EQ(mat2(1, 2, 3, 4).determinant(), Rational(-2));
  EXPECT_EQ(mat2(1, 2, 2, 4).determinant(), Rational(0));
  EXPECT_EQ(Matrix::identity(5).determinant(), Rational(1));
  Matrix m = Matrix::from_rows({
      {Rational(2), Rational(0), Rational(1)},
      {Rational(1), Rational(1), Rational(0)},
      {Rational(0), Rational(3), Rational(1)},
  });
  EXPECT_EQ(m.determinant(), Rational(5));
}

TEST(Matrix, Rank) {
  EXPECT_EQ(mat2(1, 2, 2, 4).rank(), 1u);
  EXPECT_EQ(mat2(1, 2, 3, 4).rank(), 2u);
  EXPECT_EQ(Matrix(3, 3).rank(), 0u);
  Matrix wide = Matrix::from_rows({
      {Rational(1), Rational(0), Rational(1)},
      {Rational(0), Rational(1), Rational(1)},
  });
  EXPECT_EQ(wide.rank(), 2u);
}

TEST(Matrix, Inverse) {
  Matrix m = mat2(1, 2, 3, 4);
  Matrix inv = m.inverse().value_or_die();
  Matrix prod = m * inv;
  EXPECT_EQ(prod.at(0, 0), Rational(1));
  EXPECT_EQ(prod.at(0, 1), Rational(0));
  EXPECT_EQ(prod.at(1, 0), Rational(0));
  EXPECT_EQ(prod.at(1, 1), Rational(1));
  EXPECT_FALSE(mat2(1, 2, 2, 4).inverse().is_ok());
  EXPECT_FALSE(Matrix(2, 3).inverse().is_ok());
}

TEST(Matrix, SolveSquare) {
  Matrix a = mat2(2, 1, 1, 3);
  RVec b{Rational(5), Rational(10)};
  RVec x = *solve_square(a, b);
  EXPECT_EQ(a.apply(x), b);
  EXPECT_EQ(x[0], Rational(1));
  EXPECT_EQ(x[1], Rational(3));
}

TEST(Matrix, SolveSquareRejectsSingular) {
  // Consistent but singular: solve_any finds a point, solve_square has no
  // unique solution to give.
  Matrix a = mat2(1, 2, 2, 4);
  EXPECT_FALSE(solve_square(a, RVec{Rational(3), Rational(6)}).has_value());
  EXPECT_FALSE(solve_square(a, RVec{Rational(3), Rational(7)}).has_value());
  EXPECT_FALSE(solve_square(Matrix(2, 2), RVec(2)).has_value());
}

TEST(Matrix, SolveSingularConsistent) {
  Matrix a = mat2(1, 2, 2, 4);
  RVec b{Rational(3), Rational(6)};
  auto x = solve_any(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(a.apply(*x), b);
}

TEST(Matrix, SolveInconsistent) {
  Matrix a = mat2(1, 2, 2, 4);
  RVec b{Rational(3), Rational(7)};
  EXPECT_FALSE(solve_any(a, b).has_value());
}

TEST(Matrix, SolveRectangular) {
  // Overdetermined but consistent.
  Matrix a = Matrix::from_rows({
      {Rational(1), Rational(0)},
      {Rational(0), Rational(1)},
      {Rational(1), Rational(1)},
  });
  RVec b{Rational(2), Rational(3), Rational(5)};
  auto x = solve_any(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(a.apply(*x), b);
  // Overdetermined inconsistent.
  RVec bad{Rational(2), Rational(3), Rational(6)};
  EXPECT_FALSE(solve_any(a, bad).has_value());
}

TEST(Matrix, Nullspace) {
  Matrix a = mat2(1, 2, 2, 4);
  auto ns = a.nullspace();
  ASSERT_EQ(ns.size(), 1u);
  EXPECT_TRUE(vec_is_zero(a.apply(ns[0])));
  EXPECT_FALSE(vec_is_zero(ns[0]));
  EXPECT_TRUE(Matrix::identity(3).nullspace().empty());
}

TEST(Matrix, TransposeMultiply) {
  Matrix a = Matrix::from_rows({{Rational(1), Rational(2), Rational(3)}});
  Matrix at = a.transpose();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_EQ(at.cols(), 1u);
  Matrix gram = a * at;  // 1x1 = 14
  EXPECT_EQ(gram.at(0, 0), Rational(14));
}

TEST(Matrix, AffineHullDim) {
  RVec p0{Rational(0), Rational(0)};
  RVec p1{Rational(1), Rational(0)};
  RVec p2{Rational(0), Rational(1)};
  RVec p3{Rational(1), Rational(1)};
  EXPECT_EQ(affine_hull_dim({}), -1);
  EXPECT_EQ(affine_hull_dim({p0}), 0);
  EXPECT_EQ(affine_hull_dim({p0, p1}), 1);
  EXPECT_EQ(affine_hull_dim({p0, p1, vec_scale(Rational(3), p1)}), 1);
  EXPECT_EQ(affine_hull_dim({p0, p1, p2}), 2);
  EXPECT_EQ(affine_hull_dim({p0, p1, p2, p3}), 2);
}

TEST(Matrix, InverseRandomizedRoundTrip) {
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 2 + rng() % 4;
    Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        m.at(r, c) = Rational(static_cast<std::int64_t>(rng() % 21) - 10);
      }
    }
    if (m.determinant().is_zero()) continue;
    Matrix inv = m.inverse().value_or_die();
    Matrix prod = m * inv;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        EXPECT_EQ(prod.at(r, c), r == c ? Rational(1) : Rational(0));
      }
    }
    // det(M^-1) == 1/det(M)
    EXPECT_EQ(inv.determinant(), m.determinant().inverse());
  }
}

}  // namespace
}  // namespace cqa
