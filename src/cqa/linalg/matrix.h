// Dense exact linear algebra over Rational.
//
// Sized for the paper's workloads: vertex enumeration solves n x n systems,
// interpolation solves Vandermonde-like systems, affine-hull dimension is a
// rank computation. Everything is fraction-free-safe because Rational
// normalizes after each operation.

#ifndef CQA_LINALG_MATRIX_H_
#define CQA_LINALG_MATRIX_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "cqa/arith/rational.h"
#include "cqa/util/status.h"

namespace cqa {

/// Exact rational vector.
using RVec = std::vector<Rational>;

/// a . b (sizes must match).
Rational dot(const RVec& a, const RVec& b);
/// a + b.
RVec vec_add(const RVec& a, const RVec& b);
/// a - b.
RVec vec_sub(const RVec& a, const RVec& b);
/// c * a.
RVec vec_scale(const Rational& c, const RVec& a);
/// True iff every entry is zero.
bool vec_is_zero(const RVec& a);

/// Dense matrix of Rationals, row-major.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  /// rows x cols zero matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}
  /// From nested initializer data; all rows must have equal length.
  static Matrix from_rows(const std::vector<RVec>& rows);
  /// n x n identity.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  Rational& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const Rational& at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  Matrix transpose() const;
  Matrix operator*(const Matrix& o) const;
  RVec apply(const RVec& v) const;

  /// Rank via Gaussian elimination.
  std::size_t rank() const;
  /// Determinant; aborts unless square.
  Rational determinant() const;
  /// Inverse, or error if singular / non-square.
  Result<Matrix> inverse() const;

  /// Basis of the (right) nullspace, one RVec per basis vector.
  std::vector<RVec> nullspace() const;

 private:
  std::size_t rows_, cols_;
  std::vector<Rational> data_;
};

/// Solves A x = b for square A; nullopt if A is singular (whether or not
/// the system is consistent), so callers need no separate determinant
/// test.
std::optional<RVec> solve_square(const Matrix& a, const RVec& b);

/// Solves the (possibly rectangular) system A x = b. Returns one solution
/// if consistent, nullopt otherwise.
std::optional<RVec> solve_any(const Matrix& a, const RVec& b);

/// Rank of the set of vectors (as rows).
std::size_t rank_of(const std::vector<RVec>& vectors);

/// Dimension of the affine hull of the given points (-1 for empty input,
/// 0 for a single point, etc.).
int affine_hull_dim(const std::vector<RVec>& points);

}  // namespace cqa

#endif  // CQA_LINALG_MATRIX_H_
