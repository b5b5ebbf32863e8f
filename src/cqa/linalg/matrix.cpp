#include "cqa/linalg/matrix.h"

#include <algorithm>

namespace cqa {

Rational dot(const RVec& a, const RVec& b) {
  CQA_DCHECK(a.size() == b.size());
  Rational out;
  for (std::size_t i = 0; i < a.size(); ++i) out += a[i] * b[i];
  return out;
}

RVec vec_add(const RVec& a, const RVec& b) {
  CQA_DCHECK(a.size() == b.size());
  RVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

RVec vec_sub(const RVec& a, const RVec& b) {
  CQA_DCHECK(a.size() == b.size());
  RVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

RVec vec_scale(const Rational& c, const RVec& a) {
  RVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = c * a[i];
  return out;
}

bool vec_is_zero(const RVec& a) {
  for (const auto& x : a) {
    if (!x.is_zero()) return false;
  }
  return true;
}

Matrix Matrix::from_rows(const std::vector<RVec>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    CQA_CHECK(rows[r].size() == m.cols_);
    for (std::size_t c = 0; c < m.cols_; ++c) m.at(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = Rational(1);
  return m;
}

Matrix Matrix::transpose() const {
  Matrix m(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) m.at(c, r) = at(r, c);
  }
  return m;
}

Matrix Matrix::operator*(const Matrix& o) const {
  CQA_CHECK(cols_ == o.rows_);
  Matrix m(rows_, o.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const Rational& v = at(r, k);
      if (v.is_zero()) continue;
      for (std::size_t c = 0; c < o.cols_; ++c) {
        m.at(r, c) += v * o.at(k, c);
      }
    }
  }
  return m;
}

RVec Matrix::apply(const RVec& v) const {
  CQA_CHECK(v.size() == cols_);
  RVec out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    Rational s;
    for (std::size_t c = 0; c < cols_; ++c) s += at(r, c) * v[c];
    out[r] = s;
  }
  return out;
}

namespace {

// Row-echelon elimination in place; returns pivot column per pivot row.
std::vector<std::size_t> eliminate(Matrix* m) {
  std::vector<std::size_t> pivots;
  std::size_t pr = 0;
  for (std::size_t c = 0; c < m->cols() && pr < m->rows(); ++c) {
    std::size_t sel = pr;
    while (sel < m->rows() && m->at(sel, c).is_zero()) ++sel;
    if (sel == m->rows()) continue;
    if (sel != pr) {
      for (std::size_t k = 0; k < m->cols(); ++k) {
        std::swap(m->at(sel, k), m->at(pr, k));
      }
    }
    const Rational inv = m->at(pr, c).inverse();
    for (std::size_t k = c; k < m->cols(); ++k) m->at(pr, k) *= inv;
    for (std::size_t r = 0; r < m->rows(); ++r) {
      if (r == pr || m->at(r, c).is_zero()) continue;
      const Rational f = m->at(r, c);
      for (std::size_t k = c; k < m->cols(); ++k) {
        m->at(r, k) -= f * m->at(pr, k);
      }
    }
    pivots.push_back(c);
    ++pr;
  }
  return pivots;
}

// The augmented matrix [A | b].
Matrix augmented(const Matrix& a, const RVec& b) {
  CQA_CHECK(a.rows() == b.size());
  Matrix aug(a.rows(), a.cols() + 1);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) aug.at(r, c) = a.at(r, c);
    aug.at(r, a.cols()) = b[r];
  }
  return aug;
}

}  // namespace

std::size_t Matrix::rank() const {
  Matrix m = *this;
  return eliminate(&m).size();
}

Rational Matrix::determinant() const {
  CQA_CHECK(rows_ == cols_);
  Matrix m = *this;
  Rational det(1);
  for (std::size_t c = 0; c < cols_; ++c) {
    std::size_t sel = c;
    while (sel < rows_ && m.at(sel, c).is_zero()) ++sel;
    if (sel == rows_) return Rational();
    if (sel != c) {
      for (std::size_t k = 0; k < cols_; ++k) {
        std::swap(m.at(sel, k), m.at(c, k));
      }
      det = -det;
    }
    det *= m.at(c, c);
    const Rational inv = m.at(c, c).inverse();
    for (std::size_t r = c + 1; r < rows_; ++r) {
      if (m.at(r, c).is_zero()) continue;
      const Rational f = m.at(r, c) * inv;
      for (std::size_t k = c; k < cols_; ++k) {
        m.at(r, k) -= f * m.at(c, k);
      }
    }
  }
  return det;
}

Result<Matrix> Matrix::inverse() const {
  if (rows_ != cols_) return Status::invalid("inverse of non-square matrix");
  // Augment with identity and eliminate.
  Matrix aug(rows_, 2 * cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) aug.at(r, c) = at(r, c);
    aug.at(r, cols_ + r) = Rational(1);
  }
  std::vector<std::size_t> pivots = eliminate(&aug);
  if (pivots.size() != rows_ || (rows_ > 0 && pivots.back() >= cols_)) {
    return Status::invalid("singular matrix");
  }
  for (std::size_t i = 0; i < pivots.size(); ++i) {
    if (pivots[i] != i) return Status::invalid("singular matrix");
  }
  Matrix inv(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) inv.at(r, c) = aug.at(r, cols_ + c);
  }
  return inv;
}

std::vector<RVec> Matrix::nullspace() const {
  Matrix m = *this;
  std::vector<std::size_t> pivots = eliminate(&m);
  std::vector<bool> is_pivot(cols_, false);
  for (std::size_t c : pivots) is_pivot[c] = true;
  std::vector<RVec> basis;
  for (std::size_t fc = 0; fc < cols_; ++fc) {
    if (is_pivot[fc]) continue;
    RVec v(cols_);
    v[fc] = Rational(1);
    for (std::size_t pr = 0; pr < pivots.size(); ++pr) {
      v[pivots[pr]] = -m.at(pr, fc);
    }
    basis.push_back(std::move(v));
  }
  return basis;
}

std::optional<RVec> solve_square(const Matrix& a, const RVec& b) {
  CQA_CHECK(a.rows() == a.cols());
  CQA_CHECK(a.rows() == b.size());
  const std::size_t n = a.cols();
  if (n == 2) {
    // Cramer's rule: a third of the rational operations of elimination,
    // and the hot case of the exact sweep's 2-D levels.
    const Rational det = a.at(0, 0) * a.at(1, 1) - a.at(0, 1) * a.at(1, 0);
    if (det.is_zero()) return std::nullopt;
    return RVec{(b[0] * a.at(1, 1) - a.at(0, 1) * b[1]) / det,
                (a.at(0, 0) * b[1] - b[0] * a.at(1, 0)) / det};
  }
  Matrix aug = augmented(a, b);
  std::vector<std::size_t> pivots = eliminate(&aug);
  // Nonsingular iff every column of A holds a pivot (and so b's does not).
  if (pivots.size() != n || (n > 0 && pivots.back() >= n)) {
    return std::nullopt;
  }
  RVec x(n);
  for (std::size_t r = 0; r < n; ++r) x[r] = aug.at(r, n);
  return x;
}

std::optional<RVec> solve_any(const Matrix& a, const RVec& b) {
  Matrix aug = augmented(a, b);
  std::vector<std::size_t> pivots = eliminate(&aug);
  // Inconsistent iff some pivot sits in the augmented column.
  if (!pivots.empty() && pivots.back() == a.cols()) return std::nullopt;
  RVec x(a.cols());
  for (std::size_t pr = 0; pr < pivots.size(); ++pr) {
    x[pivots[pr]] = aug.at(pr, a.cols());
  }
  return x;
}

std::size_t rank_of(const std::vector<RVec>& vectors) {
  if (vectors.empty()) return 0;
  return Matrix::from_rows(vectors).rank();
}

int affine_hull_dim(const std::vector<RVec>& points) {
  if (points.empty()) return -1;
  std::vector<RVec> diffs;
  for (std::size_t i = 1; i < points.size(); ++i) {
    diffs.push_back(vec_sub(points[i], points[0]));
  }
  return static_cast<int>(rank_of(diffs));
}

}  // namespace cqa
