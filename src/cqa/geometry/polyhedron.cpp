#include "cqa/geometry/polyhedron.h"

#include <algorithm>

namespace cqa {

Polyhedron::Polyhedron(const LinearCell& cell) : cell_(cell.closure()) {}

Polyhedron Polyhedron::box(std::size_t dim, const Rational& lo,
                           const Rational& hi) {
  LinearCell cell(dim);
  Polyhedron p(cell.intersect_box(lo, hi));
  return p;
}

Polyhedron Polyhedron::simplex(std::size_t dim, const Rational& s) {
  LinearCell cell(dim);
  for (std::size_t v = 0; v < dim; ++v) {
    LinearConstraint c;
    c.coeffs.assign(dim, Rational());
    c.coeffs[v] = Rational(-1);
    c.rhs = Rational(0);
    c.cmp = LinCmp::kLe;
    cell.add(std::move(c));
  }
  LinearConstraint sum;
  sum.coeffs.assign(dim, Rational(1));
  sum.rhs = s;
  sum.cmp = LinCmp::kLe;
  cell.add(std::move(sum));
  return Polyhedron(cell);
}

Result<Polyhedron> Polyhedron::hull_of(const std::vector<RVec>& points) {
  if (points.empty()) return Status::invalid("hull of no points");
  const std::size_t dim = points[0].size();
  for (const auto& p : points) {
    if (p.size() != dim) return Status::invalid("hull: mixed dimensions");
  }
  const int aff = affine_hull_dim(points);
  if (aff == 0) {
    // Single point: x = p.
    LinearCell cell(dim);
    for (std::size_t v = 0; v < dim; ++v) {
      LinearConstraint c;
      c.coeffs.assign(dim, Rational());
      c.coeffs[v] = Rational(1);
      c.rhs = points[0][v];
      c.cmp = LinCmp::kEq;
      cell.add(std::move(c));
    }
    return Polyhedron(cell);
  }
  if (aff < static_cast<int>(dim)) {
    return Status::unsupported(
        "hull_of: points are not full-dimensional (affine hull dim " +
        std::to_string(aff) + " < " + std::to_string(dim) + ")");
  }
  // Enumerate dim-subsets, fit the hyperplane through them, keep it if all
  // points lie (weakly) on one side.
  LinearCell cell(dim);
  std::vector<std::size_t> idx(dim);
  // Iterative combination enumeration.
  std::vector<std::size_t> comb(dim);
  for (std::size_t i = 0; i < dim; ++i) comb[i] = i;
  const std::size_t n = points.size();
  auto advance = [&]() -> bool {
    std::size_t i = dim;
    while (i-- > 0) {
      if (comb[i] < n - dim + i) {
        ++comb[i];
        for (std::size_t j = i + 1; j < dim; ++j) comb[j] = comb[j - 1] + 1;
        return true;
      }
    }
    return false;
  };
  std::vector<LinearConstraint> facets;
  bool more = true;
  while (more) {
    // Hyperplane a.x = b through points[comb[*]]: nullspace of [p | 1].
    Matrix m(dim, dim + 1);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) m.at(r, c) = points[comb[r]][c];
      m.at(r, dim) = Rational(1);
    }
    auto ns = m.nullspace();
    if (ns.size() == 1) {
      RVec a(ns[0].begin(), ns[0].begin() + static_cast<std::ptrdiff_t>(dim));
      Rational b = -ns[0][dim];
      if (!vec_is_zero(a)) {
        int lo = 0, hi = 0;
        for (const auto& p : points) {
          int s = (dot(a, p) - b).sign();
          if (s < 0) lo = 1;
          if (s > 0) hi = 1;
          if (lo && hi) break;
        }
        if (!(lo && hi)) {
          LinearConstraint c;
          if (hi) {
            // all points have a.x >= b: flip to -a.x <= -b
            c.coeffs = vec_scale(Rational(-1), a);
            c.rhs = -b;
          } else {
            c.coeffs = a;
            c.rhs = b;
          }
          c.cmp = LinCmp::kLe;
          facets.push_back(std::move(c));
        }
      }
    }
    more = advance();
  }
  for (auto& f : fm_simplify(facets)) cell.add(std::move(f));
  return Polyhedron(cell);
}

}  // namespace cqa
