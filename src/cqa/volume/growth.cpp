#include "cqa/volume/growth.h"

#include <algorithm>

#include "cqa/geometry/vertex_enum.h"
#include "cqa/poly/interpolation.h"
#include "cqa/volume/semilinear_volume.h"

namespace cqa {

Result<GrowthPolynomial> volume_growth(const std::vector<LinearCell>& cells) {
  if (cells.empty()) {
    return GrowthPolynomial{UPoly(), Rational(0)};
  }
  const std::size_t dim = cells[0].dim();
  // Every structural change of S cap [-r,r]^n happens while a box facet
  // still interacts with the bounded part of the arrangement: beyond the
  // largest |coordinate| of any arrangement vertex, the combinatorics of
  // the intersection pattern is constant and V(r) is one polynomial.
  Rational threshold(1);
  {
    // Pool all constraints without simplification: dominance pruning is
    // only sound within one conjunction, not across cells of a union.
    std::vector<LinearConstraint> planes;
    for (const auto& cell : cells) {
      for (const auto& c : cell.constraints()) planes.push_back(c.closure());
    }
    const std::size_t m = planes.size();
    if (m >= dim) {
      std::vector<std::size_t> comb(dim);
      for (std::size_t i = 0; i < dim; ++i) comb[i] = i;
      auto advance = [&]() -> bool {
        std::size_t i = dim;
        while (i-- > 0) {
          if (comb[i] < m - dim + i) {
            ++comb[i];
            for (std::size_t j = i + 1; j < dim; ++j) {
              comb[j] = comb[j - 1] + 1;
            }
            return true;
          }
        }
        return false;
      };
      bool more = true;
      while (more) {
        Matrix a(dim, dim);
        RVec b(dim);
        for (std::size_t r = 0; r < dim; ++r) {
          for (std::size_t c = 0; c < dim; ++c) {
            a.at(r, c) = planes[comb[r]].coeffs[c];
          }
          b[r] = planes[comb[r]].rhs;
        }
        if (const auto solution = solve_square(a, b)) {
          for (const Rational& x : *solution) {
            Rational ax = x.abs() + Rational(1);
            if (ax > threshold) threshold = ax;
          }
        }
        more = advance();
      }
    }
    // Also clear every single hyperplane's axis intercepts.
    for (const auto& p : planes) {
      for (std::size_t v = 0; v < dim; ++v) {
        if (!p.coeffs[v].is_zero()) {
          Rational ax = (p.rhs / p.coeffs[v]).abs() + Rational(1);
          if (ax > threshold) threshold = ax;
        }
      }
    }
  }
  // Sample V(r) at dim+1 points beyond the threshold and interpolate
  // (degree of V is at most dim).
  std::vector<std::pair<Rational, Rational>> samples;
  for (std::size_t k = 0; k <= dim; ++k) {
    Rational r = threshold + Rational(static_cast<std::int64_t>(k + 1));
    std::vector<LinearCell> boxed;
    boxed.reserve(cells.size());
    for (const auto& cell : cells) {
      boxed.push_back(cell.intersect_box(-r, r));
    }
    auto v = semilinear_volume(boxed);
    if (!v.is_ok()) return v.status();
    samples.emplace_back(r, v.value());
  }
  return GrowthPolynomial{interpolate(samples), threshold};
}

Result<Rational> mu_operator(const std::vector<LinearCell>& cells) {
  auto growth = volume_growth(cells);
  if (!growth.is_ok()) return growth.status();
  if (cells.empty()) return Rational(0);
  const std::size_t dim = cells[0].dim();
  const UPoly& p = growth.value().poly;
  if (p.degree() < static_cast<int>(dim)) return Rational(0);
  // V(r) ~ c r^dim; mu = c / 2^dim.
  return p.coeff(dim) / Rational(BigInt::pow(BigInt(2), dim));
}

}  // namespace cqa
