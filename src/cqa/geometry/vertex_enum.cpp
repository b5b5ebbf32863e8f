#include "cqa/geometry/vertex_enum.h"

#include <algorithm>

namespace cqa {

std::vector<RVec> enumerate_vertices(const Polyhedron& p) {
  const std::size_t dim = p.dim();
  const auto& cs = fm_simplify(p.constraints());
  const std::size_t m = cs.size();
  std::vector<RVec> vertices;
  if (m < dim) return vertices;

  std::vector<std::size_t> comb(dim);
  for (std::size_t i = 0; i < dim; ++i) comb[i] = i;
  auto advance = [&]() -> bool {
    std::size_t i = dim;
    while (i-- > 0) {
      if (comb[i] < m - dim + i) {
        ++comb[i];
        for (std::size_t j = i + 1; j < dim; ++j) comb[j] = comb[j - 1] + 1;
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
      const auto& c = cs[comb[r]];
      for (std::size_t j = 0; j < dim; ++j) a.at(r, j) = c.coeffs[j];
      b[r] = c.rhs;
    }
    if (auto x = solve_square(a, b)) {
      // Feasible w.r.t. the closed constraint system?
      bool feasible = true;
      for (const auto& c : cs) {
        if (!c.closure().satisfied_by(*x)) {
          feasible = false;
          break;
        }
      }
      if (feasible) vertices.push_back(std::move(*x));
    }
    more = advance();
  }
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  return vertices;
}

int polytope_dimension(const Polyhedron& p) {
  auto vs = enumerate_vertices(p);
  if (vs.empty()) {
    // Could be empty polyhedron or one without vertices; distinguish.
    return p.is_empty() ? -1 : static_cast<int>(p.dim());
  }
  return affine_hull_dim(vs);
}

}  // namespace cqa
