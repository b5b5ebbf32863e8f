#include "cqa/volume/semilinear_volume.h"

#include <algorithm>

#include "cqa/guard/fault.h"
#include "cqa/poly/interpolation.h"

namespace cqa {

bool is_full_dimensional(const LinearCell& cell) {
  std::vector<LinearConstraint> strict;
  strict.reserve(cell.constraints().size());
  for (const auto& c : cell.constraints()) {
    if (c.cmp == LinCmp::kEq) {
      if (!c.is_constant()) return false;
      if (!c.constant_truth()) return false;
      continue;
    }
    LinearConstraint s = c;
    s.cmp = LinCmp::kLt;
    strict.push_back(std::move(s));
  }
  return fm_feasible(strict, cell.dim());
}

namespace {

// Weights of the open Newton-Cotes rule on the n nodes of sample_points:
// for every polynomial p of degree < n,
//   Integral_a^b p = (b - a) * sum_i w_i p(a + i (b - a) / (n + 1)).
// They solve sum_i w_i u_i^k = 1 / (k + 1), k < n, at u_i = i / (n + 1).
std::vector<Rational> newton_cotes_weights(std::size_t n) {
  Matrix moments(n, n);
  RVec rhs(n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      moments.at(k, i) = Rational::pow(
          Rational(static_cast<std::int64_t>(i + 1),
                   static_cast<std::int64_t>(n + 1)),
          static_cast<std::int64_t>(k));
    }
    rhs[k] = Rational(1, static_cast<std::int64_t>(k + 1));
  }
  return *solve_square(moments, rhs);
}

// What every level of one volume computation shares.
struct SweepContext {
  SweepContext(std::size_t dim, VolumeStats* stats, const CancelToken* cancel,
               guard::WorkMeter* meter)
      : stats(stats),
        cancel(cancel),
        meter(meter),
        weights(dim + 1) {}

  VolumeStats* stats;
  const CancelToken* cancel;
  guard::WorkMeter* meter;
  // [n]: newton_cotes_weights(n), filled on first use. Sized up front, so
  // a filled entry is never moved while an outer level holds it.
  mutable std::vector<std::vector<Rational>> weights;

  const std::vector<Rational>& weights_for(std::size_t n) const {
    if (weights[n].empty()) weights[n] = newton_cotes_weights(n);
    return weights[n];
  }

  void count_fm(std::size_t n = 1) const {
    if (stats) stats->feasibility_calls += n;
  }
};

using Interval = std::pair<Rational, Rational>;

// The x_0-shadow [lo, hi] of a full-dimensional bounded cell. In 1-D the
// bounds are read off the constraints; above, Fourier-Motzkin projects.
Interval shadow(const LinearCell& cell, const SweepContext& ctx) {
  if (cell.dim() > 1) {
    AxisInterval iv = cell.project_to_axis(0);
    ctx.count_fm();
    CQA_CHECK(!iv.empty && iv.lo && iv.hi);
    return {std::move(*iv.lo), std::move(*iv.hi)};
  }
  std::optional<Rational> lo, hi;
  for (const auto& c : cell.constraints()) {
    const Rational& a = c.coeffs[0];
    if (a.is_zero()) continue;  // constant, and true: the cell is nonempty
    Rational bound = c.rhs / a;
    if (a.sign() < 0) {
      if (!lo || *lo < bound) lo = std::move(bound);
    } else {
      if (!hi || bound < *hi) hi = std::move(bound);
    }
  }
  CQA_CHECK(lo && hi);
  return {std::move(*lo), std::move(*hi)};
}

// Merged total length of a union of intervals.
Rational union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  Rational total;
  std::size_t i = 0;
  while (i < intervals.size()) {
    const Rational& lo = intervals[i].first;
    Rational hi = intervals[i].second;
    std::size_t j = i + 1;
    while (j < intervals.size() && intervals[j].first <= hi) {
      hi = std::max(hi, intervals[j].second);
      ++j;
    }
    total += hi - lo;
    i = j;
  }
  return total;
}

// x_0-coordinates of the vertices of the hyperplane arrangement spanned by
// all constraints of all cells that lie in the closure of some cell,
// sorted and distinct; `shadows` are the cells' x_0-shadows. Vertices
// outside every cell are never breakpoints: by inclusion-exclusion the
// section volume is a signed sum of section volumes of cell
// intersections, each a polytope whose vertices are arrangement vertices
// in those cells' closures.
std::vector<Rational> arrangement_breakpoints(
    const std::vector<LinearCell>& cells,
    const std::vector<Interval>& shadows, std::size_t dim) {
  // NOTE: no fm_simplify here -- dominance pruning is only sound within a
  // single conjunction, and these constraints come from different cells of
  // a union.
  std::vector<LinearCell> closures;
  closures.reserve(cells.size());
  std::vector<LinearConstraint> planes;
  for (const auto& cell : cells) {
    closures.push_back(cell.closure());
    for (const auto& c : closures.back().constraints()) planes.push_back(c);
  }
  // Hyperplanes: dedupe up to sign of the normalized row.
  {
    std::vector<LinearConstraint> uniq;
    for (const auto& c : planes) {
      LinearConstraint n = c.normalized();
      n.cmp = LinCmp::kEq;
      LinearConstraint neg = n;
      neg.coeffs = vec_scale(Rational(-1), n.coeffs);
      neg.rhs = -n.rhs;
      bool seen = false;
      for (const auto& u : uniq) {
        if (u.coeffs == n.coeffs && u.rhs == n.rhs) seen = true;
        if (u.coeffs == neg.coeffs && u.rhs == neg.rhs) seen = true;
        if (seen) break;
      }
      if (!seen && !n.is_constant()) uniq.push_back(std::move(n));
    }
    planes = std::move(uniq);
  }
  const std::size_t m = planes.size();
  std::vector<Rational> xs;
  if (m < dim) return xs;
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
  // Subsets holding two parallel hyperplanes are singular: skip them
  // without solving.
  std::vector<char> parallel(m * m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const RVec neg = vec_scale(Rational(-1), planes[i].coeffs);
    for (std::size_t j = i + 1; j < m; ++j) {
      const RVec& v = planes[j].coeffs;
      parallel[i * m + j] = v == planes[i].coeffs || v == neg;
    }
  }
  auto has_parallel_pair = [&]() {
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t q = r + 1; q < dim; ++q) {
        if (parallel[comb[r] * m + comb[q]]) return true;
      }
    }
    return false;
  };
  Matrix a(dim, dim);
  RVec b(dim);
  do {
    if (has_parallel_pair()) continue;
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        a.at(r, c) = planes[comb[r]].coeffs[c];
      }
      b[r] = planes[comb[r]].rhs;
    }
    if (auto vertex = solve_square(a, b)) {
      const Rational& x0 = (*vertex)[0];
      if (std::find(xs.begin(), xs.end(), x0) == xs.end()) {
        for (std::size_t k = 0; k < closures.size(); ++k) {
          // The shadow test rejects most cells before the full check.
          if (x0 < shadows[k].first || shadows[k].second < x0) continue;
          if (closures[k].contains(*vertex)) {
            xs.push_back(x0);
            break;
          }
        }
      }
    }
  } while (advance());
  std::sort(xs.begin(), xs.end());
  return xs;
}

Result<Rational> volume_union(std::vector<LinearCell> cells, std::size_t dim,
                              const SweepContext& ctx, bool top_level);

// The section { y : (t, y) in cell } as a cell of dimension dim-1. Callers
// only ask for t strictly inside the cell's x_0-shadow, where every
// constraint on x_0 alone holds, so those become constant-true and drop.
LinearCell section_at(const LinearCell& cell, const Rational& t) {
  LinearCell out(cell.dim() - 1);
  for (const auto& c : cell.constraints()) {
    LinearConstraint s;
    s.cmp = c.cmp;
    s.rhs = c.rhs;
    if (!c.coeffs[0].is_zero()) s.rhs -= c.coeffs[0] * t;
    s.coeffs.assign(c.coeffs.begin() + 1, c.coeffs.end());
    if (s.is_constant()) continue;
    out.add(std::move(s));
  }
  return out;
}

// One section evaluation: volume of { y : (t, y) in union of cells }, where
// t lies strictly inside every cell's x_0-shadow. Such sections are
// full-dimensional and bounded, so the recursion skips those filters.
Result<Rational> section_volume(const std::vector<const LinearCell*>& cells,
                                const Rational& t, std::size_t dim,
                                const SweepContext& ctx) {
  std::vector<LinearCell> sections;
  sections.reserve(cells.size());
  for (const LinearCell* cell : cells) sections.push_back(section_at(*cell, t));
  if (ctx.stats) ++ctx.stats->sections_evaluated;
  if (ctx.meter != nullptr && !ctx.meter->charge_sweep_section()) {
    return ctx.meter->check();
  }
  return volume_union(std::move(sections), dim - 1, ctx, /*top_level=*/false);
}

// `cells` are full-dimensional and bounded.
Result<Rational> sweep(const std::vector<LinearCell>& cells, std::size_t dim,
                       const SweepContext& ctx) {
  if (ctx.stats) ++ctx.stats->sweep_calls;
  // Each cell's x_0-shadow [lo, hi], once per level. lo and hi are x_0 of
  // the cell's own vertices, hence breakpoints, so on each breakpoint
  // interval a cell is either absent or its section is full-dimensional
  // at every interior t.
  std::vector<Interval> shadows;
  shadows.reserve(cells.size());
  for (const auto& cell : cells) shadows.push_back(shadow(cell, ctx));
  if (dim == 1) return union_length(std::move(shadows));

  std::vector<Rational> bps = arrangement_breakpoints(cells, shadows, dim);
  for (const auto& [lo, hi] : shadows) {
    CQA_CHECK(std::binary_search(bps.begin(), bps.end(), lo) &&
              std::binary_search(bps.begin(), bps.end(), hi));
  }
  if (ctx.stats) ctx.stats->breakpoints += bps.size();
  if (ctx.meter != nullptr) {
    // Breakpoint enumeration is C(m, dim) exact solves; account the
    // materialized breakpoint list before integrating over it.
    ctx.meter->charge_resident_bytes(bps.size() * 32);
    CQA_RETURN_IF_ERROR(ctx.meter->check());
  }
  const std::vector<Rational>& weights = ctx.weights_for(dim);
  Rational total;
  std::vector<const LinearCell*> present;
  for (std::size_t i = 0; i + 1 < bps.size(); ++i) {
    const Rational& a = bps[i];
    const Rational& b = bps[i + 1];
    present.clear();
    for (std::size_t k = 0; k < cells.size(); ++k) {
      if (shadows[k].first <= a && b <= shadows[k].second) {
        present.push_back(&cells[k]);
      }
    }
    if (present.empty()) continue;  // g vanishes on (a, b)
    // Section volume g(t) restricted to (a, b) is a polynomial of degree
    // <= dim-1, so dim exact samples integrate it exactly.
    const std::vector<Rational> ts = sample_points(a, b, dim);
    Rational sum;
    for (std::size_t j = 0; j < dim; ++j) {
      if (ctx.cancel != nullptr) {
        CQA_RETURN_IF_ERROR(ctx.cancel->check());
      }
      auto g = section_volume(present, ts[j], dim, ctx);
      if (!g.is_ok()) return g;
      sum += weights[j] * g.value();
    }
    total += (b - a) * sum;
  }
  return total;
}

// Volume of the union of `cells` in R^dim. Only the top-level call filters
// out lower-dimensional cells and rejects unbounded ones; sweep sections
// are full-dimensional and bounded by construction.
Result<Rational> volume_union(std::vector<LinearCell> cells, std::size_t dim,
                              const SweepContext& ctx, bool top_level) {
  if (ctx.cancel != nullptr) {
    CQA_RETURN_IF_ERROR(ctx.cancel->check());
  }
  if (guard::fault_fires(guard::FaultSite::kSpuriousCancel)) {
    return Status::cancelled("injected spurious cancellation (sweep)");
  }
  if (ctx.meter != nullptr) {
    CQA_RETURN_IF_ERROR(ctx.meter->check());
  }
  if (top_level) {
    // Keep only full-dimensional cells (others have measure 0).
    std::vector<LinearCell> live;
    for (auto& cell : cells) {
      CQA_CHECK(cell.dim() == dim);
      ctx.count_fm();
      if (is_full_dimensional(cell)) live.push_back(std::move(cell));
    }
    cells = std::move(live);
    if (cells.empty()) return Rational(0);
    if (dim == 0) return Rational(1);
    for (const auto& cell : cells) {
      ctx.count_fm(dim);
      if (!cell.is_bounded()) {
        return Status::invalid(
            "semilinear_volume: unbounded cell (use VOL_I or bound the set)");
      }
    }
  }
  return sweep(cells, dim, ctx);
}

}  // namespace

Result<Rational> semilinear_volume(const std::vector<LinearCell>& cells,
                                   VolumeStats* stats,
                                   const CancelToken* cancel,
                                   guard::WorkMeter* meter) {
  if (cells.empty()) return Rational(0);
  const std::size_t dim = cells[0].dim();
  return volume_union(cells, dim, SweepContext(dim, stats, cancel, meter),
                      /*top_level=*/true);
}

Result<Rational> formula_volume(const FormulaPtr& f, std::size_t dim) {
  auto cells = formula_to_cells(f, dim);
  if (!cells.is_ok()) return cells.status();
  return semilinear_volume(cells.value());
}

Result<Rational> formula_volume_I(const FormulaPtr& f, std::size_t dim) {
  auto cells = formula_to_cells(f, dim);
  if (!cells.is_ok()) return cells.status();
  std::vector<LinearCell> boxed;
  boxed.reserve(cells.value().size());
  for (const auto& cell : cells.value()) {
    boxed.push_back(cell.intersect_box(Rational(0), Rational(1)));
  }
  return semilinear_volume(boxed);
}

}  // namespace cqa
