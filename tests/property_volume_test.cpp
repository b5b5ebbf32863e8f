// Property-based tests for the volume engines: randomized workloads,
// parameterized over seeds (TEST_P), checking the measure-theoretic laws
// the implementation must satisfy exactly.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "cqa/approx/random.h"
#include "cqa/geometry/affine.h"
#include "cqa/volume/inclusion_exclusion.h"
#include "cqa/volume/semilinear_volume.h"

namespace cqa {
namespace {

// Random generator of small rational boxes and half-plane-cut cells.
class CellGen {
 public:
  explicit CellGen(std::uint64_t seed) : rng_(seed) {}

  Rational small_rational(int num_range, int den_max) {
    std::int64_t n = static_cast<std::int64_t>(rng_.next() %
                                               (2 * num_range + 1)) -
                     num_range;
    std::int64_t d = 1 + static_cast<std::int64_t>(rng_.next() %
                                                   static_cast<std::uint64_t>(
                                                       den_max));
    return Rational(n, d);
  }

  LinearCell box(std::size_t dim) {
    LinearCell cell(dim);
    for (std::size_t v = 0; v < dim; ++v) {
      Rational lo = small_rational(6, 3);
      Rational w = small_rational(4, 3).abs() + Rational(1, 3);
      LinearConstraint a;
      a.coeffs.assign(dim, Rational());
      a.coeffs[v] = Rational(-1);
      a.rhs = -lo;
      a.cmp = LinCmp::kLe;
      LinearConstraint b;
      b.coeffs.assign(dim, Rational());
      b.coeffs[v] = Rational(1);
      b.rhs = lo + w;
      b.cmp = LinCmp::kLe;
      cell.add(std::move(a));
      cell.add(std::move(b));
    }
    return cell;
  }

  // A box with up to two random half-plane cuts: still convex, bounded.
  LinearCell cut_cell(std::size_t dim) {
    LinearCell cell = box(dim);
    const std::size_t cuts = rng_.next() % 3;
    for (std::size_t c = 0; c < cuts; ++c) {
      LinearConstraint h;
      h.coeffs.assign(dim, Rational());
      bool nonzero = false;
      for (std::size_t v = 0; v < dim; ++v) {
        h.coeffs[v] = small_rational(2, 2);
        if (!h.coeffs[v].is_zero()) nonzero = true;
      }
      if (!nonzero) continue;
      h.rhs = small_rational(8, 2);
      h.cmp = LinCmp::kLe;
      cell.add(std::move(h));
    }
    return cell;
  }

  std::vector<LinearCell> cell_union(std::size_t dim, std::size_t count) {
    std::vector<LinearCell> out;
    for (std::size_t i = 0; i < count; ++i) out.push_back(cut_cell(dim));
    return out;
  }

  Xoshiro& rng() { return rng_; }

 private:
  Xoshiro rng_;
};

class VolumeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VolumeProperty, SweepMatchesInclusionExclusion) {
  CellGen gen(GetParam());
  // On a single cell inclusion-exclusion is Lasserre's polytope_volume,
  // so the 3-D input also checks single cut cells against Lasserre.
  for (std::size_t dim : {1u, 2u, 3u}) {
    auto cells = gen.cell_union(dim, 1 + gen.rng().next() % 4);
    auto sweep = semilinear_volume(cells);
    auto incl = volume_inclusion_exclusion(cells);
    ASSERT_TRUE(sweep.is_ok());
    ASSERT_TRUE(incl.is_ok());
    EXPECT_EQ(sweep.value(), incl.value()) << "dim=" << dim;
  }
}

TEST_P(VolumeProperty, UnionBounds) {
  CellGen gen(GetParam() ^ 0x1111);
  auto a = gen.cell_union(2, 2);
  auto b = gen.cell_union(2, 2);
  Rational va = semilinear_volume(a).value_or_die();
  Rational vb = semilinear_volume(b).value_or_die();
  std::vector<LinearCell> both = a;
  both.insert(both.end(), b.begin(), b.end());
  Rational vu = semilinear_volume(both).value_or_die();
  // max(va, vb) <= vol(A u B) <= va + vb.
  EXPECT_GE(vu, std::max(va, vb));
  EXPECT_LE(vu, va + vb);
}

TEST_P(VolumeProperty, MonotoneUnderIntersection) {
  CellGen gen(GetParam() ^ 0x2222);
  LinearCell cell = gen.cut_cell(2);
  Rational whole = semilinear_volume({cell}).value_or_die();
  // Intersecting with anything cannot increase volume.
  LinearCell smaller = cell;
  LinearConstraint cut;
  cut.coeffs = {Rational(1), Rational(1)};
  cut.rhs = gen.small_rational(6, 2);
  cut.cmp = LinCmp::kLe;
  smaller.add(std::move(cut));
  Rational part = semilinear_volume({smaller}).value_or_die();
  EXPECT_LE(part, whole);
  EXPECT_GE(part, Rational(0));
}

TEST_P(VolumeProperty, AffineTransformationLaw) {
  CellGen gen(GetParam() ^ 0x3333);
  auto cells = gen.cell_union(2, 2);
  Rational before = semilinear_volume(cells).value_or_die();
  // Random invertible rational map.
  Matrix m(2, 2);
  do {
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 2; ++c) {
        m.at(r, c) = gen.small_rational(3, 2);
      }
    }
  } while (m.determinant().is_zero());
  AffineMap t(m, {gen.small_rational(5, 2), gen.small_rational(5, 2)});
  std::vector<LinearCell> image;
  for (const auto& c : cells) image.push_back(t.apply(c).value_or_die());
  Rational after = semilinear_volume(image).value_or_die();
  EXPECT_EQ(after, t.determinant().abs() * before);
}

TEST_P(VolumeProperty, TranslationInvariance) {
  CellGen gen(GetParam() ^ 0x4444);
  auto cells = gen.cell_union(2, 3);
  Rational before = semilinear_volume(cells).value_or_die();
  AffineMap t = AffineMap::translation(
      {gen.small_rational(10, 3), gen.small_rational(10, 3)});
  std::vector<LinearCell> image;
  for (const auto& c : cells) image.push_back(t.apply(c).value_or_die());
  EXPECT_EQ(semilinear_volume(image).value_or_die(), before);
}

TEST_P(VolumeProperty, ComplementWithinBox) {
  CellGen gen(GetParam() ^ 0x5555);
  // vol(box) = vol(box & S) + vol(box & !S) for a random convex S.
  LinearCell box = LinearCell(2).intersect_box(Rational(-2), Rational(2));
  Rational box_vol = semilinear_volume({box}).value_or_die();
  LinearCell s = gen.cut_cell(2);
  // box & S.
  LinearCell inter = box;
  for (const auto& c : s.constraints()) inter.add(c);
  Rational in_vol = semilinear_volume({inter}).value_or_die();
  // box & !S: complement of a conjunction is a union of negated atoms.
  std::vector<LinearCell> outside;
  for (const auto& c : s.constraints()) {
    LinearCell piece = box;
    LinearConstraint neg;
    neg.coeffs = vec_scale(Rational(-1), c.coeffs);
    neg.rhs = -c.rhs;
    neg.cmp = c.cmp == LinCmp::kLe ? LinCmp::kLt : LinCmp::kLe;
    CQA_CHECK(c.cmp != LinCmp::kEq);
    piece.add(std::move(neg));
    outside.push_back(std::move(piece));
  }
  Rational out_vol = semilinear_volume(outside).value_or_die();
  EXPECT_EQ(in_vol + out_vol, box_vol);
}

TEST_P(VolumeProperty, ScalingPowerLaw) {
  CellGen gen(GetParam() ^ 0x6666);
  for (std::size_t dim : {1u, 2u, 3u}) {
    LinearCell cell = gen.box(dim);
    Rational v1 = semilinear_volume({cell}).value_or_die();
    AffineMap s = AffineMap::scaling(dim, Rational(3, 2));
    Rational v2 =
        semilinear_volume({s.apply(cell).value_or_die()}).value_or_die();
    EXPECT_EQ(v2, Rational::pow(Rational(3, 2),
                                static_cast<std::int64_t>(dim)) *
                      v1);
  }
}

// ---- Degenerate unions: the certified (auto) path, the forced sweep and
// inclusion-exclusion must agree to the last rational digit.

// sign * x_v cmp rhs.
LinearConstraint axis_row(std::size_t dim, std::size_t v, int sign,
                          const Rational& rhs, LinCmp cmp = LinCmp::kLe) {
  LinearConstraint c;
  c.coeffs.assign(dim, Rational());
  c.coeffs[v] = Rational(sign);
  c.rhs = rhs;
  c.cmp = cmp;
  return c;
}

using Side = std::pair<Rational, Rational>;

LinearCell box_of(const std::vector<Side>& sides, LinCmp cmp = LinCmp::kLe) {
  const std::size_t dim = sides.size();
  LinearCell cell(dim);
  for (std::size_t v = 0; v < dim; ++v) {
    cell.add(axis_row(dim, v, -1, -sides[v].first, cmp));
    cell.add(axis_row(dim, v, 1, sides[v].second, cmp));
  }
  return cell;
}

// The simplex at `corner` spanned along `signs` (+1 / -1 per axis) with
// legs of length `leg`: { s_v (x_v - c_v) >= 0, sum s_v (x_v - c_v) <= leg }.
LinearCell corner_simplex(const std::vector<Rational>& corner,
                          const std::vector<int>& signs,
                          const Rational& leg) {
  const std::size_t dim = corner.size();
  LinearCell cell(dim);
  LinearConstraint diag;
  diag.coeffs.assign(dim, Rational());
  diag.rhs = leg;
  for (std::size_t v = 0; v < dim; ++v) {
    cell.add(axis_row(dim, v, -signs[v], -Rational(signs[v]) * corner[v]));
    diag.coeffs[v] = Rational(signs[v]);
    diag.rhs += Rational(signs[v]) * corner[v];
  }
  cell.add(std::move(diag));
  return cell;
}

enum class Degeneracy {
  kSharedFacet,
  kVertexTouch,
  kDuplicate,
  kFacetAtX0,
  kStrict,
  kLowerDimensional,
  kCornerSimplex,
};
constexpr int kNumDegeneracies = 7;

// A small union showing one degeneracy, built around a random box.
std::vector<LinearCell> degenerate_union(CellGen& gen, std::size_t dim,
                                         Degeneracy kind) {
  std::vector<Side> sides;
  for (std::size_t v = 0; v < dim; ++v) {
    Rational lo = gen.small_rational(3, 2);
    sides.emplace_back(lo, lo + gen.small_rational(3, 2).abs() + Rational(1));
  }
  const LinearCell base = box_of(sides);
  const std::size_t axis = gen.rng().next() % dim;
  std::vector<LinearCell> out{base};
  switch (kind) {
    case Degeneracy::kSharedFacet: {
      // A neighbour across the facet x_axis = hi, overlapping nothing.
      std::vector<Side> next = sides;
      next[axis] = {sides[axis].second, sides[axis].second + Rational(1, 2)};
      out.push_back(box_of(next));
      break;
    }
    case Degeneracy::kVertexTouch: {
      std::vector<Side> next;
      for (const auto& [lo, hi] : sides) next.emplace_back(hi, hi + Rational(1));
      out.push_back(box_of(next));
      break;
    }
    case Degeneracy::kDuplicate:
      out.push_back(base);
      out.push_back(gen.cut_cell(dim));
      out.push_back(out.back());
      break;
    case Degeneracy::kFacetAtX0: {
      // Split the box at x_0 = mid and cut the right half diagonally, so
      // two cells meet on a facet orthogonal to the sweep axis.
      const Rational mid = Rational::mid(sides[0].first, sides[0].second);
      std::vector<Side> left = sides, right = sides;
      left[0].second = mid;
      right[0].first = mid;
      LinearCell cut = box_of(right);
      LinearConstraint diag;
      diag.coeffs.assign(dim, Rational(1));
      for (const auto& [lo, hi] : right) diag.rhs += hi;
      diag.rhs -= Rational(1, 2);
      cut.add(std::move(diag));
      out = {box_of(left), std::move(cut), gen.cut_cell(dim)};
      break;
    }
    case Degeneracy::kStrict: {
      // The same box open, shifted to overlap, beside the closed one.
      std::vector<Side> shifted = sides;
      shifted[axis].first += Rational(1, 2);
      shifted[axis].second += Rational(1, 2);
      out.push_back(box_of(shifted, LinCmp::kLt));
      LinearCell open_cut = gen.cut_cell(dim);
      open_cut.add(axis_row(dim, axis, 1, sides[axis].second, LinCmp::kLt));
      out.push_back(std::move(open_cut));
      break;
    }
    case Degeneracy::kLowerDimensional: {
      // A flat box (zero width on `axis`) and a slice by an equality.
      std::vector<Side> flat = sides;
      flat[axis].second = flat[axis].first + Rational(1, 3);
      flat[axis].first = flat[axis].second;
      out.push_back(box_of(flat));
      LinearCell slice = gen.cut_cell(dim);
      slice.add(axis_row(dim, axis, 1, sides[axis].first, LinCmp::kEq));
      out.push_back(std::move(slice));
      break;
    }
    case Degeneracy::kCornerSimplex: {
      // One simplex inside a corner of the box, one outside touching the
      // opposite corner at a vertex.
      std::vector<Rational> lo_corner, hi_corner;
      for (const auto& [lo, hi] : sides) {
        lo_corner.push_back(lo);
        hi_corner.push_back(hi);
      }
      out.push_back(corner_simplex(lo_corner, std::vector<int>(dim, 1),
                                   Rational(3, 2)));
      out.push_back(corner_simplex(hi_corner, std::vector<int>(dim, 1),
                                   Rational(1)));
      break;
    }
  }
  return out;
}

void expect_exact_paths_agree(const std::vector<LinearCell>& cells,
                              const std::string& what) {
  auto incl = volume_inclusion_exclusion(cells);
  auto sweep = semilinear_volume(cells);
  ASSERT_TRUE(incl.is_ok()) << what;
  ASSERT_TRUE(sweep.is_ok()) << what;
  EXPECT_EQ(sweep.value(), incl.value()) << what;
}

TEST_P(VolumeProperty, ExactPathsAgreeOnEachDegeneracy) {
  CellGen gen(GetParam() ^ 0x7777);
  for (std::size_t dim : {2u, 3u}) {
    for (int k = 0; k < kNumDegeneracies; ++k) {
      auto cells = degenerate_union(gen, dim, static_cast<Degeneracy>(k));
      expect_exact_paths_agree(cells, "dim=" + std::to_string(dim) +
                                          " kind=" + std::to_string(k));
    }
  }
}

TEST_P(VolumeProperty, ExactPathsAgreeOnMixedDegeneracies) {
  // Two degenerate pieces overlaid, so each one's vertices and facets
  // land inside or on the other's cells.
  CellGen gen(GetParam() ^ 0x8888);
  for (std::size_t dim : {2u, 3u}) {
    const auto a = static_cast<Degeneracy>(gen.rng().next() % kNumDegeneracies);
    const auto b = static_cast<Degeneracy>(gen.rng().next() % kNumDegeneracies);
    auto cells = degenerate_union(gen, dim, a);
    for (auto& c : degenerate_union(gen, dim, b)) cells.push_back(std::move(c));
    expect_exact_paths_agree(
        cells, "dim=" + std::to_string(dim) + " kinds=" +
                   std::to_string(static_cast<int>(a)) + "," +
                   std::to_string(static_cast<int>(b)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VolumeProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace cqa
