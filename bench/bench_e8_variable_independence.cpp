// E8 -- the variable-independence baseline [Chomicki-Goldin-Kuper '96].
//
// The paper's introduction: [11] computes exact volume only under
// variable independence, "too restrictive" for spatial data. We measure
// both sides: the VI grid method is fast where it applies (boxes) and
// inapplicable the moment a rotation/shear couples the coordinates, while
// the Theorem-3 sweep handles both.

#include "bench_util.h"
#include "cqa/approx/random.h"
#include "cqa/geometry/affine.h"
#include "cqa/volume/semilinear_volume.h"
#include "cqa/volume/variable_independence.h"

namespace {

using namespace cqa;

std::vector<LinearCell> boxes(std::size_t count, std::uint64_t seed) {
  Xoshiro rng(seed);
  std::vector<LinearCell> out;
  for (std::size_t i = 0; i < count; ++i) {
    LinearCell cell(2);
    for (std::size_t v = 0; v < 2; ++v) {
      std::int64_t a = static_cast<std::int64_t>(rng.next() % 10);
      std::int64_t w = 1 + static_cast<std::int64_t>(rng.next() % 6);
      LinearConstraint lo;
      lo.coeffs.assign(2, Rational());
      lo.coeffs[v] = Rational(-1);
      lo.rhs = Rational(-a, 3);
      lo.cmp = LinCmp::kLe;
      LinearConstraint hi;
      hi.coeffs.assign(2, Rational());
      hi.coeffs[v] = Rational(1);
      hi.rhs = Rational(a + w, 3);
      hi.cmp = LinCmp::kLe;
      cell.add(std::move(lo));
      cell.add(std::move(hi));
    }
    out.push_back(std::move(cell));
  }
  return out;
}

std::vector<LinearCell> rotated(const std::vector<LinearCell>& cells,
                                const Rational& t) {
  AffineMap rot = AffineMap::rotation2d(t);
  std::vector<LinearCell> out;
  for (const auto& c : cells) out.push_back(rot.apply(c).value_or_die());
  return out;
}

void print_table() {
  cqa_bench::header(
      "E8: variable independence -- the [11] baseline vs the sweep",
      "VI grid volume == sweep volume on boxes; rotation breaks VI "
      "(detector says no) while the sweep still answers exactly");
  std::printf("%-7s %-9s %-14s %-14s %-7s\n", "cells", "VI?", "grid",
              "sweep", "agree");
  for (std::size_t count : {2, 4, 8, 12}) {
    auto cells = boxes(count, 500 + count);
    bool vi = is_variable_independent(cells);
    Rational grid = volume_variable_independent(cells).value_or_die();
    Rational sweep = semilinear_volume(cells).value_or_die();
    std::printf("%-7zu %-9s %-14s %-14s %-7s\n", count, vi ? "yes" : "no",
                grid.to_string().c_str(), sweep.to_string().c_str(),
                grid == sweep ? "yes" : "NO");
  }
  std::printf("\nrotated by the Pythagorean angle t = 1/2:\n");
  std::printf("%-7s %-9s %-18s %-20s\n", "cells", "VI?", "grid",
              "sweep(=exact)");
  for (std::size_t count : {2, 4}) {
    auto cells = rotated(boxes(count, 500 + count), Rational(1, 2));
    bool vi = is_variable_independent(cells);
    auto grid = volume_variable_independent(cells);
    Rational sweep = semilinear_volume(cells).value_or_die();
    // Rotation preserves volume: cross-check against the unrotated set.
    Rational original =
        semilinear_volume(boxes(count, 500 + count)).value_or_die();
    CQA_CHECK(sweep == original);
    std::printf("%-7zu %-9s %-18s %-20s\n", count, vi ? "yes" : "no",
                grid.is_ok() ? grid.value().to_string().c_str()
                             : "(rejected)",
                sweep.to_string().c_str());
  }
}

void BM_GridVolume(benchmark::State& state) {
  auto cells = boxes(static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    auto v = volume_variable_independent(cells);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_GridVolume)->Arg(4)->Arg(8)->Arg(16);

void BM_SweepOnSameBoxes(benchmark::State& state) {
  auto cells = boxes(static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    auto v = semilinear_volume(cells);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SweepOnSameBoxes)->Arg(4)->Arg(8);

void BM_SweepOnRotated(benchmark::State& state) {
  auto cells =
      rotated(boxes(static_cast<std::size_t>(state.range(0)), 42),
              Rational(1, 2));
  for (auto _ : state) {
    auto v = semilinear_volume(cells);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SweepOnRotated)->Arg(4);

}  // namespace

CQA_BENCH_MAIN(print_table)
