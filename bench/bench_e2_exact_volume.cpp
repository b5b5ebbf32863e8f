// E2 -- Theorem 3: exact volume of arbitrary semi-linear sets.
//
// Structured + randomized workloads across dimension and cell count;
// the sweep engine must agree exactly with inclusion-exclusion and, on
// one-cell rows, with the single-polytope Lasserre oracle; timings show
// the crossover between the strategies.

#include <cstdlib>

#include "bench_util.h"
#include "cqa/approx/random.h"
#include "cqa/geometry/affine.h"
#include "cqa/geometry/polytope_volume.h"
#include "cqa/volume/inclusion_exclusion.h"
#include "cqa/volume/semilinear_volume.h"

namespace {

using namespace cqa;

// Random axis-aligned boxes in [0, 4]^dim with rational corners.
std::vector<LinearCell> random_boxes(std::size_t dim, std::size_t count,
                                     std::uint64_t seed) {
  Xoshiro rng(seed);
  std::vector<LinearCell> cells;
  for (std::size_t c = 0; c < count; ++c) {
    LinearCell cell(dim);
    for (std::size_t v = 0; v < dim; ++v) {
      std::int64_t a = static_cast<std::int64_t>(rng.next() % 12);
      std::int64_t w = 1 + static_cast<std::int64_t>(rng.next() % 8);
      LinearConstraint lo;
      lo.coeffs.assign(dim, Rational());
      lo.coeffs[v] = Rational(-1);
      lo.rhs = Rational(-a, 4);
      lo.cmp = LinCmp::kLe;
      LinearConstraint hi;
      hi.coeffs.assign(dim, Rational());
      hi.coeffs[v] = Rational(1);
      hi.rhs = Rational(a + w, 4);
      hi.cmp = LinCmp::kLe;
      cell.add(std::move(lo));
      cell.add(std::move(hi));
    }
    cells.push_back(std::move(cell));
  }
  return cells;
}

// Rotated/sheared copies to defeat every axis-aligned shortcut.
std::vector<LinearCell> skewed_cells(std::size_t count, std::uint64_t seed) {
  auto boxes = random_boxes(2, count, seed);
  Xoshiro rng(seed ^ 0xabcdef);
  std::vector<LinearCell> out;
  for (auto& b : boxes) {
    AffineMap rot = AffineMap::rotation2d(
        Rational(static_cast<std::int64_t>(rng.next() % 5), 7));
    out.push_back(rot.apply(b).value_or_die());
  }
  return out;
}

void print_table() {
  cqa_bench::header(
      "E2: exact semi-linear volume (sweep vs inclusion-exclusion)",
      "all exact strategies must agree to the last rational digit; "
      "sweep scales past inclusion-exclusion's 2^cells wall");
  std::printf("%-5s %-6s %-14s %-14s %-8s %-10s %-10s %s\n", "dim",
              "cells", "volume(sweep)", "volume(incl)", "agree", "sweep_bps",
              "sections", "feasibility_calls");
  for (std::size_t dim : {1, 2, 3}) {
    for (std::size_t count : {1, 2, 4, 6, 8}) {
      auto cells = random_boxes(dim, count, 1000 + dim * 100 + count);
      VolumeStats stats;
      Rational sweep = semilinear_volume(cells, &stats).value_or_die();
      Rational incl = volume_inclusion_exclusion(cells).value_or_die();
      CQA_CHECK(sweep == incl);
      // On one cell, Lasserre's recursion is an independent oracle.
      CQA_CHECK(count > 1 ||
                sweep == polytope_volume(Polyhedron(cells[0])).value_or_die());
      std::printf("%-5zu %-6zu %-14s %-14s %-8s %-10zu %-10zu %zu\n",
                  dim, count, sweep.to_string().c_str(),
                  incl.to_string().c_str(), "yes", stats.breakpoints,
                  stats.sections_evaluated, stats.feasibility_calls);
    }
  }
  // Rotated cells: variable-independence-breaking workload.
  std::printf("\nrotated 2-D cells (non-axis-aligned):\n");
  std::printf("%-6s %-18s %-8s\n", "cells", "volume", "agree");
  for (std::size_t count : {2, 4, 6}) {
    auto cells = skewed_cells(count, 77 + count);
    Rational sweep = semilinear_volume(cells).value_or_die();
    Rational incl = volume_inclusion_exclusion(cells).value_or_die();
    CQA_CHECK(sweep == incl);
    std::printf("%-6zu %-18s %-8s\n", count, sweep.to_string().c_str(),
                "yes");
  }
}

void BM_SweepVolume(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const std::size_t count = static_cast<std::size_t>(state.range(1));
  auto cells = random_boxes(dim, count, 42);
  for (auto _ : state) {
    auto v = semilinear_volume(cells);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SweepVolume)
    ->Args({2, 2})
    ->Args({2, 4})
    ->Args({2, 8})
    ->Args({3, 2})
    ->Args({3, 4});

void BM_InclusionExclusion(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const std::size_t count = static_cast<std::size_t>(state.range(1));
  auto cells = random_boxes(dim, count, 42);
  for (auto _ : state) {
    auto v = volume_inclusion_exclusion(cells);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_InclusionExclusion)
    ->Args({2, 2})
    ->Args({2, 4})
    ->Args({2, 8})
    ->Args({3, 2})
    ->Args({3, 4});

}  // namespace

CQA_BENCH_MAIN(print_table)
