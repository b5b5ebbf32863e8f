// Shared helpers for the experiment benches: each binary prints its
// experiment's headline table (key=value rows, greppable) before running
// the google-benchmark timing section.

#ifndef CQA_BENCH_BENCH_UTIL_H_
#define CQA_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cqa/approx/random.h"
#include "cqa/volume/semilinear_volume.h"

namespace cqa_bench {

inline void header(const char* experiment, const char* claim) {
  std::printf("\n==== %s ====\n", experiment);
  std::printf("# %s\n", claim);
}

// The exact-sweep workload of A5 and A8: `count` overlapping random
// axis-aligned boxes in [0, 5]^dim with quarter-integer corners, so the
// sweep's small-value section arithmetic runs on many breakpoints.
inline std::vector<cqa::LinearCell> random_boxes(std::size_t dim,
                                                 std::size_t count,
                                                 std::uint64_t seed) {
  using cqa::LinCmp;
  using cqa::LinearConstraint;
  using cqa::Rational;
  cqa::Xoshiro rng(seed);
  std::vector<cqa::LinearCell> cells;
  for (std::size_t c = 0; c < count; ++c) {
    cqa::LinearCell cell(dim);
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

// Runs the table printer, then benchmark timing.
#define CQA_BENCH_MAIN(print_table_fn)                       \
  int main(int argc, char** argv) {                          \
    print_table_fn();                                        \
    ::benchmark::Initialize(&argc, argv);                    \
    ::benchmark::RunSpecifiedBenchmarks();                   \
    return 0;                                                \
  }

}  // namespace cqa_bench

#endif  // CQA_BENCH_BENCH_UTIL_H_
