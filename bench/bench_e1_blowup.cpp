// E1 -- Section 3's example: the Karpinski-Macintyre derandomized
// approximation formula blows up (paper: >= 1e9 atoms, >= 1e11 quantifiers
// at eps = 1/10), while the Theorem-4 randomized counterpart is cheap and
// the exact answer VOL_I = (x2^2 - x1^2)/2 is available from the exact
// engine for validation.

#include <cmath>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cqa/core/constraint_database.h"
#include "cqa/logic/transform.h"
#include "cqa/runtime/parallel_sampler.h"
#include "cqa/vc/blowup.h"
#include "cqa/vc/sample_bounds.h"
#include "cqa/volume/semilinear_volume.h"

namespace {

using namespace cqa;

void print_table() {
  cqa_bench::header("E1: KM formula blow-up vs Theorem-4 sampling",
                    "paper claims ~1e9 atoms / ~1e11 quantifiers at "
                    "eps=1/10; any estimate on that side of 'infeasible' "
                    "reproduces the conclusion");
  std::printf("%-6s %-8s %-10s %-12s %-14s %-12s\n", "n", "eps", "KM_M",
              "KM_atoms", "KM_quantifiers", "MC_samples");
  for (std::size_t n : {2, 8, 32, 128, 512}) {
    for (double eps : {0.5, 0.25, 0.1, 0.01}) {
      BlowupEstimate km = km_blowup_section3_example(n, eps);
      std::size_t mc = blumer_sample_bound(eps, 0.05, 4.0);
      std::printf("%-6zu %-8.2f %-10zu %-12.3e %-14.3e %-12zu\n", n, eps,
                  km.sample_size, km.atom_count, km.quantifiers, mc);
    }
  }

  // Validation: the query's exact volume (b^2 - a^2)/2 from the exact
  // engine, and the Theorem-4 estimate, at several (a, b).
  std::printf("\n%-8s %-8s %-12s %-12s %-10s\n", "x1", "x2", "exact",
              "mc_estimate", "abs_err");
  ConstraintDatabase db;
  auto phi = db.parse("x1 < y1 & y1 < x2 & 0 <= y2 & y2 <= y1")
                 .value_or_die();
  const std::size_t y1 = db.var("y1"), y2 = db.var("y2");
  const std::size_t x1 = db.var("x1"), x2 = db.var("x2");
  ParallelSampler est(&db.db(), phi, {y1, y2},
                      blumer_sample_bound(0.02, 0.05, 4.0), 11);
  for (auto [a, b] : std::vector<std::pair<int, int>>{
           {1, 3}, {0, 4}, {1, 2}, {0, 2}}) {
    Rational ra(a, 4), rb(b, 4);
    // Exact: VOL_I = (b^2 - a^2)/2 for 0 <= a <= b <= 1.
    Rational exact = (rb * rb - ra * ra) * Rational(1, 2);
    // Exact engine agrees (cross-check).
    auto f = substitute_vars(
        phi, {{x1, Polynomial::constant(ra)}, {x2, Polynomial::constant(rb)}});
    std::map<std::size_t, Polynomial> remap = {
        {y1, Polynomial::variable(0)}, {y2, Polynomial::variable(1)}};
    Rational engine =
        formula_volume_I(substitute_vars(f, remap), 2).value_or_die();
    CQA_CHECK(engine == exact);
    double mc = est.estimate({{x1, ra}, {x2, rb}}).value_or_die();
    std::printf("%-8s %-8s %-12s %-12.5f %-10.5f\n", ra.to_string().c_str(),
                rb.to_string().c_str(), exact.to_string().c_str(), mc,
                std::fabs(mc - exact.to_double()));
  }
}

void BM_McEstimateSection3(benchmark::State& state) {
  ConstraintDatabase db;
  auto phi = db.parse("x1 < y1 & y1 < x2 & 0 <= y2 & y2 <= y1")
                 .value_or_die();
  const std::size_t y1 = db.var("y1"), y2 = db.var("y2");
  const std::size_t x1 = db.var("x1"), x2 = db.var("x2");
  const double eps = 1.0 / static_cast<double>(state.range(0));
  ParallelSampler est(&db.db(), phi, {y1, y2},
                      blumer_sample_bound(eps, 0.05, 4.0), 7);
  for (auto _ : state) {
    auto v = est.estimate({{x1, Rational(1, 4)}, {x2, Rational(3, 4)}});
    benchmark::DoNotOptimize(v);
  }
  state.counters["samples"] =
      static_cast<double>(blumer_sample_bound(eps, 0.05, 4.0));
}
BENCHMARK(BM_McEstimateSection3)->Arg(2)->Arg(4)->Arg(10);

void BM_KmBlowupEstimate(benchmark::State& state) {
  for (auto _ : state) {
    auto e = km_blowup_section3_example(
        static_cast<std::size_t>(state.range(0)), 0.1);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_KmBlowupEstimate)->Arg(8)->Arg(512);

}  // namespace

CQA_BENCH_MAIN(print_table)
