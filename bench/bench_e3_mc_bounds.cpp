// E3 -- Theorem 4 + Proposition 6: Monte-Carlo volume with the Blumer
// sample bound M > max((4/eps)log(2/delta), (8d/eps)log(13/eps)).
//
// For each (eps, delta) we draw ONE sample and measure the *sup over a
// parameter grid* of the estimation error -- the uniformity that makes
// this an FO+POLY+SUM+W operator rather than a per-instance trick.

#include <cmath>

#include "bench_util.h"
#include "cqa/core/constraint_database.h"
#include "cqa/runtime/parallel_sampler.h"
#include "cqa/vc/sample_bounds.h"

namespace {

using namespace cqa;

struct Family {
  const char* name;
  const char* formula;
  // exact VOL_I as a function of the parameter a in [0,1]
  double (*exact)(double);
};

double disk_vol(double a) { return M_PI * a / 4.0; }  // x^2+y^2 <= a
double slab_vol(double a) { return a; }                // y <= a band
// under y <= a x^2 on [0,1]^2: integral of a x^2 = a/3 (for a <= 1)
double parab_clipped(double a) { return a / 3.0; }

void print_table() {
  cqa_bench::header(
      "E3: eps-delta Monte-Carlo volume, uniform over parameters",
      "sup-over-parameter-grid error must stay below eps (w.p. 1-delta); "
      "sample size follows the Blumer bound");
  ConstraintDatabase db;
  Family fams[] = {
      {"disk(a)", "x^2 + y^2 <= a", disk_vol},
      {"band(a)", "0 <= x & x <= 1 & 0 <= y & y <= a", slab_vol},
      {"parabola(a)", "y <= a * x^2", parab_clipped},
  };
  std::printf("%-13s %-7s %-7s %-4s %-8s %-11s %-9s\n", "family", "eps",
              "delta", "d", "M", "sup_err", "ok");
  for (const Family& fam : fams) {
    auto phi = db.parse(fam.formula).value_or_die();
    const std::size_t x = db.var("x"), y = db.var("y"), a = db.var("a");
    for (double eps : {0.1, 0.05, 0.02}) {
      for (double delta : {0.1, 0.01}) {
        const double d = 3.0;
        const std::size_t m = blumer_sample_bound(eps, delta, d);
        ParallelSampler est(&db.db(), phi, {x, y}, m, 31337);
        double sup_err = 0;
        for (int i = 0; i <= 20; ++i) {
          Rational av(i, 20);
          double got = est.estimate({{a, av}}).value_or_die();
          double exact = fam.exact(av.to_double());
          sup_err = std::fmax(sup_err, std::fabs(got - exact));
        }
        std::printf("%-13s %-7.2f %-7.2f %-4.0f %-8zu %-11.5f %-9s\n",
                    fam.name, eps, delta, d, m, sup_err,
                    sup_err < eps ? "yes" : "NO");
      }
    }
  }

  // Goldberg-Jerrum constants for representative queries (Prop 6 text).
  std::printf("\nGoldberg-Jerrum constants C (VCdim < C log2|D|):\n");
  std::printf("%-26s %-4s %-4s %-4s %-4s %-6s %-10s\n", "query shape", "k",
              "p", "q", "deg", "atoms", "C");
  struct QShape {
    const char* name;
    std::size_t k, p, q, deg, atoms;
  } shapes[] = {
      {"section-3 example", 2, 1, 0, 1, 6},
      {"quantified join", 2, 2, 2, 1, 10},
      {"quadratic selection", 3, 2, 1, 2, 8},
  };
  for (const auto& s : shapes) {
    double c = goldberg_jerrum_constant(s.k, s.p, s.q, s.deg, s.atoms);
    std::printf("%-26s %-4zu %-4zu %-4zu %-4zu %-6zu %-10.1f\n", s.name,
                s.k, s.p, s.q, s.deg, s.atoms, c);
  }
}

void BM_EstimateAcrossSampleSizes(benchmark::State& state) {
  ConstraintDatabase db;
  auto phi = db.parse("x^2 + y^2 <= a").value_or_die();
  const std::size_t x = db.var("x"), y = db.var("y"), a = db.var("a");
  ParallelSampler est(&db.db(), phi, {x, y},
                      static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    auto v = est.estimate({{a, Rational(1, 2)}});
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_EstimateAcrossSampleSizes)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

}  // namespace

CQA_BENCH_MAIN(print_table)
