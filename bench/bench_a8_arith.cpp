// A8 -- exact-arithmetic fast path: the two-tier BigInt (inline 64-bit
// values, heap limbs only past overflow, Karatsuba above the limb
// threshold) plus the pooled Rational compound ops must pay off on the
// workloads that dominate the exact pipeline: Fourier-Motzkin pivoting
// over small coefficients, the semilinear sweep's section evaluation,
// and Lagrange interpolation. Each workload runs min-of-k and is
// compared against the pre-refactor baseline (sign-magnitude heap limbs
// for every value, copy-assign compound ops) measured at the commit
// right before the two-tier rewrite on the same reference machine; the
// committed BENCH_arith.json records the speedups with a >= 3x floor on
// the small-value-dominated cases.
//
// Min-of-k: deterministic CPU-bound work, so the minimum is the
// estimator and everything above it is scheduler noise. Each rep times
// enough back-to-back calls for a span of at least kMinSpanSec, so a
// millisecond-scale row is not at the mercy of one timer slice, and
// reports seconds per call, the unit of baseline_sec.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cqa/approx/random.h"
#include "cqa/arith/rational.h"
#include "cqa/constraint/fourier_motzkin.h"
#include "cqa/poly/interpolation.h"
#include "cqa/volume/semilinear_volume.h"

namespace {

using namespace cqa;

constexpr int kReps = 7;  // min-of-k repetitions per workload
constexpr double kMinSpanSec = 0.05;  // shortest timed span per rep
constexpr double kSpeedupFloor = 3.0;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads. All inputs are deterministic; every value in the "small"
// workloads stays well inside 64 bits so the inline representation (and
// before it, the 1-2 limb heap representation) is the only path taken.

// Dense elimination input with small rational coefficients: n lower and
// n upper bounds on x0 mixing the other variables, so fm_eliminate's
// pair loop produces n^2 combination rows of small-value Rational
// arithmetic -- the FM pivot shape from BENCH_guard.json.
std::vector<LinearConstraint> fm_rows_small(std::size_t n) {
  std::vector<LinearConstraint> rows;
  for (std::size_t i = 0; i < n; ++i) {
    LinearConstraint lo;
    lo.coeffs = {Rational(-1), Rational(static_cast<std::int64_t>(i % 3)),
                 Rational(1, static_cast<std::int64_t>(i + 1))};
    lo.rhs = Rational(-static_cast<std::int64_t>(i), 7);
    lo.cmp = LinCmp::kLe;
    rows.push_back(std::move(lo));
    LinearConstraint hi;
    hi.coeffs = {Rational(1), Rational(1, static_cast<std::int64_t>(i + 2)),
                 Rational(static_cast<std::int64_t>(i % 5))};
    hi.rhs = Rational(static_cast<std::int64_t>(100 + i), 3);
    hi.cmp = LinCmp::kLe;
    rows.push_back(std::move(hi));
  }
  return rows;
}

void run_fm_pivot_small() {
  auto rows = fm_rows_small(40);
  for (int rep = 0; rep < 2; ++rep) {
    auto out = fm_eliminate(rows, 0, nullptr);
    CQA_CHECK(!out.empty());
  }
}

// Full elimination chains: feasibility of a 4-variable system runs four
// eliminations back to back, the shape fm_sample_point / projection use.
void run_fm_feasible_chain() {
  std::vector<LinearConstraint> rows;
  const std::size_t dim = 4;
  for (std::size_t i = 0; i < 12; ++i) {
    LinearConstraint c;
    c.coeffs.assign(dim, Rational());
    for (std::size_t v = 0; v < dim; ++v) {
      c.coeffs[v] = Rational(static_cast<std::int64_t>((i * 7 + v * 3) % 11) - 5,
                             static_cast<std::int64_t>(1 + (i + v) % 4));
    }
    c.rhs = Rational(static_cast<std::int64_t>(30 + i), 2);
    c.cmp = (i % 3 == 0) ? LinCmp::kLt : LinCmp::kLe;
    rows.push_back(std::move(c));
  }
  for (int rep = 0; rep < 6; ++rep) {
    CQA_CHECK(fm_feasible(rows, dim));
  }
}

void run_sweep_sections() {
  auto cells = cqa_bench::random_boxes(2, 8, 42);
  for (int rep = 0; rep < 100; ++rep) {
    auto v = semilinear_volume(cells, nullptr, nullptr, nullptr);
    CQA_CHECK(v.is_ok());
  }
}

// Lagrange/Newton interpolation through rational nodes: coefficient
// growth pushes intermediates past 64 bits, so this exercises the
// mixed small/heap boundary and (post-refactor) Karatsuba on the
// larger products.
void run_lagrange_interp() {
  std::vector<std::pair<Rational, Rational>> pts;
  for (std::int64_t i = 0; i < 20; ++i) {
    Rational x(3 * i + 1, 7);
    Rational y((i * i * i) % 97 - 40, 1 + i % 5);
    pts.emplace_back(x, y);
  }
  for (int rep = 0; rep < 6; ++rep) {
    UPoly p = interpolate(pts);
    CQA_CHECK(p.degree() >= 1);
    for (const auto& [x, y] : pts) CQA_CHECK(p.eval(x) == y);
  }
}

// The raw pivot inner loop in isolation: axpy-style compound updates
// c_i -= f * e_i over small rationals, the exact statement FM executes
// per coefficient. Post-refactor this must run with zero heap traffic.
void run_rational_axpy() {
  std::vector<Rational> row(64), eq(64);
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] = Rational(static_cast<std::int64_t>(i) - 31,
                      static_cast<std::int64_t>(1 + i % 7));
    eq[i] = Rational(static_cast<std::int64_t>((i * 5) % 13) - 6,
                     static_cast<std::int64_t>(1 + i % 3));
  }
  const Rational f(3, 5);
  Rational acc;
  for (int rep = 0; rep < 4000; ++rep) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      Rational c = row[i];
      c -= f * eq[i];
      acc += c;
      acc -= c;  // keep acc small; the churn is the workload
    }
  }
  CQA_CHECK(acc.is_zero());
}

// Balanced huge multiplication: two ~8192-bit operands, the size the
// interpolation-heavy sweep reaches on deep section stacks. Schoolbook
// is quadratic here; Karatsuba (post-refactor) is the win being
// measured, so the floor for this row is lower than the small-value 3x.
void run_bigint_mul_large() {
  Xoshiro rng(7);
  auto rand_big = [&](int limbs) {
    BigInt x;
    for (int i = 0; i < limbs; ++i) {
      x = x.shl(32) + BigInt(static_cast<std::int64_t>(rng.next() & 0xffffffffu));
    }
    return x;
  };
  BigInt a = rand_big(256);
  BigInt b = rand_big(256);
  BigInt acc;
  for (int rep = 0; rep < 60; ++rep) {
    acc = acc + a * b;
  }
  CQA_CHECK(!acc.is_zero());
}

struct Workload {
  std::string name;
  void (*run)();
  // min-of-k seconds per call at the pre-refactor commit (heap limbs for every
  // value, copy-assign compound ops), measured on the reference machine
  // that produced the committed BENCH_arith.json. 0 = no baseline row.
  double baseline_sec;
  // Small-value-dominated rows carry the 3x floor; the Karatsuba row
  // only needs to beat schoolbook.
  double floor;
};

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);

  cqa_bench::header(
      "A8: exact arithmetic fast path (two-tier BigInt + pooled Rational)",
      "inline small values, arena-recycled heap limbs, in-place compound "
      "ops and Karatsuba must give >= 3x on small-value-dominated FM "
      "pivoting and sweep workloads vs the pre-refactor baseline");

  const std::vector<Workload> workloads = {
      {"fm_pivot_small", run_fm_pivot_small, 0.09582, kSpeedupFloor},
      {"fm_feasible_chain", run_fm_feasible_chain, 1.26428, kSpeedupFloor},
      {"sweep_sections", run_sweep_sections, 0.26725, kSpeedupFloor},
      {"rational_axpy", run_rational_axpy, 0.31522, kSpeedupFloor},
      {"lagrange_interp", run_lagrange_interp, 0.05332, 1.5},
      {"bigint_mul_large", run_bigint_mul_large, 0.00320, 1.5},
  };

  std::printf("min-of-%d seconds per call (spans >= %.0f ms)\n\n", kReps,
              kMinSpanSec * 1e3);
  std::printf("%-20s %-12s %-14s %-10s %-8s\n", "workload", "sec",
              "baseline_sec", "speedup", "floor");

  bool all_ok = true;
  std::string json = "{\n  \"reps\": " + std::to_string(kReps) +
                     ",\n  \"speedup_floor_small\": " +
                     std::to_string(kSpeedupFloor) + ",\n  \"workloads\": {\n";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    // One untimed warm-up call sizes the span.
    double t0 = now_seconds();
    w.run();
    const int calls = static_cast<int>(
        std::ceil(kMinSpanSec / std::max(now_seconds() - t0, 1e-9)));
    double best = 1e100;
    for (int rep = 0; rep < kReps; ++rep) {
      t0 = now_seconds();
      for (int c = 0; c < calls; ++c) w.run();
      best = std::min(best, (now_seconds() - t0) / calls);
    }
    const double speedup = w.baseline_sec > 0 ? w.baseline_sec / best : 0.0;
    const bool row_ok = w.baseline_sec <= 0 || speedup >= w.floor;
    all_ok = all_ok && row_ok;
    std::printf("%-20s %-12.5f %-14.5f %-10.2f %-8.1f\n", w.name.c_str(), best,
                w.baseline_sec, speedup, w.floor);
    json += "    \"" + w.name + "\": {\"sec\": " + std::to_string(best) +
            ", \"baseline_sec\": " + std::to_string(w.baseline_sec) +
            ", \"speedup\": " + std::to_string(speedup) +
            ", \"floor\": " + std::to_string(w.floor) + "}";
    json += (i + 1 < workloads.size()) ? ",\n" : "\n";
  }
  json += "  },\n  \"speedup_ok\": " +
          (all_ok ? std::string("true") : std::string("false")) + "\n}\n";

  std::printf("\nspeedup floors %s\n", all_ok ? "met" : "NOT MET");

  std::FILE* f = std::fopen("BENCH_arith.json", "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_arith.json\n");
  }

  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
