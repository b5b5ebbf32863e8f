// A5 -- guard metering overhead: resource governance must be close to
// free when quotas never trip. The same exact-volume and elimination
// workloads run unmetered (meter = nullptr, no thread-local scope) and
// metered (WorkMeter at the default quotas + MeterScope, so the BigInt
// hot path charges too); the headline table reports each workload's
// paired overhead and writes BENCH_guard.json with an overhead_ok
// verdict against the 2% budget from DESIGN.md section 8.
//
// Paired timing: every rep runs both variants back to back, swapping
// which runs first on alternate reps so neither always inherits the
// other's cache and clock state, and the overhead is the median of the
// per-rep on/off ratios. A ratio of two minima compares the luckiest
// run of each variant, which on a shared machine can fall in different
// load regimes; a paired ratio sees the same regime on both sides, and
// its median discards the reps a burst of load hit. kReps gives every
// variant at least a second of timed work on the reference machine.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cqa/constraint/fourier_motzkin.h"
#include "cqa/guard/fault.h"
#include "cqa/guard/meter.h"
#include "cqa/volume/semilinear_volume.h"

namespace {

using namespace cqa;

constexpr int kReps = 31;         // paired reps per workload (odd)
constexpr double kBudgetPct = 2.0;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Dense elimination input: n lower and n upper bounds on x0 mixing the
// other variables, so fm_eliminate's pair loop produces n^2 rows.
std::vector<LinearConstraint> fm_rows(std::size_t n) {
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

struct Workload {
  std::string name;
  // Runs the workload once; meter == nullptr is the unmetered variant.
  // MeterScope installation (for the BigInt hot path) happens in the
  // harness, not here.
  void (*run)(guard::WorkMeter* meter);
};

// Each sweep workload is 200 sweeps (~0.25 ms each in 2-D, ~1 ms in
// 3-D), so timer resolution sits far below the 2% budget.
void run_sweeps(const std::vector<LinearCell>& cells,
                guard::WorkMeter* meter) {
  for (int rep = 0; rep < 200; ++rep) {
    auto v = semilinear_volume(cells, nullptr, nullptr, meter);
    // A zero volume would mean no section ran, so the gate would not
    // cover section metering.
    CQA_CHECK(v.is_ok() && v.value() > Rational(0));
  }
}

void run_sweep_2d(guard::WorkMeter* meter) {
  run_sweeps(cqa_bench::random_boxes(2, 8, 42), meter);
}

void run_sweep_3d(guard::WorkMeter* meter) {
  run_sweeps(cqa_bench::random_boxes(3, 4, 43), meter);
}

void run_fm(guard::WorkMeter* meter) {
  auto rows = fm_rows(40);
  for (int rep = 0; rep < 30; ++rep) {
    auto out = fm_eliminate(rows, 0, meter);
    CQA_CHECK(!out.empty() || rows.empty());
  }
}

// Seconds for one run of the workload, unmetered or metered.
double time_variant(const Workload& w, bool metered) {
  if (!metered) {
    const double t0 = now_seconds();
    w.run(nullptr);
    return now_seconds() - t0;
  }
  guard::WorkMeter meter{guard::ResourceQuota{}};  // Session defaults
  const double t0 = now_seconds();
  guard::MeterScope scope(&meter);
  w.run(&meter);
  const double dt = now_seconds() - t0;
  CQA_CHECK(!meter.tripped());  // defaults must not trip here
  return dt;
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

struct Paired {
  double off = 0.0;           // median seconds per unmetered run
  double on = 0.0;            // median seconds per metered run
  double total_off = 0.0;     // timed seconds across every rep
  double total_on = 0.0;
  double overhead_pct = 0.0;  // (median per-rep on/off ratio - 1) * 100
};

Paired paired_runs(const Workload& w) {
  std::vector<double> off, on, ratio;
  for (int rep = 0; rep < kReps; ++rep) {
    const bool on_first = rep % 2 == 1;
    double t_on = on_first ? time_variant(w, true) : 0.0;
    const double t_off = time_variant(w, false);
    if (!on_first) t_on = time_variant(w, true);
    off.push_back(t_off);
    on.push_back(t_on);
    ratio.push_back(t_on / t_off);
  }
  Paired p;
  for (int rep = 0; rep < kReps; ++rep) {
    p.total_off += off[rep];
    p.total_on += on[rep];
  }
  p.off = median(off);
  p.on = median(on);
  p.overhead_pct = (median(ratio) - 1.0) * 100.0;
  return p;
}

void print_table() {
  cqa_bench::header(
      "A5: guard metering overhead (unmetered vs default quotas)",
      "threading WorkMeter through QE, FM, the exact sweep, and the "
      "BigInt hot path costs under 2% when quotas never trip");

  const std::vector<Workload> workloads = {
      {"exact_sweep_2d", run_sweep_2d},
      {"exact_sweep_3d", run_sweep_3d},
      {"fm_elimination", run_fm},
  };

  std::printf("%d paired reps; median seconds per run, overhead = median "
              "per-rep on/off ratio\n\n",
              kReps);
  std::printf("%-16s %-12s %-12s %-10s %-18s\n", "workload", "off_sec",
              "on_sec", "overhead%", "timed off/on sec");

  double max_overhead = 0.0;
  std::string json = "{\n  \"reps\": " + std::to_string(kReps) +
                     ",\n  \"budget_pct\": " + std::to_string(kBudgetPct) +
                     ",\n  \"workloads\": {\n";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    const Paired t = paired_runs(w);
    const double off = t.off;
    const double on = t.on;
    const double pct = t.overhead_pct;
    max_overhead = std::max(max_overhead, pct);
    std::printf("%-16s %-12.5f %-12.5f %-+10.2f %.2f / %.2f\n",
                w.name.c_str(), off, on, pct, t.total_off, t.total_on);
    json += "    \"" + w.name + "\": {\"off_sec\": " + std::to_string(off) +
            ", \"on_sec\": " + std::to_string(on) +
            ", \"overhead_pct\": " + std::to_string(pct) + "}";
    json += (i + 1 < workloads.size()) ? ",\n" : "\n";
  }
  const bool ok = max_overhead < kBudgetPct;
  json += "  },\n  \"max_overhead_pct\": " + std::to_string(max_overhead) +
          ",\n  \"overhead_ok\": " + (ok ? std::string("true")
                                         : std::string("false")) +
          "\n}\n";

  std::printf("\nmax overhead: %.2f%% (budget %.1f%%) -> %s\n", max_overhead,
              kBudgetPct, ok ? "ok" : "OVER BUDGET");

  std::FILE* f = std::fopen("BENCH_guard.json", "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_guard.json\n");
  }
}

// Micro costs of the primitives themselves, under google-benchmark
// timing: one charge call, one never-tripped check, and the
// fault-hook fast path with no injector installed.
void BM_MeterCharge(benchmark::State& state) {
  guard::WorkMeter meter{guard::ResourceQuota{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(meter.charge_qe_atoms(1));
  }
}
BENCHMARK(BM_MeterCharge);

void BM_MeterCheckUntripped(benchmark::State& state) {
  guard::WorkMeter meter{guard::ResourceQuota{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(meter.check().is_ok());
  }
}
BENCHMARK(BM_MeterCheckUntripped);

void BM_FaultHookOff(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        guard::fault_fires(guard::FaultSite::kBigIntAlloc));
  }
}
BENCHMARK(BM_FaultHookOff);

void BM_BigIntChargeThreadLocalOff(benchmark::State& state) {
  // No MeterScope installed: the unmetered thread-local fast path.
  for (auto _ : state) {
    guard::charge_bigint_bits_tl(64);
  }
}
BENCHMARK(BM_BigIntChargeThreadLocalOff);

}  // namespace

CQA_BENCH_MAIN(print_table)
