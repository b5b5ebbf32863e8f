// A3 -- adaptive planner: Session::run routes a mixed workload (easy
// linear cells, a QE-heavy query, nonlinear membership-only sets)
// through cqa::plan and must beat every fixed single-strategy baseline
// on total wall-clock at equal (eps, delta) among the baselines that
// actually cover the workload at that accuracy.
//
// The headline table runs the workload once per configuration, writes
// BENCH_planner.json (parsed by CI: every strategy entry must be
// present), then demonstrates deadline degradation: a tight budget must
// come back Degraded with best-so-far bars, not an error. Planner
// decisions are left visible in the session metrics dump.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cqa/core/constraint_database.h"
#include "cqa/plan/planner.h"
#include "cqa/runtime/session.h"

namespace {

using namespace cqa;

constexpr double kEpsilon = 0.01;
constexpr double kDelta = 0.05;

struct WorkItem {
  const char* name;
  const char* query;
};

// Every denotation is a subset of the unit box, so VOL_I (what the MC
// strategies estimate) and the exact volume agree and baselines are
// comparable.
const std::vector<WorkItem>& workload() {
  static const std::vector<WorkItem> kItems = {
      {"box_cut", "0 <= x & x <= 1 & 0 <= y & y <= 1 & x + y <= 3/2"},
      {"triangle", "x >= 0 & y >= 0 & x + y <= 1"},
      {"strips",
       "(0 <= x & x <= 1/4 | 1/2 <= x & x <= 3/4) & 0 <= y & y <= 1"},
      {"qe_slab",
       "E u. (0 <= u & u <= 1 & 0 <= x & x <= u & 0 <= y & y <= 1/2)"},
      {"diamond", "x + y <= 3/2 & x - y <= 1/2 & y - x <= 1/2 & "
                  "x + y >= 1/2 & 0 <= x & x <= 1 & 0 <= y & y <= 1"},
      {"disk", "x^2 + y^2 <= 9/10 & 0 <= x & 0 <= y"},
      {"parabola", "0 <= x & x <= 1 & 0 <= y & y <= 1 & y >= x^2"},
  };
  return kItems;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Request make_request(const WorkItem& item) {
  Request req;
  req.kind = RequestKind::kVolume;
  req.query = item.query;
  req.output_vars = {"x", "y"};
  req.budget.epsilon = kEpsilon;
  req.budget.delta = kDelta;
  req.seed = 31337;
  return req;
}

struct ConfigResult {
  double seconds = 0.0;
  int answered = 0;
  int accuracy_met = 0;
};

// Guaranteed accuracy: exact answers always qualify; estimates qualify
// when their certified half-width fits the budget. The half-width is
// reconstructed from bars stored as estimate +/- eps, so allow one part
// in 10^9 of slack for the double round-trip.
bool meets_accuracy(const VolumeAnswer& v) {
  if (v.exact) return true;
  if (v.lower && v.upper) {
    return (*v.upper - *v.lower) / 2.0 <= kEpsilon * (1.0 + 1e-9);
  }
  return false;
}

ConfigResult run_config(Session* session,
                        const std::optional<VolumeStrategy>& forced) {
  ConfigResult r;
  const double t0 = now_seconds();
  for (const WorkItem& item : workload()) {
    Request req = make_request(item);
    req.strategy = forced;
    auto a = session->run(req);
    if (!a.is_ok()) continue;
    ++r.answered;
    if (meets_accuracy(a.value().volume)) ++r.accuracy_met;
  }
  r.seconds = now_seconds() - t0;
  return r;
}

std::string config_json(const char* name, const ConfigResult& r) {
  return std::string("    \"") + name + "\": {\"seconds\": " +
         std::to_string(r.seconds) + ", \"answered\": " +
         std::to_string(r.answered) + ", \"accuracy_met\": " +
         std::to_string(r.accuracy_met) + "}";
}

void print_table() {
  cqa_bench::header(
      "A3: adaptive planner -- Session::run vs fixed strategies",
      "on a mixed workload at equal (eps, delta), the planner must beat "
      "every fixed single-strategy baseline that covers the workload; "
      "a deadline-bounded run must degrade, not fail");

  const std::size_t n = workload().size();
  std::printf("workload: %zu queries, eps=%g delta=%g\n\n", n, kEpsilon,
              kDelta);

  // Fresh session per configuration so memo-caches cannot leak speed
  // between configurations.
  struct Baseline {
    const char* name;
    std::optional<VolumeStrategy> forced;
  };
  const std::vector<Baseline> configs = {
      {"planner", std::nullopt},
      {"exact", VolumeStrategy::kAuto},
      {"mc", VolumeStrategy::kMonteCarlo},
      {"trivial_half", VolumeStrategy::kTrivialHalf},
  };
  std::printf("%-14s %-10s %-10s %-12s\n", "config", "seconds", "answered",
              "accuracy_met");
  std::vector<std::pair<std::string, ConfigResult>> results;
  for (const Baseline& b : configs) {
    ConstraintDatabase db;
    Session session(&db);
    ConfigResult r = run_config(&session, b.forced);
    std::printf("%-14s %-10.4f %-10d %-12d\n", b.name, r.seconds,
                r.answered, r.accuracy_met);
    results.emplace_back(b.name, r);
  }

  // The planner must dominate: full coverage at full accuracy, faster
  // than every baseline that matches that coverage+accuracy.
  const ConfigResult& planner = results[0].second;
  bool beats_all = planner.answered == static_cast<int>(n) &&
                   planner.accuracy_met == static_cast<int>(n);
  for (std::size_t i = 1; i < results.size(); ++i) {
    const ConfigResult& b = results[i].second;
    if (b.answered == static_cast<int>(n) &&
        b.accuracy_met == static_cast<int>(n) &&
        b.seconds <= planner.seconds) {
      beats_all = false;
    }
  }
  std::printf("\nplanner dominates (covers all, fastest at accuracy): %s\n",
              beats_all ? "yes" : "NO");

  // Show one representative decision per regime.
  {
    ConstraintDatabase db;
    Session session(&db);
    for (const char* name : {"triangle", "disk"}) {
      for (const WorkItem& item : workload()) {
        if (std::string(item.name) != name) continue;
        auto a = session.run(make_request(item));
        if (a.is_ok() && a.value().plan) {
          std::printf("\n[%s]\n%s", item.name,
                      plan_to_string(*a.value().plan).c_str());
        }
      }
    }
  }

  // Deadline degradation: an eps far below what 3 ms of sampling can
  // certify. The answer must be Degraded best-so-far, never an error.
  ConstraintDatabase db;
  Session session(&db);
  Request tight = make_request(workload()[5]);  // disk
  tight.budget.epsilon = 0.001;
  tight.budget.deadline_ms = 3;
  auto degraded = session.run(tight);
  std::string deadline_json = "    \"error\": true";
  if (degraded.is_ok()) {
    const Answer& a = degraded.value();
    std::printf("\ndeadline demo (disk, eps=0.001, deadline=3ms):\n"
                "  status=%s estimate=%.4f bars=[%.4f, %.4f] "
                "points=%zu/%zu\n",
                a.degraded() ? "Degraded" : "Ok",
                a.volume.estimate.value_or(0.0),
                a.volume.lower.value_or(0.0), a.volume.upper.value_or(1.0),
                a.volume.points_evaluated, a.volume.points_requested);
    deadline_json =
        std::string("    \"degraded\": ") +
        (a.degraded() ? "true" : "false") +
        ",\n    \"estimate\": " +
        std::to_string(a.volume.estimate.value_or(0.0)) +
        ",\n    \"lower\": " + std::to_string(a.volume.lower.value_or(0.0)) +
        ",\n    \"upper\": " + std::to_string(a.volume.upper.value_or(1.0)) +
        ",\n    \"points_evaluated\": " +
        std::to_string(a.volume.points_evaluated) +
        ",\n    \"points_requested\": " +
        std::to_string(a.volume.points_requested);
  }
  std::printf("\nsession metrics after deadline demo:\n%s\n",
              session.metrics_dump().c_str());

  std::string json = "{\n  \"workload_queries\": " + std::to_string(n) +
                     ",\n  \"epsilon\": " + std::to_string(kEpsilon) +
                     ",\n  \"delta\": " + std::to_string(kDelta) +
                     ",\n  \"strategies\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    json += config_json(results[i].first.c_str(), results[i].second);
    json += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  json += "  },\n  \"planner_beats_all_covering_baselines\": ";
  json += beats_all ? "true" : "false";
  json += ",\n  \"deadline_demo\": {\n" + deadline_json + "\n  }\n}\n";
  if (FILE* out = std::fopen("BENCH_planner.json", "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("  wrote BENCH_planner.json\n");
  }
}

void BM_PlanOnly(benchmark::State& state) {
  FormulaStats stats;
  stats.dimension = 2;
  stats.atoms = 6;
  stats.quantifiers = 1;
  stats.linear = true;
  stats.quantifier_free = true;
  stats.cell_estimate = 4;
  stats.vc_dim = 5.0;
  Budget budget;
  budget.epsilon = kEpsilon;
  budget.delta = kDelta;
  budget.deadline_ms = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan_volume(stats, budget));
  }
}
BENCHMARK(BM_PlanOnly);

void BM_SessionRunLinear(benchmark::State& state) {
  ConstraintDatabase db;
  Session session(&db);
  const Request req = make_request(workload()[1]);  // triangle
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run(req).value_or_die());
  }
}
BENCHMARK(BM_SessionRunLinear);

void BM_SessionRunNonlinear(benchmark::State& state) {
  ConstraintDatabase db;
  Session session(&db);
  const Request req = make_request(workload()[5]);  // disk
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run(req).value_or_die());
  }
}
BENCHMARK(BM_SessionRunNonlinear);

}  // namespace

CQA_BENCH_MAIN(print_table)
