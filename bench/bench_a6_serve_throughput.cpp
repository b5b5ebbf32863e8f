// A6 -- serve-layer throughput: submit() with coalescing and MC
// grouping (queued same-query MC requests run concurrently, each
// through run()) must beat thread-per-request run() by >= 2x on a
// duplicate-heavy Monte-Carlo workload at equal thread count. The
// workload is the serving layer's reason to exist: K distinct forced-MC
// volume requests, each arriving D times (dashboards refreshing the same
// query), so the scheduler serves K computations where the baseline
// serves K*D.
//
// Both sides get the same concurrency: T caller threads draining the
// request list through run() versus T scheduler executors draining the
// submit() queue. Min-of-k timing, same estimator rationale as A5.
// Writes BENCH_serve.json with a speedup_ok verdict for the CI gate.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cqa/runtime/session.h"
#include "cqa/serve/scheduler.h"

namespace {

using namespace cqa;

constexpr int kReps = 5;               // min-of-k repetitions per side
constexpr std::size_t kDistinct = 6;   // distinct request signatures
constexpr std::size_t kDupes = 8;      // arrivals per signature
constexpr std::size_t kThreads = 2;    // callers vs executors
constexpr double kSpeedupFloor = 2.0;  // acceptance bar

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The i-th distinct signature: a nonlinear membership (never exactly
// cached) with its own seed, pinned to Monte-Carlo so both sides do the
// same sampling work per computation.
Request make_request(std::size_t i) {
  return Request::volume("x^2 + y^2 <= 9/10 & 0 <= x & 0 <= y")
      .vars({"x", "y"})
      .strategy(VolumeStrategy::kMonteCarlo)
      .epsilon(0.02)
      .vc_dim(3.0)
      .seed(1000 + i)
      .build();
}

std::vector<Request> workload() {
  std::vector<Request> reqs;
  for (std::size_t d = 0; d < kDupes; ++d) {
    for (std::size_t i = 0; i < kDistinct; ++i) {
      reqs.push_back(make_request(i));
    }
  }
  return reqs;
}

SessionOptions session_opts() {
  SessionOptions opts;
  opts.threads = kThreads;
  opts.serve_executors = kThreads;
  opts.serve_queue_capacity = 4096;
  return opts;
}

// Baseline: T caller threads drain the request list via synchronous
// run(). Every arrival costs a full MC computation.
double time_thread_per_request(const std::vector<Request>& reqs) {
  ConstraintDatabase db;
  Session session(&db, session_opts());
  std::atomic<std::size_t> next{0};
  std::atomic<int> failures{0};
  const double t0 = now_seconds();
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    callers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= reqs.size()) return;
        if (!session.run(reqs[i]).is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : callers) th.join();
  const double dt = now_seconds() - t0;
  CQA_CHECK(failures.load() == 0);
  return dt;
}

// Serving side: the same arrivals submitted up front, drained by T
// executors with duplicate coalescing and concurrent MC groups.
double time_submit(const std::vector<Request>& reqs,
                   std::uint64_t* coalesced, std::uint64_t* batched,
                   std::uint64_t* points) {
  ConstraintDatabase db;
  Session session(&db, session_opts());
  session.scheduler();  // create executors outside the timed region
  const double t0 = now_seconds();
  std::vector<serve::Ticket> tickets;
  tickets.reserve(reqs.size());
  for (const Request& r : reqs) tickets.push_back(session.submit(r));
  int failures = 0;
  for (auto& t : tickets) {
    if (!t.wait().is_ok()) ++failures;
  }
  const double dt = now_seconds() - t0;
  CQA_CHECK(failures == 0);
  *coalesced = session.metrics().counter_value("serve_coalesced_total");
  *batched = session.metrics().counter_value("serve_mc_batched_total");
  *points = session.metrics().counter_value("mc_points_evaluated_total");
  return dt;
}

void print_table() {
  cqa_bench::header(
      "A6: serve throughput (submit batching vs thread-per-request run)",
      "coalescing + concurrent MC groups serve duplicate-heavy traffic >= 2x "
      "faster than synchronous run() at equal thread count");

  const std::vector<Request> reqs = workload();
  double run_sec = 1e100, submit_sec = 1e100;
  std::uint64_t coalesced = 0, batched = 0, points = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    run_sec = std::min(run_sec, time_thread_per_request(reqs));
    std::uint64_t c = 0, b = 0, p = 0;
    const double sec = time_submit(reqs, &c, &b, &p);
    if (sec < submit_sec) {
      submit_sec = sec;
      points = p;
    }
    coalesced = std::max(coalesced, c);
    batched = std::max(batched, b);
  }
  const double speedup = submit_sec > 0 ? run_sec / submit_sec : 0.0;
  const bool ok = speedup >= kSpeedupFloor;
  const double samples_per_sec =
      submit_sec > 0 ? static_cast<double>(points) / submit_sec : 0.0;

  std::printf("requests            %zu (%zu distinct x %zu arrivals)\n",
              reqs.size(), kDistinct, kDupes);
  std::printf("threads             %zu callers vs %zu executors\n",
              kThreads, kThreads);
  std::printf("run() total         %.4fs (min of %d)\n", run_sec, kReps);
  std::printf("submit() total      %.4fs (min of %d)\n", submit_sec, kReps);
  std::printf("coalesced/batched   %llu / %llu\n",
              static_cast<unsigned long long>(coalesced),
              static_cast<unsigned long long>(batched));
  std::printf("speedup             %.2fx (floor %.1fx) -> %s\n", speedup,
              kSpeedupFloor, ok ? "ok" : "UNDER FLOOR");
  std::printf("MC throughput       %.0f samples/sec over submit()\n",
              samples_per_sec);

  std::string json =
      "{\n  \"reps\": " + std::to_string(kReps) +
      ",\n  \"requests\": " + std::to_string(reqs.size()) +
      ",\n  \"distinct\": " + std::to_string(kDistinct) +
      ",\n  \"threads\": " + std::to_string(kThreads) +
      ",\n  \"run_sec\": " + std::to_string(run_sec) +
      ",\n  \"submit_sec\": " + std::to_string(submit_sec) +
      ",\n  \"speedup\": " + std::to_string(speedup) +
      ",\n  \"samples_per_sec\": " + std::to_string(samples_per_sec) +
      ",\n  \"coalesced_total\": " + std::to_string(coalesced) +
      ",\n  \"batched_total\": " + std::to_string(batched) +
      ",\n  \"speedup_floor\": " + std::to_string(kSpeedupFloor) +
      ",\n  \"speedup_ok\": " + (ok ? std::string("true")
                                    : std::string("false")) +
      "\n}\n";
  std::FILE* f = std::fopen("BENCH_serve.json", "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_serve.json\n");
  }
}

// Micro costs of the serving primitives under google-benchmark timing.
void BM_SubmitResolveTrivial(benchmark::State& state) {
  // Queue admission + executor round-trip for a request that sheds no
  // work: measures the scheduler's fixed overhead per ticket.
  ConstraintDatabase db;
  Session session(&db, session_opts());
  Request req = Request::volume("x >= 0 & x <= 1 & y >= 0 & y <= 1")
                    .vars({"x", "y"});
  session.run(req).value_or_die();  // warm the volume cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.submit(req).wait().is_ok());
  }
}
BENCHMARK(BM_SubmitResolveTrivial);

void BM_RunCachedBaseline(benchmark::State& state) {
  // The synchronous floor the scheduler overhead is judged against.
  ConstraintDatabase db;
  Session session(&db, session_opts());
  Request req = Request::volume("x >= 0 & x <= 1 & y >= 0 & y <= 1")
                    .vars({"x", "y"});
  session.run(req).value_or_die();
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run(req).is_ok());
  }
}
BENCHMARK(BM_RunCachedBaseline);

}  // namespace

CQA_BENCH_MAIN(print_table)
