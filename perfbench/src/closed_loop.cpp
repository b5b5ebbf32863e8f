// The two in-process closed-loop workloads: exact_cold (2 callers,
// exact FO+LIN volumes) and mc_poly (1 caller, FO+POLY Monte-Carlo
// sampled on the caller). Each caller sends its next request only
// after the previous answer returned.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "cqa/core/volume_engine.h"

namespace perfbench {
namespace {

// Median of this many cold set-ups per run: one exact_cold set-up moved
// by up to 15% from the next within a run.
constexpr int kColdSetups = 9;

struct Workload {
  const char* name;
  std::size_t callers;
  std::size_t warmup_requests;
  double slo_ms;  // latency limit of slo_met_frac
};

constexpr Workload kExactCold{"exact_cold", 2, 96, 50.0};
constexpr Workload kMcPoly{"mc_poly", 1, 96, 50.0};

// A database plus the Session serving it (the Session keeps a pointer
// to the database, so both live on the heap together).
struct Served {
  cqa::ConstraintDatabase db;
  std::unique_ptr<cqa::Session> session;
};

// Throughput is the median over this many consecutive slices of the
// sequence (hundreds of requests each, so every slice holds nearly the
// same class mix), so a hypervisor stall in one slice does not move it.
constexpr std::size_t kSlices = 10;

struct Loop {
  std::vector<std::optional<cqa::Result<cqa::Answer>>> answers;
  std::vector<double> latency_ms;
  std::vector<Clock::time_point> done;
  Clock::time_point start;
  double wall_s = 0;
};

double sliced_throughput(const Loop& l) {
  const std::size_t n = l.done.size();
  std::vector<double> rates;
  auto slice_start = l.start;
  for (std::size_t k = 0; k < kSlices; ++k) {
    const std::size_t lo = n * k / kSlices, hi = n * (k + 1) / kSlices;
    if (hi == lo) continue;
    const auto end = *std::max_element(l.done.begin() + lo, l.done.begin() + hi);
    rates.push_back((hi - lo) / std::chrono::duration<double>(
                                    end - slice_start).count());
    slice_start = end;
  }
  return median(rates);
}

Loop closed_loop(cqa::Session& session, const std::vector<Item>& items,
                 std::size_t callers) {
  Loop out;
  out.answers.resize(items.size());
  out.latency_ms.resize(items.size());
  out.done.resize(items.size());
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  out.start = t0;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < items.size();) {
        const auto s = Clock::now();
        out.answers[i] = session.run(items[i].request);
        out.done[i] = Clock::now();
        out.latency_ms[i] = ms_between(s, out.done[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s = seconds_since(t0);
  return out;
}

// Everything a user pays before the first timed answer: database load,
// Session start (pool spin-up), and a fixed warm-up set that touches
// every layer the workload uses once.
std::unique_ptr<Served> set_up(const std::vector<Item>& warm) {
  auto s = std::make_unique<Served>();
  load_exact_database(&s->db);
  s->session =
      std::make_unique<cqa::Session>(&s->db, closed_loop_session_options());
  // One caller: with two, set-up time also depended on which caller
  // drew the last heavy request (exact_cold setup_s IQR/median 0.15
  // over ten runs, against 0.07 for its timed metrics).
  Loop l = closed_loop(*s->session, warm, 1);
  for (const auto& a : l.answers) {
    if (!a->is_ok()) {
      throw std::runtime_error("warm-up request failed: " +
                               a->status().to_string());
    }
  }
  return s;
}

// Median set-up time over several cold set-ups; returns the last one.
std::unique_ptr<Served> timed_set_up(const Workload& w, double* setup_s) {
  const std::vector<Item> warm = gen_warmup(w.name, w.warmup_requests);
  std::vector<double> times;
  std::unique_ptr<Served> s;
  for (int i = 0; i < kColdSetups; ++i) {
    s.reset();
    const auto t0 = Clock::now();
    s = set_up(warm);
    times.push_back(seconds_since(t0));
  }
  *setup_s = median(times);
  std::fprintf(stderr, "%s: set-ups", w.name);
  for (double t : times) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, " s\n");
  return s;
}

// Exact references by the kInclusionExclusion strategy, computed after
// the timed phase on separate engines (no cache), 4 threads.
std::vector<std::optional<cqa::Rational>> inclusion_exclusion_refs(
    const cqa::ConstraintDatabase* db, const std::vector<Item>& items) {
  std::vector<std::optional<cqa::Rational>> refs(items.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      cqa::VolumeEngine engine(db);
      cqa::VolumeOptions vo;
      vo.strategy = cqa::VolumeStrategy::kInclusionExclusion;
      for (std::size_t i; (i = next.fetch_add(1)) < items.size();) {
        auto v = engine.volume(items[i].request.query,
                               items[i].request.output_vars, vo);
        if (v.is_ok() && v.value().exact) refs[i] = *v.value().exact;
      }
    });
  }
  for (auto& t : threads) t.join();
  return refs;
}

Report run_closed(const Workload& w, const Args& args,
                  const std::vector<Item>& items) {
  Report rep;
  double setup_s = 0;
  std::unique_ptr<Served> s = timed_set_up(w, &setup_s);

  const CpuTimes host0 = read_cpu_times();
  const double cpu0 = self_cpu_seconds();
  Loop loop = closed_loop(*s->session, items, w.callers);
  const double cpu_s = self_cpu_seconds() - cpu0;
  const double steal = steal_frac(host0, read_cpu_times());
  const double rss_mb = self_peak_rss_mb();

  // ---- correctness ----
  CheckTally tally;
  std::vector<std::optional<cqa::Rational>> refs;
  if (std::string(w.name) == "exact_cold") {
    refs = inclusion_exclusion_refs(&s->db, items);
  }
  std::size_t successes = 0, full_fidelity = 0, slo_met = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& it = items[i];
    const auto& r = *loop.answers[i];
    ++tally.checked;
    if (!r.is_ok()) {
      tally.error(i, it, r.status().to_string());
      continue;
    }
    const cqa::Answer& a = r.value();
    if (!a.degraded()) ++full_fidelity;
    const std::uint64_t failed_before = tally.wrong;
    bool within_epsilon = true;
    if (a.guard.quota_tripped) tally.fail(i, it, "quota tripped");
    if (it.expect_exact) {
      if (!a.volume.exact) {
        tally.fail(i, it, "not routed to an exact strategy");
      } else if (!refs[i]) {
        tally.fail(i, it, "no inclusion-exclusion reference");
      } else if (!(*a.volume.exact == *refs[i])) {
        tally.fail(i, it,
                   "volume " + a.volume.exact->to_string() +
                       " != inclusion-exclusion " + refs[i]->to_string());
      }
    } else {
      within_epsilon = check_mc_estimate(i, it, a, &tally);
    }
    // An MC miss within the delta share leaves the run correct, but the
    // answer itself did not pass.
    if (tally.wrong != failed_before || !within_epsilon) continue;
    ++successes;
    if (!a.degraded() && loop.latency_ms[i] <= w.slo_ms) ++slo_met;
  }

  const double n = static_cast<double>(items.size());
  rep.attempted = items.size();
  rep.failed = items.size() - successes;
  rep.correct = tally.correct();
  rep.set("setup_s", setup_s, "s");
  rep.set("throughput_rps", sliced_throughput(loop), "1/s");
  rep.set("latency_p50_ms", percentile(loop.latency_ms, 0.50), "ms");
  rep.set("latency_p99_ms", percentile(loop.latency_ms, 0.99), "ms");
  rep.set("cpu_ms_per_req", cpu_s * 1000.0 / n, "ms");
  rep.set("slo_met_frac", slo_met / n, "frac");
  rep.set("full_fidelity_frac", full_fidelity / n, "frac");
  rep.set("success_frac", successes / n, "frac");
  rep.set("peak_rss_mb", rss_mb, "MiB");
  std::fprintf(stderr,
               "%s: %zu requests in %.2f s, steal %.3f, mc misses %llu/%llu, "
               "seconds %d\n",
               w.name, items.size(), loop.wall_s, steal,
               static_cast<unsigned long long>(tally.mc_misses),
               static_cast<unsigned long long>(tally.mc_checked),
               args.seconds);
  return rep;
}

}  // namespace

cqa::SessionOptions closed_loop_session_options() {
  cqa::SessionOptions options;
  // A pool cannot have fewer than one worker. With the whole sample in
  // one chunk, parallel_for enqueues no helper and the caller samples
  // alone, so each request runs on one thread. When a 1-thread pool
  // sampled beside the caller, the two threads ran in lockstep and
  // mc_poly's p99 and throughput moved with hypervisor steal (IQR/median
  // 0.71 and 0.42 over ten runs on a 4-vCPU VM); the pool is measured in
  // the traced run instead.
  options.threads = 1;
  options.mc_chunk_size = std::size_t{1} << 24;
  return options;
}

Report run_exact_cold(const Args& args) {
  return run_closed(kExactCold, args,
                    gen_exact_cold(args.seed,
                                   sequence_length("exact_cold", args.seconds)));
}

Report run_mc_poly(const Args& args) {
  return run_closed(kMcPoly, args,
                    gen_mc_poly(args.seed,
                                sequence_length("mc_poly", args.seconds)));
}

}  // namespace perfbench
