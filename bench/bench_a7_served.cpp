// A7 -- sharded serving throughput: a 4-worker cqa_served fleet on a
// unix socket must sustain >= 10k req/s of mixed duplicate-heavy
// traffic end-to-end (encode, route, answer, decode), with honest tail
// latency and a measured shed-rate under surge.
//
// Two phases:
//
//   hot   -- C client threads replay a mixed set of K distinct requests
//            (exact volumes, decisions, pinned-seed Monte-Carlo). After
//            one warm pass everything is a fingerprint hit in the
//            persistent result cache, so the phase measures the wire +
//            router round trip: req/s, p50, p99.
//   surge -- a second fleet with shard_capacity=1 is flooded with
//            distinct slow Monte-Carlo requests. Admission sheds the
//            overflow to certified trivial-1/2 (guard.shed = true);
//            the phase records the shed-rate and checks every shed
//            answer stayed honest ([0,1] bars, degraded status).
//   survival -- ~500 exact quarter-volume requests through a seeded
//            wire-chaos proxy (torn frames, disconnects, bit flips,
//            stalls, blackholes) against a watchdog-armed fleet, with
//            one worker SIGSTOPped mid-drill. Records client retry and
//            reconnect totals, watchdog kills, respawns -- and demands
//            zero dishonest answers.
//
// Writes BENCH_served.json with a throughput_ok verdict.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>

#include "bench_util.h"
#include "cqa/served/chaos.h"
#include "cqa/served/client.h"
#include "cqa/served/server.h"

namespace {

using namespace cqa;

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kClientThreads = 8;
constexpr std::size_t kDistinct = 16;
constexpr std::size_t kRequestsPerThread = 2500;  // 20k total
constexpr double kReqPerSecFloor = 10000.0;

constexpr std::size_t kSurgeThreads = 8;
constexpr std::size_t kSurgePerThread = 40;

constexpr std::size_t kSurvivalThreads = 8;
constexpr std::size_t kSurvivalPerThread = 64;  // 512 through the gauntlet

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string tmp_name(const char* stem) {
  return std::string("/tmp/cqa_bench_a7.") + std::to_string(getpid()) + "." +
         stem;
}

// The mixed hot set: i cycles through cheap exact volumes (distinct
// boxes), closed decisions, and pinned-seed Monte-Carlo discs. All are
// deterministic in their fingerprint, hence cacheable.
Request hot_request(std::size_t i) {
  switch (i % 3) {
    case 0: {
      const std::string w = std::to_string(1 + (i % 4));
      return Request::volume("0 <= x & 4*x <= " + w + " & 0 <= y & y <= 1")
          .vars({"x", "y"})
          .build();
    }
    case 1:
      return Request::ask("E x. x * x = " + std::to_string(2 + i)).build();
    default:
      return Request::volume("x^2 + y^2 <= 9/10")
          .vars({"x", "y"})
          .strategy(VolumeStrategy::kMonteCarlo)
          .epsilon(0.05)
          .vc_dim(3.0)
          .seed(100 + i)
          .build();
  }
}

struct HotResult {
  double elapsed_sec = 0;
  double req_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  std::uint64_t cache_hits = 0;
};

HotResult run_hot_phase(const std::string& sock) {
  std::vector<Request> distinct;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    distinct.push_back(hot_request(i));
  }
  {
    // Warm pass: every signature computed once, stored in the cache.
    auto connected = served::Client::connect_unix(sock);
    CQA_CHECK(connected.is_ok());
    served::Client client = std::move(connected).take();
    for (const Request& r : distinct) {
      CQA_CHECK(client.call(r).is_ok());
    }
  }
  std::vector<std::vector<double>> latencies(kClientThreads);
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> threads;
  const double t0 = now_seconds();
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t] {
      auto connected = served::Client::connect_unix(sock);
      CQA_CHECK(connected.is_ok());
      served::Client client = std::move(connected).take();
      auto& lats = latencies[t];
      lats.reserve(kRequestsPerThread);
      for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
        const Request& r = distinct[(t + i) % kDistinct];
        const double s0 = now_seconds();
        if (!client.call(r).is_ok()) failures.fetch_add(1);
        lats.push_back((now_seconds() - s0) * 1000.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  HotResult hr;
  hr.elapsed_sec = now_seconds() - t0;
  std::vector<double> all;
  for (auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  std::sort(all.begin(), all.end());
  hr.requests = all.size();
  hr.failures = failures.load();
  hr.req_per_sec = hr.elapsed_sec > 0 ? hr.requests / hr.elapsed_sec : 0;
  hr.p50_ms = all.empty() ? 0 : all[all.size() / 2];
  hr.p99_ms = all.empty() ? 0 : all[(all.size() * 99) / 100];
  return hr;
}

struct SurgeResult {
  std::uint64_t requests = 0;
  std::uint64_t shed = 0;
  std::uint64_t dishonest = 0;  // shed answers without [0,1] bars
  double shed_rate = 0;
};

SurgeResult run_surge_phase() {
  served::ServedOptions options;
  options.workers = kWorkers;
  options.unix_path = tmp_name("surge.sock");
  options.shard_capacity = 1;  // admission sheds almost everything
  served::Server server(options);
  CQA_CHECK(server.start().is_ok());

  std::atomic<std::uint64_t> shed_seen{0};
  std::atomic<std::uint64_t> dishonest{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kSurgeThreads; ++t) {
    threads.emplace_back([&, t] {
      auto connected = served::Client::connect_unix(options.unix_path);
      CQA_CHECK(connected.is_ok());
      served::Client client = std::move(connected).take();
      for (std::size_t i = 0; i < kSurgePerThread; ++i) {
        // Distinct seeds: no coalescing, no cache, real MC work.
        Request r = Request::volume("x^2 + y^2 + x*y <= 4/5")
                        .vars({"x", "y"})
                        .strategy(VolumeStrategy::kMonteCarlo)
                        .epsilon(0.02)
                        .vc_dim(3.0)
                        .seed(1 + t * kSurgePerThread + i);
        auto a = client.call(r);
        if (!a.is_ok()) continue;
        if (a.value().guard.shed) {
          shed_seen.fetch_add(1);
          const bool honest = a.value().degraded() &&
                              a.value().volume.lower.value_or(1.0) <= 0.0 &&
                              a.value().volume.upper.value_or(0.0) >= 1.0;
          if (!honest) dishonest.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const served::ServerStats s = server.stats();
  server.stop();
  unlink(options.unix_path.c_str());
  SurgeResult sr;
  sr.requests = s.requests;
  sr.shed = s.shed;
  sr.dishonest = dishonest.load();
  sr.shed_rate = s.requests > 0 ? static_cast<double>(s.shed) / s.requests
                                : 0.0;
  return sr;
}

struct SurvivalResult {
  std::uint64_t requests = 0;
  std::uint64_t ok_exact = 0;
  std::uint64_t ok_degraded = 0;
  std::uint64_t typed_errors = 0;
  std::uint64_t dishonest = 0;
  std::uint64_t client_retries = 0;
  std::uint64_t client_reconnects = 0;
  std::uint64_t respawns = 0;
  std::uint64_t hung_kills = 0;
  std::uint64_t faults_injected = 0;
};

SurvivalResult run_survival_phase() {
  served::ServedOptions options;
  options.workers = kWorkers;
  options.unix_path = tmp_name("chaos.sock");
  options.watchdog_budget_ms = 1500;
  options.watchdog_interval_ms = 50;
  options.term_grace_ms = 100;
  served::Server server(options);
  CQA_CHECK(server.start().is_ok());

  served::ChaosOptions copt;
  copt.plan.seed = 7;
  auto rate = [&](guard::FaultSite s) -> double& {
    return copt.plan.rate[static_cast<std::size_t>(s)];
  };
  // ~20% of forwarded chunks / accepted connections take a fault.
  rate(guard::FaultSite::kWireTornFrame) = 0.05;
  rate(guard::FaultSite::kWireDisconnect) = 0.05;
  rate(guard::FaultSite::kWireBitFlip) = 0.05;
  rate(guard::FaultSite::kWireStalledWrite) = 0.03;
  rate(guard::FaultSite::kWireBlackhole) = 0.02;
  copt.stall_ms = 50;
  copt.upstream_unix = options.unix_path;
  served::ChaosProxy proxy(copt);
  CQA_CHECK(proxy.start().is_ok());

  const double kQuarter = 0.25;
  std::atomic<std::uint64_t> ok_exact{0};
  std::atomic<std::uint64_t> ok_degraded{0};
  std::atomic<std::uint64_t> typed_errors{0};
  std::atomic<std::uint64_t> dishonest{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kSurvivalThreads; ++t) {
    threads.emplace_back([&, t] {
      served::ClientOptions cl;
      cl.connect_timeout_ms = 1000;
      cl.backoff_base_ms = 2;
      cl.backoff_cap_ms = 20;
      cl.seed = 7000 + t;
      auto connect = [&]() {
        return served::Client::connect_tcp("127.0.0.1", proxy.port(), cl);
      };
      auto client = connect();
      for (std::size_t i = 0; i < kSurvivalPerThread; ++i) {
        if (!client.is_ok()) {
          client = connect();
          if (!client.is_ok()) {
            typed_errors.fetch_add(1);
            continue;
          }
        }
        Request r =
            Request::volume("0 <= x & x <= 1/2 & 0 <= y & y <= 1/2")
                .vars({"x", "y"})
                .seed(1 + t * kSurvivalPerThread + i)
                .build();
        auto a = client.value().call(r, /*timeout_ms=*/2000);
        if (!a.is_ok()) {
          typed_errors.fetch_add(1);
          if (a.status().code() == StatusCode::kDeadlineExceeded) {
            // Blackholed or stalled past the budget: re-dial rather
            // than burn every remaining call on a dead pipe.
            retries.fetch_add(client.value().retry_stats().retries);
            reconnects.fetch_add(client.value().retry_stats().reconnects);
            client = connect();
          }
          continue;
        }
        const Answer& ans = a.value();
        if (ans.degraded()) {
          const bool flagged = ans.guard.shed || ans.guard.worker_crashed ||
                               ans.guard.worker_hung;
          const bool honest_bars =
              ans.volume.lower.value_or(1.0) <= 0.0 &&
              ans.volume.upper.value_or(0.0) >= 1.0;
          if (flagged && honest_bars) {
            ok_degraded.fetch_add(1);
          } else {
            dishonest.fetch_add(1);
          }
        } else if (ans.volume.value() == kQuarter) {
          ok_exact.fetch_add(1);
        } else {
          dishonest.fetch_add(1);  // wire corruption slipped through
        }
      }
      if (client.is_ok()) {
        retries.fetch_add(client.value().retry_stats().retries);
        reconnects.fetch_add(client.value().retry_stats().reconnects);
      }
    });
  }
  // Freeze one shard mid-drill: the watchdog must notice, kill, respawn.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  kill(server.worker_pid(0), SIGSTOP);
  for (auto& th : threads) th.join();

  const served::ServerStats ss = server.stats();
  const served::ChaosStats cs = proxy.stats();
  proxy.stop();
  server.stop();
  unlink(options.unix_path.c_str());

  SurvivalResult sv;
  sv.requests = kSurvivalThreads * kSurvivalPerThread;
  sv.ok_exact = ok_exact.load();
  sv.ok_degraded = ok_degraded.load();
  sv.typed_errors = typed_errors.load();
  sv.dishonest = dishonest.load();
  sv.client_retries = retries.load();
  sv.client_reconnects = reconnects.load();
  sv.respawns = ss.respawns;
  sv.hung_kills = ss.hung_kills;
  sv.faults_injected =
      cs.torn + cs.stalled + cs.disconnects + cs.bit_flips + cs.blackholes;
  return sv;
}

void print_table() {
  cqa_bench::header(
      "A7: sharded serving (4-process fleet, binary wire protocol)",
      "a fingerprint-routed fleet sustains >= 10k req/s of mixed "
      "duplicate-heavy traffic and sheds surges honestly");

  served::ServedOptions options;
  options.workers = kWorkers;
  options.unix_path = tmp_name("hot.sock");
  options.cache_path = tmp_name("hot.cache");
  served::Server server(options);
  CQA_CHECK(server.start().is_ok());
  HotResult hot = run_hot_phase(options.unix_path);
  hot.cache_hits = server.stats().cache_hits;
  server.stop();
  unlink(options.unix_path.c_str());
  unlink(options.cache_path.c_str());
  CQA_CHECK(hot.failures == 0);

  SurgeResult surge = run_surge_phase();
  CQA_CHECK(surge.dishonest == 0);

  SurvivalResult sv = run_survival_phase();
  CQA_CHECK(sv.dishonest == 0);
  CQA_CHECK(sv.ok_exact > 0);

  const bool ok = hot.req_per_sec >= kReqPerSecFloor;
  std::printf("workers             %zu processes\n", kWorkers);
  std::printf("clients             %zu threads x %zu requests\n",
              kClientThreads, kRequestsPerThread);
  std::printf("hot requests        %llu (%llu cache hits)\n",
              static_cast<unsigned long long>(hot.requests),
              static_cast<unsigned long long>(hot.cache_hits));
  std::printf("hot throughput      %.0f req/s (floor %.0f) -> %s\n",
              hot.req_per_sec, kReqPerSecFloor,
              ok ? "ok" : "UNDER FLOOR");
  std::printf("hot latency         p50 %.3fms  p99 %.3fms\n", hot.p50_ms,
              hot.p99_ms);
  std::printf("surge shed          %llu / %llu (rate %.2f, dishonest %llu)\n",
              static_cast<unsigned long long>(surge.shed),
              static_cast<unsigned long long>(surge.requests),
              surge.shed_rate,
              static_cast<unsigned long long>(surge.dishonest));
  std::printf(
      "survival            %llu req: %llu exact, %llu degraded, %llu "
      "typed errors, %llu dishonest\n",
      static_cast<unsigned long long>(sv.requests),
      static_cast<unsigned long long>(sv.ok_exact),
      static_cast<unsigned long long>(sv.ok_degraded),
      static_cast<unsigned long long>(sv.typed_errors),
      static_cast<unsigned long long>(sv.dishonest));
  std::printf(
      "survival recovery   %llu faults, %llu retries, %llu reconnects, "
      "%llu hung kills, %llu respawns\n",
      static_cast<unsigned long long>(sv.faults_injected),
      static_cast<unsigned long long>(sv.client_retries),
      static_cast<unsigned long long>(sv.client_reconnects),
      static_cast<unsigned long long>(sv.hung_kills),
      static_cast<unsigned long long>(sv.respawns));

  std::string json =
      "{\n  \"workers\": " + std::to_string(kWorkers) +
      ",\n  \"client_threads\": " + std::to_string(kClientThreads) +
      ",\n  \"requests\": " + std::to_string(hot.requests) +
      ",\n  \"elapsed_sec\": " + std::to_string(hot.elapsed_sec) +
      ",\n  \"req_per_sec\": " + std::to_string(hot.req_per_sec) +
      ",\n  \"p50_ms\": " + std::to_string(hot.p50_ms) +
      ",\n  \"p99_ms\": " + std::to_string(hot.p99_ms) +
      ",\n  \"cache_hits\": " + std::to_string(hot.cache_hits) +
      ",\n  \"surge_requests\": " + std::to_string(surge.requests) +
      ",\n  \"surge_shed\": " + std::to_string(surge.shed) +
      ",\n  \"shed_rate\": " + std::to_string(surge.shed_rate) +
      ",\n  \"survival_requests\": " + std::to_string(sv.requests) +
      ",\n  \"survival_ok_exact\": " + std::to_string(sv.ok_exact) +
      ",\n  \"survival_degraded\": " + std::to_string(sv.ok_degraded) +
      ",\n  \"survival_typed_errors\": " + std::to_string(sv.typed_errors) +
      ",\n  \"survival_dishonest\": " + std::to_string(sv.dishonest) +
      ",\n  \"survival_faults\": " + std::to_string(sv.faults_injected) +
      ",\n  \"client_retries\": " + std::to_string(sv.client_retries) +
      ",\n  \"client_reconnects\": " + std::to_string(sv.client_reconnects) +
      ",\n  \"hung_kills\": " + std::to_string(sv.hung_kills) +
      ",\n  \"respawns\": " + std::to_string(sv.respawns) +
      ",\n  \"req_per_sec_floor\": " + std::to_string(kReqPerSecFloor) +
      ",\n  \"throughput_ok\": " + (ok ? std::string("true")
                                       : std::string("false")) +
      "\n}\n";
  std::FILE* f = std::fopen("BENCH_served.json", "w");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_served.json\n");
  }
}

// Micro cost of one wire round trip against a single-worker fleet with
// a warm cache: the fixed overhead a remote caller pays over a local
// Session::run on the same cached request.
void BM_WireRoundTripCached(benchmark::State& state) {
  served::ServedOptions options;
  options.workers = 1;
  options.unix_path = tmp_name("micro.sock");
  options.cache_path = tmp_name("micro.cache");
  served::Server server(options);
  CQA_CHECK(server.start().is_ok());
  auto connected = served::Client::connect_unix(options.unix_path);
  CQA_CHECK(connected.is_ok());
  served::Client client = std::move(connected).take();
  Request req = Request::volume("0 <= x & x <= 1 & 0 <= y & y <= 1")
                    .vars({"x", "y"});
  client.call(req).value_or_die();  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.call(req).is_ok());
  }
  server.stop();
  unlink(options.unix_path.c_str());
  unlink(options.cache_path.c_str());
}
BENCHMARK(BM_WireRoundTripCached);

}  // namespace

CQA_BENCH_MAIN(print_table)
