// Traced runs: replay a fixed seeded subset of a workload and time the
// calls into each library layer, in pipeline order, from outside the
// library (parse -> inline/QE -> plan -> cells -> sweep for exact
// answers; compile -> sample for Monte-Carlo; codec, hop and the worker
// registries for the fleet). Spans live in memory and are written as
// JSON lines at the end.
//
// Each replayed request also runs once untraced through Session::run
// (or Client::call), so the per-layer times can be set against the
// end-to-end time: runtime.overhead_us, bench.trace_coverage_frac and
// bench.trace_overhead_frac.

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "bench.h"
#include "cqa/approx/compiled_membership.h"
#include "cqa/approx/random.h"
#include "cqa/constraint/qe.h"
#include "cqa/logic/transform.h"
#include "cqa/runtime/parallel_sampler.h"
#include "cqa/served/client.h"
#include "cqa/served/wire.h"
#include "cqa/volume/semilinear_volume.h"
#include "fleet.h"

namespace perfbench {
namespace {

namespace served = cqa::served;

// Every per-layer metric, in BENCHMARK.json order. A traced run reports
// all of them; layers a workload leaves idle report 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"logic.parse_us", "us"},
    {"core.rewrite_us", "us"},
    {"constraint.cells_us", "us"},
    {"constraint.cells_per_req", "count"},
    {"volume.sweep_us", "us"},
    {"volume.sections_per_req", "count"},
    {"volume.breakpoints_per_req", "count"},
    {"arith.bigint_heap_nodes_per_req", "count"},
    {"arith.bigint_bits_max", "bits"},
    {"plan.plan_us", "us"},
    {"plan.cost_ratio_exact", "ratio"},
    {"plan.cost_ratio_mc", "ratio"},
    {"plan.cell_estimate_ratio", "ratio"},
    {"plan.degraded_frac", "frac"},
    {"approx.compile_us", "us"},
    {"approx.fallback_atoms_per_req", "count"},
    {"approx.sample_ns_per_point", "ns"},
    {"vc.samples_per_req", "count"},
    {"runtime.pool_speedup", "ratio"},
    {"runtime.overhead_us", "us"},
    {"runtime.cache_hit_frac", "frac"},
    {"serve.queue_wait_us", "us"},
    {"serve.coalesced_frac", "frac"},
    {"serve.mc_batched_frac", "frac"},
    {"serve.shed_frac", "frac"},
    {"served.codec_us", "us"},
    {"served.frame_bytes_per_req", "bytes"},
    {"served.hop_us", "us"},
    {"served.cache_hit_frac", "frac"},
    {"guard.quota_trips", "count"},
    {"bench.steal_frac", "frac"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.trace_coverage_frac", "frac"},
    {"bench.trace_overhead_frac", "frac"},
};

Report layer_report() {
  Report r;
  for (const auto& [name, unit] : kLayerMetrics) r.set(name, 0.0, unit);
  return r;
}

// ---- span recorder (single-threaded: replays run sequentially) ----

class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t request;
    int parent;
    Clock::time_point start, end;
  };

  int begin(const char* name, std::uint64_t request, int parent) {
    spans_.push_back({name, request, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) { spans_[span].end = Clock::now(); }

  /// Runs f() inside a span and returns its result.
  template <typename F>
  auto span(const char* name, std::uint64_t request, int parent, F&& f) {
    const int s = begin(name, request, parent);
    auto result = f();
    end(s);
    return result;
  }

  double duration_us(int span) const {
    return std::chrono::duration<double, std::micro>(spans_[span].end -
                                                     spans_[span].start)
        .count();
  }

  /// Self time summed over spans named `name`: each span's duration
  /// minus the part its child spans cover.
  double self_us(const std::string& name) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) child[spans_[i].parent] += duration_us(i);
    }
    double total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) total += duration_us(i) - child[i];
    }
    return total;
  }

  /// Self time of every span inside a request, summed (the request
  /// roots and spans outside any request excluded).
  double layer_self_us() const {
    double total = 0;
    std::set<std::string> names;
    for (const Span& s : spans_) {
      if (s.parent >= 0) names.insert(s.name);
    }
    for (const std::string& n : names) total += self_us(n);
    return total;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    if (spans_.empty()) return;
    const auto t0 = spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"request\": " << s.request << ", \"parent\": " << s.parent
          << ", \"start_us\": "
          << std::chrono::duration<double, std::micro>(s.start - t0).count()
          << ", \"end_us\": "
          << std::chrono::duration<double, std::micro>(s.end - t0).count()
          << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

double ns_of(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Share of EvalCache volume lookups that hit between two snapshots.
double hit_frac(const cqa::CacheStats& before, const cqa::CacheStats& after) {
  const double lookups = static_cast<double>(
      after.hits + after.misses - before.hits - before.misses);
  return lookups > 0 ? (after.hits - before.hits) / lookups : 0.0;
}

const cqa::PlannedStrategy* chosen_plan(const cqa::PlanDecision& d) {
  for (const auto& p : d.considered) {
    if (p.strategy == d.chosen) return &p;
  }
  return nullptr;
}

std::vector<std::size_t> element_vars(cqa::ConstraintDatabase* db,
                                      const std::vector<std::string>& vars) {
  std::vector<std::size_t> out;
  for (const auto& v : vars) out.push_back(db->var(v));
  return out;
}

// Session analysis formula for planning: the QE rewrite for quantified
// FO+LIN, else the predicate-inlined parse (what Session::run plans on).
cqa::Result<cqa::FormulaPtr> inlined(cqa::ConstraintDatabase* db,
                                     const cqa::FormulaPtr& parsed) {
  auto expanded = db->db().expand_active_domain(parsed);
  if (!expanded.is_ok()) return expanded.status();
  return db->db().inline_predicates(expanded.value());
}

template <typename T>
T must(cqa::Result<T> r, const char* what) {
  if (!r.is_ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             r.status().to_string());
  }
  return std::move(r).take();
}

constexpr std::size_t kExactReplay = 240;  // ten exact_cold blocks
constexpr std::size_t kMcReplay = 120;     // five mc_poly blocks
// The fleet section: an open-loop prefix of the served mix at
// kServedRate for kServedLoadSeconds (about half a CPU of work per
// second), a burst of kServedBurst batchable requests sent twice each,
// then kServedDecompose later cold requests one at a time.
constexpr std::size_t kServedRate = 50;
constexpr std::size_t kServedLoadSeconds = 4;
constexpr std::size_t kServedBurst = 8;
constexpr std::size_t kServedDecompose = 140;

// Sums one metric over every shard of a Client::stats() dump (lines
// "name value", shard sections repeat the names).
double stats_sum(const std::string& dump, const std::string& name) {
  std::istringstream in(dump);
  std::string line;
  double total = 0;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      total += std::stod(line.substr(name.size() + 1));
    }
  }
  return total;
}

struct FleetTrace {
  std::size_t attempted = 0;
  double quota_trips = 0;
};

// The served layers, measured on a 2-worker fleet with a disk cache
// whose set-up warms the served mix's hot set. Part 1 sends a prefix of
// the mix as an open loop, for the router cache and the planner under
// deadlines, then the burst, for MC batching and coalescing; the worker
// registries cover both. Part 2 sends later cold requests one at a
// time, decomposed into codec, the fleet round trip and an in-process
// Session::run of the same request. Every fleet answer is checked
// against an in-process Session::run. Sets serve.*, served.*,
// plan.cost_ratio_mc, plan.degraded_frac and bench.gen_lag_p99_ms.
FleetTrace trace_fleet(std::uint64_t seed, Tracer& tr, CheckTally& tally,
                       Report& rep) {
  const std::size_t prefix = kServedRate * kServedLoadSeconds;
  const ServedMix mix =
      gen_served_mix(seed, prefix + 2 * kServedDecompose, kServedBurst);
  const std::vector<Item>& items = mix.sequence;
  FleetTrace ft;
  std::size_t usage_mismatches = 0;

  Fleet fleet("trace", mix.hot_set);
  const std::string sock = fleet_options("trace").unix_path;
  served::Client client =
      must(served::Client::connect_unix(sock), "connect client");
  const std::string stats0 = must(client.stats(), "stats");
  const served::ServerStats router0 = fleet.server->stats();

  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < prefix; ++i) {
    payloads.push_back(served::encode_request(items[i].request));
  }
  const Traffic t = fleet.pipe->send_all(payloads, kServedRate);
  const served::ServerStats router1 = fleet.server->stats();
  std::vector<std::string> burst;
  for (const Item& it : mix.burst) {
    burst.push_back(served::encode_request(it.request));
  }
  const Traffic b = fleet.pipe->send_all(burst, 0);
  const std::string stats1 = must(client.stats(), "stats");
  std::vector<double> lag;
  for (std::size_t i = 0; i < prefix; ++i) {
    lag.push_back(ms_between(t.due[i], t.sent[i]));
  }
  auto delta = [&](const char* name) {
    return stats_sum(stats1, name) - stats_sum(stats0, name);
  };
  const double submitted = delta("serve_submitted_total");
  const double waits = delta("serve_wait_ns_count");
  rep.set("serve.queue_wait_us",
          waits > 0 ? delta("serve_wait_ns_sum_ns") / waits / 1000.0 : 0.0,
          "us");
  if (submitted > 0) {
    rep.set("serve.coalesced_frac", delta("serve_coalesced_total") / submitted,
            "frac");
    rep.set("serve.mc_batched_frac",
            delta("serve_mc_batched_total") / submitted, "frac");
    rep.set("serve.shed_frac", delta("serve_shed_total") / submitted, "frac");
  }
  const double routed = static_cast<double>(router1.requests - router0.requests);
  rep.set("served.cache_hit_frac",
          routed > 0 ? (router1.cache_hits - router0.cache_hits) / routed : 0.0,
          "frac");
  rep.set("bench.gen_lag_p99_ms", percentile(lag, 0.99), "ms");

  std::vector<Item> sent(items.begin(), items.begin() + prefix);
  sent.insert(sent.end(), mix.burst.begin(), mix.burst.end());
  const std::vector<cqa::Result<cqa::Answer>> oracle = oracle_answers(sent);
  for (std::size_t k = 0; k < mix.burst.size(); ++k) {
    ++ft.attempted;
    (void)check_served_answer(prefix + k, mix.burst[k], b.answers[k],
                              oracle[prefix + k], &tally, &usage_mismatches);
  }
  double volumes = 0, degraded = 0;
  for (std::size_t i = 0; i < prefix; ++i) {
    ++ft.attempted;
    (void)check_served_answer(i, items[i], t.answers[i], oracle[i], &tally,
                              &usage_mismatches);
    if (!oracle[i].is_ok() || !oracle[i].value().plan) continue;
    ++volumes;
    degraded += oracle[i].value().plan->degrade_preplanned ? 1 : 0;
  }
  rep.set("plan.degraded_frac", volumes > 0 ? degraded / volumes : 0.0,
          "frac");

  cqa::ConstraintDatabase db;  // workers serve an empty database too
  cqa::Session local(&db, fleet_options("trace").session);
  std::size_t decomposed = 0;
  double codec_us = 0, call_us = 0, run_us = 0, bytes = 0;
  std::vector<double> cost_mc;
  for (std::size_t i = prefix;
       i < items.size() && decomposed < kServedDecompose; ++i) {
    if (items[i].hot) continue;
    ++decomposed;
    ++ft.attempted;
    const cqa::Request& req = items[i].request;
    const int root = tr.begin("request", i, -1);
    const int enc = tr.begin("served.codec", i, root);
    const std::string wire = served::encode_request(req);
    (void)must(served::decode_request(wire), "decode_request");
    tr.end(enc);
    const int call = tr.begin("served.call", i, root);
    cqa::Result<cqa::Answer> remote = client.call(req, 30000);
    tr.end(call);
    const int dec = tr.begin("served.codec", i, root);
    const std::string answer_wire = served::encode_answer(remote, nullptr);
    cqa::Result<cqa::Answer> back = cqa::Status::internal("undecoded");
    (void)served::decode_answer(answer_wire, &db, &back);
    tr.end(dec);
    tr.end(root);
    codec_us += tr.duration_us(enc) + tr.duration_us(dec);
    bytes += static_cast<double>(wire.size() + answer_wire.size());
    call_us += tr.duration_us(call);

    const auto l0 = Clock::now();
    const cqa::Result<cqa::Answer> in_process = local.run(req);
    run_us += ns_of(l0, Clock::now()) / 1000.0;
    (void)check_served_answer(i, items[i], answer_wire, in_process, &tally,
                              &usage_mismatches);
    if (remote.is_ok()) ft.quota_trips += remote.value().guard.quota_tripped;
    if (!in_process.is_ok() || !in_process.value().plan) continue;
    const cqa::Answer& a = in_process.value();
    const cqa::PlannedStrategy* p = chosen_plan(*a.plan);
    if (p && !a.volume.exact) {
      cost_mc.push_back(p->predicted_ns / (a.elapsed_ms * 1e6));
    }
  }
  const double n = static_cast<double>(decomposed);
  rep.set("served.codec_us", codec_us / n, "us");
  rep.set("served.frame_bytes_per_req", bytes / n, "bytes");
  rep.set("served.hop_us", (call_us - run_us) / n, "us");
  rep.set("plan.cost_ratio_mc", median(cost_mc), "ratio");
  std::fprintf(stderr,
               "fleet: %zu answers checked against in-process Session::run, "
               "%zu differing from it only in guard accounting\n",
               ft.attempted, usage_mismatches);
  return ft;
}

}  // namespace

Report trace_exact_cold(const Args& args) {
  const std::vector<Item> items = gen_exact_cold(args.seed, kExactReplay);
  cqa::ConstraintDatabase db;
  load_exact_database(&db);
  const cqa::SessionOptions options = closed_loop_session_options();
  cqa::Session session(&db, options);
  for (const Item& w : gen_warmup("exact_cold", 96)) (void)session.run(w.request);
  const cqa::CacheStats cache0 = session.cache().volume_stats();
  cqa::QueryEngine engine(&db);  // no cache: every rewrite is computed

  Report rep = layer_report();
  Tracer tr;
  CheckTally tally;
  std::vector<double> cost_ratio, cell_ratio;
  double untraced_us = 0, traced_us = 0;
  double cells = 0, sections = 0, breakpoints = 0, heap_nodes = 0;
  double bits_max = 0, trips = 0;
  const CpuTimes host0 = read_cpu_times();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const cqa::Request& req = items[i].request;
    const auto u0 = Clock::now();
    auto answer = must(session.run(req), "Session::run");
    const auto u1 = Clock::now();
    untraced_us += ns_of(u0, u1) / 1000.0;
    trips += answer.guard.quota_tripped ? 1 : 0;

    cqa::guard::WorkMeter meter(req.budget.quota);
    cqa::guard::MeterScope bind(&meter);
    const int root = tr.begin("request", i, -1);
    auto parsed = tr.span("logic.parse", i, root, [&] {
      return must(db.parse(req.query), "parse");
    });
    auto rewritten = tr.span("core.rewrite", i, root, [&] {
      cqa::RewriteOptions ro;
      ro.meter = &meter;
      return must(engine.rewrite(req.query, ro), "rewrite");
    });
    auto decision = tr.span("plan.plan", i, root, [&] {
      cqa::FormulaPtr analysis =
          parsed->is_quantifier_free() ? must(inlined(&db, parsed), "inline")
                                       : rewritten;
      cqa::FormulaStats stats = cqa::extract_stats(
          analysis, req.output_vars.size(), parsed->count_quantifiers());
      return cqa::plan_volume(stats, req.budget);
    });
    auto cell_list = tr.span("constraint.cells", i, root, [&] {
      std::map<std::size_t, cqa::Polynomial> slots;
      for (std::size_t k = 0; k < req.output_vars.size(); ++k) {
        slots.emplace(db.var(req.output_vars[k]), cqa::Polynomial::variable(k));
      }
      return must(cqa::qe_to_cells(cqa::substitute_vars(rewritten, slots),
                                   req.output_vars.size()),
                  "qe_to_cells");
    });
    cqa::VolumeStats vstats;
    auto volume = tr.span("volume.sweep", i, root, [&] {
      return must(cqa::semilinear_volume(cell_list, &vstats, nullptr, &meter),
                  "semilinear_volume");
    });
    tr.end(root);
    traced_us += tr.duration_us(root);

    ++tally.checked;
    if (!answer.volume.exact || !(*answer.volume.exact == volume)) {
      tally.fail(i, items[i], "layer replay volume " + volume.to_string() +
                                  " differs from Session::run");
    }
    cells += cell_list.size();
    sections += vstats.sections_evaluated;
    breakpoints += vstats.breakpoints;
    heap_nodes += meter.bigint_heap_nodes();
    bits_max = std::max<double>(bits_max, meter.usage().bigint_bits_peak);
    if (!cell_list.empty()) {
      cell_ratio.push_back(static_cast<double>(decision.stats.cell_estimate) /
                           cell_list.size());
    }
    if (const cqa::PlannedStrategy* p = chosen_plan(decision)) {
      cost_ratio.push_back(p->predicted_ns / ns_of(u0, u1));
    }
  }
  const double n = static_cast<double>(items.size());
  const double layers_us = tr.layer_self_us();
  rep.set("logic.parse_us", tr.self_us("logic.parse") / n, "us");
  rep.set("core.rewrite_us", tr.self_us("core.rewrite") / n, "us");
  rep.set("constraint.cells_us", tr.self_us("constraint.cells") / n, "us");
  rep.set("constraint.cells_per_req", cells / n, "count");
  rep.set("volume.sweep_us", tr.self_us("volume.sweep") / n, "us");
  rep.set("volume.sections_per_req", sections / n, "count");
  rep.set("volume.breakpoints_per_req", breakpoints / n, "count");
  rep.set("arith.bigint_heap_nodes_per_req", heap_nodes / n, "count");
  rep.set("arith.bigint_bits_max", bits_max, "bits");
  rep.set("plan.plan_us", tr.self_us("plan.plan") / n, "us");
  rep.set("plan.cost_ratio_exact", median(cost_ratio), "ratio");
  rep.set("plan.cell_estimate_ratio", median(cell_ratio), "ratio");
  rep.set("runtime.overhead_us", (untraced_us - layers_us) / n, "us");
  rep.set("runtime.cache_hit_frac",
          hit_frac(cache0, session.cache().volume_stats()), "frac");
  rep.set("bench.trace_coverage_frac", layers_us / untraced_us, "frac");
  rep.set("bench.trace_overhead_frac", traced_us / untraced_us - 1.0, "frac");

  // The served layers: no timed workload drives the fleet (its latency
  // followed hypervisor steal far more than its CPU time did), so the
  // traced run sends it the served mix.
  const FleetTrace ft = trace_fleet(args.seed, tr, tally, rep);
  rep.set("guard.quota_trips", trips + ft.quota_trips, "count");
  rep.set("bench.steal_frac", steal_frac(host0, read_cpu_times()), "frac");

  tr.write(args.trace_out);
  rep.attempted = items.size() + ft.attempted;
  rep.failed = tally.failed();
  rep.correct = tally.correct();
  return rep;
}

Report trace_mc_poly(const Args& args) {
  const std::vector<Item> items = gen_mc_poly(args.seed, kMcReplay);
  cqa::ConstraintDatabase db;
  load_exact_database(&db);
  const cqa::SessionOptions options = closed_loop_session_options();
  cqa::Session session(&db, options);
  for (const Item& w : gen_warmup("mc_poly", 96)) (void)session.run(w.request);
  const cqa::CacheStats cache0 = session.cache().volume_stats();

  Report rep = layer_report();
  Tracer tr;
  CheckTally tally;
  std::vector<double> cost_ratio;
  double untraced_us = 0, traced_us = 0, fallback = 0, samples = 0;
  double kernel_ns = 0, serial_ns = 0, pooled_ns = 0, trips = 0;
  const CpuTimes host0 = read_cpu_times();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const cqa::Request& req = items[i].request;
    const auto u0 = Clock::now();
    auto answer = must(session.run(req), "Session::run");
    const auto u1 = Clock::now();
    untraced_us += ns_of(u0, u1) / 1000.0;
    trips += answer.guard.quota_tripped ? 1 : 0;
    ++tally.checked;
    (void)check_mc_estimate(i, items[i], answer, &tally);
    const std::size_t m = answer.volume.points_requested;
    samples += static_cast<double>(m);
    const std::vector<std::size_t> elems = element_vars(&db, req.output_vars);

    const int root = tr.begin("request", i, -1);
    auto parsed = tr.span("logic.parse", i, root, [&] {
      return must(db.parse(req.query), "parse");
    });
    auto membership = tr.span("core.rewrite", i, root, [&] {
      return must(inlined(&db, parsed), "inline");
    });
    auto decision = tr.span("plan.plan", i, root, [&] {
      cqa::FormulaStats stats = cqa::extract_stats(
          membership, req.output_vars.size(), parsed->count_quantifiers());
      return cqa::plan_volume(stats, req.budget);
    });
    auto compiled = tr.span("approx.compile", i, root, [&] {
      return must(cqa::CompiledMembership::compile(membership, elems),
                  "compile");
    });
    // Sampling as Session::run does it: the Session's chunk size, on
    // its pool (one chunk, so on the caller alone).
    auto estimate = tr.span("runtime.sample", i, root, [&] {
      cqa::ParallelSampler sampler(&db.db(), membership, elems, m, req.seed,
                                   options.mc_chunk_size);
      return must(sampler.estimate({}, &session.pool()), "estimate");
    });
    tr.end(root);
    traced_us += tr.duration_us(root);
    if (!answer.volume.estimate || *answer.volume.estimate != estimate) {
      tally.fail(i, items[i], "layer replay estimate differs from Session::run");
    }

    // Outside the request span: the serial kernel alone, and the pool's
    // speed-up at the library's default chunk size (serial against the
    // Session pool's worker plus the caller).
    const int kernel = tr.begin("approx.sample", i, -1);
    auto binding = must(compiled.bind({}), "bind");
    cqa::Xoshiro rng(req.seed);
    (void)must(compiled.count_hits_stream(binding, &rng, m),
               "count_hits_stream");
    tr.end(kernel);
    kernel_ns += tr.duration_us(kernel) * 1000.0;
    cqa::ParallelSampler chunked(&db.db(), membership, elems, m, req.seed);
    const auto s0 = Clock::now();
    const double serial = must(chunked.estimate({}, nullptr), "serial");
    const auto s1 = Clock::now();
    const double pooled = must(chunked.estimate({}, &session.pool()), "pooled");
    pooled_ns += ns_of(s1, Clock::now());
    serial_ns += ns_of(s0, s1);
    if (serial != pooled) {
      tally.fail(i, items[i], "pooled and serial estimates differ");
    }
    fallback += compiled.fallback_atom_count();
    if (!req.strategy) {
      if (const cqa::PlannedStrategy* p = chosen_plan(decision)) {
        cost_ratio.push_back(p->predicted_ns / ns_of(u0, u1));
      }
    }
  }
  const double n = static_cast<double>(items.size());
  const double layers_us = tr.layer_self_us();
  rep.set("logic.parse_us", tr.self_us("logic.parse") / n, "us");
  rep.set("core.rewrite_us", tr.self_us("core.rewrite") / n, "us");
  rep.set("plan.plan_us", tr.self_us("plan.plan") / n, "us");
  rep.set("plan.cost_ratio_mc", median(cost_ratio), "ratio");
  rep.set("approx.compile_us", tr.self_us("approx.compile") / n, "us");
  rep.set("approx.fallback_atoms_per_req", fallback / n, "count");
  rep.set("approx.sample_ns_per_point", kernel_ns / samples, "ns");
  rep.set("vc.samples_per_req", samples / n, "count");
  rep.set("runtime.pool_speedup", serial_ns / pooled_ns, "ratio");
  rep.set("runtime.overhead_us", (untraced_us - layers_us) / n, "us");
  rep.set("runtime.cache_hit_frac",
          hit_frac(cache0, session.cache().volume_stats()), "frac");
  rep.set("guard.quota_trips", trips, "count");
  rep.set("bench.steal_frac", steal_frac(host0, read_cpu_times()), "frac");
  rep.set("bench.trace_coverage_frac", layers_us / untraced_us, "frac");
  rep.set("bench.trace_overhead_frac", traced_us / untraced_us - 1.0, "frac");
  tr.write(args.trace_out);
  rep.attempted = items.size();
  rep.failed = tally.failed();
  rep.correct = tally.correct();
  return rep;
}

}  // namespace perfbench
