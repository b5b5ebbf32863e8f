#include "cqa/runtime/session.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <new>

#include "cqa/runtime/parallel_sampler.h"
#include "cqa/serve/scheduler.h"

namespace cqa {

namespace {

bool is_expiry(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kCancelled;
}

// A tripped resource quota degrades a volume answer exactly like
// deadline expiry: down the ladder, never an error to the caller.
bool is_degradable(const Status& s) {
  return is_expiry(s) || s.code() == StatusCode::kResourceExhausted;
}

// The trivial-1/2 rung as served to a request: kDegraded unless the
// budget tolerates an error of 1/2.
VolumeAnswer trivial_rung(const Budget& budget) {
  return trivial_half_volume(budget.epsilon < 0.5);
}

// The one McPartial -> VolumeAnswer assembly: complete -> +-target_epsilon
// bars, degraded when that misses budget.epsilon (a deadline-reduced
// plan); partial -> the Hoeffding half-width the completed chunks
// support, degraded; nothing completed -> trivial 1/2. points_requested
// is the full sample size M throughout.
VolumeAnswer mc_volume_answer(const McPartial& p, double target_epsilon,
                              const Budget& budget) {
  VolumeAnswer v;
  if (p.complete) {
    v.estimate = p.estimate;
    v.lower = p.estimate - target_epsilon;
    v.upper = p.estimate + target_epsilon;
    v.degraded = target_epsilon > budget.epsilon;
  } else if (p.evaluated == 0) {
    // Expired before a single chunk finished: nothing to estimate from.
    v = trivial_half_volume(true);
  } else {
    // Best-so-far: the completed chunks are i.i.d. slices of the planned
    // sample (up to the mild survivorship caveat in parallel_sampler.h).
    const double eps = hoeffding_epsilon(budget.delta, p.evaluated);
    v.degraded = true;
    v.estimate = p.estimate;
    v.lower = std::max(0.0, p.estimate - eps);
    v.upper = std::min(1.0, p.estimate + eps);
  }
  v.points_evaluated = p.evaluated;
  v.points_requested = p.requested;
  return v;
}

}  // namespace

Session::Session(const ConstraintDatabase* db, const SessionOptions& options)
    : db_(db),
      options_(options),
      cache_(EvalCacheOptions{}, &metrics_),
      pool_(options.threads),
      rewrite_adapter_(&cache_),
      volume_adapter_(&cache_),
      volumes_(db),
      aggregates_(db),
      qe_rewrites_total_(metrics_.counter("qe_rewrites_total")),
      volume_calls_total_(metrics_.counter("volume_calls_total")),
      mc_points_evaluated_total_(
          metrics_.counter("mc_points_evaluated_total")),
      aggregate_calls_total_(metrics_.counter("aggregate_calls_total")),
      planner_decisions_total_(metrics_.counter("planner_decisions_total")),
      planner_degraded_total_(metrics_.counter("planner_degraded_total")),
      guard_quota_trip_total_(metrics_.counter("guard_quota_trip_total")),
      rewrite_call_ns_(metrics_.histogram("rewrite_call_ns")),
      volume_call_ns_(metrics_.histogram("volume_call_ns")),
      ask_call_ns_(metrics_.histogram("ask_call_ns")),
      aggregate_call_ns_(metrics_.histogram("aggregate_call_ns")),
      planner_plan_ns_(metrics_.histogram("planner_plan_ns")) {
  volumes_.set_cache(&volume_adapter_);
  queries().set_cache(&rewrite_adapter_);
}

// Out of line for the unique_ptr<serve::Scheduler> member; the
// scheduler (declared last) is destroyed before the pool and caches
// its executors use.
Session::~Session() = default;

serve::Scheduler& Session::scheduler() {
  std::call_once(scheduler_once_,
                 [&] { scheduler_ = std::make_unique<serve::Scheduler>(this); });
  return *scheduler_;
}

serve::Ticket Session::submit(Request request) {
  return scheduler().submit(std::move(request));
}

Result<Answer> Session::run(const Request& request) {
  if (Status v = validate_request(request); !v.is_ok()) return v;

  // One meter per request, scoped to the calling thread for the BigInt
  // thread-local hook (the exact pipeline is single-threaded; MC workers
  // run unmetered, which is safe because sampling is O(1) per point).
  guard::WorkMeter meter(request.budget.quota);
  guard::MeterScope meter_scope(&meter);
  const auto start = std::chrono::steady_clock::now();

  Result<Answer> result = [&]() -> Result<Answer> {
    try {
      return run_impl(request, &meter);
    } catch (const std::bad_alloc&) {
      // Allocation failure -- real, or injected at the BigInt layer by
      // FaultSite::kBigIntAlloc. Volume requests still own a sound
      // answer (the last rung); everything else gets a typed error.
      if (request.kind == RequestKind::kVolume) {
        return degraded_half_answer();
      }
      return Status::resource_exhausted(
          "allocation failure during query evaluation");
    } catch (const std::exception& e) {
      return Status::internal(std::string("query evaluation threw: ") +
                              e.what());
    }
  }();

  if (!result.is_ok()) {
    record_guard(guard::make_report(meter));
    return result;
  }
  // Stamp the answer with its meter's guard report (keeping the rung it
  // carries) and its elapsed time, and record both.
  Answer& answer = result.value();
  if (answer.degraded()) planner_degraded_total_->inc();
  const guard::Rung rung = answer.guard.rung;
  answer.guard = guard::make_report(meter);
  answer.guard.rung = rung;
  answer.elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  record_guard(answer.guard);
  return result;
}

Result<Answer> Session::run_impl(const Request& request,
                                 guard::WorkMeter* meter) {
  // The caller's token governs when provided (the serve layer arms its
  // deadline at submit time so queue wait counts); otherwise a local
  // token carries the budget deadline for this call only.
  CancelToken local_token;
  CancelToken* token =
      request.cancel != nullptr ? request.cancel : &local_token;
  if (request.budget.has_deadline() && !token->has_deadline()) {
    token->set_deadline_after_ms(request.budget.deadline_ms);
  }

  // Per-kind call metrics cover every request of the kind, parse
  // included, parsable or not.
  const RequestKind kind = request.kind;
  Histogram* call_ns = volume_call_ns_;  // kVolume, kMu, kGrowthPolynomial
  Counter* calls = volume_calls_total_;
  if (kind == RequestKind::kAsk) {
    call_ns = ask_call_ns_;
    calls = nullptr;
  } else if (kind == RequestKind::kRewrite || kind == RequestKind::kCells) {
    call_ns = rewrite_call_ns_;
    calls = qe_rewrites_total_;
  } else if (kind == RequestKind::kAggregate) {
    call_ns = aggregate_call_ns_;
    calls = aggregate_calls_total_;
  }
  ScopedTimer timer(call_ns);
  if (calls != nullptr) calls->inc();

  // The front end, once: every stage below takes the parse, not the text.
  auto parsed = queries().parse(request.query);
  if (!parsed.is_ok()) return parsed.status();
  const ParsedQuery& query = parsed.value();
  const RewriteOptions rw{token, meter};

  Answer answer;
  answer.kind = request.kind;

  switch (request.kind) {
    case RequestKind::kAsk: {
      auto r = queries().ask(query.formula(), rw);
      if (!r.is_ok()) return r.status();
      answer.truth = r.value();
      break;
    }
    case RequestKind::kRewrite: {
      auto r = queries().rewrite(query, rw);
      if (!r.is_ok()) return r.status();
      answer.formula = r.value();
      break;
    }
    case RequestKind::kCells: {
      auto r = queries().cells(query, request.output_vars, rw);
      if (!r.is_ok()) return r.status();
      answer.cells = r.value();
      break;
    }
    case RequestKind::kVolume: {
      auto r = run_volume(request, query, token, meter);
      if (!r.is_ok()) return r.status();
      answer = std::move(r.value());
      break;
    }
    case RequestKind::kMu: {
      auto r = volumes_.mu(query, request.output_vars, rw);
      if (!r.is_ok()) return r.status();
      answer.mu = r.value();
      break;
    }
    case RequestKind::kGrowthPolynomial: {
      auto r = volumes_.growth_polynomial(query, request.output_vars, rw);
      if (!r.is_ok()) return r.status();
      answer.growth = r.value();
      break;
    }
    case RequestKind::kAggregate: {
      auto r = aggregates_.aggregate(request.aggregate_fn, query.formula(),
                                     request.output_vars[0],
                                     request.bindings);
      if (!r.is_ok()) return r.status();
      answer.aggregate = r.value();
      break;
    }
  }

  return answer;
}

Result<Answer> Session::run_volume(const Request& request,
                                   const ParsedQuery& query,
                                   CancelToken* token,
                                   guard::WorkMeter* meter) {
  // The front end every rung shares: inlining resolves the database's
  // relations, so an unknown one is kInvalidArgument whatever runs.
  auto inlined = queries().inlined(query);
  if (!inlined.is_ok()) return inlined.status();
  if (!request.strategy) {
    return run_planned_volume(request, query, inlined.value(), token, meter);
  }
  // Planner bypass: the caller pinned a rung; the budget still arms the
  // deadline and sizes the sample. A tripped quota degrades to the last
  // rung (expiry keeps its pre-guard error contract for pinned exact
  // strategies).
  auto v = pinned_volume(request, query, token, meter);
  if (!v.is_ok()) {
    if (v.status().code() != StatusCode::kResourceExhausted) {
      return v.status();
    }
    v = trivial_half_volume(true);
  }
  return volume_answer(std::move(v).take());
}

Result<Answer> Session::run_planned_volume(const Request& request,
                                           const ParsedQuery& query,
                                           FormulaPtr analysis,
                                           CancelToken* token,
                                           guard::WorkMeter* meter) {
  // --- Stats: cheap structure first, the cached rewrite if available --
  const std::size_t quantifiers = query.formula()->count_quantifiers();
  if (!analysis->is_quantifier_free() && analysis->is_linear()) {
    // Quantified FO+LIN: the QE rewrite is what exact evaluation runs
    // anyway and it is memoized, so analyze the eliminated form. A
    // deadline or quota firing inside QE falls straight to the last
    // rung -- for a quota, MC is no rescue here because mc_count_hits
    // needs a quantifier-free formula and QE is exactly what tripped.
    auto rewritten = queries().rewrite(query, {token, meter});
    if (rewritten.is_ok()) {
      analysis = rewritten.value();
    } else if (is_degradable(rewritten.status())) {
      return degraded_half_answer();
    } else {
      return rewritten.status();
    }
  }

  FormulaStats stats =
      extract_stats(analysis, request.output_vars.size(), quantifiers,
                    options_.cost_model);
  if (request.vc_dim) stats.vc_dim = *request.vc_dim;

  PlanDecision decision;
  {
    ScopedTimer plan_timer(planner_plan_ns_);
    decision = plan_volume(stats, request.budget, options_.cost_model);
  }
  record_plan(decision);

  Result<VolumeAnswer> v = Status::internal("no rung ran");
  switch (decision.chosen) {
    case VolumeStrategy::kMonteCarlo:
      // Sample the analysis formula: for quantified FO+LIN it is the QE
      // rewrite, and MC membership only accepts quantifier-free input.
      v = pooled_monte_carlo(request, query.formula(), analysis,
                             decision.mc_samples, decision.expected_epsilon,
                             token, meter);
      break;
    case VolumeStrategy::kTrivialHalf:
      v = trivial_rung(request.budget);
      break;
    default:
      // The exact engine under the shared token and meter. A tripped
      // quota first falls one rung to Monte-Carlo on the (quantifier-
      // free) analysis formula -- sampling is O(1)-memory per point, so
      // it runs fine where the exact sweep could not.
      v = volumes_.volume(query, request.output_vars,
                          {.cancel = token, .meter = meter});
      if (!v.is_ok() &&
          v.status().code() == StatusCode::kResourceExhausted &&
          analysis->is_quantifier_free()) {
        auto m = mc_sample_size(request.budget, stats.vc_dim);
        v = m.is_ok() ? pooled_monte_carlo(request, query.formula(),
                                           analysis, m.value(),
                                           request.budget.epsilon, token,
                                           meter)
                      : Result<VolumeAnswer>(m.status());
        if (v.is_ok()) v.value().degraded = true;  // no exact guarantee
      }
      break;
  }
  // Expiry cannot salvage a partial exact decomposition, and a failed
  // sample has nothing to report: both fall to the last rung.
  if (!v.is_ok()) {
    if (!is_degradable(v.status())) return v.status();
    v = trivial_half_volume(true);
  }
  Answer answer = volume_answer(std::move(v).take());
  answer.plan = std::move(decision);
  return answer;
}

Result<VolumeAnswer> Session::pinned_volume(const Request& request,
                                            const ParsedQuery& query,
                                            CancelToken* token,
                                            guard::WorkMeter* meter) {
  switch (*request.strategy) {
    case VolumeStrategy::kTrivialHalf:
      return trivial_rung(request.budget);
    case VolumeStrategy::kMonteCarlo:
      break;
    default:
      return volumes_.volume(
          query, request.output_vars,
          {.strategy = *request.strategy, .cancel = token, .meter = meter});
  }
  // A pinned request keeps its max_mc_samples cap; an M that does not
  // fit std::size_t is kResourceExhausted, which run_volume degrades.
  auto m = mc_sample_size(request.budget, request.vc_dim,
                          request.max_mc_samples);
  if (!m.is_ok()) return m.status();
  auto membership = queries().rewrite(query, {token, meter});
  if (!membership.is_ok()) {
    // Expiry or a quota trip inside the QE rewrite degrades to the last
    // rung, the same as expiry inside the sampling itself, with the same
    // points_requested = M.
    if (is_degradable(membership.status())) {
      McPartial none;
      none.requested = m.value();
      return mc_volume_answer(none, request.budget.epsilon, request.budget);
    }
    return membership.status();
  }
  return pooled_monte_carlo(request, query.formula(), membership.value(),
                            m.value(), request.budget.epsilon, token, meter);
}

Result<VolumeAnswer> Session::pooled_monte_carlo(const Request& request,
                                                 const FormulaPtr& query,
                                                 const FormulaPtr& membership,
                                                 std::size_t sample_size,
                                                 double target_epsilon,
                                                 CancelToken* token,
                                                 guard::WorkMeter* meter) {
  // Validate free variables against the query as written, not the
  // rewrite (QE may simplify a stray free variable away).
  auto element_vars =
      resolve_element_vars(*db_, query, request.output_vars);
  if (!element_vars.is_ok()) return element_vars.status();
  ParallelSampler sampler(&db_->db(), membership, element_vars.value(),
                          sample_size, request.seed,
                          options_.mc_chunk_size, meter);
  auto est = sampler.estimate_partial({}, &pool_, token);
  if (!est.is_ok()) return est.status();
  mc_points_evaluated_total_->inc(est.value().evaluated);
  return mc_volume_answer(est.value(), target_epsilon, request.budget);
}

void Session::record_plan(const PlanDecision& decision) {
  planner_decisions_total_->inc();
  metrics_
      .counter(std::string("planner_choice_") +
               strategy_name(decision.chosen) + "_total")
      ->inc();
}

void Session::record_guard(const guard::GuardReport& report) {
  if (report.quota_tripped) {
    guard_quota_trip_total_->inc();
    metrics_
        .counter(std::string("guard_quota_trip_") + report.tripped_quota +
                 "_total")
        ->inc();
  }
  if (report.rung != guard::Rung::kNone) {
    metrics_
        .counter(std::string("guard_degradation_rung_") +
                 guard::rung_name(report.rung) + "_total")
        ->inc();
  }
}

}  // namespace cqa
