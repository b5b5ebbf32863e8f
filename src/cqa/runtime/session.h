// Session: the one public query API, backed by the concurrent runtime,
// the cost-based adaptive planner, and the serving layer.
//
//   ConstraintDatabase db; ...
//   Session session(&db);            // pool + cache + metrics + planner
//   Request req = Request::volume("x^2 + y^2 <= 1")
//                     .vars({"x", "y"})
//                     .epsilon(0.02)
//                     .deadline_ms(50);
//   Result<Answer> a = session.run(req);        // synchronous
//   serve::Ticket t = session.submit(req2);     // asynchronous
//   Result<Answer> b = t.wait();
//
// Every query flows through Request -> Result<Answer>:
//   - requests are validated up front (empty query, epsilon/delta out
//     of (0, 1), missing output variables -> kInvalidArgument before
//     any engine runs);
//   - volume requests go through cqa::plan, which picks the rung
//     (exact sweep / chunked Theorem-4 MC on the pool / trivial 1/2)
//     under the request's Budget{epsilon, delta, deadline_ms}; the
//     decision lands in Answer.plan and in the metrics registry
//     (planner_choice_*_total); the rung that served the answer is read
//     off the answer itself (volume_answer in request.h);
//   - execution is cooperatively cancellable: a deadline arms a
//     CancelToken (the caller's Request.cancel when provided) threaded
//     through the engine hot loops, and expiry degrades to the
//     best-so-far estimate with widened error bars and
//     AnswerStatus::kDegraded instead of an error;
//   - rewrite() and exact volume results are memoized in the sharded
//     LRU cache; Monte-Carlo runs chunked on the work-stealing pool
//     with thread-count-independent results; every call is counted and
//     timed in the registry.
//
// submit() hands the request to the serve::Scheduler (created lazily on
// first use): bounded per-priority lanes, in-flight duplicate
// coalescing, concurrent runs of queued same-query Monte-Carlo
// requests, and load shedding down the degradation ladder. Every
// request the scheduler executes goes through run(). See
// serve/scheduler.h.
//
// The per-operation shims (rewrite / cells / ask / volume / mu /
// growth_polynomial / aggregate) that bridged the pre-run() API were
// removed at the end of their deprecation window; construct Requests
// (README has the migration table).
//
// Thread-safety: a Session may be shared by any number of threads once
// its ConstraintDatabase is loaded; nothing in a request mutates the
// database (see the contract in aggregate/database.h).

#ifndef CQA_RUNTIME_SESSION_H_
#define CQA_RUNTIME_SESSION_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "cqa/core/aggregation_engine.h"
#include "cqa/core/query_engine.h"
#include "cqa/core/volume_engine.h"
#include "cqa/guard/guard.h"
#include "cqa/plan/planner.h"
#include "cqa/runtime/eval_cache.h"
#include "cqa/runtime/metrics.h"
#include "cqa/runtime/parallel_sampler.h"
#include "cqa/runtime/request.h"
#include "cqa/runtime/thread_pool.h"
#include "cqa/serve/ticket.h"
#include "cqa/util/cancellation.h"

namespace cqa {

namespace serve {
class Scheduler;
}  // namespace serve

struct SessionOptions {
  std::size_t threads = 0;  // 0 = hardware_concurrency
  std::size_t mc_chunk_size = ParallelSampler::kDefaultChunkSize;
  CostModel cost_model{};  // planner calibration

  // Serving layer (submit()); see serve::Scheduler.
  std::size_t serve_executors = 2;         // dispatcher threads
  std::size_t serve_queue_capacity = 256;  // queued requests before shed
};

class Session {
 public:
  explicit Session(const ConstraintDatabase* db,
                   const SessionOptions& options = {});
  ~Session();

  /// The synchronous API: one entry point for every query kind.
  Result<Answer> run(const Request& request);

  /// The asynchronous API: validates, enqueues with the scheduler, and
  /// returns immediately. Ticket::wait()/try_get() resolve to what
  /// run() would have produced -- plus the serving layer's coalescing
  /// and admission control.
  serve::Ticket submit(Request request);

  /// The scheduler behind submit(), created lazily on first use.
  /// Exposed for its pause()/resume() test seam and queue introspection.
  serve::Scheduler& scheduler();

  ThreadPool& pool() { return pool_; }
  EvalCache& cache() { return cache_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  std::string metrics_dump() const { return metrics_.dump(); }

 private:
  friend class serve::Scheduler;

  class RewriteCacheAdapter : public RewriteCache {
   public:
    explicit RewriteCacheAdapter(EvalCache* cache) : cache_(cache) {}
    std::optional<FormulaPtr> lookup(const std::string& key) override {
      return cache_->lookup_rewrite(key);
    }
    void store(const std::string& key, const FormulaPtr& value) override {
      cache_->store_rewrite(key, value);
    }

   private:
    EvalCache* cache_;
  };

  class VolumeCacheAdapter : public VolumeCache {
   public:
    explicit VolumeCacheAdapter(EvalCache* cache) : cache_(cache) {}
    std::optional<Rational> lookup(const std::string& key) override {
      return cache_->lookup_volume(key);
    }
    void store(const std::string& key, const Rational& value) override {
      cache_->store_volume(key, value);
    }

   private:
    EvalCache* cache_;
  };

  // The one query pipeline (and rewrite cache), shared by every kind.
  QueryEngine& queries() { return volumes_.queries(); }
  Result<Answer> run_impl(const Request& request, guard::WorkMeter* meter);
  Result<Answer> run_volume(const Request& request, const ParsedQuery& query,
                            CancelToken* token, guard::WorkMeter* meter);
  // `analysis` is the query's inlined form (the front end's output).
  Result<Answer> run_planned_volume(const Request& request,
                                    const ParsedQuery& query,
                                    FormulaPtr analysis, CancelToken* token,
                                    guard::WorkMeter* meter);
  // One executor per rung, shared by pinned and planned requests: the
  // exact engine (volumes_), pooled_monte_carlo, and trivial_rung in
  // session.cpp; pinned_volume dispatches a pinned request to them.
  Result<VolumeAnswer> pinned_volume(const Request& request,
                                     const ParsedQuery& query,
                                     CancelToken* token,
                                     guard::WorkMeter* meter);
  // Samples the quantifier-free `membership` (the planner's analysis
  // formula or the query's rewrite, never the raw parse `query`).
  Result<VolumeAnswer> pooled_monte_carlo(const Request& request,
                                          const FormulaPtr& query,
                                          const FormulaPtr& membership,
                                          std::size_t sample_size,
                                          double target_epsilon,
                                          CancelToken* token,
                                          guard::WorkMeter* meter);
  void record_plan(const PlanDecision& decision);
  void record_guard(const guard::GuardReport& report);

  const ConstraintDatabase* db_;
  SessionOptions options_;
  MetricsRegistry metrics_;
  EvalCache cache_;
  ThreadPool pool_;
  RewriteCacheAdapter rewrite_adapter_;
  VolumeCacheAdapter volume_adapter_;
  VolumeEngine volumes_;
  AggregationEngine aggregates_;

  // Hot-path metric handles (stable pointers into metrics_).
  Counter* qe_rewrites_total_;
  Counter* volume_calls_total_;
  Counter* mc_points_evaluated_total_;
  Counter* aggregate_calls_total_;
  Counter* planner_decisions_total_;
  Counter* planner_degraded_total_;
  Counter* guard_quota_trip_total_;
  Histogram* rewrite_call_ns_;
  Histogram* volume_call_ns_;
  Histogram* ask_call_ns_;
  Histogram* aggregate_call_ns_;
  Histogram* planner_plan_ns_;

  // Declared last: the scheduler's executors call back into everything
  // above, so it must be destroyed first.
  std::once_flag scheduler_once_;
  std::unique_ptr<serve::Scheduler> scheduler_;
};

}  // namespace cqa

#endif  // CQA_RUNTIME_SESSION_H_
