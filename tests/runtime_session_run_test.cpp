// Session::run: the unified Request/Answer API, planner routing,
// deadline degradation, and a concurrent eviction stress on the shared
// EvalCache.

#include "cqa/runtime/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace cqa {
namespace {

constexpr const char* kTriangle = "x >= 0 & y >= 0 & x + y <= 1";
constexpr const char* kDisk = "x^2 + y^2 <= 9/10 & 0 <= x & 0 <= y";

SessionOptions two_threads() {
  SessionOptions opts;
  opts.threads = 2;
  return opts;
}

Request volume_request(const std::string& query) {
  Request req;
  req.kind = RequestKind::kVolume;
  req.query = query;
  req.output_vars = {"x", "y"};
  return req;
}

TEST(SessionRunTest, EveryKindFlowsThroughRun) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.add_region("Box", {"s", "t"},
                            "0 <= s & s <= 1 & 0 <= t & t <= 1")
                  .is_ok());
  Session session(&db, two_threads());

  Request ask;
  ask.kind = RequestKind::kAsk;
  ask.query = "E x. E y. Box(x, y) & x + y <= 1";
  auto a = session.run(ask);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(a.value().truth.has_value());
  EXPECT_TRUE(*a.value().truth);

  Request rewrite;
  rewrite.kind = RequestKind::kRewrite;
  rewrite.query = "E u. Box(x, u) & u <= y";
  auto r = session.run(rewrite);
  ASSERT_TRUE(r.is_ok());
  ASSERT_NE(r.value().formula, nullptr);
  EXPECT_TRUE(r.value().formula->is_quantifier_free());

  Request cells;
  cells.kind = RequestKind::kCells;
  cells.query = "Box(x, y) & x + y <= 1";
  cells.output_vars = {"x", "y"};
  auto c = session.run(cells);
  ASSERT_TRUE(c.is_ok());
  EXPECT_FALSE(c.value().cells.empty());

  auto v = session.run(volume_request(kTriangle));
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value().status, AnswerStatus::kOk);
  ASSERT_TRUE(v.value().volume.exact.has_value());
  EXPECT_EQ(*v.value().volume.exact, Rational(1, 2));

  Request mu;
  mu.kind = RequestKind::kMu;
  mu.query = kTriangle;
  mu.output_vars = {"x", "y"};
  auto m = session.run(mu);
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(*m.value().mu, Rational(0));  // bounded set

  Request growth;
  growth.kind = RequestKind::kGrowthPolynomial;
  growth.query = kTriangle;
  growth.output_vars = {"x", "y"};
  auto g = session.run(growth);
  ASSERT_TRUE(g.is_ok());
  EXPECT_TRUE(g.value().growth.has_value());
}

TEST(SessionRunTest, PlannerPicksExactForLinearQueries) {
  ConstraintDatabase db;
  Session session(&db);
  auto a = session.run(volume_request(kTriangle));
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(a.value().plan.has_value());
  EXPECT_EQ(a.value().plan->chosen, VolumeStrategy::kAuto);
  EXPECT_TRUE(a.value().volume.exact.has_value());
  EXPECT_EQ(session.metrics().counter_value("planner_choice_exact_total"),
            1u);
  EXPECT_EQ(session.metrics().counter_value("planner_decisions_total"),
            1u);
}

TEST(SessionRunTest, PlannerPicksMonteCarloForNonlinearQueries) {
  ConstraintDatabase db;
  Session session(&db, two_threads());
  Request req = volume_request(kDisk);
  req.budget.epsilon = 0.05;
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(a.value().plan.has_value());
  EXPECT_EQ(a.value().plan->chosen, VolumeStrategy::kMonteCarlo);
  EXPECT_EQ(a.value().status, AnswerStatus::kOk);
  ASSERT_TRUE(a.value().volume.estimate.has_value());
  // Quarter-disk of radius sqrt(0.9): area pi * 0.9 / 4 ~ 0.7069.
  EXPECT_NEAR(*a.value().volume.estimate, 0.7069, 0.05);
  EXPECT_EQ(a.value().volume.points_evaluated,
            a.value().volume.points_requested);
  EXPECT_EQ(session.metrics().counter_value("planner_choice_mc_total"),
            1u);
}

// {(x, y) : x <= y} inside the unit box, phrased with a quantifier so
// Monte-Carlo must sample the QE rewrite (mc_count_hits rejects
// quantified formulas). True volume: 1/2.
constexpr const char* kQuantifiedHalfBox =
    "E u. x <= u & u <= y & 0 <= x & y <= 1";

TEST(SessionRunTest, QuantifiedQueryRoutedToMonteCarloUsesQERewrite) {
  // Regression: the planner analyzes the QE rewrite (so a quantified
  // FO+LIN query plans as MC-feasible); execution must evaluate that
  // same rewrite, not the raw parse.
  ConstraintDatabase db;
  SessionOptions opts = two_threads();
  opts.cost_model.exact_cell_ns = 1e12;  // price exact out of the race
  opts.cost_model.decompose_cell_ns = 1e12;
  Session session(&db, opts);
  Request req = volume_request(kQuantifiedHalfBox);
  req.budget.epsilon = 0.05;
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(a.value().plan.has_value());
  EXPECT_EQ(a.value().plan->chosen, VolumeStrategy::kMonteCarlo);
  EXPECT_EQ(a.value().status, AnswerStatus::kOk);
  ASSERT_TRUE(a.value().volume.estimate.has_value());
  EXPECT_NEAR(*a.value().volume.estimate, 0.5, 0.06);
}

TEST(SessionRunTest, QuantifiedQueryDeadlineReducedMonteCarlo) {
  // The deadline-reduced MC rung must hand back a degraded estimate for
  // a quantified query, not kUnsupported from the raw parse.
  ConstraintDatabase db;
  SessionOptions opts = two_threads();
  opts.cost_model.exact_cell_ns = 1e12;
  opts.cost_model.decompose_cell_ns = 1e12;
  Session session(&db, opts);
  Request req = volume_request(kQuantifiedHalfBox);
  req.budget.epsilon = 0.0005;  // wants far more points than 5ms affords
  req.budget.delta = 0.05;
  req.budget.deadline_ms = 5;
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  const Answer& ans = a.value();
  ASSERT_TRUE(ans.plan.has_value());
  EXPECT_EQ(ans.plan->chosen, VolumeStrategy::kMonteCarlo);
  EXPECT_EQ(ans.status, AnswerStatus::kDegraded);
  ASSERT_TRUE(ans.volume.estimate.has_value());
  ASSERT_TRUE(ans.volume.lower.has_value());
  ASSERT_TRUE(ans.volume.upper.has_value());
  EXPECT_GE(*ans.volume.lower, 0.0);
  EXPECT_LE(*ans.volume.upper, 1.0);
}

TEST(SessionRunTest, ForcedMonteCarloOnQuantifiedQuery) {
  // Pinning the strategy bypasses the planner but must still sample the
  // QE rewrite.
  ConstraintDatabase db;
  Session session(&db, two_threads());
  Request req = volume_request(kQuantifiedHalfBox);
  req.strategy = VolumeStrategy::kMonteCarlo;
  req.budget.epsilon = 0.05;
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(a.value().volume.estimate.has_value());
  EXPECT_NEAR(*a.value().volume.estimate, 0.5, 0.06);
}

TEST(SessionRunTest, ForcedMonteCarloOnQuantifiedFoLinIsWithinEpsilon) {
  // A quantified FO+LIN query sampled through its QE rewrite: the set is
  // x >= 0 & 0 <= y <= 1, which covers the whole unit box.
  ConstraintDatabase db;
  Session session(&db, two_threads());
  auto run = session.run(
      Request::volume("E z. (0 <= z & z <= x & 0 <= y & y <= 1)")
          .vars({"x", "y"})
          .strategy(VolumeStrategy::kMonteCarlo)
          .epsilon(0.03)
          .vc_dim(3.0)
          .seed(77));
  ASSERT_TRUE(run.is_ok()) << run.status().to_string();
  const VolumeAnswer& v = run.value().volume;
  EXPECT_EQ(run.value().status, AnswerStatus::kOk);
  ASSERT_TRUE(v.estimate.has_value());
  EXPECT_NEAR(*v.estimate, 1.0, 0.03);
  EXPECT_EQ(v.points_evaluated, v.points_requested);
}

TEST(SessionRunTest, EveryMonteCarloPathSizesMWithOneFunction) {
  // The planner's M, a pinned request's M (capped and uncapped) and the
  // exact -> MC quota fallback's M are all mc_sample_size's.
  ConstraintDatabase db;
  Session session(&db, two_threads());

  Request planned = volume_request(kDisk);
  auto p = session.run(planned);
  ASSERT_TRUE(p.is_ok()) << p.status().to_string();
  ASSERT_TRUE(p.value().plan.has_value());
  ASSERT_EQ(p.value().plan->chosen, VolumeStrategy::kMonteCarlo);
  const std::size_t planner_m =
      mc_sample_size(planned.budget, p.value().plan->stats.vc_dim).value();
  EXPECT_EQ(p.value().plan->mc_samples, planner_m);
  EXPECT_EQ(p.value().volume.points_requested, planner_m);

  for (const std::size_t cap : {std::size_t{0}, std::size_t{2000}}) {
    for (const std::optional<double> vc : {std::optional<double>(),
                                           std::optional<double>(3.0)}) {
      Request pinned = volume_request(kDisk);
      pinned.strategy = VolumeStrategy::kMonteCarlo;
      pinned.vc_dim = vc;
      pinned.max_mc_samples = cap;
      auto a = session.run(pinned);
      ASSERT_TRUE(a.is_ok()) << a.status().to_string();
      EXPECT_EQ(a.value().volume.points_requested,
                mc_sample_size(pinned.budget, vc, cap).value())
          << "cap " << cap;
    }
  }

  // Two overlapping cells: a one-section ceiling trips the sweep.
  Request exact = volume_request(
      "(x >= 0 & y >= 0 & x + y <= 1) |"
      " (x >= 1/4 & x <= 3/4 & y >= 1/4 & y <= 3/4)");
  exact.budget.quota = guard::ResourceQuota::unlimited();
  exact.budget.quota.max_sweep_sections = 1;
  auto e = session.run(exact);
  ASSERT_TRUE(e.is_ok()) << e.status().to_string();
  ASSERT_TRUE(e.value().plan.has_value());
  EXPECT_EQ(e.value().guard.rung, guard::Rung::kMonteCarlo);
  EXPECT_EQ(e.value().volume.points_requested,
            mc_sample_size(exact.budget, e.value().plan->stats.vc_dim)
                .value());
}

TEST(SessionRunTest, UnrepresentableSampleSizeIsNeverACertifiedAnswer) {
  // A Blumer bound past std::size_t is kResourceExhausted: a pinned
  // request degrades to trivial 1/2 with bars [0, 1], and the planner
  // rules Monte-Carlo out. Neither answers kOk from a one-point sample.
  ConstraintDatabase db;
  Session session(&db, two_threads());
  const char* kQuarterDisk = "x^2 + y^2 <= 1";
  const Request pinned[] = {
      Request::volume(kQuarterDisk)
          .vars({"x", "y"})
          .strategy(VolumeStrategy::kMonteCarlo)
          .vc_dim(1e300),
      Request::volume(kQuarterDisk)
          .vars({"x", "y"})
          .strategy(VolumeStrategy::kMonteCarlo)
          .epsilon(1e-300),
  };
  for (const Request& req : pinned) {
    auto a = session.run(req);
    ASSERT_TRUE(a.is_ok()) << a.status().to_string();
    const Answer& ans = a.value();
    EXPECT_EQ(ans.status, AnswerStatus::kDegraded);
    EXPECT_EQ(ans.guard.rung, guard::Rung::kTrivialHalf);
    EXPECT_EQ(*ans.volume.estimate, 0.5);
    EXPECT_EQ(*ans.volume.lower, 0.0);
    EXPECT_EQ(*ans.volume.upper, 1.0);
    EXPECT_NE(ans.volume.points_requested, 1u);
  }

  auto planned = session.run(
      Request::volume(kQuarterDisk).vars({"x", "y"}).vc_dim(1e300));
  ASSERT_TRUE(planned.is_ok()) << planned.status().to_string();
  const Answer& ans = planned.value();
  ASSERT_TRUE(ans.plan.has_value());
  EXPECT_EQ(ans.plan->chosen, VolumeStrategy::kTrivialHalf);
  EXPECT_EQ(ans.status, AnswerStatus::kDegraded);
  EXPECT_NE(ans.volume.points_requested, 1u);
  EXPECT_NE(ans.plan->rationale.find("does not fit"), std::string::npos)
      << ans.plan->rationale;

  // A non-finite override never reaches sizing.
  for (const double vc : {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    auto bad = session.run(Request::volume(kQuarterDisk)
                               .vars({"x", "y"})
                               .strategy(VolumeStrategy::kMonteCarlo)
                               .vc_dim(vc));
    ASSERT_FALSE(bad.is_ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SessionRunTest, RungIsReadOffTheAnswer) {
  // One rule for every path: exact -> kExact, no point evaluated ->
  // kTrivialHalf, fewer points than requested -> kMcPartial, otherwise
  // kMonteCarlo; the status is kDegraded exactly when the volume is.
  ConstraintDatabase db;
  Session session(&db, two_threads());
  auto trivial_total = [&] {
    return session.metrics().counter_value(
        "guard_degradation_rung_trivial_half_total");
  };

  // Planner-routed at epsilon 0.6: the constant 1/2 meets the budget.
  const std::uint64_t before = trivial_total();
  auto planned = session.run(
      Request::volume(kTriangle).vars({"x", "y"}).epsilon(0.6));
  ASSERT_TRUE(planned.is_ok()) << planned.status().to_string();
  ASSERT_TRUE(planned.value().plan.has_value());
  EXPECT_EQ(planned.value().plan->chosen, VolumeStrategy::kTrivialHalf);
  EXPECT_EQ(planned.value().guard.rung, guard::Rung::kTrivialHalf);
  EXPECT_EQ(planned.value().status, AnswerStatus::kOk);
  EXPECT_EQ(trivial_total(), before + 1);

  // Pinned kTrivialHalf answers what the planner's rung answers, on a
  // linear and on a polynomial query alike.
  for (const char* query : {kTriangle, kDisk}) {
    for (const double eps : {0.6, 0.05}) {
      auto a = session.run(Request::volume(query)
                               .vars({"x", "y"})
                               .strategy(VolumeStrategy::kTrivialHalf)
                               .epsilon(eps));
      ASSERT_TRUE(a.is_ok()) << a.status().to_string();
      const Answer& ans = a.value();
      EXPECT_EQ(*ans.volume.estimate, 0.5) << query;
      EXPECT_EQ(*ans.volume.lower, 0.0);
      EXPECT_EQ(*ans.volume.upper, 1.0);
      EXPECT_EQ(ans.guard.rung, guard::Rung::kTrivialHalf) << query;
      EXPECT_EQ(ans.status, eps < 0.5 ? AnswerStatus::kDegraded
                                      : AnswerStatus::kOk)
          << query << " eps " << eps;
    }
  }
  // It still runs the front end: an unknown relation is an error.
  auto unknown = session.run(Request::volume("Foo(x, y)")
                                 .vars({"x", "y"})
                                 .strategy(VolumeStrategy::kTrivialHalf));
  ASSERT_FALSE(unknown.is_ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);

  // A complete pinned Monte-Carlo run.
  auto mc = session.run(Request::volume(kTriangle)
                            .vars({"x", "y"})
                            .strategy(VolumeStrategy::kMonteCarlo));
  ASSERT_TRUE(mc.is_ok()) << mc.status().to_string();
  EXPECT_EQ(mc.value().guard.rung, guard::Rung::kMonteCarlo);
  EXPECT_EQ(mc.value().status, AnswerStatus::kOk);

  // The exact -> MC quota fallback: complete, so mc, and degraded.
  Request exact = volume_request(
      "(x >= 0 & y >= 0 & x + y <= 1) |"
      " (x >= 1/4 & x <= 3/4 & y >= 1/4 & y <= 3/4)");
  exact.budget.quota = guard::ResourceQuota::unlimited();
  exact.budget.quota.max_sweep_sections = 1;
  auto fallback = session.run(exact);
  ASSERT_TRUE(fallback.is_ok()) << fallback.status().to_string();
  EXPECT_EQ(fallback.value().guard.rung, guard::Rung::kMonteCarlo);
  EXPECT_EQ(fallback.value().status, AnswerStatus::kDegraded);

  // A partial run: half the sampler chunks are dropped, deterministically
  // by the injector's per-arrival sequence.
  SessionOptions small_chunks = two_threads();
  small_chunks.mc_chunk_size = 256;
  Session chunked(&db, small_chunks);
  guard::FaultPlan plan;
  plan.seed = 7;
  plan.rate[static_cast<std::size_t>(guard::FaultSite::kSpuriousCancel)] =
      0.5;
  guard::FaultInjector injector(plan);
  guard::ScopedFaultInjector scope(&injector);
  auto partial = chunked.run(Request::volume(kDisk)
                                 .vars({"x", "y"})
                                 .strategy(VolumeStrategy::kMonteCarlo));
  ASSERT_TRUE(partial.is_ok()) << partial.status().to_string();
  const VolumeAnswer& v = partial.value().volume;
  ASSERT_GT(v.points_evaluated, 0u);
  ASSERT_LT(v.points_evaluated, v.points_requested);
  EXPECT_EQ(partial.value().guard.rung, guard::Rung::kMcPartial);
  EXPECT_EQ(partial.value().status, AnswerStatus::kDegraded);
}

TEST(SessionRunTest, ForcedStrategyBypassesPlanner) {
  ConstraintDatabase db;
  Session session(&db);
  Request req = volume_request(kTriangle);
  req.strategy = VolumeStrategy::kTrivialHalf;
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok());
  EXPECT_FALSE(a.value().plan.has_value());
  EXPECT_EQ(session.metrics().counter_value("planner_decisions_total"),
            0u);
}

// What the full (no-deadline) plan would draw, for comparison against
// the deadline-reduced sample.
std::size_t full_sample_for(double epsilon, double delta) {
  FormulaStats s;
  s.dimension = 2;
  s.atoms = 3;
  s.linear = false;
  s.quantifier_free = true;
  s.vc_dim = 4.0;
  Budget b;
  b.epsilon = epsilon;
  b.delta = delta;
  return plan_volume(s, b).mc_samples;
}

TEST(SessionRunTest, DeadlineExpiryDegradesInsteadOfFailing) {
  ConstraintDatabase db;
  Session session(&db, two_threads());
  Request req = volume_request(kDisk);
  // An epsilon this small wants hundreds of thousands of points; the
  // deadline affords a fraction of them.
  req.budget.epsilon = 0.0005;
  req.budget.delta = 0.05;
  req.budget.deadline_ms = 3;
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  const Answer& ans = a.value();
  EXPECT_EQ(ans.status, AnswerStatus::kDegraded);
  ASSERT_TRUE(ans.plan.has_value());
  // Either rung of the ladder is acceptable under load (reduced MC or
  // the trivial 1/2), but the answer must carry finite widened bars.
  ASSERT_TRUE(ans.volume.estimate.has_value());
  ASSERT_TRUE(ans.volume.lower.has_value());
  ASSERT_TRUE(ans.volume.upper.has_value());
  EXPECT_GE(*ans.volume.upper, *ans.volume.lower);
  if (ans.plan->chosen == VolumeStrategy::kMonteCarlo) {
    EXPECT_LT(ans.plan->mc_samples, full_sample_for(0.0005, 0.05));
  }
  EXPECT_GE(session.metrics().counter_value("planner_degraded_total"), 1u);

  // The decision must be inspectable after the fact.
  EXPECT_NE(plan_to_string(*ans.plan).find("->"), std::string::npos);
}

TEST(SessionRunTest, ZeroDeadlineStillAnswersWithTrivialHalf) {
  ConstraintDatabase db;
  Session session(&db);
  Request req = volume_request(kDisk);
  req.budget.epsilon = 0.01;
  req.budget.deadline_ms = 0;
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(a.value().status, AnswerStatus::kDegraded);
  ASSERT_TRUE(a.value().volume.estimate.has_value());
  EXPECT_EQ(*a.value().volume.estimate, 0.5);
  EXPECT_EQ(*a.value().volume.lower, 0.0);
  EXPECT_EQ(*a.value().volume.upper, 1.0);
}

TEST(SessionRunTest, DegradedMonteCarloReportsPartialPoints) {
  // Drive the partial path deterministically: a caller-owned cancel
  // token with an armed deadline long enough for a few chunks. Accept
  // either a partial (degraded) or complete outcome -- what must never
  // happen is an error status.
  ConstraintDatabase db;
  Session session(&db, two_threads());
  CancelToken token;
  token.set_deadline_after_ms(2);
  Request req = Request::volume(kDisk)
                    .vars({"x", "y"})
                    .strategy(VolumeStrategy::kMonteCarlo)
                    .epsilon(0.001)
                    .delta(0.05)
                    .cancel(&token);
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  const VolumeAnswer& v = a.value().volume;
  EXPECT_LE(v.points_evaluated, v.points_requested);
  if (v.degraded) {
    EXPECT_LT(v.points_evaluated, v.points_requested);
    ASSERT_TRUE(v.lower.has_value());
    ASSERT_TRUE(v.upper.has_value());
    EXPECT_GE(*v.lower, 0.0);
    EXPECT_LE(*v.upper, 1.0);
  }
}

TEST(SessionRunTest, CallerTokenExpiredBeforeAnyWorkReturnsTrivialHalf) {
  // A token that is already expired must yield the honest last rung
  // (estimate 1/2, bars [0, 1]), never bars derived from zero samples.
  ConstraintDatabase db;
  Session session(&db, two_threads());
  CancelToken token;
  token.set_deadline_after_ms(0);
  Request req = Request::volume(kDisk)
                    .vars({"x", "y"})
                    .strategy(VolumeStrategy::kMonteCarlo)
                    .epsilon(0.01)
                    .delta(0.05)
                    .cancel(&token);
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  const VolumeAnswer& v = a.value().volume;
  EXPECT_TRUE(v.degraded);
  EXPECT_EQ(*v.estimate, 0.5);
  EXPECT_EQ(*v.lower, 0.0);
  EXPECT_EQ(*v.upper, 1.0);
}

TEST(SessionRunTest, AggregateRequest) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.add_table("R", std::vector<std::vector<std::int64_t>>{
                                    {1}, {2}, {3}})
                  .is_ok());
  Session session(&db);
  Request req;
  req.kind = RequestKind::kAggregate;
  req.query = "R(v)";
  req.output_vars = {"v"};
  req.aggregate_fn = AggregateFn::kSum;
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(*a.value().aggregate, Rational(6));

  // Wrong arity is a Status, not a crash.
  req.output_vars = {"v", "w"};
  EXPECT_FALSE(session.run(req).is_ok());
}

TEST(SessionRunTest, ConcurrentEvictionStress) {
  // Many threads hammer a deliberately tiny cache with more distinct
  // keys than capacity, mixing hits, misses, and evictions on both the
  // rewrite and volume sides. The test asserts accounting stays sane
  // and nothing tears (run under TSan in CI).
  EvalCache cache(EvalCacheOptions{/*rewrite_capacity=*/16,
                                   /*volume_capacity=*/16,
                                   /*shards=*/4});
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 200;  // >> capacity: constant eviction
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = (i * 31 + t * 17) % kKeySpace;
        std::string key = "k";
        key += std::to_string(k);
        if (i % 3 == 0) {
          cache.store_volume(key, Rational(k, 7));
        } else if (auto hit = cache.lookup_volume(key)) {
          // A hit must always carry the value stored for that key.
          EXPECT_EQ(*hit, Rational(k, 7));
        }
        if (i % 5 == 0) {
          cache.store_rewrite(key, Formula::make_true());
        } else if (i % 5 == 1) {
          (void)cache.lookup_rewrite(key);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const CacheStats vol = cache.volume_stats();
  const CacheStats rw = cache.rewrite_stats();
  EXPECT_LE(vol.entries, 16u);
  EXPECT_LE(rw.entries, 16u);
  EXPECT_GT(vol.evictions, 0u);
  EXPECT_GT(vol.hits + vol.misses, 0u);
  // Stores = lookups resolved as misses is not an invariant under LRU,
  // but total accounted operations must match what the threads issued.
  EXPECT_GT(rw.evictions, 0u);
}

// Fuzz-found parser regressions: every malformed query must come back
// as a kInvalidArgument Status through run(), for both kAsk and kVolume
// (planner-routed and forced), never as a crash or a default Answer.
TEST(SessionRunTest, MalformedQueriesSurfaceAsInvalidArgument) {
  ConstraintDatabase db;
  SessionOptions opts;
  opts.threads = 1;
  Session session(&db, opts);

  const std::vector<std::string> malformed = {
      "",                                // empty input
      "x +",                             // truncated expression
      "x <=",                            // truncated atom
      "E . x <= 1",                      // missing bound variable
      "x ^ 18446744073709551616 <= 1",   // exponent overflows unsigned long
      "x ^ 4000000000 <= 1",             // exponent beyond the parser cap
      std::string(5000, '(') + "x",      // unbounded paren nesting
      std::string(5000, '!') + "x <= 1", // unbounded negation nesting
      "1/0 <= x",                        // division by zero literal
  };
  for (const auto& query : malformed) {
    Request ask;
    ask.kind = RequestKind::kAsk;
    ask.query = query;
    auto a = session.run(ask);
    ASSERT_FALSE(a.is_ok()) << "kAsk accepted: " << query.substr(0, 40);
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument)
        << "kAsk on " << query.substr(0, 40) << ": "
        << a.status().to_string();

    Request vol = volume_request(query);
    auto v = session.run(vol);
    ASSERT_FALSE(v.is_ok()) << "kVolume accepted: " << query.substr(0, 40);
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument)
        << "kVolume on " << query.substr(0, 40) << ": "
        << v.status().to_string();

    // Forced strategies must report the same parse error, not run.
    for (VolumeStrategy s : {VolumeStrategy::kAuto,
                             VolumeStrategy::kMonteCarlo,
                             VolumeStrategy::kTrivialHalf}) {
      Request forced = volume_request(query);
      forced.strategy = s;
      auto f = session.run(forced);
      ASSERT_FALSE(f.is_ok());
      EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(SessionRunTest, ParserCapsStillAdmitDeepButReasonableInput) {
  ConstraintDatabase db;
  SessionOptions opts;
  opts.threads = 1;
  Session session(&db, opts);
  // 50 levels of nesting and a degree-20 monomial are fine.
  std::string nested = std::string(50, '(') + "x" + std::string(50, ')');
  Request req = volume_request(nested + " >= 0 & x <= 1 & y >= 0 & y <= 1");
  auto v = session.run(req);
  ASSERT_TRUE(v.is_ok()) << v.status().to_string();
  EXPECT_EQ(*v.value().volume.exact, Rational(1));

  Request ask;
  ask.kind = RequestKind::kAsk;
  ask.query = "E z. z^20 <= 1 & z >= 1";
  auto a = session.run(ask);
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  EXPECT_TRUE(*a.value().truth);
}

TEST(SessionRunTest, BuilderRequestsCoverTheOldShimSurface) {
  // The per-operation shims are gone; the fluent builders express the
  // same calls through run() and move the same counters.
  ConstraintDatabase db;
  Session session(&db);
  auto v = session.run(Request::volume(kTriangle).vars({"x", "y"}));
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(*v.value().volume.exact, Rational(1, 2));
  auto f = session.run(Request::rewrite("x >= 0 & x <= 1"));
  ASSERT_TRUE(f.is_ok());
  ASSERT_NE(f.value().formula, nullptr);
  auto t = session.run(Request::ask("E x. x >= 0 & x <= 1"));
  ASSERT_TRUE(t.is_ok());
  EXPECT_TRUE(*t.value().truth);
  EXPECT_EQ(session.metrics().counter_value("qe_rewrites_total"), 1u);
  EXPECT_EQ(session.metrics().counter_value("volume_calls_total"), 1u);
}

// kMu and kGrowthPolynomial run their cells stage under the request's
// token and meter, as kCells does: a cancelled token and a tripped quota
// come back as typed errors, not as a computed answer.
constexpr const char* kQuantifiedTriangle =
    "E u. 0 <= u & u <= 1 & x + y <= u & x >= 0 & y >= 0";

void expect_token_and_meter_honoured(RequestKind kind) {
  ConstraintDatabase db;
  Session session(&db);
  CancelToken token;
  token.cancel();
  Request cancelled = volume_request(kTriangle);
  cancelled.kind = kind;
  cancelled.cancel = &token;
  auto c = session.run(cancelled);
  ASSERT_FALSE(c.is_ok());
  EXPECT_EQ(c.status().code(), StatusCode::kCancelled);

  Request tripped = volume_request(kQuantifiedTriangle);
  tripped.kind = kind;
  tripped.budget.quota = guard::ResourceQuota::unlimited();
  tripped.budget.quota.max_qe_atoms = 1;  // any elimination trips
  auto t = session.run(tripped);
  ASSERT_FALSE(t.is_ok());
  EXPECT_EQ(t.status().code(), StatusCode::kResourceExhausted);
}

TEST(SessionRunTest, MuHonoursTokenAndMeter) {
  expect_token_and_meter_honoured(RequestKind::kMu);
}

TEST(SessionRunTest, GrowthPolynomialHonoursTokenAndMeter) {
  expect_token_and_meter_honoured(RequestKind::kGrowthPolynomial);
}

TEST(SessionRunTest, UnparsableRequestsStillCountAsCallsOfTheirKind) {
  ConstraintDatabase db;
  Session session(&db);
  const std::string bad = "0 <= x &";
  EXPECT_FALSE(session.run(Request::volume(bad).vars({"x"})).is_ok());
  EXPECT_FALSE(session.run(Request::cells(bad).vars({"x"})).is_ok());
  EXPECT_FALSE(
      session.run(Request::aggregate(AggregateFn::kCount, bad).vars({"x"}))
          .is_ok());
  EXPECT_EQ(session.metrics().counter_value("volume_calls_total"), 1u);
  EXPECT_EQ(session.metrics().counter_value("qe_rewrites_total"), 1u);
  EXPECT_EQ(session.metrics().counter_value("aggregate_calls_total"), 1u);
}

TEST(SessionRunTest, RunRejectsInvalidRequestsUpFront) {
  ConstraintDatabase db;
  Session session(&db);

  // Empty query.
  auto empty = session.run(Request::volume("").vars({"x"}));
  ASSERT_FALSE(empty.is_ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // Epsilon outside (0, 1) -- both ends and NaN.
  for (double bad : {0.0, 1.0, -0.5, 2.0,
                     std::numeric_limits<double>::quiet_NaN()}) {
    auto a = session.run(
        Request::volume(kTriangle).vars({"x", "y"}).epsilon(bad));
    ASSERT_FALSE(a.is_ok()) << "epsilon=" << bad;
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
  }

  // Delta outside (0, 1).
  for (double bad : {0.0, 1.0, -1.0}) {
    auto a = session.run(
        Request::volume(kTriangle).vars({"x", "y"}).delta(bad));
    ASSERT_FALSE(a.is_ok()) << "delta=" << bad;
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
  }

  // Volume kinds with no output variables.
  for (RequestKind kind : {RequestKind::kVolume, RequestKind::kMu,
                           RequestKind::kGrowthPolynomial}) {
    Request req;
    req.kind = kind;
    req.query = kTriangle;
    auto a = session.run(req);
    ASSERT_FALSE(a.is_ok()) << "kind=" << static_cast<int>(kind);
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
  }

  // Aggregate arity: exactly one output variable.
  Request agg = Request::aggregate(AggregateFn::kSum, "R(v)");
  agg.output_vars = {"v", "w"};
  auto a = session.run(agg);
  ASSERT_FALSE(a.is_ok());
  EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);

  // Non-positive VC-dimension override.
  auto vc = session.run(
      Request::volume(kTriangle).vars({"x", "y"}).vc_dim(0.0));
  ASSERT_FALSE(vc.is_ok());
  EXPECT_EQ(vc.status().code(), StatusCode::kInvalidArgument);

  // submit() resolves invalid requests immediately, same code.
  serve::Ticket ticket = session.submit(Request::volume("").vars({"x"}));
  auto got = ticket.try_get();
  ASSERT_TRUE(got.has_value());  // already resolved, no executor needed
  ASSERT_FALSE(got->is_ok());
  EXPECT_EQ(got->status().code(), StatusCode::kInvalidArgument);

  // Nothing above reached an engine.
  EXPECT_EQ(session.metrics().counter_value("volume_calls_total"), 0u);
}

}  // namespace
}  // namespace cqa
