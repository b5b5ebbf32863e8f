// cqa::guard resource governance: WorkMeter semantics, quota-tripped
// engine stages, and Session's exact -> MC -> trivial-1/2 degradation
// ladder under tight quotas.

#include "cqa/guard/meter.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "cqa/arith/bigint.h"
#include "cqa/constraint/fourier_motzkin.h"
#include "cqa/guard/guard.h"
#include "cqa/runtime/session.h"

namespace cqa {
namespace {

constexpr const char* kTriangle = "x >= 0 & y >= 0 & x + y <= 1";
// Quantified FO+LIN whose QE rewrite denotes the same triangle:
// exists u in [x+y, 1] iff x + y <= 1 (with x, y >= 0).
constexpr const char* kQuantifiedTriangle =
    "E u. 0 <= u & u <= 1 & x + y <= u & x >= 0 & y >= 0";

Request volume_request(const std::string& query) {
  Request req;
  req.kind = RequestKind::kVolume;
  req.query = query;
  req.output_vars = {"x", "y"};
  return req;
}

TEST(WorkMeter, CumulativeChargeTripsAtLimit) {
  guard::ResourceQuota q = guard::ResourceQuota::unlimited();
  q.max_qe_atoms = 10;
  guard::WorkMeter meter(q);
  EXPECT_TRUE(meter.charge_qe_atoms(10));  // exactly at the limit: fine
  EXPECT_FALSE(meter.tripped());
  EXPECT_TRUE(meter.check().is_ok());
  EXPECT_FALSE(meter.charge_qe_atoms(1));  // one over: trips
  EXPECT_TRUE(meter.tripped());
  EXPECT_EQ(meter.tripped_kind(), guard::QuotaKind::kQeAtoms);
  Status s = meter.check();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.to_string(), "ResourceExhausted: quota exceeded: qe_atoms");
  EXPECT_EQ(meter.usage().qe_atoms, 11u);
}

TEST(WorkMeter, FirstTripIsStickyAndAllChargesFailAfter) {
  guard::ResourceQuota q = guard::ResourceQuota::unlimited();
  q.max_sweep_sections = 1;
  q.max_fm_rows = 5;
  guard::WorkMeter meter(q);
  EXPECT_TRUE(meter.charge_sweep_section());
  EXPECT_FALSE(meter.charge_sweep_section());  // trips sweep_sections
  // A later over-limit charge on another axis does not overwrite the
  // first tripped kind, and every charge now reports out-of-quota.
  EXPECT_FALSE(meter.charge_fm_rows(100));
  EXPECT_EQ(meter.tripped_kind(), guard::QuotaKind::kSweepSections);
  EXPECT_FALSE(meter.charge_qe_atoms(0));
  // High-water accounting still records the peak for the report.
  EXPECT_EQ(meter.usage().fm_rows_peak, 100u);
}

TEST(WorkMeter, HighWaterChargesTrackPeakNotSum) {
  guard::WorkMeter meter(guard::ResourceQuota::unlimited());
  EXPECT_TRUE(meter.charge_fm_rows(40));
  EXPECT_TRUE(meter.charge_fm_rows(10));
  EXPECT_TRUE(meter.charge_bigint_bits(64));
  EXPECT_TRUE(meter.charge_bigint_bits(32));
  EXPECT_EQ(meter.usage().fm_rows_peak, 40u);
  EXPECT_EQ(meter.usage().bigint_bits_peak, 64u);
  EXPECT_FALSE(meter.tripped());  // unlimited never trips
}

TEST(WorkMeter, ThreadLocalScopeMetersBigIntArithmetic) {
  guard::ResourceQuota q = guard::ResourceQuota::unlimited();
  q.max_bigint_bits = 256;
  guard::WorkMeter meter(q);
  ASSERT_EQ(guard::current_thread_meter(), nullptr);
  {
    guard::MeterScope scope(&meter);
    ASSERT_EQ(guard::current_thread_meter(), &meter);
    // ~2^400 * ~2^400: operand bit estimate blows the 256-bit ceiling.
    BigInt big = BigInt::pow(BigInt(2), 400);
    BigInt product = big * big;
    // The op that trips still completes correctly (sticky governor, not
    // a hard allocator).
    EXPECT_EQ(product, BigInt::pow(BigInt(2), 800));
  }
  EXPECT_EQ(guard::current_thread_meter(), nullptr);  // scope restored
  EXPECT_TRUE(meter.tripped());
  EXPECT_EQ(meter.tripped_kind(), guard::QuotaKind::kBigIntBits);
  EXPECT_GT(meter.usage().bigint_bits_peak, 256u);
}

TEST(WorkMeter, MeterScopeNests) {
  guard::WorkMeter outer;
  guard::WorkMeter inner;
  guard::MeterScope a(&outer);
  {
    guard::MeterScope b(&inner);
    EXPECT_EQ(guard::current_thread_meter(), &inner);
  }
  EXPECT_EQ(guard::current_thread_meter(), &outer);
}

TEST(WorkMeter, NullptrConventionHelpers) {
  EXPECT_FALSE(guard::meter_tripped(nullptr));
  guard::charge_bigint_bits_tl(1u << 20);  // no meter bound: no-op
  guard::WorkMeter meter(guard::ResourceQuota::unlimited());
  EXPECT_FALSE(guard::meter_tripped(&meter));
}

TEST(FourierMotzkin, MeteredEliminationStopsOnRowQuota) {
  // 12 lower and 12 upper bounds on x0: elimination wants to produce
  // 144 combined rows; a 10-row ceiling must stop the pair loop early.
  std::vector<LinearConstraint> cs;
  for (int i = 1; i <= 12; ++i) {
    LinearConstraint lo;  // x0 >= i  <=>  -x0 <= -i
    lo.coeffs = {Rational(-1), Rational(0)};
    lo.rhs = Rational(-i);
    lo.cmp = LinCmp::kLe;
    cs.push_back(lo);
    LinearConstraint hi;  // x0 <= 100 + i
    hi.coeffs = {Rational(1), Rational(0)};
    hi.rhs = Rational(100 + i);
    hi.cmp = LinCmp::kLe;
    cs.push_back(hi);
  }
  guard::ResourceQuota q = guard::ResourceQuota::unlimited();
  q.max_fm_rows = 10;
  guard::WorkMeter meter(q);
  auto rows = fm_eliminate(cs, 0, &meter);
  EXPECT_TRUE(meter.tripped());
  EXPECT_EQ(meter.tripped_kind(), guard::QuotaKind::kFmRows);
  // Truncated output: strictly fewer rows than the full 144 product.
  EXPECT_LT(rows.size(), 144u);
  // Unmetered elimination on the same input does not trip anything.
  guard::WorkMeter unlimited;
  auto full = fm_eliminate(cs, 0, &unlimited);
  EXPECT_FALSE(unlimited.tripped());
  EXPECT_GE(unlimited.usage().fm_rows_peak, rows.size());
}

TEST(GuardReport, RendersUsageAndTrip) {
  guard::ResourceQuota q = guard::ResourceQuota::unlimited();
  q.max_qe_atoms = 1;
  guard::WorkMeter meter(q);
  meter.charge_qe_atoms(5);
  guard::GuardReport report = guard::make_report(meter);
  EXPECT_TRUE(report.quota_tripped);
  EXPECT_EQ(report.tripped_quota, "qe_atoms");
  EXPECT_EQ(report.usage.qe_atoms, 5u);
  const std::string s = report.to_string();
  EXPECT_NE(s.find("tripped=qe_atoms"), std::string::npos);
  EXPECT_NE(s.find("qe_atoms=5"), std::string::npos);
}

// --- Session: the degradation ladder under quotas --------------------

TEST(GuardSession, DeepQuantifierQueryDegradesUnderTightQuota) {
  // The acceptance scenario: a quantified (Karpinski-Macintyre-style)
  // query under a tight atom quota must return a degraded-but-sound
  // kOk answer, not an error and not an OOM.
  ConstraintDatabase db;
  Session session(&db);
  Request req = volume_request(kQuantifiedTriangle);
  req.budget.quota = guard::ResourceQuota::unlimited();
  req.budget.quota.max_qe_atoms = 1;  // any elimination trips
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok());
  const Answer& ans = a.value();
  EXPECT_EQ(ans.status, AnswerStatus::kDegraded);
  EXPECT_TRUE(ans.degraded());
  EXPECT_TRUE(ans.guard.quota_tripped);
  EXPECT_EQ(ans.guard.tripped_quota, "qe_atoms");
  EXPECT_EQ(ans.guard.rung, guard::Rung::kTrivialHalf);
  // Sound (if useless) bars.
  ASSERT_TRUE(ans.volume.estimate.has_value());
  EXPECT_EQ(*ans.volume.estimate, 0.5);
  EXPECT_EQ(ans.volume.lower, 0.0);
  EXPECT_EQ(ans.volume.upper, 1.0);
  EXPECT_GE(session.metrics().counter_value("guard_quota_trip_total"), 1u);
  EXPECT_GE(session.metrics().counter_value("guard_quota_trip_qe_atoms_total"),
            1u);
  EXPECT_GE(session.metrics().counter_value(
                "guard_degradation_rung_trivial_half_total"),
            1u);
}

TEST(GuardSession, SameQueryWithQuotasOffCompletesExactly) {
  ConstraintDatabase db;
  Session session(&db);
  Request req = volume_request(kQuantifiedTriangle);
  req.budget.quota = guard::ResourceQuota::unlimited();
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(a.value().status, AnswerStatus::kOk);
  ASSERT_TRUE(a.value().volume.exact.has_value());
  EXPECT_EQ(*a.value().volume.exact, Rational(1, 2));
  EXPECT_FALSE(a.value().guard.quota_tripped);
  EXPECT_EQ(a.value().guard.rung, guard::Rung::kExact);
  // Accounting still happened: usage is populated even when nothing
  // trips.
  EXPECT_GT(a.value().guard.usage.qe_atoms, 0u);
}

TEST(GuardSession, DefaultQuotasDoNotPerturbNormalAnswers) {
  // The Budget default carries the safe service quotas; every ordinary
  // query must be far below them.
  ConstraintDatabase db;
  Session session(&db);
  auto a = session.run(volume_request(kTriangle));
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(a.value().status, AnswerStatus::kOk);
  ASSERT_TRUE(a.value().volume.exact.has_value());
  EXPECT_EQ(*a.value().volume.exact, Rational(1, 2));
  EXPECT_FALSE(a.value().guard.quota_tripped);
}

TEST(GuardSession, SweepQuotaTripFallsBackToMonteCarloWithValidBars) {
  // Exact sweep tripped mid-cell: the ladder's next rung is MC on the
  // quantifier-free formula, answering kOk + degraded with honest bars.
  ConstraintDatabase db;
  SessionOptions opts;
  opts.threads = 2;
  Session session(&db, opts);
  // Two *overlapping* cells: the square straddles the triangle's
  // hypotenuse, so the sweep meets several x-sections per breakpoint
  // interval and a one-section ceiling trips mid-decomposition.
  Request req = volume_request(
      "(x >= 0 & y >= 0 & x + y <= 1) |"
      " (x >= 1/4 & x <= 3/4 & y >= 1/4 & y <= 3/4)");
  req.budget.epsilon = 0.05;
  req.budget.quota = guard::ResourceQuota::unlimited();
  req.budget.quota.max_sweep_sections = 1;  // trip after one section
  auto a = session.run(req);
  ASSERT_TRUE(a.is_ok());
  const Answer& ans = a.value();
  EXPECT_EQ(ans.status, AnswerStatus::kDegraded);
  EXPECT_TRUE(ans.guard.quota_tripped);
  EXPECT_EQ(ans.guard.tripped_quota, "sweep_sections");
  EXPECT_EQ(ans.guard.rung, guard::Rung::kMonteCarlo);
  // The MC fallback actually sampled and its bars contain the truth
  // (1/2 + 1/4 - 1/8 overlap = 5/8) at the requested epsilon.
  EXPECT_GT(ans.volume.points_evaluated, 0u);
  ASSERT_TRUE(ans.volume.estimate.has_value());
  EXPECT_NEAR(*ans.volume.estimate, 0.625, 0.05);
  ASSERT_TRUE(ans.volume.lower.has_value());
  ASSERT_TRUE(ans.volume.upper.has_value());
  EXPECT_LE(*ans.volume.lower, *ans.volume.upper);
  EXPECT_LE(*ans.volume.upper - *ans.volume.lower, 2 * 0.05 + 1e-12);
}

TEST(GuardSession, SweepQuotaMetersSingleAndDisjointCells) {
  // The sweep is the only exact path, so a single box and two
  // interior-disjoint boxes are charged per section like any union: a
  // one-section ceiling trips them too, and the ladder falls back to MC.
  const std::pair<const char*, double> cases[] = {
      {"x >= 0 & x <= 1/2 & y >= 0 & y <= 1/2", 0.25},
      {"(x >= 0 & x <= 1/2 & y >= 0 & y <= 1/2) |"
       " (x >= 1/2 & x <= 1 & y >= 1/2 & y <= 3/4)",
       0.375},
  };
  for (const auto& [query, truth] : cases) {
    ConstraintDatabase db;
    Session session(&db, SessionOptions{.threads = 2});
    Request req = volume_request(query);
    req.budget.epsilon = 0.05;
    req.budget.quota = guard::ResourceQuota::unlimited();
    req.budget.quota.max_sweep_sections = 1;
    auto a = session.run(req);
    ASSERT_TRUE(a.is_ok()) << query;
    const Answer& ans = a.value();
    EXPECT_EQ(ans.status, AnswerStatus::kDegraded) << query;
    EXPECT_TRUE(ans.guard.quota_tripped) << query;
    EXPECT_EQ(ans.guard.tripped_quota, "sweep_sections") << query;
    EXPECT_EQ(ans.guard.rung, guard::Rung::kMonteCarlo) << query;
    ASSERT_TRUE(ans.volume.lower.has_value()) << query;
    ASSERT_TRUE(ans.volume.upper.has_value()) << query;
    EXPECT_LE(*ans.volume.lower, truth) << query;
    EXPECT_GE(*ans.volume.upper, truth) << query;
  }
}

TEST(GuardSession, RewriteRequestReportsTypedQuotaError) {
  // Non-volume kinds have no sound fallback: a tripped quota is a typed
  // kResourceExhausted error, never a wrong formula.
  ConstraintDatabase db;
  Session session(&db);
  Request req;
  req.kind = RequestKind::kRewrite;
  req.query = kQuantifiedTriangle;
  req.budget.quota = guard::ResourceQuota::unlimited();
  req.budget.quota.max_qe_atoms = 1;
  auto a = session.run(req);
  ASSERT_FALSE(a.is_ok());
  EXPECT_EQ(a.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(session.metrics().counter_value("guard_quota_trip_total"), 1u);
}

TEST(GuardSession, CancelTokenAndQuotaRacing) {
  // Deadline expiry and quota trips race on the same request: whichever
  // fires, the answer must stay kOk + degraded with [0,1]-sound bars.
  ConstraintDatabase db;
  Session session(&db);
  for (int i = 0; i < 8; ++i) {
    Request req = volume_request(kQuantifiedTriangle);
    req.budget.deadline_ms = 0;  // token already expired at arm time
    req.budget.quota = guard::ResourceQuota::unlimited();
    req.budget.quota.max_qe_atoms = 1;
    req.seed = static_cast<std::uint64_t>(i + 1);
    auto a = session.run(req);
    ASSERT_TRUE(a.is_ok());
    EXPECT_EQ(a.value().status, AnswerStatus::kDegraded);
    ASSERT_TRUE(a.value().volume.estimate.has_value());
    EXPECT_GE(*a.value().volume.estimate, 0.0);
    EXPECT_LE(*a.value().volume.estimate, 1.0);
    EXPECT_GE(a.value().volume.lower, 0.0);
    EXPECT_LE(a.value().volume.upper, 1.0);
    EXPECT_LE(a.value().volume.lower, a.value().volume.upper);
  }
}

}  // namespace
}  // namespace cqa
