// serve::Scheduler functional coverage: tickets resolve to what run()
// produces, queued duplicates coalesce into one computation, compatible
// Monte-Carlo requests run as one group without changing their answers,
// admission control sheds honestly, and deadlines are armed at submit
// time.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cqa/guard/fault.h"
#include "cqa/runtime/session.h"
#include "cqa/serve/scheduler.h"
#include "cqa/vc/sample_bounds.h"

namespace cqa {
namespace {

constexpr const char* kTriangle = "x >= 0 & y >= 0 & x + y <= 1";
constexpr const char* kDisk = "x^2 + y^2 <= 9/10 & 0 <= x & 0 <= y";
// Quantified FO+LIN whose membership formula requires a QE rewrite (it
// denotes the same triangle), so every MC group member's rewrite is
// nontrivial.
constexpr const char* kQuantifiedTriangle =
    "E u. 0 <= u & u <= 1 & x + y <= u & x >= 0 & y >= 0";

SessionOptions serve_opts() {
  SessionOptions opts;
  opts.threads = 2;
  opts.serve_executors = 2;
  return opts;
}

TEST(ServeScheduler, SubmitResolvesLikeRun) {
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  Request req = Request::volume(kTriangle).vars({"x", "y"});
  serve::Ticket t = session.submit(req);
  ASSERT_TRUE(t.valid());
  auto a = t.wait();
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(a.value().volume.exact.has_value());
  EXPECT_EQ(*a.value().volume.exact, Rational(1, 2));

  auto direct = session.run(req);
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ(*direct.value().volume.exact, *a.value().volume.exact);
}

TEST(ServeScheduler, QueuedDuplicatesCoalesceIntoOneComputation) {
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();

  const int kDup = 8;
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < kDup; ++i) {
    tickets.push_back(
        session.submit(Request::volume(kTriangle).vars({"x", "y"})));
  }
  EXPECT_EQ(sched.queue_depth(), static_cast<std::size_t>(kDup));
  EXPECT_EQ(session.metrics().gauge_value("serve_queue_depth"), kDup);
  sched.resume();

  for (auto& t : tickets) {
    auto a = t.wait();
    ASSERT_TRUE(a.is_ok()) << a.status().to_string();
    EXPECT_EQ(*a.value().volume.exact, Rational(1, 2));
  }
  // One leader ran; the other kDup - 1 rode along.
  EXPECT_EQ(session.metrics().counter_value("volume_calls_total"), 1u);
  EXPECT_EQ(session.metrics().counter_value("serve_coalesced_total"),
            static_cast<std::uint64_t>(kDup - 1));
  EXPECT_EQ(session.metrics().counter_value("serve_submitted_total"),
            static_cast<std::uint64_t>(kDup));
  EXPECT_EQ(sched.queue_depth(), 0u);
  EXPECT_GE(session.metrics().gauge("serve_queue_depth")->peak(), kDup);
}

TEST(ServeScheduler, CallerCancelTokenDisablesCoalescing) {
  // Requests with caller-owned cancel tokens have distinct cancellation
  // identity: they must never share a leader's answer. One executor so
  // the two run back-to-back (no cache-level single-flight either).
  ConstraintDatabase db;
  SessionOptions opts = serve_opts();
  opts.serve_executors = 1;
  Session session(&db, opts);
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  CancelToken t1, t2;
  auto a = session.submit(
      Request::volume(kTriangle).vars({"x", "y"}).cancel(&t1));
  auto b = session.submit(
      Request::volume(kTriangle).vars({"x", "y"}).cancel(&t2));
  sched.resume();
  ASSERT_TRUE(a.wait().is_ok());
  ASSERT_TRUE(b.wait().is_ok());
  EXPECT_EQ(session.metrics().counter_value("serve_coalesced_total"), 0u);
  // Both ran; the second hit the volume cache rather than coalescing.
  EXPECT_EQ(session.metrics().counter_value("volume_calls_total"), 2u);
}

TEST(ServeScheduler, QueuedMcGroupAnswersEqualRunIncludingGuard) {
  // Four distinct-seed forced-MC requests queued together run as one
  // group; each ticket must carry exactly what run() gives the same
  // request on a fresh session -- the estimate bit for bit, the bars,
  // the point counts, the rung and the whole guard report.
  auto mc = [](std::uint64_t seed) {
    return Request::volume("(x - 1/2)^2 + (y - 1/2)^2 <= 1/5")
        .vars({"x", "y"})
        .strategy(VolumeStrategy::kMonteCarlo)
        .epsilon(0.02)
        .vc_dim(3.0)
        .seed(seed)
        .build();
  };

  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  const std::vector<std::uint64_t> seeds = {7, 11, 13, 17};
  std::vector<serve::Ticket> tickets;
  for (std::uint64_t s : seeds) tickets.push_back(session.submit(mc(s)));
  sched.resume();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    auto queued = tickets[i].wait();
    ASSERT_TRUE(queued.is_ok()) << queued.status().to_string();
    ConstraintDatabase solo_db;
    Session solo_session(&solo_db, serve_opts());
    auto solo = solo_session.run(mc(seeds[i]));
    ASSERT_TRUE(solo.is_ok()) << solo.status().to_string();
    const Answer& q = queued.value();
    const Answer& s = solo.value();
    ASSERT_TRUE(q.volume.estimate.has_value());
    EXPECT_EQ(q.volume.estimate, s.volume.estimate) << "seed " << seeds[i];
    EXPECT_EQ(q.volume.lower, s.volume.lower) << "seed " << seeds[i];
    EXPECT_EQ(q.volume.upper, s.volume.upper) << "seed " << seeds[i];
    EXPECT_EQ(q.volume.points_evaluated, s.volume.points_evaluated);
    EXPECT_EQ(q.volume.points_requested, s.volume.points_requested);
    EXPECT_EQ(q.status, s.status) << "seed " << seeds[i];
    EXPECT_EQ(q.guard.rung, s.guard.rung) << "seed " << seeds[i];
    EXPECT_EQ(q.guard.to_string(), s.guard.to_string())
        << "seed " << seeds[i];
  }
  // The four requests were dequeued as one group.
  EXPECT_GE(session.metrics().counter_value("serve_mc_batched_total"),
            static_cast<std::uint64_t>(seeds.size() - 1));
}

TEST(ServeScheduler, McBatchCoalescesExactDuplicatesWithinTheBatch) {
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  auto mc = [&](std::uint64_t seed) {
    return Request::volume(kDisk)
        .vars({"x", "y"})
        .strategy(VolumeStrategy::kMonteCarlo)
        .epsilon(0.05)
        .vc_dim(3.0)
        .seed(seed)
        .build();
  };
  // Queues members a and b plus a duplicate of b, runs them as one
  // group, and returns how much serve_coalesced_total grew.
  auto round = [&](std::uint64_t seed_a, std::uint64_t seed_b) {
    const std::uint64_t calls_before =
        session.metrics().counter_value("volume_calls_total");
    const std::uint64_t coalesced_before =
        session.metrics().counter_value("serve_coalesced_total");
    sched.pause();
    serve::Ticket a = session.submit(mc(seed_a));
    serve::Ticket b = session.submit(mc(seed_b));
    serve::Ticket dup = session.submit(mc(seed_b));  // duplicate of b
    sched.resume();
    auto ra = a.wait();
    auto rb = b.wait();
    auto rdup = dup.wait();
    EXPECT_TRUE(ra.is_ok() && rb.is_ok() && rdup.is_ok());
    if (ra.is_ok() && rb.is_ok() && rdup.is_ok()) {
      EXPECT_NE(*ra.value().volume.estimate, *rb.value().volume.estimate);
      EXPECT_EQ(*rb.value().volume.estimate, *rdup.value().volume.estimate);
    }
    // The duplicate rode along with b and never ran.
    EXPECT_EQ(session.metrics().counter_value("volume_calls_total") -
                  calls_before,
              2u);
    return session.metrics().counter_value("serve_coalesced_total") -
           coalesced_before;
  };
  // Cold cache: a and b run concurrently, so besides the queued
  // duplicate one of them may join the other's in-flight rewrite, which
  // counts into serve_coalesced_total too.
  const std::uint64_t cold = round(7, 9);
  EXPECT_GE(cold, 1u);
  EXPECT_LE(cold, 2u);
  // Warm cache: both members read the rewrite, so the queued duplicate
  // is the only coalesced computation.
  EXPECT_EQ(round(11, 13), 1u);
}

TEST(ServeScheduler, OverCapacityShedsVolumeToTrivialHalf) {
  ConstraintDatabase db;
  SessionOptions opts = serve_opts();
  opts.serve_queue_capacity = 2;
  Session session(&db, opts);
  serve::Scheduler& sched = session.scheduler();
  sched.pause();

  std::vector<serve::Ticket> queued;
  queued.push_back(
      session.submit(Request::volume(kTriangle).vars({"x", "y"})));
  queued.push_back(
      session.submit(Request::volume("x >= 0 & x <= 1 & y >= 0 & y <= 2")
                         .vars({"x", "y"})));

  // Queue full: a volume request is shed to the last rung, resolved
  // immediately with honest [0, 1] bars and the shed marker.
  serve::Ticket shed_vol =
      session.submit(Request::volume(kDisk).vars({"x", "y"}));
  auto sv = shed_vol.try_get();
  ASSERT_TRUE(sv.has_value());
  ASSERT_TRUE(sv->is_ok());
  EXPECT_EQ(sv->value().status, AnswerStatus::kDegraded);
  EXPECT_EQ(*sv->value().volume.estimate, 0.5);
  EXPECT_EQ(*sv->value().volume.lower, 0.0);
  EXPECT_EQ(*sv->value().volume.upper, 1.0);
  EXPECT_TRUE(sv->value().guard.shed);
  EXPECT_EQ(sv->value().guard.rung, guard::Rung::kTrivialHalf);

  // A kind the degradation ladder cannot serve gets the typed error.
  serve::Ticket shed_ask =
      session.submit(Request::ask("E x. x >= 0 & x <= 1"));
  auto sa = shed_ask.try_get();
  ASSERT_TRUE(sa.has_value());
  ASSERT_FALSE(sa->is_ok());
  EXPECT_EQ(sa->status().code(), StatusCode::kResourceExhausted);

  EXPECT_EQ(session.metrics().counter_value("serve_shed_total"), 2u);
  sched.resume();
  for (auto& t : queued) {
    EXPECT_TRUE(t.wait().is_ok());
  }
}

TEST(ServeScheduler, DeadlineIsArmedAtSubmitSoQueueWaitCounts) {
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  serve::Ticket t =
      session.submit(Request::volume(kDisk)
                         .vars({"x", "y"})
                         .strategy(VolumeStrategy::kMonteCarlo)
                         .epsilon(0.01)
                         .deadline_ms(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sched.resume();
  auto a = t.wait();
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  // The budget was spent in the queue: the answer must be degraded
  // (partial or trivial half), never presented at full fidelity.
  EXPECT_EQ(a.value().status, AnswerStatus::kDegraded);
  EXPECT_TRUE(a.value().volume.degraded);
}

TEST(ServeScheduler, CancelBeforeExecutionResolvesCancelled) {
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  serve::Ticket t =
      session.submit(Request::volume(kTriangle).vars({"x", "y"}));
  t.cancel();
  sched.resume();
  auto a = t.wait();
  ASSERT_FALSE(a.is_ok());
  EXPECT_EQ(a.status().code(), StatusCode::kCancelled);
  // The cancelled request never reached an engine.
  EXPECT_EQ(session.metrics().counter_value("volume_calls_total"), 0u);
}

TEST(ServeScheduler, DestructionResolvesQueuedTickets) {
  std::vector<serve::Ticket> tickets;
  {
    ConstraintDatabase db;
    Session session(&db, serve_opts());
    session.scheduler().pause();
    for (int i = 0; i < 4; ++i) {
      tickets.push_back(
          session.submit(Request::volume(kTriangle).vars({"x", "y"})));
    }
    // Session (and its scheduler) destroyed with work still queued.
  }
  for (auto& t : tickets) {
    auto a = t.wait();  // must not hang
    ASSERT_FALSE(a.is_ok());
    EXPECT_EQ(a.status().code(), StatusCode::kCancelled);
  }
}

TEST(ServeScheduler, AllPriorityLanesDrain) {
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  std::vector<serve::Ticket> tickets;
  const Priority prios[] = {Priority::kBatch, Priority::kInteractive,
                            Priority::kNormal, Priority::kBatch,
                            Priority::kInteractive};
  int i = 0;
  for (Priority p : prios) {
    // Distinct queries so nothing coalesces.
    tickets.push_back(session.submit(
        Request::volume("x >= 0 & x <= 1 & y >= 0 & y <= " +
                        std::to_string(i + 1))
            .vars({"x", "y"})
            .priority(p)));
    ++i;
  }
  sched.resume();
  for (std::size_t k = 0; k < tickets.size(); ++k) {
    auto a = tickets[k].wait();
    ASSERT_TRUE(a.is_ok()) << a.status().to_string();
    EXPECT_EQ(*a.value().volume.exact, Rational(static_cast<int>(k + 1)));
  }
  EXPECT_EQ(sched.queue_depth(), 0u);
}

TEST(ServeScheduler, FingerprintFieldInjectionDoesNotCoalesce) {
  // output_vars {"x,y"} and {"x", "y"} encode differently now that
  // fields are length-prefixed: the malformed request must keep its own
  // kInvalidArgument instead of receiving the other request's volume.
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  auto mc = [&](std::vector<std::string> vars) {
    return Request::volume(kDisk)
        .vars(std::move(vars))
        .strategy(VolumeStrategy::kMonteCarlo)
        .epsilon(0.05)
        .vc_dim(3.0)
        .build();
  };
  serve::Ticket bad = session.submit(mc({"x,y"}));
  serve::Ticket good = session.submit(mc({"x", "y"}));
  sched.resume();

  auto rb = bad.wait();
  ASSERT_FALSE(rb.is_ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kInvalidArgument);
  auto rg = good.wait();
  ASSERT_TRUE(rg.is_ok()) << rg.status().to_string();
  EXPECT_TRUE(rg.value().volume.estimate.has_value());
}

TEST(ServeScheduler, ExpiredBatchMemberDoesNotDegradeTheOthers) {
  // Two grouped MC members with different budgets: the head's deadline
  // expiring while queued degrades the head only; the other member must
  // still match its solo run bit for bit.
  auto mc = [](std::uint64_t seed) {
    return Request::volume(kQuantifiedTriangle)
        .vars({"x", "y"})
        .strategy(VolumeStrategy::kMonteCarlo)
        .epsilon(0.05)
        .vc_dim(3.0)
        .seed(seed)
        .build();
  };
  double solo = 0.0;
  {
    ConstraintDatabase db;
    Session session(&db, SessionOptions{.threads = 2});
    solo = *session.run(mc(11)).value_or_die().volume.estimate;
  }

  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  Request doomed_req = mc(7);
  doomed_req.budget.deadline_ms = 1;
  serve::Ticket doomed = session.submit(std::move(doomed_req));
  serve::Ticket healthy = session.submit(mc(11));
  // Let the head's (submit-armed) deadline expire while both sit queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sched.resume();

  auto rd = doomed.wait();
  ASSERT_TRUE(rd.is_ok()) << rd.status().to_string();
  EXPECT_TRUE(rd.value().degraded());
  auto rh = healthy.wait();
  ASSERT_TRUE(rh.is_ok()) << rh.status().to_string();
  EXPECT_EQ(rh.value().status, AnswerStatus::kOk);
  ASSERT_TRUE(rh.value().volume.estimate.has_value());
  EXPECT_EQ(*rh.value().volume.estimate, solo);
}

TEST(ServeScheduler, BatchedMemberQuotaIsEnforcedAndReported) {
  // A quota that would trip this request solo must trip it when grouped
  // with another too, and its guard report must say so -- without
  // dragging the roomy member down with it. The quota is resident
  // bytes, which every member charges in its own membership plan. A QE
  // quota is charged only to the member that computes the shared
  // rewrite (the others read it from the cache, as run() on a warm
  // session does); BatchedMembersOverQeQuotaAllTrip covers it.
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  auto mc = [](std::uint64_t seed) {
    return Request::volume(kQuantifiedTriangle)
        .vars({"x", "y"})
        .strategy(VolumeStrategy::kMonteCarlo)
        .epsilon(0.05)
        .vc_dim(3.0)
        .seed(seed)
        .build();
  };
  guard::ResourceQuota tight = guard::ResourceQuota::unlimited();
  tight.max_resident_bytes = 1;  // any membership plan trips
  Request capped_req = mc(3);
  capped_req.budget.quota = tight;
  serve::Ticket capped = session.submit(std::move(capped_req));
  serve::Ticket roomy = session.submit(mc(5));
  sched.resume();

  auto rc = capped.wait();
  ASSERT_TRUE(rc.is_ok()) << rc.status().to_string();
  EXPECT_TRUE(rc.value().degraded());
  EXPECT_TRUE(rc.value().guard.quota_tripped);
  EXPECT_EQ(rc.value().guard.tripped_quota, "resident_bytes");
  EXPECT_EQ(rc.value().guard.rung, guard::Rung::kTrivialHalf);
  auto rr = roomy.wait();
  ASSERT_TRUE(rr.is_ok()) << rr.status().to_string();
  EXPECT_EQ(rr.value().status, AnswerStatus::kOk);
  EXPECT_TRUE(rr.value().volume.estimate.has_value());
}

TEST(ServeScheduler, BatchedMembersOverQeQuotaAllTrip) {
  // Grouped members that each cap max_qe_atoms at 1: whichever member
  // leads the rewrite trips, its abandoned flight sends the others to
  // compute the rewrite under their own meters, and they trip too. No
  // member may answer from work charged to another.
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  std::vector<serve::Ticket> tickets;
  for (std::uint64_t seed : {3, 5, 7}) {
    Request req = Request::volume(kQuantifiedTriangle)
                      .vars({"x", "y"})
                      .strategy(VolumeStrategy::kMonteCarlo)
                      .epsilon(0.05)
                      .vc_dim(3.0)
                      .seed(seed)
                      .build();
    req.budget.quota = guard::ResourceQuota::unlimited();
    req.budget.quota.max_qe_atoms = 1;  // any elimination trips
    tickets.push_back(session.submit(std::move(req)));
  }
  sched.resume();
  for (serve::Ticket& t : tickets) {
    auto r = t.wait();
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_TRUE(r.value().degraded());
    EXPECT_TRUE(r.value().guard.quota_tripped);
    EXPECT_EQ(r.value().guard.tripped_quota, "qe_atoms");
    EXPECT_EQ(r.value().guard.rung, guard::Rung::kTrivialHalf);
  }
  EXPECT_EQ(session.metrics().counter_value("serve_mc_batched_total"), 2u);
}

TEST(ServeScheduler, BatchSurvivesInjectedAllocationFailure) {
  // FaultSite::kBigIntAlloc firing inside a grouped member's membership
  // rewrite must not escape the thread running it (std::terminate);
  // every member degrades to the honest last rung instead.
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  auto mc = [](std::uint64_t seed) {
    return Request::volume(kQuantifiedTriangle)
        .vars({"x", "y"})
        .strategy(VolumeStrategy::kMonteCarlo)
        .epsilon(0.05)
        .vc_dim(3.0)
        .seed(seed)
        .build();
  };
  serve::Ticket a = session.submit(mc(7));
  serve::Ticket b = session.submit(mc(9));

  guard::FaultPlan plan;
  plan.seed = 99;
  plan.rate[static_cast<std::size_t>(guard::FaultSite::kBigIntAlloc)] = 1.0;
  guard::FaultInjector injector(plan);
  {
    guard::ScopedFaultInjector scoped(&injector);
    sched.resume();
    for (serve::Ticket* t : {&a, &b}) {
      auto r = t->wait();
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      EXPECT_TRUE(r.value().degraded());
      EXPECT_EQ(r.value().guard.rung, guard::Rung::kTrivialHalf);
      ASSERT_TRUE(r.value().volume.estimate.has_value());
      EXPECT_EQ(*r.value().volume.estimate, 0.5);
      EXPECT_EQ(r.value().volume.lower, 0.0);
      EXPECT_EQ(r.value().volume.upper, 1.0);
    }
  }
}

TEST(ServeScheduler, BatchedMemberWithEveryChunkDroppedMatchesRun) {
  // With every sampler chunk dropped (kSpuriousCancel at rate 1), a
  // batched forced-MC member must carry exactly the answer run() gives
  // the same request: the same trivial-1/2 rung, bars and point counts.
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  auto mc = [](std::uint64_t seed) {
    return Request::volume(kDisk)
        .vars({"x", "y"})
        .strategy(VolumeStrategy::kMonteCarlo)
        .epsilon(0.05)
        .vc_dim(3.0)
        .seed(seed)
        .build();
  };
  const std::vector<std::uint64_t> seeds = {7, 9};
  std::vector<serve::Ticket> tickets;
  for (std::uint64_t s : seeds) tickets.push_back(session.submit(mc(s)));

  guard::FaultPlan plan;
  plan.seed = 99;
  plan.rate[static_cast<std::size_t>(guard::FaultSite::kSpuriousCancel)] =
      1.0;
  guard::FaultInjector injector(plan);
  guard::ScopedFaultInjector scoped(&injector);
  sched.resume();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    auto batched = tickets[i].wait();
    ASSERT_TRUE(batched.is_ok()) << batched.status().to_string();
    auto solo = session.run(mc(seeds[i]));
    ASSERT_TRUE(solo.is_ok()) << solo.status().to_string();
    const VolumeAnswer& b = batched.value().volume;
    const VolumeAnswer& s = solo.value().volume;
    EXPECT_EQ(b.estimate, s.estimate) << "seed " << seeds[i];
    EXPECT_EQ(b.lower, s.lower) << "seed " << seeds[i];
    EXPECT_EQ(b.upper, s.upper) << "seed " << seeds[i];
    EXPECT_EQ(b.degraded, s.degraded) << "seed " << seeds[i];
    EXPECT_EQ(b.points_evaluated, s.points_evaluated) << "seed " << seeds[i];
    EXPECT_EQ(b.points_requested, s.points_requested) << "seed " << seeds[i];
    EXPECT_EQ(batched.value().status, solo.value().status);
    EXPECT_EQ(batched.value().guard.rung, solo.value().guard.rung);
    EXPECT_EQ(s.points_evaluated, 0u);
    EXPECT_GT(s.points_requested, 0u);
  }
  EXPECT_GE(session.metrics().counter_value("serve_mc_batched_total"), 1u);
}

TEST(ServeScheduler, PreCancelledTokenReportsFullSampleSizeInRunAndBatch) {
  // A caller token that is cancelled before the request starts trips
  // inside the membership rewrite, before any sampling. The answer is
  // the trivial-1/2 rung with points_requested = M, the same count a
  // request that expires during sampling reports, through run() and
  // through a queued MC group alike.
  const std::size_t m = blumer_sample_bound(0.05, Budget{}.delta, 3.0);
  auto mc = [](std::uint64_t seed, CancelToken* token) {
    return Request::volume(kDisk)
        .vars({"x", "y"})
        .strategy(VolumeStrategy::kMonteCarlo)
        .epsilon(0.05)
        .vc_dim(3.0)
        .seed(seed)
        .cancel(token)
        .build();
  };
  CancelToken cancelled;
  cancelled.cancel();
  auto expect_trivial_half = [&](const Result<Answer>& r) {
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().guard.rung, guard::Rung::kTrivialHalf);
    EXPECT_EQ(r.value().volume.points_evaluated, 0u);
    EXPECT_EQ(r.value().volume.points_requested, m);
  };

  {
    // Fresh session: the rewrite is not cached, so the token trips in it.
    ConstraintDatabase db;
    Session session(&db, serve_opts());
    expect_trivial_half(session.run(mc(7, &cancelled)));
  }

  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  // The cancelled member trips in its own rewrite; the healthy member
  // grouped with it computes the rewrite and samples in full.
  serve::Ticket doomed = session.submit(mc(7, &cancelled));
  serve::Ticket healthy = session.submit(mc(11, nullptr));
  sched.resume();
  expect_trivial_half(doomed.wait());
  auto rh = healthy.wait();
  ASSERT_TRUE(rh.is_ok()) << rh.status().to_string();
  EXPECT_EQ(rh.value().status, AnswerStatus::kOk);
  EXPECT_EQ(rh.value().volume.points_requested, m);
  EXPECT_EQ(session.metrics().counter_value("serve_mc_batched_total"), 1u);
}

TEST(ServeScheduler, NearDeadlineBatchRequestDispatchesBeforeInteractive) {
  // One executor, everything queued while paused: a batch-lane request
  // due within the promotion window (5 ms) runs before the interactive
  // requests queued ahead of it, which then keep their FIFO order.
  ConstraintDatabase db;
  SessionOptions opts = serve_opts();
  opts.serve_executors = 1;
  Session session(&db, opts);
  serve::Scheduler& sched = session.scheduler();
  sched.pause();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> order;
  std::vector<serve::Ticket> tickets;
  auto submit = [&](int id, Request request) {
    tickets.push_back(session.submit(std::move(request)));
    tickets.back().then([&, id](const Result<Answer>&) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(id);
      cv.notify_all();
    });
  };
  for (int i = 0; i < 3; ++i) {
    submit(i, Request::volume("x >= 0 & x <= 1 & y >= 0 & y <= " +
                              std::to_string(i + 1))
                  .vars({"x", "y"})
                  .priority(Priority::kInteractive));
  }
  submit(3, Request::volume(kTriangle)
                .vars({"x", "y"})
                .priority(Priority::kBatch)
                .deadline_ms(1));
  sched.resume();
  for (auto& t : tickets) ASSERT_TRUE(t.wait().is_ok());
  // A callback runs just after its ticket turns ready; wait for all four.
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return order.size() == tickets.size(); }));
  EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2}));
}

TEST(ServeScheduler, McBatchesAreCappedAtEightMembers) {
  // Fusable forced-MC requests with distinct seeds, queued while paused
  // and drained by one executor: each group of k requests counts
  // k - 1 into serve_mc_batched_total.
  ConstraintDatabase db;
  SessionOptions opts = serve_opts();
  opts.serve_executors = 1;
  Session session(&db, opts);
  serve::Scheduler& sched = session.scheduler();
  std::uint64_t seed = 0;
  auto batched = [&](int n) {
    const std::uint64_t before =
        session.metrics().counter_value("serve_mc_batched_total");
    sched.pause();
    std::vector<serve::Ticket> tickets;
    for (int i = 0; i < n; ++i) {
      tickets.push_back(session.submit(Request::volume(kDisk)
                                           .vars({"x", "y"})
                                           .strategy(VolumeStrategy::kMonteCarlo)
                                           .epsilon(0.1)
                                           .vc_dim(3.0)
                                           .seed(++seed)));
    }
    sched.resume();
    for (auto& t : tickets) EXPECT_TRUE(t.wait().is_ok());
    return session.metrics().counter_value("serve_mc_batched_total") - before;
  };
  EXPECT_EQ(batched(20), 17u);  // 8 + 8 + 4
  EXPECT_EQ(batched(8), 7u);    // one full group; a cap of 7 would give 6
  EXPECT_EQ(batched(9), 7u);    // 8 + 1; a cap of 9 would give 8
}

TEST(ServeScheduler, NonVolumeKindsFlowThroughSubmit) {
  ConstraintDatabase db;
  ASSERT_TRUE(db.add_region("Box", {"s", "t"},
                            "0 <= s & s <= 1 & 0 <= t & t <= 1")
                  .is_ok());
  Session session(&db, serve_opts());
  serve::Ticket ask =
      session.submit(Request::ask("E x. E y. Box(x, y) & x + y <= 1"));
  serve::Ticket rw = session.submit(Request::rewrite("E u. Box(x, u)"));
  auto a = ask.wait();
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  EXPECT_TRUE(*a.value().truth);
  auto r = rw.wait();
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(r.value().formula->is_quantifier_free());
}

}  // namespace
}  // namespace cqa
