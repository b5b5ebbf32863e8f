// Concurrent serve-layer coverage, run under TSan in CI: racing
// submitters coalesce to exactly one underlying computation, cache-level
// single-flight stays sound under contention, cancel() never loses a
// wakeup, and shutdown races cleanly with in-flight submits.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cqa/runtime/session.h"
#include "cqa/serve/scheduler.h"

namespace cqa {
namespace {

constexpr const char* kTriangle = "x >= 0 & y >= 0 & x + y <= 1";
constexpr const char* kDisk = "x^2 + y^2 <= 9/10 & 0 <= x & 0 <= y";

SessionOptions serve_opts() {
  SessionOptions opts;
  opts.threads = 2;
  opts.serve_executors = 2;
  opts.serve_queue_capacity = 4096;
  return opts;
}

TEST(ServeConcurrency, RacingDuplicateSubmitsCoalesceToOneComputation) {
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  serve::Scheduler& sched = session.scheduler();
  sched.pause();  // admit everything first so one group forms

  const int kThreads = 4;
  const int kPerThread = 8;
  std::vector<std::vector<serve::Ticket>> tickets(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tickets[t].push_back(
            session.submit(Request::volume(kTriangle).vars({"x", "y"})));
      }
    });
  }
  for (auto& th : submitters) th.join();
  sched.resume();

  for (auto& row : tickets) {
    for (auto& t : row) {
      auto a = t.wait();
      ASSERT_TRUE(a.is_ok()) << a.status().to_string();
      EXPECT_EQ(*a.value().volume.exact, Rational(1, 2));
    }
  }
  // Exactly one underlying exact computation for N x M duplicates.
  EXPECT_EQ(session.metrics().counter_value("volume_calls_total"), 1u);
  EXPECT_EQ(session.metrics().counter_value("serve_coalesced_total"),
            static_cast<std::uint64_t>(kThreads * kPerThread - 1));
}

TEST(ServeConcurrency, LiveTrafficNearDuplicatesStaySoundUnderContention) {
  // Unpaused: duplicates race the executors, so some coalesce at the
  // queue, some single-flight through the EvalCache FlightTable, and
  // some just hit the cache. Whatever the interleaving, every answer
  // must be the same exact rational (TSan checks the locking).
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  const int kThreads = 4;
  const int kPerThread = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Vary deadline_ms so fingerprints differ: these are *near*
        // duplicates that exercise the flight table, not the queue.
        auto a = session
                     .submit(Request::volume(kTriangle)
                                 .vars({"x", "y"})
                                 .deadline_ms(10'000 + t * kPerThread + i))
                     .wait();
        if (!a.is_ok() || !a.value().volume.exact.has_value() ||
            *a.value().volume.exact != Rational(1, 2)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServeConcurrency, McSeedDeterminismHoldsWhenBatchedUnderLoad) {
  auto mc = [](std::uint64_t seed) {
    return Request::volume(kDisk)
        .vars({"x", "y"})
        .strategy(VolumeStrategy::kMonteCarlo)
        .epsilon(0.05)
        .vc_dim(3.0)
        .seed(seed)
        .build();
  };
  // Reference values from unbatched solo runs.
  std::vector<double> solo(4);
  for (std::uint64_t s = 0; s < 4; ++s) {
    ConstraintDatabase db;
    Session session(&db, SessionOptions{.threads = 2});
    solo[s] = *session.run(mc(s + 1)).value_or_die().volume.estimate;
  }

  ConstraintDatabase db;
  Session session(&db, serve_opts());
  const int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (std::uint64_t s = 0; s < 4; ++s) {
    workers.emplace_back([&, s] {
      for (int r = 0; r < kRounds; ++r) {
        auto a = session.submit(mc(s + 1)).wait();
        if (!a.is_ok() || *a.value().volume.estimate != solo[s]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeConcurrency, CancelRacingExecutionNeverLosesAWakeup) {
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  const int kRounds = 32;
  for (int i = 0; i < kRounds; ++i) {
    serve::Ticket ticket =
        session.submit(Request::volume(kDisk)
                           .vars({"x", "y"})
                           .strategy(VolumeStrategy::kMonteCarlo)
                           .epsilon(0.02));
    std::atomic<bool> waited{false};
    std::thread waiter([&] {
      auto a = ticket.wait();  // must return, whatever the race outcome
      // Cancelled before execution -> kCancelled; mid-execution -> a
      // degraded answer off the ladder. Both are fine; hanging is not.
      if (!a.is_ok()) {
        EXPECT_EQ(a.status().code(), StatusCode::kCancelled)
            << a.status().to_string();
      }
      waited.store(true, std::memory_order_release);
    });
    if (i % 2 == 0) std::this_thread::yield();
    ticket.cancel();
    waiter.join();
    EXPECT_TRUE(waited.load(std::memory_order_acquire));
  }
}

TEST(ServeConcurrency, ShutdownRacesSubmittersCleanly) {
  for (int round = 0; round < 4; ++round) {
    std::vector<std::vector<serve::Ticket>> tickets(2);
    {
      ConstraintDatabase db;
      Session session(&db, serve_opts());
      session.scheduler();  // force scheduler creation before the race
      std::vector<std::thread> submitters;
      for (int t = 0; t < 2; ++t) {
        submitters.emplace_back([&, t] {
          for (int i = 0; i < 8; ++i) {
            tickets[t].push_back(session.submit(
                Request::volume(kTriangle).vars({"x", "y"})));
          }
        });
      }
      for (auto& th : submitters) th.join();
      // Session destroyed while some tickets may still be queued.
    }
    for (auto& row : tickets) {
      for (auto& t : row) {
        auto a = t.wait();  // resolved answer or kCancelled, never a hang
        if (!a.is_ok()) {
          EXPECT_EQ(a.status().code(), StatusCode::kCancelled);
        }
      }
    }
  }
}

TEST(ServeConcurrency, MixedSubmitAndRunShareTheCachesSafely) {
  ConstraintDatabase db;
  Session session(&db, serve_opts());
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        auto a = session.submit(
            Request::volume(kTriangle).vars({"x", "y"})).wait();
        if (!a.is_ok()) failures.fetch_add(1);
      }
    });
    workers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        auto a =
            session.run(Request::volume(kTriangle).vars({"x", "y"}));
        if (!a.is_ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServeConcurrency, ConcurrentAsksOverRegionsAreRaceFree) {
  // Every kAsk decides its sentence through Database::holds, which
  // inlines the region and eliminates quantifiers. The default Session
  // runs two executors, so asks run concurrently over one Database;
  // each is a distinct sentence (nothing coalesces) with a known truth:
  // the unit box meets x + y <= c iff c >= 0.
  ConstraintDatabase db;
  ASSERT_TRUE(db.add_region("Box", {"s", "t"},
                            "0 <= s & s <= 1 & 0 <= t & t <= 1")
                  .is_ok());
  Session session(&db);
  const int kThreads = 4;
  const int kPerThread = 50;
  std::atomic<int> wrong{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int c = t * kPerThread + i - kPerThread;
        auto a = session
                     .submit(Request::ask("E x. E y. Box(x, y) & x + y <= " +
                                          std::to_string(c)))
                     .wait();
        if (!a.is_ok() || a.value().truth != (c >= 0)) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace cqa
