// The runtime's headline invariant: the chunked Monte-Carlo estimate is
// a pure function of (seed, sample_size, chunk_size). Thread count and
// scheduling must not change a single bit of the result.

#include <gtest/gtest.h>

#include <map>

#include "cqa/approx/monte_carlo.h"
#include "cqa/core/constraint_database.h"
#include "cqa/logic/parser.h"
#include "cqa/runtime/parallel_sampler.h"
#include "cqa/runtime/session.h"
#include "cqa/runtime/thread_pool.h"

namespace cqa {
namespace {

TEST(ParallelSampler, BitwiseIdenticalAcrossThreadCounts) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("x^2 + y^2 <= 1", &vars).value_or_die();
  const std::size_t x = static_cast<std::size_t>(vars.find("x"));
  const std::size_t y = static_cast<std::size_t>(vars.find("y"));

  ParallelSampler sampler(&db, phi, {x, y}, /*sample_size=*/20000,
                          /*seed=*/42, /*chunk_size=*/256);
  const double serial = sampler.estimate({}, nullptr).value_or_die();
  EXPECT_NEAR(serial, 3.14159265 / 4.0, 0.02);

  for (std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const double pooled = sampler.estimate({}, &pool).value_or_die();
    // Bitwise, not approximate: same hits, same division.
    EXPECT_EQ(serial, pooled) << "threads=" << threads;
  }
}

TEST(ParallelSampler, BitwiseIdenticalWithParameters) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("x^2 + y^2 <= a", &vars).value_or_die();
  const std::size_t x = static_cast<std::size_t>(vars.find("x"));
  const std::size_t y = static_cast<std::size_t>(vars.find("y"));
  const std::size_t a = static_cast<std::size_t>(vars.find("a"));

  ParallelSampler sampler(&db, phi, {x, y}, 8000, 2718, 128);
  ThreadPool pool(8);
  for (int i = 1; i <= 9; i += 2) {
    const std::map<std::size_t, Rational> params = {{a, Rational(i, 10)}};
    const double serial = sampler.estimate(params, nullptr).value_or_die();
    const double pooled = sampler.estimate(params, &pool).value_or_die();
    EXPECT_EQ(serial, pooled) << "a=" << i << "/10";
    EXPECT_NEAR(serial, 3.14159265 * i / 40.0, 0.03);
  }
}

TEST(ParallelSampler, RaggedLastChunk) {
  // sample_size not divisible by chunk_size: the short tail chunk must
  // be handled identically everywhere.
  Database db;
  VarTable vars;
  auto phi = parse_formula("x <= 1/2", &vars).value_or_die();
  const std::size_t x = static_cast<std::size_t>(vars.find("x"));
  ParallelSampler sampler(&db, phi, {x}, 1000, 7, 64);  // 15 full + 40
  EXPECT_EQ(sampler.num_chunks(), 16u);
  ThreadPool pool(4);
  EXPECT_EQ(sampler.estimate({}, nullptr).value_or_die(),
            sampler.estimate({}, &pool).value_or_die());
}

TEST(ParallelSampler, SeedAndChunkSizeChangeTheSample) {
  Database db;
  VarTable vars;
  auto phi = parse_formula("x^2 + y^2 <= 1", &vars).value_or_die();
  const std::size_t x = static_cast<std::size_t>(vars.find("x"));
  const std::size_t y = static_cast<std::size_t>(vars.find("y"));
  ParallelSampler s1(&db, phi, {x, y}, 4000, 1, 256);
  ParallelSampler s2(&db, phi, {x, y}, 4000, 2, 256);
  ParallelSampler s3(&db, phi, {x, y}, 4000, 1, 512);
  const double e1 = s1.estimate({}).value_or_die();
  const double e2 = s2.estimate({}).value_or_die();
  const double e3 = s3.estimate({}).value_or_die();
  EXPECT_NE(e1, e2);  // different seed, different sample
  EXPECT_NE(e1, e3);  // chunk layout is part of the sample's identity
}

TEST(Session, MonteCarloVolumeIndependentOfThreadCount) {
  auto run = [](std::size_t threads) {
    ConstraintDatabase db;
    SessionOptions opts;
    opts.threads = threads;
    Session session(&db, opts);
    auto a = session.run(Request::volume("x^2 + y^2 <= 1")
                             .vars({"x", "y"})
                             .strategy(VolumeStrategy::kMonteCarlo)
                             .epsilon(0.05)
                             .vc_dim(3.0)
                             .seed(1234));
    return *a.value_or_die().volume.estimate;
  };
  const double t1 = run(1);
  const double t2 = run(2);
  const double t8 = run(8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  EXPECT_NEAR(t1, 3.14159265 / 4.0, 0.05);
}

TEST(Session, McPointsCounted) {
  ConstraintDatabase db;
  Session session(&db, SessionOptions{.threads = 2});
  ASSERT_TRUE(session.run(Request::volume("x^2 + y^2 <= 1")
                              .vars({"x", "y"})
                              .strategy(VolumeStrategy::kMonteCarlo)
                              .epsilon(0.1)
                              .delta(0.1)
                              .vc_dim(3.0))
                  .is_ok());
  EXPECT_GT(session.metrics().counter_value("mc_points_evaluated_total"),
            0u);
}

}  // namespace
}  // namespace cqa
