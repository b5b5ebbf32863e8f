// Cross-module integration property tests: end-to-end pipelines through
// the core facade, checking measure-theoretic and logical laws on
// randomized GIS-style databases.

#include <gtest/gtest.h>

#include "cqa/approx/random.h"
#include "cqa/core/aggregation_engine.h"
#include "cqa/core/constraint_database.h"
#include "cqa/core/query_engine.h"
#include "cqa/core/volume_engine.h"
#include "cqa/runtime/session.h"
#include "cqa/volume/semilinear_volume.h"

namespace cqa {
namespace {

// Builds a database with two random bounded convex regions A and B.
ConstraintDatabase random_db(std::uint64_t seed) {
  Xoshiro rng(seed);
  ConstraintDatabase db;
  auto region = [&](const std::string& name) {
    // Random box plus a random half-plane cut, guaranteed nonempty.
    std::int64_t x0 = static_cast<std::int64_t>(rng.next() % 5);
    std::int64_t y0 = static_cast<std::int64_t>(rng.next() % 5);
    std::int64_t w = 1 + static_cast<std::int64_t>(rng.next() % 4);
    std::int64_t h = 1 + static_cast<std::int64_t>(rng.next() % 4);
    std::int64_t c = 1 + static_cast<std::int64_t>(rng.next() % 12);
    std::string f = std::to_string(x0) + " <= x & x <= " +
                    std::to_string(x0 + w) + " & " + std::to_string(y0) +
                    " <= y & y <= " + std::to_string(y0 + h) +
                    " & x + y <= " + std::to_string(c + x0 + y0);
    CQA_CHECK(db.add_region(name, {"x", "y"}, f).is_ok());
  };
  region("A");
  region("B");
  return db;
}

class IntegrationProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IntegrationProperty, Modularity) {
  // vol(A) + vol(B) == vol(A|B) + vol(A&B), end-to-end through the text
  // pipeline (parse -> inline -> QE -> cells -> exact volume).
  ConstraintDatabase db = random_db(GetParam());
  VolumeEngine vol(&db);
  auto va = *vol.volume("A(x, y)", {"x", "y"}).value_or_die().exact;
  auto vb = *vol.volume("B(x, y)", {"x", "y"}).value_or_die().exact;
  auto vu = *vol.volume("A(x, y) | B(x, y)", {"x", "y"})
                 .value_or_die()
                 .exact;
  auto vi = *vol.volume("A(x, y) & B(x, y)", {"x", "y"})
                 .value_or_die()
                 .exact;
  EXPECT_EQ(va + vb, vu + vi) << "seed " << GetParam();
}

TEST_P(IntegrationProperty, DifferenceDecomposition) {
  // vol(A) == vol(A & B) + vol(A & !B).
  ConstraintDatabase db = random_db(GetParam() ^ 0xAA);
  VolumeEngine vol(&db);
  auto va = *vol.volume("A(x, y)", {"x", "y"}).value_or_die().exact;
  auto vi = *vol.volume("A(x, y) & B(x, y)", {"x", "y"})
                 .value_or_die()
                 .exact;
  auto vd = *vol.volume("A(x, y) & !B(x, y)", {"x", "y"})
                 .value_or_die()
                 .exact;
  EXPECT_EQ(va, vi + vd) << "seed " << GetParam();
}

TEST_P(IntegrationProperty, AskConsistentWithVolume) {
  // The intersection is nonempty-with-interior iff its volume is > 0...
  // one direction always holds: positive volume implies a witness point.
  ConstraintDatabase db = random_db(GetParam() ^ 0xBB);
  QueryEngine q(&db);
  VolumeEngine vol(&db);
  auto vi = *vol.volume("A(x, y) & B(x, y)", {"x", "y"})
                 .value_or_die()
                 .exact;
  bool meets = q.ask(db.parse("E x. E y. A(x, y) & B(x, y)").value(), {})
                   .value_or_die();
  if (vi > Rational(0)) {
    EXPECT_TRUE(meets) << "seed " << GetParam();
  }
  if (!meets) {
    EXPECT_EQ(vi, Rational(0)) << "seed " << GetParam();
  }
}

TEST_P(IntegrationProperty, ProjectionConsistency) {
  // The x-extent of A computed by QE matches the 1-D measure of the
  // projection being at least as large as vol(A) / (y-extent).
  ConstraintDatabase db = random_db(GetParam() ^ 0xCC);
  QueryEngine q(&db);
  auto cells =
      q.cells(q.parse("E y. A(x, y)").value(), {"x"}, {}).value_or_die();
  Rational proj_len = semilinear_volume(cells).value_or_die();
  VolumeEngine vol(&db);
  auto va = *vol.volume("A(x, y)", {"x", "y"}).value_or_die().exact;
  // A is contained in proj x [0, 9], so vol(A) <= 9 * proj_len.
  EXPECT_LE(va, Rational(9) * proj_len) << "seed " << GetParam();
  if (va > Rational(0)) {
    EXPECT_GT(proj_len, Rational(0));
  }
}

TEST_P(IntegrationProperty, MonteCarloBracketsExact) {
  ConstraintDatabase db = random_db(GetParam() ^ 0xDD);
  VolumeEngine vol(&db);
  VolumeOptions clip;
  clip.clip_to_unit_box = true;
  auto exact =
      *vol.volume("A(x, y)", {"x", "y"}, clip).value_or_die().exact;
  Session session(&db, SessionOptions{.threads = 2});
  auto est = session.run(Request::volume("A(x, y)")
                             .vars({"x", "y"})
                             .strategy(VolumeStrategy::kMonteCarlo)
                             .epsilon(0.05)
                             .vc_dim(4.0)
                             .seed(GetParam()));
  ASSERT_TRUE(est.is_ok()) << est.status().to_string();
  EXPECT_NEAR(*est.value().volume.estimate, exact.to_double(), 0.05)
      << "seed " << GetParam();
}

TEST_P(IntegrationProperty, GroupByTotalsMatchUngrouped) {
  // Sum over groups == ungrouped sum.
  Xoshiro rng(GetParam() ^ 0xEE);
  ConstraintDatabase db;
  std::vector<std::vector<std::int64_t>> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({static_cast<std::int64_t>(rng.next() % 3),
                    static_cast<std::int64_t>(rng.next() % 100)});
  }
  CQA_CHECK(db.add_table("T", rows).is_ok());
  AggregationEngine agg(&db);
  auto grouped =
      agg.group_by(AggregateFn::kSum, "T(g, v)", "g", "v").value_or_die();
  Rational group_total;
  for (const auto& [g, s] : grouped) group_total += s;
  Rational flat =
      agg.aggregate(AggregateFn::kSum, db.parse("E g. T(g, v)").value(), "v")
          .value_or_die();
  // Distinct-value semantics: the flat SUM is over distinct v values; the
  // grouped sum counts v per group. They agree when no value collides
  // across or within groups; compare against a direct computation instead.
  Rational direct;
  {
    std::set<std::pair<std::int64_t, std::int64_t>> seen;
    for (const auto& r : rows) seen.insert({r[0], r[1]});
    for (const auto& [g, v] : seen) direct += Rational(v);
  }
  EXPECT_EQ(group_total, direct) << "seed " << GetParam();
  // And the flat distinct-value sum is bounded by the grouped total.
  EXPECT_LE(flat, group_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrationProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace cqa
