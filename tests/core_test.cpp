#include <gtest/gtest.h>

#include "cqa/approx/ellipsoid.h"
#include "cqa/approx/gadgets.h"
#include "cqa/core/aggregation_engine.h"
#include "cqa/core/constraint_database.h"
#include "cqa/core/query_engine.h"
#include "cqa/core/volume_engine.h"
#include "cqa/geometry/polytope_volume.h"
#include "cqa/runtime/session.h"

namespace cqa {
namespace {

ConstraintDatabase make_gis_db() {
  ConstraintDatabase db;
  CQA_CHECK(db.add_region("Parcel", {"x", "y"},
                          "0 <= x & x <= 2 & 0 <= y & y <= 1")
                .is_ok());
  CQA_CHECK(db.add_region("Lake", {"x", "y"},
                          "1 <= x & x <= 3 & 0 <= y & y <= 1/2")
                .is_ok());
  CQA_CHECK(db.add_table("Reading",
                         std::vector<std::vector<std::int64_t>>{
                             {1, 10}, {2, 20}, {3, 30}})
                .is_ok());
  return db;
}

TEST(ConstraintDatabase, RegionsAndTables) {
  ConstraintDatabase db = make_gis_db();
  EXPECT_TRUE(db.contains("Parcel", {Rational(1), Rational(1, 2)}));
  EXPECT_FALSE(db.contains("Parcel", {Rational(3), Rational(0)}));
  EXPECT_TRUE(db.contains("Reading", {Rational(2), Rational(20)}));
  // Region with a stray variable is rejected.
  ConstraintDatabase bad;
  EXPECT_FALSE(bad.add_region("R", {"x"}, "x < y").is_ok());
}

TEST(ConstraintDatabase, HoldsWithNamedBindings) {
  ConstraintDatabase db = make_gis_db();
  auto f = db.parse("Parcel(px, py) & Lake(px, py)").value_or_die();
  EXPECT_TRUE(db.holds(f, {{"px", Rational(3, 2)}, {"py", Rational(1, 4)}})
                  .value_or_die());
  EXPECT_FALSE(db.holds(f, {{"px", Rational(1, 2)}, {"py", Rational(1, 4)}})
                   .value_or_die());
}

TEST(QueryEngine, CellsAndClosure) {
  ConstraintDatabase db = make_gis_db();
  QueryEngine q(&db);
  // Wet parcel area: intersection of the two regions.
  auto cells =
      q.cells(q.parse("Parcel(x, y) & Lake(x, y)").value(), {"x", "y"}, {})
          .value_or_die();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(polytope_volume(Polyhedron(cells[0])).value_or_die(),
            Rational(1, 2));
}

TEST(QueryEngine, QuantifiedQuery) {
  ConstraintDatabase db = make_gis_db();
  QueryEngine q(&db);
  // x-coordinates over which the parcel has some lake coverage.
  auto cells =
      q.cells(q.parse("E y. Parcel(x, y) & Lake(x, y)").value(), {"x"}, {})
          .value_or_die();
  ASSERT_GE(cells.size(), 1u);
  AxisInterval iv = cells[0].project_to_axis(0);
  EXPECT_EQ(*iv.lo, Rational(1));
  EXPECT_EQ(*iv.hi, Rational(2));
}

TEST(QueryEngine, Ask) {
  ConstraintDatabase db = make_gis_db();
  QueryEngine q(&db);
  auto ask = [&](const char* sentence) {
    return q.ask(db.parse(sentence).value(), {});
  };
  EXPECT_TRUE(ask("E x. E y. Parcel(x, y) & Lake(x, y)").value_or_die());
  EXPECT_FALSE(ask("E x. E y. Parcel(x, y) & x > 5").value_or_die());
  EXPECT_FALSE(ask("Parcel(x, 0)").is_ok());  // free variable
}

TEST(QueryEngine, RewriteIsQuantifierFree) {
  ConstraintDatabase db = make_gis_db();
  QueryEngine q(&db);
  auto f = q.rewrite("E y. Parcel(x, y)", {}).value_or_die();
  EXPECT_TRUE(f->is_quantifier_free());
  EXPECT_FALSE(f->has_predicates());
}

TEST(VolumeEngine, ExactStrategiesAgree) {
  ConstraintDatabase db = make_gis_db();
  VolumeEngine v(&db);
  const std::string q = "Parcel(x, y) | Lake(x, y)";
  // 2 + 1 - 0.5 = 2.5.
  VolumeOptions incl;
  incl.strategy = VolumeStrategy::kInclusionExclusion;
  auto sweep = v.volume(q, {"x", "y"}).value_or_die();
  auto ie = v.volume(q, {"x", "y"}, incl).value_or_die();
  EXPECT_EQ(*sweep.exact, Rational(5, 2));
  EXPECT_EQ(*ie.exact, Rational(5, 2));
}

TEST(VolumeEngine, MonteCarloWithinEpsilon) {
  // VolumeEngine refuses Monte-Carlo: Theorem-4 sampling runs through
  // Session, whose pinned answer lands within epsilon of pi/4.
  ConstraintDatabase db;
  VolumeEngine v(&db);
  VolumeOptions mc;
  mc.strategy = VolumeStrategy::kMonteCarlo;
  auto refused = v.volume("x^2 + y^2 <= 1", {"x", "y"}, mc);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  Session session(&db, SessionOptions{.threads = 2});
  auto r = session.run(Request::volume("x^2 + y^2 <= 1")
                           .vars({"x", "y"})
                           .strategy(VolumeStrategy::kMonteCarlo)
                           .epsilon(0.04)
                           .vc_dim(3.0));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const VolumeAnswer& a = r.value().volume;
  EXPECT_NEAR(*a.estimate, 0.7853, 0.04);
  EXPECT_LT(*a.lower, *a.estimate);
  EXPECT_GT(*a.upper, *a.estimate);
}

TEST(VolumeEngine, MonteCarloOnUnknownRelationIsAnError) {
  // Monte-Carlo inlines through the rewrite pipeline, so an unknown
  // relation is a typed error, not an abort.
  ConstraintDatabase db;
  Session session(&db, SessionOptions{.threads = 2});
  auto a = session.run(Request::volume("Foo(x, y)")
                           .vars({"x", "y"})
                           .strategy(VolumeStrategy::kMonteCarlo));
  ASSERT_FALSE(a.is_ok());
  EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
}

// The Lowner-John bounds and Proposition 4's operator are paper
// baselines outside the serving ladder: they run directly on the cells
// the engine's query pipeline produces.
std::vector<LinearCell> gis_cells(const ConstraintDatabase& db,
                                  const std::string& query) {
  QueryEngine q(&db);
  return q.cells(q.parse(query).value_or_die(), {"x", "y"}, {})
      .value_or_die();
}

TEST(VolumeEngine, EllipsoidBoundsSandwich) {
  ConstraintDatabase db = make_gis_db();
  auto cells = gis_cells(db, "Parcel(x, y)");
  ASSERT_EQ(cells.size(), 1u);
  auto a = john_volume_bounds(Polyhedron(cells[0])).value_or_die();
  EXPECT_LE(a.lower, 2.001);
  EXPECT_GE(a.upper, 1.999);
}

TEST(VolumeEngine, TrivialHalf) {
  ConstraintDatabase db = make_gis_db();
  auto trivial = [&](const std::string& query) {
    return trivial_half_approximation(gis_cells(db, query), 2)
        .value_or_die();
  };
  // Parcel fills the whole unit box, so the operator detects volume 1.
  EXPECT_EQ(trivial("Parcel(x, y)"), Rational(1));
  // A set with fractional VOL_I gets the 1/2 answer.
  EXPECT_EQ(trivial("Parcel(x, y) & x <= 1/3"), Rational(1, 2));
  // Measure-zero intersection with the unit box gets 0.
  EXPECT_EQ(trivial("Lake(x, y) & Parcel(x, y)"), Rational(0));
  // The engine serves exact strategies only.
  VolumeEngine v(&db);
  VolumeOptions t;
  t.strategy = VolumeStrategy::kTrivialHalf;
  EXPECT_EQ(v.volume("Parcel(x, y)", {"x", "y"}, t).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(VolumeEngine, ClipToUnitBox) {
  ConstraintDatabase db = make_gis_db();
  VolumeEngine v(&db);
  VolumeOptions opt;
  opt.clip_to_unit_box = true;
  auto a = v.volume("Parcel(x, y)", {"x", "y"}, opt).value_or_die();
  EXPECT_EQ(*a.exact, Rational(1));
}

TEST(VolumeEngine, MuAndGrowth) {
  ConstraintDatabase db;
  CQA_CHECK(db.add_region("Cone", {"x", "y"}, "0 <= y & y <= x").is_ok());
  CQA_CHECK(db.add_region("Box", {"x", "y"},
                          "0 <= x & x <= 1 & 0 <= y & y <= 1")
                .is_ok());
  VolumeEngine v(&db);
  auto mu = [&](const char* query) {
    return v.mu(v.queries().parse(query).value(), {"x", "y"}, {});
  };
  EXPECT_EQ(mu("Cone(x, y)").value_or_die(), Rational(1, 8));
  EXPECT_EQ(mu("Box(x, y)").value_or_die(), Rational(0));
  UPoly g = v.growth_polynomial(v.queries().parse("Cone(x, y)").value(),
                                {"x", "y"}, {})
                .value_or_die();
  EXPECT_EQ(g.degree(), 2);
  EXPECT_EQ(g.coeff(2), Rational(1, 2));
  // mu distributes through queries: the union of the cone with a bounded
  // set has the same mu.
  EXPECT_EQ(mu("Cone(x, y) | Box(x, y)").value_or_die(),
            Rational(1, 8));
}

TEST(AggregationEngine, SqlOverTable) {
  ConstraintDatabase db = make_gis_db();
  AggregationEngine agg(&db);
  // Values v with Reading(k, v) for some k <= 2.
  const FormulaPtr q = db.parse("E k. Reading(k, v) & k <= 2").value();
  EXPECT_EQ(agg.aggregate(AggregateFn::kCount, q, "v").value_or_die(),
            Rational(2));
  EXPECT_EQ(agg.aggregate(AggregateFn::kSum, q, "v").value_or_die(),
            Rational(30));
  EXPECT_EQ(agg.aggregate(AggregateFn::kAvg, q, "v").value_or_die(),
            Rational(15));
  EXPECT_EQ(agg.aggregate(AggregateFn::kMax, q, "v").value_or_die(),
            Rational(20));
  auto vals = agg.output(q, "v").value_or_die();
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], Rational(10));
}

TEST(AggregationEngine, UnsafeRejected) {
  ConstraintDatabase db = make_gis_db();
  AggregationEngine agg(&db);
  // Infinite output: all x inside the parcel at y=0.
  const FormulaPtr q = db.parse("Parcel(w, 0)").value();
  EXPECT_FALSE(agg.aggregate(AggregateFn::kSum, q, "w").is_ok());
}

TEST(AggregationEngine, PolygonAreaBothWays) {
  ConstraintDatabase db;
  CQA_CHECK(db.add_region("Plot", {"x", "y"},
                          "0 <= x & 0 <= y & x + y <= 2")
                .is_ok());
  AggregationEngine agg(&db);
  EXPECT_EQ(agg.polygon_area_geometric("Plot").value_or_die(), Rational(2));
  EXPECT_EQ(agg.polygon_area_in_language("Plot").value_or_die(),
            Rational(2));
}

}  // namespace
}  // namespace cqa
