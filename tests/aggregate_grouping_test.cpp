// Tests for the grouping construct and bag semantics (the paper's
// conclusion asks for grouping; footnote 2 notes SQL AVG is bag-based).

#include <gtest/gtest.h>

#include "cqa/core/aggregation_engine.h"
#include "cqa/core/constraint_database.h"

namespace cqa {
namespace {

ConstraintDatabase make_sales_db() {
  ConstraintDatabase db;
  // Sale(region, amount).
  CQA_CHECK(db.add_table("Sale", std::vector<std::vector<std::int64_t>>{
                                     {1, 100},
                                     {1, 200},
                                     {2, 50},
                                     {2, 150},
                                     {2, 250},
                                     {3, 999}})
                .is_ok());
  return db;
}

TEST(GroupBy, SumPerGroup) {
  ConstraintDatabase db = make_sales_db();
  AggregationEngine agg(&db);
  auto rows = agg.group_by(AggregateFn::kSum, "Sale(g, v)", "g", "v")
                  .value_or_die();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], std::make_pair(Rational(1), Rational(300)));
  EXPECT_EQ(rows[1], std::make_pair(Rational(2), Rational(450)));
  EXPECT_EQ(rows[2], std::make_pair(Rational(3), Rational(999)));
}

TEST(GroupBy, CountAvgMinMax) {
  ConstraintDatabase db = make_sales_db();
  AggregationEngine agg(&db);
  auto counts = agg.group_by(AggregateFn::kCount, "Sale(g, v)", "g", "v")
                    .value_or_die();
  EXPECT_EQ(counts[0].second, Rational(2));
  EXPECT_EQ(counts[1].second, Rational(3));
  auto avgs = agg.group_by(AggregateFn::kAvg, "Sale(g, v)", "g", "v")
                  .value_or_die();
  EXPECT_EQ(avgs[0].second, Rational(150));
  EXPECT_EQ(avgs[1].second, Rational(150));
  auto mins = agg.group_by(AggregateFn::kMin, "Sale(g, v)", "g", "v")
                  .value_or_die();
  EXPECT_EQ(mins[1].second, Rational(50));
  auto maxs = agg.group_by(AggregateFn::kMax, "Sale(g, v)", "g", "v")
                  .value_or_die();
  EXPECT_EQ(maxs[2].second, Rational(999));
}

TEST(GroupBy, WithSelectionPredicate) {
  ConstraintDatabase db = make_sales_db();
  AggregationEngine agg(&db);
  // Only large sales.
  auto rows =
      agg.group_by(AggregateFn::kCount, "Sale(g, v) & v >= 150", "g", "v")
          .value_or_die();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].second, Rational(1));
  EXPECT_EQ(rows[1].second, Rational(2));
  EXPECT_EQ(rows[2].second, Rational(1));
}

TEST(GroupBy, GroupsOverConstraintRelationRejectedWhenInfinite) {
  ConstraintDatabase db;
  CQA_CHECK(db.add_region("Strip", {"x", "y"},
                          "0 <= x & x <= 1 & 0 <= y & y <= 1")
                .is_ok());
  AggregationEngine agg(&db);
  // Infinitely many groups: must be refused.
  EXPECT_FALSE(
      agg.group_by(AggregateFn::kCount, "Strip(g, v)", "g", "v").is_ok());
}

TEST(GroupBy, EmptyQueryGivesNoRows) {
  ConstraintDatabase db = make_sales_db();
  AggregationEngine agg(&db);
  auto rows =
      agg.group_by(AggregateFn::kSum, "Sale(g, v) & v > 10000", "g", "v")
          .value_or_die();
  EXPECT_TRUE(rows.empty());
}

TEST(BagSemantics, DuplicatesSurvive) {
  ConstraintDatabase db;
  CQA_CHECK(db.add_bag_table("M", std::vector<std::vector<std::int64_t>>{
                                      {5}, {5}, {7}})
                .is_ok());
  EXPECT_TRUE(db.db().is_bag("M"));
  EXPECT_EQ(db.db().tuples_of("M").value_or_die().size(), 3u);
  AggregationEngine agg(&db);
  EXPECT_EQ(agg.bag_aggregate(AggregateFn::kCount, "M", 0).value_or_die(),
            Rational(3));
  EXPECT_EQ(agg.bag_aggregate(AggregateFn::kSum, "M", 0).value_or_die(),
            Rational(17));
  EXPECT_EQ(agg.bag_aggregate(AggregateFn::kAvg, "M", 0).value_or_die(),
            Rational(17, 3));
}

TEST(BagSemantics, SetVsBagAvgDiffer) {
  // The paper's footnote: bag AVG weights duplicates; set AVG does not.
  ConstraintDatabase db;
  CQA_CHECK(db.add_bag_table("B", std::vector<std::vector<std::int64_t>>{
                                      {0}, {0}, {0}, {10}})
                .is_ok());
  AggregationEngine agg(&db);
  Rational bag = agg.bag_aggregate(AggregateFn::kAvg, "B", 0).value_or_die();
  EXPECT_EQ(bag, Rational(10, 4));
  // Set-semantics AVG over the same relation's *distinct* values.
  Rational set_avg =
      agg.aggregate(AggregateFn::kAvg, db.parse("B(v)").value(), "v")
          .value_or_die();
  EXPECT_EQ(set_avg, Rational(5));
}

TEST(BagSemantics, FilteredAggregation) {
  ConstraintDatabase db;
  CQA_CHECK(db.add_bag_table("Sale", std::vector<std::vector<std::int64_t>>{
                                         {1, 100}, {1, 100}, {2, 300}})
                .is_ok());
  AggregationEngine agg(&db);
  // SUM(amount) WHERE region = 1 -- duplicates counted twice.
  Rational s = agg.bag_aggregate(AggregateFn::kSum, "Sale", 1, "r = 1",
                                 {"r", "a"})
                   .value_or_die();
  EXPECT_EQ(s, Rational(200));
  EXPECT_EQ(agg.bag_aggregate(AggregateFn::kMax, "Sale", 1).value_or_die(),
            Rational(300));
  EXPECT_EQ(agg.bag_aggregate(AggregateFn::kMin, "Sale", 1).value_or_die(),
            Rational(100));
  // Filter with a stray variable is rejected.
  EXPECT_FALSE(agg.bag_aggregate(AggregateFn::kSum, "Sale", 1, "r = q",
                                 {"r", "a"})
                   .is_ok());
}

TEST(BagSemantics, MembershipIgnoresMultiplicity) {
  ConstraintDatabase db;
  CQA_CHECK(db.add_bag_table("M", std::vector<std::vector<std::int64_t>>{
                                      {5}, {5}})
                .is_ok());
  EXPECT_TRUE(db.contains("M", {Rational(5)}));
  EXPECT_FALSE(db.contains("M", {Rational(6)}));
}

}  // namespace
}  // namespace cqa
