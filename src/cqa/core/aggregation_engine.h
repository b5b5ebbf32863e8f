// Classical aggregation over constraint databases: the FO+POLY+SUM user
// surface. Aggregates apply only to safe (finite-output) queries --
// Section 5's range-restriction discipline.

#ifndef CQA_CORE_AGGREGATION_ENGINE_H_
#define CQA_CORE_AGGREGATION_ENGINE_H_

#include <string>
#include <vector>

#include "cqa/aggregate/polygon_area.h"
#include "cqa/aggregate/sql_aggregates.h"
#include "cqa/core/constraint_database.h"

namespace cqa {

/// Supported aggregate functions.
enum class AggregateFn { kCount, kSum, kAvg, kMin, kMax };

/// Aggregation façade.
class AggregationEngine {
 public:
  explicit AggregationEngine(const ConstraintDatabase* db) : db_(db) {}

  /// Applies the aggregate to { value of `output_var` : query holds }.
  /// The query's output set must be finite (safe); every other free
  /// variable must be bound in `bindings`.
  Result<Rational> aggregate(AggregateFn fn, const FormulaPtr& query,
                             const std::string& output_var,
                             const std::vector<std::pair<std::string,
                                                         Rational>>&
                                 bindings = {});

  /// The finite output itself (sorted).
  Result<std::vector<Rational>> output(const FormulaPtr& query,
                                       const std::string& output_var,
                                       const std::vector<std::pair<
                                           std::string, Rational>>&
                                           bindings = {});

  /// GROUP BY -- the grouping construct the paper's conclusion asks for.
  /// Groups are the (finite, safe) values of `group_var` in the query's
  /// projection; within each group the aggregate applies to `output_var`.
  /// Result rows are (group value, aggregate value), sorted by group.
  /// SQL:  SELECT g, FN(v) FROM query GROUP BY g.
  Result<std::vector<std::pair<Rational, Rational>>> group_by(
      AggregateFn fn, const std::string& query,
      const std::string& group_var, const std::string& output_var,
      const std::vector<std::pair<std::string, Rational>>& bindings = {});

  /// Bag-semantics aggregation over one column of a finite relation, with
  /// an optional SQL-WHERE filter over the tuple slots named `args`.
  Result<Rational> bag_aggregate(AggregateFn fn, const std::string& relation,
                                 std::size_t column,
                                 const std::string& filter_formula = "",
                                 const std::vector<std::string>& args = {});

  /// The Section-5 program: exact area of a convex polygon relation,
  /// computed inside FO+POLY+SUM.
  Result<Rational> polygon_area_in_language(const std::string& relation) {
    return convex_polygon_area_in_language(db_->db(), relation);
  }
  /// Its geometric oracle.
  Result<Rational> polygon_area_geometric(const std::string& relation) {
    return convex_polygon_area_geometric(db_->db(), relation);
  }

 private:
  Result<std::map<std::size_t, Rational>> bind(
      const std::vector<std::pair<std::string, Rational>>& bindings) const;

  const ConstraintDatabase* db_;
};

}  // namespace cqa

#endif  // CQA_CORE_AGGREGATION_ENGINE_H_
