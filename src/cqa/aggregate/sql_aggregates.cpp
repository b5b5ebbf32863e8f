#include "cqa/aggregate/sql_aggregates.h"

#include <algorithm>

#include "cqa/aggregate/endpoints.h"

namespace cqa {

Result<std::vector<Rational>> saf_output(
    const Database& db, const FormulaPtr& phi, std::size_t var,
    const std::map<std::size_t, Rational>& params) {
  auto decomp = decompose_1d(db, phi, var, params);
  if (!decomp.is_ok()) return decomp.status();
  std::vector<Rational> out;
  for (const auto& iv : decomp.value()) {
    if (iv.lo_infinite || iv.hi_infinite || iv.lo.cmp(iv.hi) != 0) {
      return Status::invalid(
          "query output is infinite: aggregation is unsafe (not SAF)");
    }
    if (!iv.lo.is_rational() && !iv.lo.try_make_rational()) {
      return Status::unsupported("query output has an irrational value");
    }
    out.push_back(iv.lo.rational_value());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<Rational> agg_count(const Database& db, const FormulaPtr& phi,
                           std::size_t var,
                           const std::map<std::size_t, Rational>& params) {
  auto out = saf_output(db, phi, var, params);
  if (!out.is_ok()) return out.status();
  return Rational(static_cast<std::int64_t>(out.value().size()));
}

Result<Rational> agg_sum(const Database& db, const FormulaPtr& phi,
                         std::size_t var,
                         const std::map<std::size_t, Rational>& params) {
  auto out = saf_output(db, phi, var, params);
  if (!out.is_ok()) return out.status();
  Rational total;
  for (const auto& v : out.value()) total += v;
  return total;
}

Result<Rational> agg_avg(const Database& db, const FormulaPtr& phi,
                         std::size_t var,
                         const std::map<std::size_t, Rational>& params) {
  auto out = saf_output(db, phi, var, params);
  if (!out.is_ok()) return out.status();
  if (out.value().empty()) {
    return Status::invalid("AVG of an empty output");
  }
  Rational total;
  for (const auto& v : out.value()) total += v;
  return total / Rational(static_cast<std::int64_t>(out.value().size()));
}

Result<Rational> agg_min(const Database& db, const FormulaPtr& phi,
                         std::size_t var,
                         const std::map<std::size_t, Rational>& params) {
  auto out = saf_output(db, phi, var, params);
  if (!out.is_ok()) return out.status();
  if (out.value().empty()) return Status::invalid("MIN of an empty output");
  return out.value().front();
}

Result<Rational> agg_max(const Database& db, const FormulaPtr& phi,
                         std::size_t var,
                         const std::map<std::size_t, Rational>& params) {
  auto out = saf_output(db, phi, var, params);
  if (!out.is_ok()) return out.status();
  if (out.value().empty()) return Status::invalid("MAX of an empty output");
  return out.value().back();
}

Result<std::vector<Rational>> bag_column(const Database& db,
                                         const std::string& relation,
                                         std::size_t column,
                                         const FormulaPtr& filter) {
  auto tuples = db.tuples_of(relation);
  if (!tuples.is_ok()) return tuples.status();
  auto arity = db.arity_of(relation);
  if (!arity.is_ok()) return arity.status();
  if (column >= arity.value()) {
    return Status::invalid("bag aggregate column out of range");
  }
  const Database::Compiled keep_if =
      filter != nullptr ? db.compile(filter) : Database::Compiled{};
  std::vector<Rational> out;
  for (const RVec& t : tuples.value()) {
    if (filter != nullptr) {
      std::map<std::size_t, Rational> assignment;
      for (std::size_t i = 0; i < t.size(); ++i) assignment[i] = t[i];
      auto keep = db.holds(keep_if, assignment);
      if (!keep.is_ok()) return keep.status();
      if (!keep.value()) continue;
    }
    out.push_back(t[column]);
  }
  return out;
}

Result<Rational> bag_count(const Database& db, const std::string& relation,
                           std::size_t column, const FormulaPtr& filter) {
  auto col = bag_column(db, relation, column, filter);
  if (!col.is_ok()) return col.status();
  return Rational(static_cast<std::int64_t>(col.value().size()));
}

Result<Rational> bag_sum(const Database& db, const std::string& relation,
                         std::size_t column, const FormulaPtr& filter) {
  auto col = bag_column(db, relation, column, filter);
  if (!col.is_ok()) return col.status();
  Rational total;
  for (const auto& v : col.value()) total += v;
  return total;
}

Result<Rational> bag_avg(const Database& db, const std::string& relation,
                         std::size_t column, const FormulaPtr& filter) {
  auto col = bag_column(db, relation, column, filter);
  if (!col.is_ok()) return col.status();
  if (col.value().empty()) return Status::invalid("bag AVG of empty");
  Rational total;
  for (const auto& v : col.value()) total += v;
  return total / Rational(static_cast<std::int64_t>(col.value().size()));
}

}  // namespace cqa
