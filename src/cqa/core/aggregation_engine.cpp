#include "cqa/core/aggregation_engine.h"

namespace cqa {

Result<std::map<std::size_t, Rational>> AggregationEngine::bind(
    const std::vector<std::pair<std::string, Rational>>& bindings) const {
  std::map<std::size_t, Rational> out;
  for (const auto& [name, value] : bindings) {
    int idx = db_->vars().find(name);
    if (idx < 0) return Status::invalid("unknown variable: " + name);
    out[static_cast<std::size_t>(idx)] = value;
  }
  return out;
}

Result<Rational> AggregationEngine::aggregate(
    AggregateFn fn, const FormulaPtr& query, const std::string& output_var,
    const std::vector<std::pair<std::string, Rational>>& bindings) {
  const std::size_t var = db_->var(output_var);
  auto params = bind(bindings);
  if (!params.is_ok()) return params.status();
  switch (fn) {
    case AggregateFn::kCount:
      return agg_count(db_->db(), query, var, params.value());
    case AggregateFn::kSum:
      return agg_sum(db_->db(), query, var, params.value());
    case AggregateFn::kAvg:
      return agg_avg(db_->db(), query, var, params.value());
    case AggregateFn::kMin:
      return agg_min(db_->db(), query, var, params.value());
    case AggregateFn::kMax:
      return agg_max(db_->db(), query, var, params.value());
  }
  return Status::internal("unreachable");
}

Result<std::vector<std::pair<Rational, Rational>>>
AggregationEngine::group_by(
    AggregateFn fn, const std::string& query, const std::string& group_var,
    const std::string& output_var,
    const std::vector<std::pair<std::string, Rational>>& bindings) {
  auto parsed = db_->parse(query);
  if (!parsed.is_ok()) return parsed.status();
  const std::size_t gvar = db_->var(group_var);
  const std::size_t ovar = db_->var(output_var);
  auto params = bind(bindings);
  if (!params.is_ok()) return params.status();
  // Groups: the values of group_var in Exists output_var . query.
  FormulaPtr projected = Formula::exists(ovar, parsed.value());
  auto groups = saf_output(db_->db(), projected, gvar, params.value());
  if (!groups.is_ok()) return groups.status();
  std::vector<std::pair<Rational, Rational>> rows;
  for (const Rational& g : groups.value()) {
    std::map<std::size_t, Rational> inner = params.value();
    inner[gvar] = g;
    Result<Rational> v = Status::internal("unset");
    switch (fn) {
      case AggregateFn::kCount:
        v = agg_count(db_->db(), parsed.value(), ovar, inner);
        break;
      case AggregateFn::kSum:
        v = agg_sum(db_->db(), parsed.value(), ovar, inner);
        break;
      case AggregateFn::kAvg:
        v = agg_avg(db_->db(), parsed.value(), ovar, inner);
        break;
      case AggregateFn::kMin:
        v = agg_min(db_->db(), parsed.value(), ovar, inner);
        break;
      case AggregateFn::kMax:
        v = agg_max(db_->db(), parsed.value(), ovar, inner);
        break;
    }
    if (!v.is_ok()) return v.status();
    rows.emplace_back(g, v.value());
  }
  return rows;
}

Result<Rational> AggregationEngine::bag_aggregate(
    AggregateFn fn, const std::string& relation, std::size_t column,
    const std::string& filter_formula,
    const std::vector<std::string>& args) {
  FormulaPtr filter;
  if (!filter_formula.empty()) {
    // Parse in a local table mapping the argument names to slots 0..k-1.
    VarTable local;
    for (const auto& a : args) local.index_of(a);
    auto f = parse_formula(filter_formula, &local);
    if (!f.is_ok()) return f.status();
    for (std::size_t v : f.value()->free_vars()) {
      if (v >= args.size()) {
        return Status::invalid("bag filter uses a variable that is not an "
                               "argument: " +
                               local.name_of(v));
      }
    }
    filter = f.value();
  }
  switch (fn) {
    case AggregateFn::kCount:
      return bag_count(db_->db(), relation, column, filter);
    case AggregateFn::kSum:
      return bag_sum(db_->db(), relation, column, filter);
    case AggregateFn::kAvg:
      return bag_avg(db_->db(), relation, column, filter);
    case AggregateFn::kMin:
    case AggregateFn::kMax: {
      auto col = bag_column(db_->db(), relation, column, filter);
      if (!col.is_ok()) return col.status();
      if (col.value().empty()) {
        return Status::invalid("bag MIN/MAX of empty");
      }
      Rational best = col.value()[0];
      for (const auto& v : col.value()) {
        if (fn == AggregateFn::kMin ? v < best : v > best) best = v;
      }
      return best;
    }
  }
  return Status::internal("unreachable");
}

Result<std::vector<Rational>> AggregationEngine::output(
    const FormulaPtr& query, const std::string& output_var,
    const std::vector<std::pair<std::string, Rational>>& bindings) {
  const std::size_t var = db_->var(output_var);
  auto params = bind(bindings);
  if (!params.is_ok()) return params.status();
  return saf_output(db_->db(), query, var, params.value());
}

}  // namespace cqa
