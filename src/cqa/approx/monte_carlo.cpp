#include "cqa/approx/monte_carlo.h"

#include <algorithm>

#include "cqa/aggregate/sql_aggregates.h"
#include "cqa/logic/transform.h"

namespace cqa {

Result<std::size_t> mc_count_hits(
    const FormulaPtr& inlined, const std::vector<std::size_t>& element_vars,
    const std::map<std::size_t, Rational>& params,
    const std::vector<double>* points, std::size_t count,
    const CancelToken* cancel) {
  if (!inlined->is_quantifier_free()) {
    return Status::unsupported(
        "Monte-Carlo membership requires a quantifier-free query "
        "(run linear QE first)");
  }
  int mv = inlined->max_var();
  for (std::size_t v : element_vars) {
    mv = std::max(mv, static_cast<int>(v));
  }
  std::vector<double> point(static_cast<std::size_t>(mv + 1), 0.0);
  for (const auto& [v, val] : params) {
    if (v >= point.size()) {
      return Status::invalid("mc membership: parameter index x" +
                             std::to_string(v) +
                             " outside the formula's variable range");
    }
    point[v] = val.to_double();
  }
  std::size_t hits = 0;
  for (std::size_t p = 0; p < count; ++p) {
    if (cancel != nullptr && p % kCancelPollStride == 0) {
      CQA_RETURN_IF_ERROR(cancel->check());
    }
    const std::vector<double>& y = points[p];
    for (std::size_t i = 0; i < element_vars.size(); ++i) {
      point[element_vars[i]] = y[i];
    }
    auto r = eval_qf_double(inlined, point);
    if (!r.is_ok()) return r.status();
    if (r.value()) ++hits;
  }
  return hits;
}

Result<Rational> mc_volume_in_language(
    Database* db, const FormulaPtr& phi,
    const std::vector<std::size_t>& element_vars,
    const std::map<std::size_t, Rational>& params, std::size_t sample_size,
    std::uint64_t seed) {
  const std::size_t m = element_vars.size();
  if (m == 0 || sample_size == 0) {
    return Status::invalid("mc_volume_in_language: empty sample or tuple");
  }
  // W: draw the M-sample and materialize it as a finite relation whose
  // coordinates are the exact dyadic rationals of the drawn doubles.
  WitnessOperator w(seed);
  std::vector<RVec> tuples;
  tuples.reserve(sample_size);
  for (std::size_t i = 0; i < sample_size; ++i) {
    std::vector<double> pt = w.draw(m);
    RVec row;
    row.reserve(m);
    for (double x : pt) {
      auto q = Rational::from_double(x);
      if (!q.is_ok()) return q.status();
      row.push_back(std::move(q).take());
    }
    tuples.push_back(std::move(row));
  }
  std::string name = "McSample";
  for (int suffix = 0; db->has_relation(name); ++suffix) {
    name = "McSample" + std::to_string(suffix);
  }
  CQA_RETURN_IF_ERROR(db->add_finite(name, m, std::move(tuples)));

  // The count is the language's own safe aggregation: COUNT over the
  // sample relation filtered by phi (parameters substituted, element
  // variables remapped onto the relation's slots).
  std::map<std::size_t, Polynomial> sub;
  for (const auto& [v, val] : params) {
    sub.emplace(v, Polynomial::constant(val));
  }
  FormulaPtr grounded = substitute_vars(phi, sub);
  std::map<std::size_t, Polynomial> remap;
  for (std::size_t i = 0; i < m; ++i) {
    remap.emplace(element_vars[i], Polynomial::variable(i));
  }
  FormulaPtr filter = substitute_vars(grounded, remap);
  for (std::size_t v : filter->free_vars()) {
    if (v >= m) {
      return Status::invalid(
          "mc_volume_in_language: unassigned free variable x" +
          std::to_string(v));
    }
  }
  auto hits = bag_count(*db, name, 0, filter);
  if (!hits.is_ok()) return hits.status();
  return hits.value() / Rational(static_cast<std::int64_t>(sample_size));
}

}  // namespace cqa
