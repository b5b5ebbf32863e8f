#include "cqa/core/constraint_database.h"

namespace cqa {

Status ConstraintDatabase::add_table(const std::string& name,
                                     std::vector<RVec> tuples) {
  std::size_t arity = tuples.empty() ? 1 : tuples[0].size();
  return db_.add_finite(name, arity, std::move(tuples));
}

Status ConstraintDatabase::add_table(
    const std::string& name,
    const std::vector<std::vector<std::int64_t>>& tuples) {
  std::vector<RVec> rows;
  rows.reserve(tuples.size());
  for (const auto& t : tuples) {
    RVec row;
    row.reserve(t.size());
    for (auto v : t) row.emplace_back(v);
    rows.push_back(std::move(row));
  }
  return add_table(name, std::move(rows));
}

Status ConstraintDatabase::add_bag_table(const std::string& name,
                                         std::vector<RVec> tuples) {
  std::size_t arity = tuples.empty() ? 1 : tuples[0].size();
  return db_.add_finite_bag(name, arity, std::move(tuples));
}

Status ConstraintDatabase::add_bag_table(
    const std::string& name,
    const std::vector<std::vector<std::int64_t>>& tuples) {
  std::vector<RVec> rows;
  rows.reserve(tuples.size());
  for (const auto& t : tuples) {
    RVec row;
    row.reserve(t.size());
    for (auto v : t) row.emplace_back(v);
    rows.push_back(std::move(row));
  }
  return add_bag_table(name, std::move(rows));
}

Status ConstraintDatabase::add_region(const std::string& name,
                                      const std::vector<std::string>& args,
                                      const std::string& formula) {
  // Parse in a fresh table where the argument names take slots 0..k-1.
  VarTable local;
  for (const auto& a : args) local.index_of(a);
  auto f = parse_formula(formula, &local);
  if (!f.is_ok()) return f.status();
  for (std::size_t v : f.value()->free_vars()) {
    if (v >= args.size()) {
      return Status::invalid("region " + name + " uses variable '" +
                             local.name_of(v) +
                             "' that is not an argument");
    }
  }
  return db_.add_constraint_relation(name, args.size(), f.value());
}

Result<FormulaPtr> ConstraintDatabase::parse(const std::string& text) const {
  return parse_formula(text, &vars_);
}

Result<bool> ConstraintDatabase::holds(
    const FormulaPtr& f,
    const std::vector<std::pair<std::string, Rational>>& bindings) const {
  std::map<std::size_t, Rational> assignment;
  for (const auto& [name, value] : bindings) {
    int idx = vars_.find(name);
    if (idx < 0) {
      return Status::invalid("unknown variable in binding: " + name);
    }
    assignment[static_cast<std::size_t>(idx)] = value;
  }
  return db_.holds(f, assignment);
}

}  // namespace cqa
