#include "cqa/aggregate/database.h"

#include <algorithm>

#include "cqa/constraint/qe.h"
#include "cqa/logic/decide.h"
#include "cqa/logic/transform.h"

namespace cqa {

Status Database::add_finite(const std::string& name, std::size_t arity,
                            std::vector<RVec> tuples) {
  if (relations_.count(name)) {
    return Status::invalid("relation already exists: " + name);
  }
  for (const auto& t : tuples) {
    if (t.size() != arity) {
      return Status::invalid("tuple arity mismatch in relation " + name);
    }
  }
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  Relation r;
  r.arity = arity;
  r.finite = true;
  r.tuples = std::move(tuples);
  relations_.emplace(name, std::move(r));
  return Status::ok();
}

Status Database::add_finite_bag(const std::string& name, std::size_t arity,
                                std::vector<RVec> tuples) {
  if (relations_.count(name)) {
    return Status::invalid("relation already exists: " + name);
  }
  for (const auto& t : tuples) {
    if (t.size() != arity) {
      return Status::invalid("tuple arity mismatch in relation " + name);
    }
  }
  std::sort(tuples.begin(), tuples.end());
  Relation r;
  r.arity = arity;
  r.finite = true;
  r.bag = true;
  r.tuples = std::move(tuples);
  relations_.emplace(name, std::move(r));
  return Status::ok();
}

bool Database::is_bag(const std::string& name) const {
  auto r = find(name);
  return r.is_ok() && r.value()->bag;
}

Status Database::add_constraint_relation(const std::string& name,
                                         std::size_t arity,
                                         FormulaPtr definition) {
  if (relations_.count(name)) {
    return Status::invalid("relation already exists: " + name);
  }
  if (definition->has_predicates()) {
    return Status::invalid("f.r. definition must be predicate-free: " + name);
  }
  for (std::size_t v : definition->free_vars()) {
    if (v >= arity) {
      return Status::invalid("f.r. definition of " + name +
                             " uses variable beyond its arity");
    }
  }
  Relation r;
  r.arity = arity;
  r.finite = false;
  r.definition = std::move(definition);
  relations_.emplace(name, std::move(r));
  return Status::ok();
}

bool Database::has_relation(const std::string& name) const {
  return relations_.count(name) > 0;
}

Result<const Database::Relation*> Database::find(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::invalid("unknown relation: " + name);
  }
  return &it->second;
}

Result<std::size_t> Database::arity_of(const std::string& name) const {
  auto r = find(name);
  if (!r.is_ok()) return r.status();
  return r.value()->arity;
}

bool Database::is_finite(const std::string& name) const {
  auto r = find(name);
  return r.is_ok() && r.value()->finite;
}

Result<std::vector<RVec>> Database::tuples_of(const std::string& name) const {
  auto r = find(name);
  if (!r.is_ok()) return r.status();
  if (!r.value()->finite) {
    return Status::invalid("relation is finitely representable, not finite: " +
                           name);
  }
  return r.value()->tuples;
}

Result<FormulaPtr> Database::definition_of(const std::string& name) const {
  auto r = find(name);
  if (!r.is_ok()) return r.status();
  const Relation& rel = *r.value();
  if (!rel.finite) return rel.definition;
  // Finite relation as a disjunction of pointwise equalities.
  std::vector<FormulaPtr> rows;
  rows.reserve(rel.tuples.size());
  for (const auto& t : rel.tuples) {
    std::vector<FormulaPtr> eqs;
    eqs.reserve(rel.arity);
    for (std::size_t i = 0; i < rel.arity; ++i) {
      eqs.push_back(Formula::eq(Polynomial::variable(i),
                                Polynomial::constant(t[i])));
    }
    rows.push_back(Formula::f_and(std::move(eqs)));
  }
  return Formula::f_or(std::move(rows));
}

std::set<Rational> Database::active_domain() const {
  std::set<Rational> out;
  for (const auto& [name, rel] : relations_) {
    if (!rel.finite) continue;
    for (const auto& t : rel.tuples) {
      for (const auto& v : t) out.insert(v);
    }
  }
  return out;
}

bool Database::contains(const std::string& name, const RVec& tuple) const {
  auto r = find(name);
  if (!r.is_ok()) return false;
  const Relation& rel = *r.value();
  if (tuple.size() != rel.arity) return false;
  if (rel.finite) {
    return std::binary_search(rel.tuples.begin(), rel.tuples.end(), tuple);
  }
  std::map<std::size_t, Rational> assignment;
  for (std::size_t i = 0; i < tuple.size(); ++i) assignment.emplace(i, tuple[i]);
  auto h = holds(rel.definition, assignment);
  return h.is_ok() && h.value();
}

namespace {

// The schema predicates f mentions, each once.
void predicate_names(const FormulaPtr& f, std::set<std::string>* out) {
  if (f->kind() == Formula::Kind::kPredicate) out->insert(f->pred_name());
  for (const auto& c : f->children()) predicate_names(c, out);
}

}  // namespace

Result<FormulaPtr> Database::inline_predicates(const FormulaPtr& f) const {
  std::set<std::string> names;
  predicate_names(f, &names);
  // Definitions are predicate-free, so one pass per named relation
  // leaves none behind.
  FormulaPtr cur = f;
  for (const std::string& name : names) {
    auto def = definition_of(name);
    if (!def.is_ok()) {
      return Status::invalid("formula references an unknown relation");
    }
    cur = substitute_predicate(cur, name, arity_of(name).value(), def.value());
  }
  return cur;
}

Result<FormulaPtr> Database::expand_active_domain(const FormulaPtr& f) const {
  using Kind = Formula::Kind;
  switch (f->kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kAtom:
    case Kind::kPredicate:
      return f;
    case Kind::kNot: {
      auto sub = expand_active_domain(f->children()[0]);
      if (!sub.is_ok()) return sub;
      if (sub.value() == f->children()[0]) return f;
      return Formula::f_not(sub.value());
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<FormulaPtr> kids;
      bool changed = false;
      for (const auto& c : f->children()) {
        auto sub = expand_active_domain(c);
        if (!sub.is_ok()) return sub;
        changed = changed || sub.value() != c;
        kids.push_back(sub.value());
      }
      if (!changed) return f;
      return f->kind() == Kind::kAnd ? Formula::f_and(std::move(kids))
                                     : Formula::f_or(std::move(kids));
    }
    case Kind::kExists:
    case Kind::kForall: {
      auto body = expand_active_domain(f->children()[0]);
      if (!body.is_ok()) return body;
      if (!f->active_domain()) {
        if (body.value() == f->children()[0]) return f;
        return f->kind() == Kind::kExists
                   ? Formula::exists(f->var(), body.value())
                   : Formula::forall(f->var(), body.value());
      }
      // Active-domain quantifier: finite expansion over adom(D).
      std::vector<FormulaPtr> parts;
      for (const Rational& a : active_domain()) {
        parts.push_back(substitute_var(body.value(), f->var(), a));
      }
      return f->kind() == Kind::kExists ? Formula::f_or(std::move(parts))
                                        : Formula::f_and(std::move(parts));
    }
  }
  CQA_CHECK(false);
  return Status::internal("unreachable");
}

namespace {

// Decides a closed predicate-free formula by short-circuiting through its
// boolean structure: every subformula is itself closed, so quantified
// subtrees get their own (small) QE / decision calls instead of one
// monolithic DNF over the whole conjunction.
Result<bool> decide_closed(const FormulaPtr& g) {
  using Kind = Formula::Kind;
  switch (g->kind()) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kAtom:
      return eval_qf(g, {});
    case Kind::kPredicate:
      return Status::internal("decide_closed: predicate not inlined");
    case Kind::kNot: {
      auto r = decide_closed(g->children()[0]);
      if (!r.is_ok()) return r;
      return !r.value();
    }
    case Kind::kAnd: {
      for (const auto& c : g->children()) {
        auto r = decide_closed(c);
        if (!r.is_ok()) return r;
        if (!r.value()) return false;
      }
      return true;
    }
    case Kind::kOr: {
      for (const auto& c : g->children()) {
        auto r = decide_closed(c);
        if (!r.is_ok()) return r;
        if (r.value()) return true;
      }
      return false;
    }
    case Kind::kExists:
    case Kind::kForall: {
      if (g->is_linear()) return qe_decide_sentence(g);
      return decide_sentence(g);
    }
  }
  CQA_CHECK(false);
  return Status::internal("unreachable");
}

}  // namespace

Result<FormulaPtr> Database::expand_and_inline(const FormulaPtr& f) const {
  auto expanded = expand_active_domain(f);
  if (!expanded.is_ok()) return expanded;
  return inline_predicates(expanded.value());
}

Database::Compiled Database::compile(const FormulaPtr& f) const {
  Compiled c;
  c.source = f;
  auto inlined = expand_and_inline(f);
  if (inlined.is_ok() && inlined.value()->is_linear()) {
    auto r = qe_linear(inlined.value());
    if (r.is_ok()) c.qf = r.value();
  }
  return c;
}

Result<bool> Database::holds(
    const Compiled& f,
    const std::map<std::size_t, Rational>& assignment) const {
  if (f.qf != nullptr) {
    const int mv = f.qf->max_var();
    RVec point(static_cast<std::size_t>(mv + 1));
    for (std::size_t v : f.qf->free_vars()) {
      auto a = assignment.find(v);
      if (a == assignment.end()) {
        return Status::invalid("holds: unassigned free variable x" +
                               std::to_string(v));
      }
      point[v] = a->second;
    }
    return eval_qf(f.qf, point);
  }

  // General path: substitute the assignment first -- this often
  // linearizes atoms (e.g. the convexity/adjacency tests of the Section-5
  // program become linear in the remaining quantified variables) -- then
  // decide the closed result with boolean short-circuiting.
  std::map<std::size_t, Polynomial> sub;
  for (const auto& [v, val] : assignment) {
    sub.emplace(v, Polynomial::constant(val));
  }
  auto inlined = expand_and_inline(substitute_vars(f.source, sub));
  if (!inlined.is_ok()) return inlined.status();
  const FormulaPtr& g = inlined.value();
  if (!g->free_vars().empty()) {
    return Status::invalid("holds: unassigned free variable");
  }
  return decide_closed(g);
}

}  // namespace cqa
