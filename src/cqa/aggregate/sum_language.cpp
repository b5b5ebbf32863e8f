#include "cqa/aggregate/sum_language.h"

#include <algorithm>

namespace cqa {

Result<std::optional<Rational>> DeterministicFormula::solve(
    const Database& db,
    const std::map<std::size_t, Rational>& params) const {
  auto decomp = decompose_1d(db, formula, out_var, params);
  if (!decomp.is_ok()) return decomp.status();
  const auto& pieces = decomp.value();
  if (pieces.empty()) return std::optional<Rational>();
  if (pieces.size() > 1) {
    return Status::invalid("gamma is not deterministic: multiple solutions");
  }
  const Interval1D& iv = pieces[0];
  if (iv.lo_infinite || iv.hi_infinite || iv.lo.cmp(iv.hi) != 0) {
    return Status::invalid("gamma is not deterministic: solution interval");
  }
  if (!iv.lo.is_rational() && !iv.lo.try_make_rational()) {
    return Status::unsupported("gamma has an irrational solution: " +
                               iv.lo.to_string());
  }
  return std::optional<Rational>(iv.lo.rational_value());
}

namespace {

struct EnumState {
  const RangeRestrictedExpr* expr;
  const Database* db;
  Database::Compiled guard;                 // expr->guard, compiled once
  std::vector<Database::Compiled> filters;  // expr->pushdown, in order
  const std::vector<Rational>* domain;
  std::map<std::size_t, Rational> assignment;
  RVec tuple;
  std::vector<RVec> out;
  std::size_t guard_evals = 0;
  static constexpr std::size_t kMaxGuardEvals = 500000;
};

Status enumerate_rec(EnumState* st, std::size_t depth) {
  const std::size_t k = st->expr->w_vars.size();
  // Apply every pushdown filter whose last variable is the one just
  // assigned (all its variables are then bound).
  if (depth > 0) {
    const std::size_t just = st->expr->w_vars[depth - 1];
    for (std::size_t i = 0; i < st->filters.size(); ++i) {
      const auto& vars = st->expr->pushdown[i].first;
      if (vars.empty() || vars.back() != just) continue;
      if (++st->guard_evals > EnumState::kMaxGuardEvals) {
        return Status::out_of_range("range-restricted enumeration too large");
      }
      auto ok = st->db->holds(st->filters[i], st->assignment);
      if (!ok.is_ok()) return ok.status();
      if (!ok.value()) return Status::ok();  // prune this branch
    }
  }
  if (depth == k) {
    if (++st->guard_evals > EnumState::kMaxGuardEvals) {
      return Status::out_of_range("range-restricted enumeration too large");
    }
    auto ok = st->db->holds(st->guard, st->assignment);
    if (!ok.is_ok()) return ok.status();
    if (ok.value()) st->out.push_back(st->tuple);
    return Status::ok();
  }
  for (const Rational& v : *st->domain) {
    st->tuple[depth] = v;
    st->assignment[st->expr->w_vars[depth]] = v;
    CQA_RETURN_IF_ERROR(enumerate_rec(st, depth + 1));
  }
  st->assignment.erase(st->expr->w_vars[depth]);
  return Status::ok();
}

}  // namespace

Result<std::vector<RVec>> RangeRestrictedExpr::enumerate(
    const Database& db,
    const std::map<std::size_t, Rational>& params) const {
  for (const auto& [vars, filter] : pushdown) {
    // Pushdown groups must list their variables in enumeration order.
    for (std::size_t i = 1; i < vars.size(); ++i) {
      if (std::find(w_vars.begin(), w_vars.end(), vars[i - 1]) >=
          std::find(w_vars.begin(), w_vars.end(), vars[i])) {
        return Status::invalid(
            "pushdown group lists variables out of enumeration order");
      }
    }
  }
  auto eps = rational_endpoints_1d(db, range, range_var, params);
  if (!eps.is_ok()) return eps.status();
  EnumState st;
  st.expr = this;
  st.db = &db;
  st.domain = &eps.value();
  st.assignment = params;
  st.tuple.assign(w_vars.size(), Rational());
  if (st.domain->empty() && !w_vars.empty()) return std::vector<RVec>{};
  st.guard = db.compile(guard);
  for (const auto& [vars, filter] : pushdown) {
    st.filters.push_back(db.compile(filter));
  }
  CQA_RETURN_IF_ERROR(enumerate_rec(&st, 0));
  return std::move(st.out);
}

SumTermPtr SumTerm::constant(Rational c) {
  auto t = std::shared_ptr<SumTerm>(new SumTerm());
  t->kind_ = Kind::kConst;
  t->const_ = std::move(c);
  return t;
}

SumTermPtr SumTerm::variable(std::size_t v) {
  auto t = std::shared_ptr<SumTerm>(new SumTerm());
  t->kind_ = Kind::kVar;
  t->var_ = v;
  return t;
}

SumTermPtr SumTerm::add(SumTermPtr a, SumTermPtr b) {
  auto t = std::shared_ptr<SumTerm>(new SumTerm());
  t->kind_ = Kind::kAdd;
  t->lhs_ = std::move(a);
  t->rhs_ = std::move(b);
  return t;
}

SumTermPtr SumTerm::mul(SumTermPtr a, SumTermPtr b) {
  auto t = std::shared_ptr<SumTerm>(new SumTerm());
  t->kind_ = Kind::kMul;
  t->lhs_ = std::move(a);
  t->rhs_ = std::move(b);
  return t;
}

SumTermPtr SumTerm::neg(SumTermPtr a) {
  auto t = std::shared_ptr<SumTerm>(new SumTerm());
  t->kind_ = Kind::kNeg;
  t->lhs_ = std::move(a);
  return t;
}

SumTermPtr SumTerm::div(SumTermPtr a, SumTermPtr b) {
  auto t = std::shared_ptr<SumTerm>(new SumTerm());
  t->kind_ = Kind::kDiv;
  t->lhs_ = std::move(a);
  t->rhs_ = std::move(b);
  return t;
}

SumTermPtr SumTerm::sum(RangeRestrictedExpr range, DeterministicFormula body) {
  auto t = std::shared_ptr<SumTerm>(new SumTerm());
  t->kind_ = Kind::kSum;
  t->range_ = std::move(range);
  t->body_ = std::move(body);
  return t;
}

SumTermPtr SumTerm::count(RangeRestrictedExpr range) {
  // COUNT = Sum over the range of the deterministic constant 1, with a
  // fresh output variable above everything the range mentions.
  std::size_t fresh = range.range_var + 1;
  for (std::size_t v : range.w_vars) fresh = std::max(fresh, v + 1);
  if (range.guard) {
    fresh = std::max(fresh,
                     static_cast<std::size_t>(range.guard->max_var() + 1));
  }
  if (range.range) {
    fresh = std::max(fresh,
                     static_cast<std::size_t>(range.range->max_var() + 1));
  }
  DeterministicFormula one{
      Formula::eq(Polynomial::variable(fresh),
                  Polynomial::constant(Rational(1))),
      fresh};
  return sum(std::move(range), std::move(one));
}

SumTermPtr SumTerm::avg(RangeRestrictedExpr range, DeterministicFormula body) {
  RangeRestrictedExpr range_copy = range;
  return div(sum(std::move(range), std::move(body)),
             count(std::move(range_copy)));
}

Result<Rational> SumTerm::eval(
    const Database& db,
    const std::map<std::size_t, Rational>& params) const {
  switch (kind_) {
    case Kind::kConst:
      return const_;
    case Kind::kVar: {
      auto it = params.find(var_);
      if (it == params.end()) {
        return Status::invalid("term variable x" + std::to_string(var_) +
                               " unassigned");
      }
      return it->second;
    }
    case Kind::kAdd: {
      auto a = lhs_->eval(db, params);
      if (!a.is_ok()) return a;
      auto b = rhs_->eval(db, params);
      if (!b.is_ok()) return b;
      return a.value() + b.value();
    }
    case Kind::kMul: {
      auto a = lhs_->eval(db, params);
      if (!a.is_ok()) return a;
      auto b = rhs_->eval(db, params);
      if (!b.is_ok()) return b;
      return a.value() * b.value();
    }
    case Kind::kNeg: {
      auto a = lhs_->eval(db, params);
      if (!a.is_ok()) return a;
      return -a.value();
    }
    case Kind::kDiv: {
      auto a = lhs_->eval(db, params);
      if (!a.is_ok()) return a;
      auto b = rhs_->eval(db, params);
      if (!b.is_ok()) return b;
      if (b.value().is_zero()) {
        return Status::invalid("term division by zero (e.g. AVG over an "
                               "empty range)");
      }
      return a.value() / b.value();
    }
    case Kind::kSum: {
      auto tuples = range_->enumerate(db, params);
      if (!tuples.is_ok()) return tuples.status();
      Rational total;
      for (const RVec& w : tuples.value()) {
        std::map<std::size_t, Rational> inner = params;
        for (std::size_t i = 0; i < w.size(); ++i) {
          inner[range_->w_vars[i]] = w[i];
        }
        auto v = body_->solve(db, inner);
        if (!v.is_ok()) return v.status();
        if (v.value().has_value()) total += *v.value();
      }
      return total;
    }
  }
  return Status::internal("unreachable");
}

Result<bool> compare_terms(const Database& db, const SumTermPtr& t1, RelOp op,
                           const SumTermPtr& t2,
                           const std::map<std::size_t, Rational>& params) {
  auto a = t1->eval(db, params);
  if (!a.is_ok()) return a.status();
  auto b = t2->eval(db, params);
  if (!b.is_ok()) return b.status();
  return op_holds(op, (a.value() - b.value()).sign());
}

}  // namespace cqa
