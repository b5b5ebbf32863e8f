#include "cqa/aggregate/endpoints.h"

#include <algorithm>

#include "cqa/constraint/qe.h"
#include "cqa/logic/decide.h"
#include "cqa/logic/transform.h"
#include "cqa/poly/root_isolation.h"
#include "cqa/poly/univariate.h"

namespace cqa {

namespace {

using Kind = Formula::Kind;

// Collects the atoms (by node) mentioning `var`; they must be univariate
// in var (separability, as in cqa/logic/decide.cpp).
Status collect_var_atoms(const FormulaPtr& f, std::size_t var,
                         std::map<const Formula*, UPoly>* out) {
  switch (f->kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
      return Status::ok();
    case Kind::kAtom: {
      if (f->poly().degree_in(var) <= 0) return Status::ok();
      for (const auto& [m, c] : f->poly().terms()) {
        for (std::size_t i = 0; i < m.size(); ++i) {
          if (m[i] > 0 && i != var) {
            return Status::unsupported(
                "END: atom couples the range variable with a quantified "
                "variable (non-separable); use a linear formula instead");
          }
        }
      }
      out->emplace(f.get(), UPoly::from_polynomial(f->poly(), var));
      return Status::ok();
    }
    case Kind::kPredicate:
      return Status::internal("predicates must be inlined before END");
    default:
      for (const auto& c : f->children()) {
        CQA_RETURN_IF_ERROR(collect_var_atoms(c, var, out));
      }
      return Status::ok();
  }
}

FormulaPtr replace_atoms(const FormulaPtr& f,
                         const std::map<const Formula*, bool>& truths) {
  switch (f->kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kPredicate:
      return f;
    case Kind::kAtom: {
      auto it = truths.find(f.get());
      if (it == truths.end()) return f;
      return it->second ? Formula::make_true() : Formula::make_false();
    }
    case Kind::kNot:
      return Formula::f_not(replace_atoms(f->children()[0], truths));
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<FormulaPtr> kids;
      for (const auto& c : f->children()) {
        kids.push_back(replace_atoms(c, truths));
      }
      return f->kind() == Kind::kAnd ? Formula::f_and(std::move(kids))
                                     : Formula::f_or(std::move(kids));
    }
    case Kind::kExists:
    case Kind::kForall: {
      FormulaPtr body = replace_atoms(f->children()[0], truths);
      return f->kind() == Kind::kExists
                 ? Formula::exists(f->var(), std::move(body),
                                   f->active_domain())
                 : Formula::forall(f->var(), std::move(body),
                                   f->active_domain());
    }
  }
  CQA_CHECK(false);
  return nullptr;
}

// Decides a predicate-free sentence (qf / linear / polynomial paths).
Result<bool> decide_ground(const FormulaPtr& g) {
  if (g->is_quantifier_free()) return eval_qf(g, {});
  if (g->is_linear()) return qe_decide_sentence(g);
  return decide_sentence(g);
}

// Truth of g (one free variable `var`) at a rational point.
Result<bool> truth_at(const FormulaPtr& g, std::size_t var,
                      const Rational& value) {
  return decide_ground(substitute_var(g, var, value));
}

// Truth of g at an algebraic point: substitute exact truth values for the
// univariate var-atoms, then decide the var-free remainder.
Result<bool> truth_at_algebraic(const FormulaPtr& g, std::size_t var,
                                const std::map<const Formula*, UPoly>& atoms,
                                const AlgebraicNumber& alpha) {
  if (alpha.is_rational()) return truth_at(g, var, alpha.rational_value());
  std::map<const Formula*, bool> truths;
  for (const auto& [node, up] : atoms) {
    truths[node] = op_holds(node->op(), alpha.sign_of(up));
  }
  return decide_ground(replace_atoms(g, truths));
}

}  // namespace

Result<std::vector<Interval1D>> decompose_1d(
    const Database& db, const FormulaPtr& phi, std::size_t var,
    const std::map<std::size_t, Rational>& params) {
  // Substitute parameters, expand adom quantifiers, inline predicates.
  std::map<std::size_t, Rational> full = params;
  full.erase(var);
  // Route through Database::holds-style preprocessing: substitute + inline.
  std::map<std::size_t, Polynomial> sub;
  for (const auto& [v, val] : full) sub.emplace(v, Polynomial::constant(val));
  auto inlined = db.expand_and_inline(substitute_vars(phi, sub));
  if (!inlined.is_ok()) return inlined.status();
  FormulaPtr g = inlined.value();
  for (std::size_t v : g->free_vars()) {
    if (v != var) {
      return Status::invalid("decompose_1d: unassigned free variable x" +
                             std::to_string(v));
    }
  }
  // Linear formulas: quantifier-eliminate first, making all atoms
  // univariate in var.
  if (g->is_linear() && !g->is_quantifier_free()) {
    auto qf = qe_linear(g);
    if (!qf.is_ok()) return qf.status();
    g = qf.value();
  }
  std::map<const Formula*, UPoly> atoms;
  CQA_RETURN_IF_ERROR(collect_var_atoms(g, var, &atoms));

  // Breakpoints: all distinct roots of the var-atoms.
  std::vector<AlgebraicNumber> roots;
  for (const auto& [node, up] : atoms) {
    for (auto& r : isolate_real_roots(up)) {
      roots.push_back(AlgebraicNumber::from_root(std::move(r)));
    }
  }
  std::sort(roots.begin(), roots.end(),
            [](const AlgebraicNumber& a, const AlgebraicNumber& b) {
              return a.cmp(b) < 0;
            });
  roots.erase(std::unique(roots.begin(), roots.end(),
                          [](const AlgebraicNumber& a,
                             const AlgebraicNumber& b) { return a.cmp(b) == 0; }),
              roots.end());

  // Elementary regions in order: low ray, point, gap, point, ..., high ray.
  struct Region {
    bool is_point;
    // For points: the root index. For gaps: between root i-1 and i
    // (i == 0: low ray; i == roots.size(): high ray).
    std::size_t idx;
    bool member = false;
  };
  std::vector<Region> regions;
  for (std::size_t i = 0; i <= roots.size(); ++i) {
    regions.push_back(Region{false, i});
    if (i < roots.size()) regions.push_back(Region{true, i});
  }
  for (auto& reg : regions) {
    Result<bool> r = false;
    if (reg.is_point) {
      r = truth_at_algebraic(g, var, atoms, roots[reg.idx]);
    } else if (roots.empty()) {
      r = truth_at(g, var, Rational(0));
    } else if (reg.idx == 0) {
      r = truth_at(g, var, roots.front().rational_below() - Rational(1));
    } else if (reg.idx == roots.size()) {
      r = truth_at(g, var, roots.back().rational_above() + Rational(1));
    } else {
      r = truth_at(g, var,
                   rational_between(roots[reg.idx - 1], roots[reg.idx]));
    }
    if (!r.is_ok()) return r.status();
    reg.member = r.value();
  }

  // Stitch contiguous member regions into maximal intervals.
  std::vector<Interval1D> out;
  std::size_t i = 0;
  while (i < regions.size()) {
    if (!regions[i].member) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j + 1 < regions.size() && regions[j + 1].member) ++j;
    Interval1D iv;
    const Region& first = regions[i];
    const Region& last = regions[j];
    if (first.is_point) {
      iv.lo = roots[first.idx];
      iv.lo_closed = true;
    } else if (first.idx == 0) {
      iv.lo_infinite = true;
    } else {
      iv.lo = roots[first.idx - 1];
      iv.lo_closed = false;
    }
    if (last.is_point) {
      iv.hi = roots[last.idx];
      iv.hi_closed = true;
    } else if (last.idx == roots.size()) {
      iv.hi_infinite = true;
    } else {
      iv.hi = roots[last.idx];
      iv.hi_closed = false;
    }
    out.push_back(std::move(iv));
    i = j + 1;
  }
  return out;
}

Result<std::vector<AlgebraicNumber>> endpoints_1d(
    const Database& db, const FormulaPtr& phi, std::size_t var,
    const std::map<std::size_t, Rational>& params) {
  auto decomp = decompose_1d(db, phi, var, params);
  if (!decomp.is_ok()) return decomp.status();
  std::vector<AlgebraicNumber> out;
  for (const auto& iv : decomp.value()) {
    if (!iv.lo_infinite) out.push_back(iv.lo);
    if (!iv.hi_infinite) out.push_back(iv.hi);
  }
  std::sort(out.begin(), out.end(),
            [](const AlgebraicNumber& a, const AlgebraicNumber& b) {
              return a.cmp(b) < 0;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const AlgebraicNumber& a, const AlgebraicNumber& b) {
                          return a.cmp(b) == 0;
                        }),
            out.end());
  return out;
}

Result<std::vector<Rational>> rational_endpoints_1d(
    const Database& db, const FormulaPtr& phi, std::size_t var,
    const std::map<std::size_t, Rational>& params) {
  auto eps = endpoints_1d(db, phi, var, params);
  if (!eps.is_ok()) return eps.status();
  std::vector<Rational> out;
  out.reserve(eps.value().size());
  for (const auto& a : eps.value()) {
    if (!a.is_rational() && !a.try_make_rational()) {
      return Status::unsupported(
          "END produced an irrational endpoint (" + a.to_string() +
          "); exact summation is supported for semi-linear inputs");
    }
    out.push_back(a.rational_value());
  }
  return out;
}

Result<bool> is_finite_1d(const Database& db, const FormulaPtr& phi,
                          std::size_t var,
                          const std::map<std::size_t, Rational>& params) {
  auto decomp = decompose_1d(db, phi, var, params);
  if (!decomp.is_ok()) return decomp.status();
  for (const auto& iv : decomp.value()) {
    if (iv.lo_infinite || iv.hi_infinite) return false;
    if (iv.lo.cmp(iv.hi) != 0) return false;
  }
  return true;
}

}  // namespace cqa
