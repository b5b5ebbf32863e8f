#include "cqa/constraint/linear_cell.h"

#include <sstream>

#include "cqa/logic/transform.h"

namespace cqa {

FormulaPtr LinearCell::to_formula() const {
  std::vector<FormulaPtr> atoms;
  atoms.reserve(constraints_.size());
  for (const auto& c : constraints_) atoms.push_back(to_atom(c));
  return Formula::f_and(std::move(atoms));
}

LinearCell LinearCell::closure() const {
  LinearCell out(dim_);
  for (const auto& c : constraints_) out.add(c.closure());
  return out;
}

LinearCell LinearCell::intersect_box(const Rational& lo,
                                     const Rational& hi) const {
  LinearCell out = *this;
  for (std::size_t v = 0; v < dim_; ++v) {
    LinearConstraint upper;
    upper.coeffs.assign(dim_, Rational());
    upper.coeffs[v] = Rational(1);
    upper.rhs = hi;
    upper.cmp = LinCmp::kLe;
    out.add(std::move(upper));
    LinearConstraint lower;
    lower.coeffs.assign(dim_, Rational());
    lower.coeffs[v] = Rational(-1);
    lower.rhs = -lo;
    lower.cmp = LinCmp::kLe;
    out.add(std::move(lower));
  }
  return out;
}

bool LinearCell::is_bounded() const {
  for (std::size_t v = 0; v < dim_; ++v) {
    AxisInterval iv = project_to_axis(v);
    if (iv.empty) return true;  // empty cells are (vacuously) bounded
    if (!iv.lo.has_value() || !iv.hi.has_value()) return false;
  }
  return true;
}

std::string LinearCell::to_string() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (i) os << " & ";
    os << constraints_[i].to_string();
  }
  os << "}";
  return os.str();
}

Result<std::vector<LinearCell>> formula_to_cells(const FormulaPtr& f,
                                                 std::size_t dim) {
  if (!f->is_quantifier_free()) {
    return Status::invalid("formula_to_cells requires a quantifier-free "
                           "formula (run QE first)");
  }
  if (f->has_predicates()) {
    return Status::invalid("formula_to_cells requires a predicate-free "
                           "formula (substitute the database first)");
  }
  auto dnf = to_dnf(f);
  if (!dnf.is_ok()) return dnf.status();

  std::vector<LinearCell> out;
  for (const auto& cell_lits : dnf.value()) {
    // Split disequalities: p != 0 becomes (p < 0) or (p > 0). Each cell
    // with k disequalities becomes 2^k candidate cells.
    std::vector<std::vector<Literal>> expanded{{}};
    for (const auto& lit : cell_lits) {
      if (lit.op != RelOp::kNe) {
        for (auto& e : expanded) e.push_back(lit);
        continue;
      }
      std::vector<std::vector<Literal>> next;
      next.reserve(expanded.size() * 2);
      for (const auto& e : expanded) {
        auto less = e;
        less.push_back(Literal{lit.poly, RelOp::kLt});
        auto greater = e;
        greater.push_back(Literal{lit.poly, RelOp::kGt});
        next.push_back(std::move(less));
        next.push_back(std::move(greater));
      }
      expanded = std::move(next);
    }
    for (const auto& lits : expanded) {
      LinearCell cell(dim);
      bool ok = true;
      for (const auto& lit : lits) {
        auto c = to_linear_constraint(lit.poly, lit.op, dim);
        if (!c.is_ok()) return c.status();
        cell.add(std::move(c).take());
      }
      if (ok && cell.is_feasible()) out.push_back(std::move(cell));
    }
  }
  return out;
}

FormulaPtr cells_to_formula(const std::vector<LinearCell>& cells) {
  std::vector<FormulaPtr> parts;
  parts.reserve(cells.size());
  for (const auto& c : cells) parts.push_back(c.to_formula());
  return Formula::f_or(std::move(parts));
}

}  // namespace cqa
