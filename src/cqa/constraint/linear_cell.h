// Conjunctive linear cells and the formula <-> cell bridge.
//
// A quantifier-free FO+LIN formula denotes a semi-linear set; in DNF it is
// a finite union of cells, each a conjunction of normalized linear
// constraints. Cells are what the geometry and volume engines consume.

#ifndef CQA_CONSTRAINT_LINEAR_CELL_H_
#define CQA_CONSTRAINT_LINEAR_CELL_H_

#include <optional>
#include <string>
#include <vector>

#include "cqa/constraint/fourier_motzkin.h"
#include "cqa/constraint/linear_atom.h"

namespace cqa {

/// A conjunction of linear constraints in R^dim.
class LinearCell {
 public:
  explicit LinearCell(std::size_t dim) : dim_(dim) {}
  LinearCell(std::size_t dim, std::vector<LinearConstraint> cs)
      : dim_(dim), constraints_(std::move(cs)) {
    for (auto& c : constraints_) pad(&c);
  }

  std::size_t dim() const { return dim_; }
  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }

  void add(LinearConstraint c) {
    pad(&c);
    constraints_.push_back(std::move(c));
  }

  /// Exact emptiness test.
  bool is_feasible() const { return fm_feasible(constraints_, dim_); }

  /// A point satisfying every constraint (strictly for strict ones).
  std::optional<RVec> sample_point() const {
    return fm_sample_point(constraints_, dim_);
  }

  bool contains(const RVec& point) const {
    for (const auto& c : constraints_) {
      if (!c.satisfied_by(point)) return false;
    }
    return true;
  }

  /// Conjunction of the constraint atoms.
  FormulaPtr to_formula() const;

  /// The cell with every strict inequality relaxed (same measure).
  LinearCell closure() const;

  /// Intersection with [lo, hi] on every coordinate.
  LinearCell intersect_box(const Rational& lo, const Rational& hi) const;

  /// Tight interval of x_var over the cell (exact projection).
  AxisInterval project_to_axis(std::size_t var) const {
    return fm_project_to_axis(constraints_, var, dim_);
  }

  /// True iff the cell is bounded in every coordinate.
  bool is_bounded() const;

  std::string to_string() const;

 private:
  void pad(LinearConstraint* c) const {
    CQA_CHECK(c->coeffs.size() <= dim_);
    c->coeffs.resize(dim_, Rational());
  }

  std::size_t dim_;
  std::vector<LinearConstraint> constraints_;
};

/// Converts a quantifier-free, predicate-free, linear formula into a list
/// of feasible cells whose union is the formula's denotation. Disequality
/// literals split cells in two; infeasible cells are dropped.
Result<std::vector<LinearCell>> formula_to_cells(const FormulaPtr& f,
                                                 std::size_t dim);

/// Union-of-cells back to a formula.
FormulaPtr cells_to_formula(const std::vector<LinearCell>& cells);

}  // namespace cqa

#endif  // CQA_CONSTRAINT_LINEAR_CELL_H_
