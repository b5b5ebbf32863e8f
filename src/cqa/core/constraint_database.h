// The top-level constraint database: named variables, text-syntax queries,
// finite tables and constraint-defined regions in one object.
//
// This is the facade a downstream user programs against; the lower layers
// (cqa/logic, cqa/constraint, cqa/volume, cqa/aggregate, cqa/approx) stay
// available for power users.

#ifndef CQA_CORE_CONSTRAINT_DATABASE_H_
#define CQA_CORE_CONSTRAINT_DATABASE_H_

#include <string>
#include <vector>

#include "cqa/aggregate/database.h"
#include "cqa/logic/parser.h"

namespace cqa {

/// A constraint database with a shared named-variable space.
/// Like Database, it is immutable once loaded: load every table and
/// region first, then query from any number of threads.
///
/// Region definitions use the parser's formula syntax with argument
/// variables named by the caller, e.g.
///
///   ConstraintDatabase db;
///   db.add_region("Parcel", {"x", "y"}, "0 <= x & x <= 2 & 0 <= y & y <= 1");
///   db.add_table("Owner", {{1, 100}, {2, 200}});
class ConstraintDatabase {
 public:
  /// Adds a finite relation from rational tuples.
  Status add_table(const std::string& name, std::vector<RVec> tuples);
  /// Convenience: integer tuples.
  Status add_table(const std::string& name,
                   const std::vector<std::vector<std::int64_t>>& tuples);

  /// Adds a finite relation with bag (multiset) semantics.
  Status add_bag_table(const std::string& name, std::vector<RVec> tuples);
  Status add_bag_table(const std::string& name,
                       const std::vector<std::vector<std::int64_t>>& tuples);

  /// Adds a finitely representable relation. `args` names the argument
  /// slots (in order); `formula` may use only those variables.
  Status add_region(const std::string& name,
                    const std::vector<std::string>& args,
                    const std::string& formula);

  /// Parses a query in this database's variable space (new names are
  /// interned in the internally synchronized variable table).
  Result<FormulaPtr> parse(const std::string& text) const;
  /// Index of a named variable (allocating if new).
  std::size_t var(const std::string& name) const {
    return vars_.index_of(name);
  }
  /// The variable table (shared across all parses).
  VarTable& vars() { return vars_; }
  const VarTable& vars() const { return vars_; }

  /// The underlying database (for the lower-level engines).
  const Database& db() const { return db_; }

  /// Exact membership of a tuple in a relation.
  bool contains(const std::string& relation, const RVec& tuple) const {
    return db_.contains(relation, tuple);
  }

  /// Truth of a formula under named-variable bindings.
  Result<bool> holds(const FormulaPtr& f,
                     const std::vector<std::pair<std::string, Rational>>&
                         bindings) const;

 private:
  Database db_;
  mutable VarTable vars_;  // internally synchronized
};

}  // namespace cqa

#endif  // CQA_CORE_CONSTRAINT_DATABASE_H_
