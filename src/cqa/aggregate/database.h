// Constraint databases: finite and finitely-representable instances.
//
// A Database interprets schema predicates either as finite sets of rational
// tuples or as finitely-representable (f.r.) sets given by constraint
// formulas -- exactly the two instance classes of the paper (Section 2).
//
// Contract: a Database is immutable once loaded. Register every relation
// before the first query; every query member is const and keeps no
// state, so any number of threads may read one Database concurrently.

#ifndef CQA_AGGREGATE_DATABASE_H_
#define CQA_AGGREGATE_DATABASE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cqa/logic/eval.h"
#include "cqa/logic/formula.h"

namespace cqa {

/// A named-relation database over the reals.
class Database : public PredicateOracle {
 public:
  /// Registers a finite relation (set semantics; duplicates collapse).
  Status add_finite(const std::string& name, std::size_t arity,
                    std::vector<RVec> tuples);
  /// Registers a finite relation with *bag* semantics: duplicate tuples
  /// keep their multiplicity (the paper's footnote 2 -- SQL aggregates are
  /// typically bag-based). Membership tests ignore multiplicity.
  Status add_finite_bag(const std::string& name, std::size_t arity,
                        std::vector<RVec> tuples);
  /// True iff the relation was registered with bag semantics.
  bool is_bag(const std::string& name) const;
  /// Registers an f.r. relation defined by a constraint formula whose free
  /// variables 0..arity-1 are the argument slots. The formula must be
  /// predicate-free (constraints only).
  Status add_constraint_relation(const std::string& name, std::size_t arity,
                                 FormulaPtr definition);

  bool has_relation(const std::string& name) const;
  /// Arity, or error for unknown relation.
  Result<std::size_t> arity_of(const std::string& name) const;
  bool is_finite(const std::string& name) const;

  /// Tuples of a finite relation (error for f.r. or unknown).
  Result<std::vector<RVec>> tuples_of(const std::string& name) const;
  /// Defining formula of an f.r. relation (finite relations are converted
  /// to explicit disjunctions of equalities).
  Result<FormulaPtr> definition_of(const std::string& name) const;

  /// Active domain: all rationals appearing in finite relations.
  std::set<Rational> active_domain() const;

  /// Exact membership test. F.r. relations with quantifiers go through
  /// linear QE or the polynomial decision procedure.
  bool contains(const std::string& name, const RVec& tuple) const override;

  /// Lemma 1's move: replaces every schema predicate in f by its
  /// definition (finite relations inline as disjunctions of equalities).
  /// Only the relations f names are substituted; a predicate-free f
  /// comes back as the same node.
  Result<FormulaPtr> inline_predicates(const FormulaPtr& f) const;

  /// Lemma 1 in full: expand_active_domain, then inline_predicates.
  Result<FormulaPtr> expand_and_inline(const FormulaPtr& f) const;

  /// A formula compiled for evaluation at many assignments: a linear one
  /// is expanded, inlined and quantifier-eliminated once, so each holds()
  /// is one quantifier-free evaluation.
  struct Compiled {
    FormulaPtr source;  // as given
    FormulaPtr qf;      // expanded, inlined, QE'd; null when not linear
  };
  Compiled compile(const FormulaPtr& f) const;

  /// Decides a formula (possibly with quantifiers and predicates) under an
  /// assignment of all its free variables: evaluate the compiled form, or
  /// substitute, inline and run the polynomial sample-point procedure.
  /// Active-domain quantifiers range over active_domain().
  Result<bool> holds(const Compiled& f,
                     const std::map<std::size_t, Rational>& assignment) const;
  Result<bool> holds(const FormulaPtr& f,
                     const std::map<std::size_t, Rational>& assignment) const {
    return holds(compile(f), assignment);
  }

  /// Expands active-domain quantifiers into finite conjunctions /
  /// disjunctions over active_domain(). A subtree without one comes back
  /// as the same node, so a formula with none is returned as is.
  Result<FormulaPtr> expand_active_domain(const FormulaPtr& f) const;

 private:
  struct Relation {
    std::size_t arity = 0;
    bool finite = true;
    bool bag = false;
    std::vector<RVec> tuples;  // finite only; sorted (duplicates iff bag)
    FormulaPtr definition;     // f.r. only
  };

  Result<const Relation*> find(const std::string& name) const;

  std::map<std::string, Relation> relations_;
};

}  // namespace cqa

#endif  // CQA_AGGREGATE_DATABASE_H_
