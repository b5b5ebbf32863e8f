// Query evaluation over a ConstraintDatabase: the FO+LIN closure pipeline
// (inline database -> quantifier-eliminate -> cells) plus sentence
// decision for FO+POLY.

#ifndef CQA_CORE_QUERY_ENGINE_H_
#define CQA_CORE_QUERY_ENGINE_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cqa/constraint/qe.h"
#include "cqa/core/constraint_database.h"
#include "cqa/util/cancellation.h"

namespace cqa {

/// Options for the rewrite pipeline (one struct instead of a signature
/// per knob; extend here, not with overloads).
struct RewriteOptions {
  /// Cooperative cancellation checked between pipeline stages
  /// (expand -> inline -> QE -> cells). Not owned; may be null.
  const CancelToken* cancel = nullptr;
  /// Resource meter charged by quantifier elimination (atoms
  /// materialized, Fourier-Motzkin rows); a quota trip aborts the
  /// rewrite with kResourceExhausted. Not owned; may be null.
  guard::WorkMeter* meter = nullptr;
};

/// Memo-cache hook for rewrite results. Core defines only this
/// interface; cqa/runtime/eval_cache provides the sharded LRU
/// implementation and cqa::Session installs it.
class RewriteCache {
 public:
  virtual ~RewriteCache() = default;
  virtual std::optional<FormulaPtr> lookup(const std::string& key) = 0;
  virtual void store(const std::string& key, const FormulaPtr& value) = 0;
};

/// A query after the front end, which runs once per request: the parse,
/// plus the two forms later stages derive from it, each computed on
/// first use and then reused -- its printed form (the root of every
/// cache key) and its inlined form (QueryEngine::inlined). Only
/// QueryEngine::parse builds one, so the derived forms always match the
/// parse. A ParsedQuery belongs to one request; it is not for concurrent
/// use.
class ParsedQuery {
 public:
  /// The query as written.
  const FormulaPtr& formula() const { return formula_; }
  /// to_string(formula()).
  const std::string& printed() const;

 private:
  friend class QueryEngine;
  explicit ParsedQuery(FormulaPtr formula) : formula_(std::move(formula)) {}

  FormulaPtr formula_;
  mutable std::optional<std::string> printed_;
  mutable FormulaPtr inlined_;  // null until QueryEngine::inlined
};

/// Maps the named output variables to their variable indices, in order,
/// and checks that every free variable of `phi` is one of them. Callers
/// pick which formula to check: the parse (the query as written) or its
/// rewrite. kInvalidArgument names the unknown output or the stray free
/// variable.
Result<std::vector<std::size_t>> resolve_element_vars(
    const ConstraintDatabase& db, const FormulaPtr& phi,
    const std::vector<std::string>& output_vars);

/// Stateless query façade over a ConstraintDatabase.
class QueryEngine {
 public:
  explicit QueryEngine(const ConstraintDatabase* db) : db_(db) {}

  /// Installs a memo-cache for rewrite() results (nullptr disables).
  /// Not owned; must outlive the engine's use of it.
  void set_cache(RewriteCache* cache) { cache_ = cache; }

  /// The front end: parses `query`. Spellings that parse to the same
  /// tree print the same, so they share every cache key.
  Result<ParsedQuery> parse(const std::string& query) const;

  /// Lemma 1 on the parse: active-domain quantifiers expanded and schema
  /// predicates inlined (Database::expand_and_inline), computed once per
  /// ParsedQuery.
  Result<FormulaPtr> inlined(const ParsedQuery& query) const;

  /// Evaluates a query with named output variables into a union of linear
  /// cells over those variables (in the given order -- the closure
  /// property of FO+LIN made concrete). The query may use schema
  /// predicates and quantifiers; it must be linear after inlining.
  Result<std::vector<LinearCell>> cells(const ParsedQuery& query,
                                        const std::vector<std::string>&
                                            output_vars,
                                        const RewriteOptions& options);

  /// Quantifier-free formula equivalent to the query over the database.
  Result<FormulaPtr> rewrite(const ParsedQuery& query,
                             const RewriteOptions& options);

  /// Decides a sentence (no free variables) over the database; handles
  /// FO+LIN via QE and the supported FO+POLY fragment via the sample-point
  /// procedure.
  Result<bool> ask(const FormulaPtr& sentence, const RewriteOptions& options);

  /// String form: parse, then forward.
  Result<FormulaPtr> rewrite(const std::string& query,
                             const RewriteOptions& options) {
    auto q = parse(query);
    return q.is_ok() ? rewrite(q.value(), options) : q.status();
  }

 private:
  const ConstraintDatabase* db_;
  RewriteCache* cache_ = nullptr;
};

}  // namespace cqa

#endif  // CQA_CORE_QUERY_ENGINE_H_
