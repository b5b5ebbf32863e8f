// Query evaluation over a ConstraintDatabase: the FO+LIN closure pipeline
// (inline database -> quantifier-eliminate -> cells) plus sentence
// decision for FO+POLY.

#ifndef CQA_CORE_QUERY_ENGINE_H_
#define CQA_CORE_QUERY_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "cqa/constraint/qe.h"
#include "cqa/core/constraint_database.h"
#include "cqa/util/cancellation.h"

namespace cqa {

/// Options for the rewrite pipeline (one struct instead of a signature
/// per knob; extend here, not with overloads).
struct RewriteOptions {
  /// Cooperative cancellation checked between pipeline stages
  /// (parse -> expand -> inline -> QE). Not owned; may be null.
  const CancelToken* cancel = nullptr;
  /// Bypass an installed RewriteCache for this call.
  bool skip_cache = false;
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

  /// Canonical cache key for a query: the printed form of its parsed
  /// formula, so spellings that parse to the same tree share a key.
  Result<std::string> canonical_key(const std::string& query);

  /// Evaluates a query with named output variables into a union of linear
  /// cells over those variables (in the given order -- the closure
  /// property of FO+LIN made concrete). The query may use schema
  /// predicates and quantifiers; it must be linear after inlining.
  Result<std::vector<LinearCell>> cells(const std::string& query,
                                        const std::vector<std::string>&
                                            output_vars,
                                        const RewriteOptions& options);

  /// Quantifier-free formula equivalent to the query over the database.
  Result<FormulaPtr> rewrite(const std::string& query,
                             const RewriteOptions& options);

  /// Decides a sentence (no free variables) over the database; handles
  /// FO+LIN via QE and the supported FO+POLY fragment via the sample-point
  /// procedure.
  Result<bool> ask(const std::string& sentence,
                   const RewriteOptions& options);

  // Deprecated default-options shims (prefer the option-struct forms or,
  // one level up, Session::run).
  Result<std::vector<LinearCell>> cells(
      const std::string& query,
      const std::vector<std::string>& output_vars) {
    return cells(query, output_vars, RewriteOptions{});
  }
  Result<FormulaPtr> rewrite(const std::string& query) {
    return rewrite(query, RewriteOptions{});
  }
  Result<bool> ask(const std::string& sentence) {
    return ask(sentence, RewriteOptions{});
  }

 private:
  const ConstraintDatabase* db_;
  RewriteCache* cache_ = nullptr;
};

}  // namespace cqa

#endif  // CQA_CORE_QUERY_ENGINE_H_
