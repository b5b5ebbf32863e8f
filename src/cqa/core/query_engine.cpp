#include "cqa/core/query_engine.h"

#include <algorithm>

#include "cqa/logic/printer.h"
#include "cqa/logic/transform.h"

namespace cqa {

Result<std::vector<std::size_t>> resolve_element_vars(
    const ConstraintDatabase& db, const FormulaPtr& phi,
    const std::vector<std::string>& output_vars) {
  std::vector<std::size_t> element_vars;
  element_vars.reserve(output_vars.size());
  for (const auto& name : output_vars) {
    const int idx = db.vars().find(name);
    if (idx < 0) return Status::invalid("unknown output variable: " + name);
    element_vars.push_back(static_cast<std::size_t>(idx));
  }
  for (std::size_t v : phi->free_vars()) {
    if (std::find(element_vars.begin(), element_vars.end(), v) ==
        element_vars.end()) {
      return Status::invalid(
          "query has a free variable that is not an output: " +
          db.vars().name_of(v));
    }
  }
  return element_vars;
}

const std::string& ParsedQuery::printed() const {
  if (!printed_) printed_ = to_string(formula_);
  return *printed_;
}

Result<ParsedQuery> QueryEngine::parse(const std::string& query) const {
  auto parsed = db_->parse(query);
  if (!parsed.is_ok()) return parsed.status();
  return ParsedQuery(parsed.value());
}

Result<FormulaPtr> QueryEngine::inlined(const ParsedQuery& query) const {
  if (query.inlined_ == nullptr) {
    auto g = db_->db().expand_and_inline(query.formula_);
    if (!g.is_ok()) return g;
    query.inlined_ = g.value();
  }
  return query.inlined_;
}

Result<std::vector<LinearCell>> QueryEngine::cells(
    const ParsedQuery& query, const std::vector<std::string>& output_vars,
    const RewriteOptions& options) {
  auto rewritten = rewrite(query, options);
  if (!rewritten.is_ok()) return rewritten.status();
  auto element_vars =
      resolve_element_vars(*db_, rewritten.value(), output_vars);
  if (!element_vars.is_ok()) return element_vars.status();
  // Remap the named outputs onto slots 0..k-1.
  std::map<std::size_t, Polynomial> sub;
  for (std::size_t i = 0; i < element_vars.value().size(); ++i) {
    sub.emplace(element_vars.value()[i], Polynomial::variable(i));
  }
  if (options.cancel != nullptr) {
    CQA_RETURN_IF_ERROR(options.cancel->check());
  }
  FormulaPtr remapped = substitute_vars(rewritten.value(), sub);
  return formula_to_cells(remapped, output_vars.size());
}

Result<FormulaPtr> QueryEngine::rewrite(const ParsedQuery& query,
                                        const RewriteOptions& options) {
  const std::string key = cache_ != nullptr ? "qe|" + query.printed() : "";
  if (cache_ != nullptr) {
    if (auto hit = cache_->lookup(key)) return *hit;
  }
  if (options.cancel != nullptr) {
    CQA_RETURN_IF_ERROR(options.cancel->check());
  }
  auto inlined_query = inlined(query);
  if (!inlined_query.is_ok()) return inlined_query;
  FormulaPtr g = inlined_query.value();
  if (!g->is_quantifier_free()) {
    if (!g->is_linear()) {
      return Status::unsupported(
          "rewrite: query is nonlinear and quantified; only FO+LIN queries "
          "admit quantifier elimination here");
    }
    if (options.cancel != nullptr) {
      CQA_RETURN_IF_ERROR(options.cancel->check());
    }
    auto eliminated = qe_linear(g, options.meter);
    if (!eliminated.is_ok()) return eliminated;
    g = eliminated.value();
  }
  // A metered rewrite only reaches here complete (a trip returned
  // above), so the result is safe to share through the cache.
  if (cache_ != nullptr) cache_->store(key, g);
  return g;
}

Result<bool> QueryEngine::ask(const FormulaPtr& sentence,
                              const RewriteOptions& options) {
  if (!sentence->free_vars().empty()) {
    return Status::invalid("ask: sentence has free variables");
  }
  if (options.cancel != nullptr) {
    CQA_RETURN_IF_ERROR(options.cancel->check());
  }
  return db_->db().holds(sentence, {});
}

}  // namespace cqa
