#include "cqa/vc/shattering.h"

#include <algorithm>
#include <set>

namespace cqa {

void TraceFamily::add_trace(std::uint64_t mask) {
  if (ground_size_ < 64) {
    mask &= (1ull << ground_size_) - 1;
  }
  traces_.push_back(mask);
}

bool TraceFamily::shatters(std::uint64_t subset) const {
  // Project every trace onto the subset's positions and count distinct
  // projections; shattered iff all 2^|subset| appear.
  const int bits = __builtin_popcountll(subset);
  if (bits > 26) return false;  // 2^bits would not be enumerable anyway
  std::set<std::uint64_t> seen;
  const std::uint64_t want = 1ull << bits;
  for (std::uint64_t t : traces_) {
    // Compact extract of the subset bits (PEXT by hand).
    std::uint64_t proj = 0;
    int out = 0;
    std::uint64_t s = subset;
    while (s) {
      int b = __builtin_ctzll(s);
      proj |= ((t >> b) & 1ull) << out;
      ++out;
      s &= s - 1;
    }
    seen.insert(proj);
    if (seen.size() == want) return true;
  }
  return false;
}

int TraceFamily::vc_dimension() const {
  if (traces_.empty()) return -1;  // empty family shatters nothing
  // Level-wise search with monotone pruning: a set can only be shattered
  // if all its (k-1)-subsets are.
  std::vector<std::uint64_t> frontier;  // shattered sets of current size
  frontier.push_back(0);                // empty set is always shattered
  int dim = 0;
  const std::size_t n = ground_size_;
  while (true) {
    std::set<std::uint64_t> next;
    for (std::uint64_t s : frontier) {
      // Try extending by any position above the highest set bit (canonical
      // generation), but extension by any new bit is fine for candidates;
      // restrict to ascending to avoid duplicates.
      int start = s == 0 ? 0 : 64 - __builtin_clzll(s);
      for (std::size_t b = static_cast<std::size_t>(start); b < n; ++b) {
        std::uint64_t cand = s | (1ull << b);
        if (next.count(cand)) continue;
        if (shatters(cand)) next.insert(cand);
      }
    }
    if (next.empty()) return dim;
    ++dim;
    frontier.assign(next.begin(), next.end());
  }
}

Result<TraceFamily> build_traces(const Database& db, const FormulaPtr& phi,
                                 const std::vector<std::size_t>& param_vars,
                                 const std::vector<std::size_t>& element_vars,
                                 const std::vector<RVec>& param_pool,
                                 const std::vector<RVec>& ground_set) {
  if (ground_set.size() > 64) {
    return Status::invalid("ground set too large (max 64)");
  }
  const Database::Compiled compiled = db.compile(phi);
  TraceFamily family(ground_set.size());
  for (const RVec& a : param_pool) {
    if (a.size() != param_vars.size()) {
      return Status::invalid("parameter tuple arity mismatch");
    }
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < ground_set.size(); ++i) {
      const RVec& x = ground_set[i];
      if (x.size() != element_vars.size()) {
        return Status::invalid("ground tuple arity mismatch");
      }
      std::map<std::size_t, Rational> assignment;
      for (std::size_t j = 0; j < param_vars.size(); ++j) {
        assignment[param_vars[j]] = a[j];
      }
      for (std::size_t j = 0; j < element_vars.size(); ++j) {
        assignment[element_vars[j]] = x[j];
      }
      auto r = db.holds(compiled, assignment);
      if (!r.is_ok()) return r.status();
      if (r.value()) mask |= 1ull << i;
    }
    family.add_trace(mask);
  }
  return family;
}

Prop5Instance make_prop5_instance(std::size_t k) {
  CQA_CHECK(k >= 1 && k <= 16);
  Prop5Instance inst;
  std::vector<RVec> tuples;
  const std::size_t pow2 = 1ull << k;
  for (std::size_t a = 0; a < pow2; ++a) {
    for (std::size_t y = 0; y < k; ++y) {
      if (a & (1ull << y)) {
        tuples.push_back({Rational(static_cast<std::int64_t>(a)),
                          Rational(static_cast<std::int64_t>(y))});
      }
    }
  }
  CQA_CHECK(inst.db.add_finite("Bit", 2, std::move(tuples)).is_ok());
  inst.phi = Formula::predicate(
      "Bit", {Polynomial::variable(0), Polynomial::variable(1)});
  inst.param_var = 0;
  inst.element_var = 1;
  for (std::size_t a = 0; a < pow2; ++a) {
    inst.param_pool.push_back({Rational(static_cast<std::int64_t>(a))});
  }
  for (std::size_t y = 0; y < k; ++y) {
    inst.ground_set.push_back({Rational(static_cast<std::int64_t>(y))});
  }
  inst.db_size = inst.db.active_domain().size();
  return inst;
}

}  // namespace cqa
