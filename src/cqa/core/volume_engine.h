// Exact volume computation: Theorem 3's sweep and the inclusion-
// exclusion reference over the cell decomposition of a semi-linear
// query. The approximate rungs (Theorem-4 sampling, Proposition 4's
// trivial 1/2) are served by Session; the paper's other baselines
// (hit-and-run, Lowner-John bounds, variable independence) are free
// functions called directly.

#ifndef CQA_CORE_VOLUME_ENGINE_H_
#define CQA_CORE_VOLUME_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "cqa/core/query_engine.h"
#include "cqa/poly/univariate.h"

namespace cqa {

/// How to compute (or approximate) a volume: the paper's ladder plus
/// the exact inclusion-exclusion reference.
enum class VolumeStrategy {
  kAuto,                // exact Theorem-3 sweep (default)
  kInclusionExclusion,  // exact, exponential in cell count
  kMonteCarlo,          // Theorem-4 sampling (eps, delta); Session only
  kTrivialHalf,         // Proposition-4 constant 1/2; Session only
};

/// A volume answer: exact rational when the strategy is exact, otherwise
/// an estimate with lower/upper bars. `degraded` marks an answer that
/// misses the request's epsilon (expired deadline, tripped quota, a
/// deadline-reduced sample or the trivial 1/2); its bars are widened
/// accordingly. The rung that served it is read off the answer alone
/// (see volume_answer in runtime/request.h).
struct VolumeAnswer {
  std::optional<Rational> exact;
  std::optional<double> estimate;
  std::optional<double> lower;
  std::optional<double> upper;
  bool degraded = false;
  std::size_t points_evaluated = 0;  // MC points actually counted
  std::size_t points_requested = 0;  // full sample size M (MC only)

  double value() const {
    if (exact) return exact->to_double();
    if (estimate) return *estimate;
    if (lower && upper) return (*lower + *upper) / 2;
    return 0;
  }
};

/// Options for exact volume computation.
struct VolumeOptions {
  VolumeStrategy strategy = VolumeStrategy::kAuto;
  /// Restrict to [0,1]^k first (the paper's VOL_I). Exact strategies
  /// require the query to be bounded when this is false.
  bool clip_to_unit_box = false;
  /// Cooperative cancellation / deadline, polled in the pipeline's hot
  /// loops. Not owned; may be null.
  const CancelToken* cancel = nullptr;
  /// Resource meter charged by the exact pipeline (QE rewrite, sweep
  /// sections, BigInt bit-lengths via the thread binding); a quota trip
  /// surfaces as kResourceExhausted. Not owned; may be null.
  guard::WorkMeter* meter = nullptr;
};

/// Memo-cache hook for exact volume results (same pattern as
/// RewriteCache: the runtime layer implements and installs it).
class VolumeCache {
 public:
  virtual ~VolumeCache() = default;
  virtual std::optional<Rational> lookup(const std::string& key) = 0;
  virtual void store(const std::string& key, const Rational& value) = 0;
};

/// Volume façade.
class VolumeEngine {
 public:
  explicit VolumeEngine(const ConstraintDatabase* db)
      : db_(db), queries_(db) {}

  /// Installs a memo-cache for exact volume results (nullptr disables).
  /// Not owned.
  void set_cache(VolumeCache* cache) { cache_ = cache; }

  /// The engine's query pipeline (e.g. to install a RewriteCache on it).
  QueryEngine& queries() { return queries_; }

  /// Exact volume of the query's denotation over the named output
  /// variables. kMonteCarlo and kTrivialHalf are kInvalidArgument here:
  /// those rungs run only through Session, which sizes the sample and
  /// assembles the bars.
  Result<VolumeAnswer> volume(const ParsedQuery& query,
                              const std::vector<std::string>& output_vars,
                              const VolumeOptions& options = {});

  /// The Chomicki-Kuper measure-at-infinity of the (possibly unbounded)
  /// denotation: lim Vol(S cap [-r,r]^n) / (2r)^n. Zero on every bounded
  /// set -- the paper's reason mu cannot express volume. `options` govern
  /// the cells stage.
  Result<Rational> mu(const ParsedQuery& query,
                      const std::vector<std::string>& output_vars,
                      const RewriteOptions& options);

  /// The eventual growth polynomial V(r) = Vol(S cap [-r,r]^n).
  Result<UPoly> growth_polynomial(const ParsedQuery& query,
                                  const std::vector<std::string>&
                                      output_vars,
                                  const RewriteOptions& options);

  /// String form: parse, then forward.
  Result<VolumeAnswer> volume(const std::string& query,
                              const std::vector<std::string>& output_vars,
                              const VolumeOptions& options = {}) {
    auto q = queries_.parse(query);
    return q.is_ok() ? volume(q.value(), output_vars, options) : q.status();
  }

 private:
  const ConstraintDatabase* db_;
  QueryEngine queries_;
  VolumeCache* cache_ = nullptr;
};

}  // namespace cqa

#endif  // CQA_CORE_VOLUME_ENGINE_H_
