#include "cqa/core/volume_engine.h"

#include "cqa/approx/ellipsoid.h"
#include "cqa/approx/gadgets.h"
#include "cqa/approx/hit_and_run.h"
#include "cqa/volume/growth.h"
#include "cqa/volume/inclusion_exclusion.h"
#include "cqa/volume/semilinear_volume.h"
#include "cqa/volume/variable_independence.h"

namespace cqa {

Result<Rational> VolumeEngine::mu(
    const ParsedQuery& query, const std::vector<std::string>& output_vars,
    const RewriteOptions& options) {
  auto cells = queries_.cells(query, output_vars, options);
  if (!cells.is_ok()) return cells.status();
  return mu_operator(cells.value());
}

Result<UPoly> VolumeEngine::growth_polynomial(
    const ParsedQuery& query, const std::vector<std::string>& output_vars,
    const RewriteOptions& options) {
  auto cells = queries_.cells(query, output_vars, options);
  if (!cells.is_ok()) return cells.status();
  auto g = volume_growth(cells.value());
  if (!g.is_ok()) return g.status();
  return g.value().poly;
}

Result<VolumeAnswer> VolumeEngine::volume(
    const ParsedQuery& query, const std::vector<std::string>& output_vars,
    const VolumeOptions& options) {
  if (options.strategy == VolumeStrategy::kMonteCarlo) {
    return Status::invalid(
        "Monte-Carlo volumes run through Session, not VolumeEngine");
  }
  VolumeAnswer answer;
  const RewriteOptions rw{options.cancel, options.meter};

  // Exact strategies go through the FO+LIN pipeline; their results are
  // memoizable, keyed on the printed parse plus the output variable list
  // and the options that change the exact answer.
  std::optional<std::string> cache_key;
  const bool exact_strategy =
      options.strategy == VolumeStrategy::kAuto ||
      options.strategy == VolumeStrategy::kInclusionExclusion ||
      options.strategy == VolumeStrategy::kVariableIndependent;
  if (cache_ != nullptr && exact_strategy) {
    std::string key = "vol|" + query.printed();
    for (const auto& v : output_vars) key += "|" + v;
    key += "|s" + std::to_string(static_cast<int>(options.strategy));
    if (options.clip_to_unit_box) key += "|clip";
    if (auto hit = cache_->lookup(key)) {
      answer.exact = *hit;
      return answer;
    }
    cache_key = std::move(key);
  }

  auto cells = queries_.cells(query, output_vars, rw);
  if (!cells.is_ok()) return cells.status();
  std::vector<LinearCell> live = cells.value();
  if (options.clip_to_unit_box) {
    for (auto& c : live) c = c.intersect_box(Rational(0), Rational(1));
  }

  Result<Rational> exact = Status::internal("not an exact strategy");
  switch (options.strategy) {
    case VolumeStrategy::kAuto:
      exact = semilinear_volume(live, nullptr, options.cancel, options.meter);
      break;
    case VolumeStrategy::kInclusionExclusion:
      exact = volume_inclusion_exclusion(live);
      break;
    case VolumeStrategy::kVariableIndependent:
      exact = volume_variable_independent(live);
      break;
    case VolumeStrategy::kEllipsoidBounds: {
      if (live.size() != 1) {
        return Status::invalid(
            "ellipsoid bounds require a single convex cell");
      }
      auto b = john_volume_bounds(Polyhedron(live[0]));
      if (!b.is_ok()) return b.status();
      answer.lower = b.value().lower;
      answer.upper = b.value().upper;
      return answer;
    }
    case VolumeStrategy::kTrivialHalf: {
      auto v = trivial_half_approximation(live, output_vars.size());
      if (!v.is_ok()) return v.status();
      answer.estimate = v.value().to_double();
      return answer;
    }
    case VolumeStrategy::kHitAndRun: {
      if (live.size() != 1) {
        return Status::invalid(
            "hit-and-run requires a single convex cell");
      }
      auto r = hit_and_run_volume(Polyhedron(live[0]),
                                  kHitAndRunSamples,
                                  options.seed);
      if (!r.is_ok()) return r.status();
      answer.estimate = r.value().volume;
      return answer;
    }
    case VolumeStrategy::kMonteCarlo:
      break;  // refused above
  }
  if (!exact.is_ok()) return exact.status();
  if (cache_key) cache_->store(*cache_key, exact.value());
  answer.exact = exact.value();
  return answer;
}

}  // namespace cqa
