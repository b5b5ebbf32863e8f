#include "cqa/core/volume_engine.h"

#include "cqa/volume/growth.h"
#include "cqa/volume/inclusion_exclusion.h"
#include "cqa/volume/semilinear_volume.h"

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
  const bool sweep = options.strategy == VolumeStrategy::kAuto;
  if (!sweep && options.strategy != VolumeStrategy::kInclusionExclusion) {
    return Status::invalid(
        "Monte-Carlo and trivial-1/2 volumes run through Session, not "
        "VolumeEngine");
  }
  VolumeAnswer answer;

  // Exact results are memoizable, keyed on the printed parse plus the
  // output variable list and the options that change the exact answer.
  std::optional<std::string> cache_key;
  if (cache_ != nullptr) {
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

  auto cells =
      queries_.cells(query, output_vars, {options.cancel, options.meter});
  if (!cells.is_ok()) return cells.status();
  std::vector<LinearCell> live = cells.value();
  if (options.clip_to_unit_box) {
    for (auto& c : live) c = c.intersect_box(Rational(0), Rational(1));
  }

  auto exact = sweep ? semilinear_volume(live, nullptr, options.cancel,
                                         options.meter)
                     : volume_inclusion_exclusion(live);
  if (!exact.is_ok()) return exact.status();
  if (cache_key) cache_->store(*cache_key, exact.value());
  answer.exact = exact.value();
  return answer;
}

}  // namespace cqa
