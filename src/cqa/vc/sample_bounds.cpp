#include "cqa/vc/sample_bounds.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cqa/util/status.h"

namespace cqa {

std::size_t blumer_sample_bound(double epsilon, double delta,
                                double vc_dimension) {
  CQA_CHECK(epsilon > 0 && epsilon < 1);
  CQA_CHECK(delta > 0 && delta < 1);
  CQA_CHECK(vc_dimension >= 0);
  const double log2e = std::log2(2.0 / delta);
  const double a = (4.0 / epsilon) * log2e;
  const double b = (8.0 * vc_dimension / epsilon) * std::log2(13.0 / epsilon);
  const double m = std::floor(std::max(a, b));
  // SIZE_MAX rounds up to a power of two as a double. A bound at or
  // above it (or NaN) saturates instead of taking an undefined
  // float-to-integer cast.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (!(m < static_cast<double>(kMax))) return kMax;
  return static_cast<std::size_t>(m) + 1;
}

double goldberg_jerrum_constant(std::size_t k, std::size_t p, std::size_t q,
                                std::size_t degree, std::size_t atoms) {
  CQA_CHECK(k >= 1);
  const double d = std::max<std::size_t>(degree, 1);
  const double inner =
      8.0 * std::exp(1.0) * d * static_cast<double>(std::max<std::size_t>(p, 1)) *
      static_cast<double>(std::max<std::size_t>(atoms, 1));
  return 16.0 * static_cast<double>(k) * static_cast<double>(p + q) *
         (std::log2(inner) + 1.0);
}

double vc_dimension_bound(double c, std::size_t db_size) {
  return c * std::log2(static_cast<double>(std::max<std::size_t>(db_size, 2)));
}

}  // namespace cqa
