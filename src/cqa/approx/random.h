// Seeded randomness for the approximation engines.
//
// xoshiro256++ (public-domain algorithm by Blackman & Vigna), plus the
// paper's witness operator W (Abiteboul-Vianu) realized as a uniform
// sampler.

#ifndef CQA_APPROX_RANDOM_H_
#define CQA_APPROX_RANDOM_H_

#include <cstdint>
#include <vector>

namespace cqa {

/// xoshiro256++ PRNG; deterministic given a seed.
class Xoshiro {
 public:
  explicit Xoshiro(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform point in [0,1)^dim.
  std::vector<double> point(std::size_t dim);
  /// Standard normal (Box-Muller).
  double normal();

 private:
  std::uint64_t s_[4];
};

/// Counter-based stream seeding: a splitmix64-style mix of (seed,
/// stream). Chunk c of a partitioned Monte-Carlo sample draws from
/// Xoshiro(stream_seed(seed, c)), so the sample depends only on (seed,
/// chunk layout) -- never on which thread evaluates which chunk.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream);

/// The witness operator W: for Theorem 4's use, W draws uniform sample
/// points from I^m. Seeded, so derandomizable in tests.
class WitnessOperator {
 public:
  explicit WitnessOperator(std::uint64_t seed) : rng_(seed) {}
  /// One witness: a uniform point of [0,1)^m.
  std::vector<double> draw(std::size_t m) { return rng_.point(m); }
  /// An M-point sample (the "M-sample" of Section 3).
  std::vector<std::vector<double>> draw_sample(std::size_t count,
                                               std::size_t m);

 private:
  Xoshiro rng_;
};

}  // namespace cqa

#endif  // CQA_APPROX_RANDOM_H_
