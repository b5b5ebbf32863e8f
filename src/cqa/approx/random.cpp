#include "cqa/approx/random.h"

#include <cmath>

namespace cqa {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
// splitmix64 for seeding.
std::uint64_t splitmix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

Xoshiro::Xoshiro(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix(&sm);
}

std::uint64_t Xoshiro::next() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Xoshiro::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Xoshiro::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::vector<double> Xoshiro::point(std::size_t dim) {
  std::vector<double> p(dim);
  for (auto& x : p) x = uniform();
  return p;
}

double Xoshiro::normal() {
  double u1 = uniform();
  double u2 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::vector<double>> WitnessOperator::draw_sample(
    std::size_t count, std::size_t m) {
  std::vector<std::vector<double>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(rng_.point(m));
  return out;
}

}  // namespace cqa
