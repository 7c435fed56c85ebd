#include "harness/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "dist/rng.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  xbar::dist::SplitMix64 mix(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  mix.next();
  return mix.next();
}

std::vector<double> poisson_schedule(double rate, double duration,
                                     std::uint64_t seed) {
  std::vector<double> out;
  if (rate <= 0.0 || duration <= 0.0) return out;
  out.reserve(static_cast<std::size_t>(rate * duration * 1.1) + 16);
  xbar::dist::Xoshiro256 rng(seed);
  double t = rng.exponential(rate);
  while (t < duration) {
    out.push_back(t);
    t += rng.exponential(rate);
  }
  return out;
}

ZipfKeys::ZipfKeys(std::size_t keys, double exponent) : cdf_(keys) {
  double sum = 0.0;
  for (std::size_t k = 0; k < keys; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::vector<std::uint32_t> ZipfKeys::draw(std::size_t count,
                                          std::uint64_t seed) const {
  std::vector<std::uint32_t> out(count);
  xbar::dist::Xoshiro256 rng(seed);
  for (std::uint32_t& key : out) {
    const double u = rng.uniform01();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    const auto index = static_cast<std::size_t>(it - cdf_.begin());
    key = static_cast<std::uint32_t>(std::min(index, cdf_.size() - 1));
  }
  return out;
}

}  // namespace perfbench
