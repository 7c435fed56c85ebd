// Seeded open-loop arrival schedules and key choice.
//
// Every input the benchmark sends is derived from its --seed: the same
// seed gives the same arrival times, the same key sequence and the same
// scenarios, so two runs differ only in how the system under test behaved.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Deterministic 64-bit mixer for deriving sub-seeds (seed, stream) ->
/// independent seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream) noexcept;

/// Intended send offsets (seconds from phase start) of a Poisson process
/// at `rate` per second over [0, duration).  Deterministic in `seed`.
[[nodiscard]] std::vector<double> poisson_schedule(double rate,
                                                   double duration,
                                                   std::uint64_t seed);

/// Zipf-like key chooser over `keys` items: P(k) proportional to
/// 1 / (k + 1)^exponent.  Deterministic in `seed`.
class ZipfKeys {
 public:
  ZipfKeys(std::size_t keys, double exponent);
  /// Draw `count` key indexes.
  [[nodiscard]] std::vector<std::uint32_t> draw(std::size_t count,
                                                std::uint64_t seed) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
