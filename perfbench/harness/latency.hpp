// Exact latency recorder: raw samples in a preallocated buffer, exact
// order statistics, and the sample counts a percentile rests on.
//
// No bucketing anywhere: service::Histogram's 2^(1/4) buckets are ~19%
// wide, wider than the bounds the benchmark gates on, so every quantile
// here is an order statistic of the raw samples.  Recording never
// allocates; a recorder that runs out of room counts the overflow, and the
// caller treats any overflow as an invalid run.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One exact percentile and the evidence behind it.
struct Percentile {
  double value = 0.0;        ///< nearest-rank order statistic
  std::size_t beyond = 0;    ///< samples strictly ranked after `value`
  /// A percentile is reportable only with at least 10 samples beyond it.
  [[nodiscard]] bool supported() const noexcept { return beyond >= 10; }
};

class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t capacity = 0);

  /// Record one sample; never allocates.  Past capacity the sample is
  /// dropped and counted in overflow().
  void record(double value) noexcept {
    if (size_ < samples_.size()) {
      samples_[size_++] = value;
    } else {
      ++overflow_;
    }
  }

  /// Append every sample of `other` (growing this buffer if needed).
  void merge(const LatencyRecorder& other);

  [[nodiscard]] std::size_t count() const noexcept { return size_; }
  [[nodiscard]] std::size_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return samples_.size();
  }

  /// Nearest-rank percentile: the ceil(q * n)-th smallest sample.  Zero
  /// (with beyond = 0) when empty.
  [[nodiscard]] Percentile percentile(double q) const;

  [[nodiscard]] double mean() const;

  /// The recorded samples in recording order.
  [[nodiscard]] const double* data() const noexcept { return samples_.data(); }

 private:
  void sort_if_needed() const;

  std::vector<double> samples_;
  std::size_t size_ = 0;
  std::size_t overflow_ = 0;
  mutable std::vector<double> sorted_;
  mutable std::size_t sorted_size_ = static_cast<std::size_t>(-1);
};

/// Median of a small set of values (the upper middle for even counts is
/// avoided: even counts average the two middle values).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace perfbench
