#include "harness/latency.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

LatencyRecorder::LatencyRecorder(std::size_t capacity) : samples_(capacity) {}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  if (size_ + other.size_ > samples_.size()) {
    samples_.resize(size_ + other.size_);
  }
  std::copy(other.samples_.begin(),
            other.samples_.begin() + static_cast<std::ptrdiff_t>(other.size_),
            samples_.begin() + static_cast<std::ptrdiff_t>(size_));
  size_ += other.size_;
  overflow_ += other.overflow_;
}

void LatencyRecorder::sort_if_needed() const {
  if (sorted_size_ == size_ && sorted_.size() == size_) return;
  sorted_.assign(samples_.begin(),
                 samples_.begin() + static_cast<std::ptrdiff_t>(size_));
  std::sort(sorted_.begin(), sorted_.end());
  sorted_size_ = size_;
}

Percentile LatencyRecorder::percentile(double q) const {
  Percentile p;
  if (size_ == 0) return p;
  sort_if_needed();
  const double n = static_cast<double>(size_);
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, size_);
  p.value = sorted_[rank - 1];
  p.beyond = size_ - rank;
  return p;
}

double LatencyRecorder::mean() const {
  if (size_ == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < size_; ++i) sum += samples_[i];
  return sum / static_cast<double>(size_);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
