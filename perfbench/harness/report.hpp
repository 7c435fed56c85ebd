// Metric collection and the result line.
//
// Every metric is printed by name and unit as it is measured (human-
// readable lines on stdout), and the run ends with exactly one JSON object
// on the last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;       ///< end-to-end (untraced run)
  std::vector<Metric> layer_metrics; ///< per-layer (traced run)

  void add(std::string name, double value, std::string unit);
  void add_layer(std::string name, double value, std::string unit);
  void fail(std::string why);
};

/// Seconds of wall time `fn` took.
template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Print every set-up time of a run; setup_s reports their median.
///
/// No workload times its set-ups first.  On a shared virtual machine a
/// process that starts after an idle spell runs faster for its first
/// fraction of a second, by an amount that depends on how long the machine
/// idled, so set-ups timed first read fast in one run and slow in the
/// next.  The serving workloads time theirs after the measured phase;
/// offline_sweep spreads them over it.
void describe_setups(const std::vector<double>& seconds);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Print a progress/info line (stdout, flushed).
void note(const std::string& line);

/// Render the final result line for the given metric list.
[[nodiscard]] std::string result_line(const RunResult& run, bool traced);

}  // namespace perfbench

