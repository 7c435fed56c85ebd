// The three workloads and the layer probes they share.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "harness/scenarios.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured time of one run
  bool trace = false;     ///< the traced run: per-layer metrics
  std::string trace_path; ///< where the traced run writes its spans
};

/// A run whose measurement cannot be trusted (undersized fleet, recorder
/// overflow, trial past its wall budget at the nominal rate).  Thrown, so
/// the run ends loudly instead of reporting numbers.
class InvalidRun : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[nodiscard]] RunResult run_fleet_hot(const Options& options);
[[nodiscard]] RunResult run_cold_direct(const Options& options);
[[nodiscard]] RunResult run_offline_sweep(const Options& options);

/// Pure-function layer timings over a workload's own inputs, added to the
/// traced run of every workload: service.parse_us / render_us /
/// cache_get_ns / cache_put_ns, router.place_ns, core.solve_p50_ms /
/// a1_cells_per_s / batch16_ms / ctmc_ms / rescales / escalations, and
/// sim.events_per_s.
void add_layer_probes(RunResult& run, const std::vector<Job>& jobs,
                      std::uint64_t seed);

struct LayerMetricName {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order.
[[nodiscard]] const std::vector<LayerMetricName>& layer_metric_names();

/// Order `run.layer_metrics` as layer_metric_names() and add the metrics of
/// layers this workload's path does not cross as 0, so every traced run
/// names every metric.
void complete_layers(RunResult& run);

}  // namespace perfbench
