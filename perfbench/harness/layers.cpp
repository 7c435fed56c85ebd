// Layer probes: each times one layer's public function over the workload's
// own inputs, outside any socket path, and reports the median of several
// rounds so one descheduled round does not move the figure.

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "core/algorithm1.hpp"
#include "core/algorithm1_batch.hpp"
#include "core/priority.hpp"
#include "fabric/crossbar.hpp"
#include "harness/latency.hpp"
#include "harness/schedule.hpp"
#include "harness/verify.hpp"
#include "harness/workloads.hpp"
#include "report/json_writer.hpp"
#include "report/solve_json.hpp"
#include "router/hash_ring.hpp"
#include "service/protocol.hpp"
#include "service/result_cache.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

constexpr int kRounds = 7;

/// Median over kRounds of (seconds per call) for `calls` calls of `fn`.
template <typename Fn>
double seconds_per_call(std::size_t calls, Fn&& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    const double s = time_seconds([&] {
      for (std::size_t i = 0; i < calls; ++i) fn(i);
    });
    rounds.push_back(s / static_cast<double>(calls));
  }
  return median(rounds);
}

}  // namespace

const std::vector<LayerMetricName>& layer_metric_names() {
  static const std::vector<LayerMetricName> names = {
      {"client.sent", "count"},
      {"client.ok", "count"},
      {"client.failed", "count"},
      {"client.retries", "count"},
      {"client.rtt_p50_ms", "ms"},
      {"client.late_p99_ms", "ms"},
      {"router.hop_p50_ms", "ms"},
      {"router.relay_mean_ms", "ms"},
      {"router.hedges_launched", "count"},
      {"router.hedges_won", "count"},
      {"router.failovers", "count"},
      {"router.shed", "count"},
      {"router.ejections", "count"},
      {"router.affinity_hit_ratio", "ratio"},
      {"router.place_ns", "ns"},
      {"service.svc_mean_ms", "ms"},
      {"service.parse_us", "us"},
      {"service.render_us", "us"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_evictions", "count"},
      {"service.cache_get_ns", "ns"},
      {"service.cache_put_ns", "ns"},
      {"service.rejections", "count"},
      {"core.solve_p50_ms", "ms"},
      {"core.a1_cells_per_s", "1/s"},
      {"core.batch16_ms", "ms"},
      {"core.rescales", "count"},
      {"core.escalations", "count"},
      {"core.ctmc_ms", "ms"},
      {"sweep.points", "count"},
      {"sweep.solver_cache_hit_ratio", "ratio"},
      {"sweep.pool_busy_ratio", "ratio"},
      {"sweep.not_ok", "count"},
      {"sim.events_per_s", "1/s"},
      {"trace.p50_untraced_ms", "ms"},
      {"trace.p50_traced_ms", "ms"},
      {"trace.overhead_p50_ms", "ms"},
      {"trace.spans", "count"},
      {"trace.client_mean_ms", "ms"},
      {"trace.hop_mean_ms", "ms"},
      {"trace.relay_mean_ms", "ms"},
      {"trace.svc_mean_ms", "ms"},
      {"trace.network_mean_ms", "ms"},
      {"trace.residual_mean_ms", "ms"},
  };
  return names;
}

void complete_layers(RunResult& run) {
  std::map<std::string, Metric> have;
  for (Metric& m : run.layer_metrics) have[m.name] = m;
  std::vector<Metric> ordered;
  for (const LayerMetricName& n : layer_metric_names()) {
    const auto it = have.find(n.name);
    if (it != have.end()) {
      ordered.push_back(it->second);
    } else {
      ordered.push_back({n.name, 0.0, n.unit});
    }
  }
  run.layer_metrics = std::move(ordered);
}

void add_layer_probes(RunResult& run, const std::vector<Job>& jobs,
                      std::uint64_t seed) {
  using namespace xbar;
  const std::size_t count = std::min<std::size_t>(jobs.size(), 64);
  std::vector<std::string> frames(count);
  std::vector<std::string> keys(count);
  std::vector<std::string> payloads(count);
  std::vector<Reference> refs(count);
  LatencyRecorder solve_ms(count);
  double rescales = 0.0;
  double escalations = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    render_frame(frames[i], i, jobs[i].body);
    keys[i] = service::parse_request(frames[i]).cache_key;
    if (keys[i].empty()) keys[i] = frames[i];
    solve_ms.record(1e3 * time_seconds([&] { refs[i] = reference_for(jobs[i]); }));
    rescales += refs[i].rescales;
    escalations += static_cast<double>(refs[i].escalations);
    std::ostringstream out;
    report::JsonWriter json(out, report::JsonWriter::Style::kCompact);
    json.begin_object();
    json.key("measures");
    report::write_measures_json(json, jobs[i].model, refs[i].measures);
    json.end_object();
    payloads[i] = std::move(out).str();
  }

  // Every timed call feeds `sink`, which is printed below, so the compiler
  // cannot drop a call whose result is otherwise unused.
  std::size_t sink = 0;
  run.add_layer("service.parse_us",
                1e6 * seconds_per_call(count, [&](std::size_t i) {
                  sink += service::parse_request(frames[i]).cache_key.size();
                }),
                "us");
  run.add_layer("service.render_us",
                1e6 * seconds_per_call(count, [&](std::size_t i) {
                  sink += service::render_ok(std::to_string(i), payloads[i],
                                             true)
                              .size();
                }),
                "us");
  {
    service::ResultCache cache(8, 64);
    std::vector<double> put_rounds;
    std::vector<double> get_rounds;
    for (int r = 0; r < kRounds; ++r) {
      put_rounds.push_back(time_seconds([&] {
        for (std::size_t i = 0; i < count; ++i) cache.put(keys[i], payloads[i]);
      }) / static_cast<double>(count));
      get_rounds.push_back(time_seconds([&] {
        for (std::size_t i = 0; i < count; ++i) {
          sink += cache.get(keys[i]).has_value() ? 1u : 0u;
        }
      }) / static_cast<double>(count));
    }
    run.add_layer("service.cache_get_ns", 1e9 * median(get_rounds), "ns");
    run.add_layer("service.cache_put_ns", 1e9 * median(put_rounds), "ns");
  }
  {
    const router::HashRing ring(2);
    const std::vector<char> alive(2, 1);
    const std::vector<std::size_t> outstanding(2, 0);
    run.add_layer("router.place_ns",
                  1e9 * seconds_per_call(count * 16, [&](std::size_t i) {
                    sink += ring.plan(router::HashRing::hash_key(
                                          keys[i % count]),
                                      alive, outstanding)
                                .front();
                  }),
                  "ns");
  }
  run.add_layer("core.solve_p50_ms", solve_ms.percentile(0.5).value, "ms");
  run.add_layer("core.rescales", rescales, "count");
  run.add_layer("core.escalations", escalations, "count");

  // Kernel figures at fixed sizes, on scenarios drawn from the same seed.
  {
    const core::CrossbarModel model = random_mix(128, derive_seed(seed, 71));
    core::Algorithm1Options options;
    options.backend = core::Algorithm1Backend::kDoubleDynamicScaling;
    const double s = seconds_per_call(8, [&](std::size_t) {
      const core::Algorithm1Solver solver(model, options);
      sink += solver.degenerate() ? 1u : 0u;
    });
    run.add_layer("core.a1_cells_per_s", 129.0 * 129.0 / s, "1/s");
  }
  {
    std::vector<core::CrossbarModel> batch;
    for (std::uint64_t k = 0; k < 16; ++k) {
      batch.push_back(random_mix(128, derive_seed(seed, 200 + k)));
    }
    core::Algorithm1Options options;
    options.backend = core::Algorithm1Backend::kDoubleDynamicScaling;
    run.add_layer("core.batch16_ms",
                  1e3 * seconds_per_call(1, [&](std::size_t) {
                    const core::Algorithm1BatchSolver solver(batch, options);
                    sink += solver.batch_size();
                  }),
                  "ms");
  }
  {
    const core::CrossbarModel model = random_mix(8, derive_seed(seed, 72));
    run.add_layer("core.ctmc_ms",
                  1e3 * seconds_per_call(1, [&](std::size_t) {
                    const core::PriorityCtmcSolver solver(model);
                    sink += solver.num_states();
                  }),
                  "ms");
  }
  {
    const core::CrossbarModel model = random_mix(16, derive_seed(seed, 73));
    fabric::CrossbarFabric fabric(16, 16);
    sim::SimulationConfig config;
    config.warmup_time = 50.0;
    config.measurement_time = 400.0;
    config.seed = derive_seed(seed, 74);
    sim::SimulationResult result;
    const double s = time_seconds([&] {
      sim::Simulator simulator(model, fabric, config);
      result = simulator.run();
    });
    run.add_layer("sim.events_per_s", static_cast<double>(result.events) / s,
                  "1/s");
  }
  note("layer probes: checksum " + std::to_string(sink));
}

}  // namespace perfbench
