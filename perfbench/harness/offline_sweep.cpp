// offline_sweep: no sockets.  A fixed figure-regeneration job set on a
// sweep::ThreadPool: a 32-point load sweep at n=128, a shared-grid
// dimension sweep over n=4..256, a 16-scenario Algorithm1BatchSolver batch,
// @priority CTMC and @speedup-2 points, and one short simulator
// replication.  The job set runs back to back for the measured time, each
// repetition from cold solver caches; offline_s is its mean wall time.

#include <algorithm>
#include <time.h>

#include <cmath>
#include <memory>

#include "core/algorithm1_batch.hpp"
#include "core/algorithm2.hpp"
#include "core/brute_force.hpp"
#include "core/priority.hpp"
#include "core/solver.hpp"
#include "fabric/crossbar.hpp"
#include "harness/latency.hpp"
#include "harness/schedule.hpp"
#include "harness/serving.hpp"
#include "harness/verify.hpp"
#include "harness/workloads.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

namespace {

using xbar::core::CrossbarModel;
using xbar::core::Dims;
using xbar::core::Measures;
using xbar::core::TrafficClass;

// Fixed workload parameters (absolute numbers; see perfbench/README.md).
/// Pool participants (workers + caller).  Half the cores: a parallel stage
/// that needs every core slows whenever anything else on the machine runs.
constexpr unsigned kThreads = 2;
constexpr std::size_t kLoadPoints = 32;
constexpr unsigned kLoadSide = 128;
constexpr unsigned kDimensionMax = 256;
constexpr unsigned kDimensionStep = 8;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kPriorityPoints = 4;
constexpr std::size_t kSpeedupPoints = 16;
constexpr double kSimTime = 15.0;  ///< simulated measurement window
constexpr std::uint64_t kSetups = 9;
constexpr double kA1VsA2Tol = 1e-8;
constexpr double kExactTol = 1e-9;

/// `base` with every class's offered load (alpha~) scaled by `factor`;
/// beta~ is kept, so Pascal classes stay admissible.
CrossbarModel scaled(const CrossbarModel& base, double factor) {
  std::vector<TrafficClass> classes(base.classes().begin(),
                                    base.classes().end());
  for (TrafficClass& c : classes) c.alpha_tilde *= factor;
  return CrossbarModel(base.dims(), std::move(classes));
}

/// The fixed job set, built from the seed during set-up.
struct JobSet {
  std::vector<xbar::sweep::ScenarioPoint> load_points;
  CrossbarModel dimension_model = random_mix(kDimensionMax, 0, false);
  std::vector<Dims> dimension_sizes;
  std::vector<CrossbarModel> batch;
  std::vector<CrossbarModel> priority_models;
  std::vector<CrossbarModel> speedup_models;
  CrossbarModel sim_model = random_mix(16, 0, false);

  [[nodiscard]] std::size_t jobs() const {
    return load_points.size() + dimension_sizes.size() + batch.size() +
           priority_models.size() + speedup_models.size() + 1;
  }
};

JobSet build_jobs(std::uint64_t seed) {
  JobSet set;
  const CrossbarModel base = random_mix(kLoadSide, derive_seed(seed, 1), false);
  for (std::size_t i = 0; i < kLoadPoints; ++i) {
    const double factor = 0.25 + 1.75 * static_cast<double>(i) /
                                     static_cast<double>(kLoadPoints - 1);
    set.load_points.push_back({scaled(base, factor), std::nullopt});
  }
  set.dimension_model = random_mix(kDimensionMax, derive_seed(seed, 2), false);
  for (unsigned n = 4; n <= kDimensionMax; n += kDimensionStep) {
    set.dimension_sizes.push_back(Dims::square(n));
  }
  for (std::size_t k = 0; k < kBatch; ++k) {
    set.batch.push_back(random_mix(kLoadSide, derive_seed(seed, 10 + k), false));
  }
  for (std::size_t k = 0; k < kPriorityPoints; ++k) {
    set.priority_models.push_back(
        random_mix(6 + 2 * static_cast<unsigned>(k % 2),
                   derive_seed(seed, 40 + k), false));
  }
  for (std::size_t k = 0; k < kSpeedupPoints; ++k) {
    set.speedup_models.push_back(
        random_mix(64, derive_seed(seed, 50 + k), false));
  }
  // The replication's cost scales with its arrival rates, so its scenario
  // is fixed; the seed reaches it through the simulator's RNG stream.
  set.sim_model = random_mix(16, 60, false);
  return set;
}

/// Everything one repetition of the job set produced.
struct Outcome {
  std::vector<Measures> measures;  ///< every job's answer, in job order
  /// Compute time of every job the benchmark submits on its own (CTMC,
  /// speedup and simulator jobs); sweep and batch jobs share grids and
  /// traversals, so they have no time of their own.
  std::vector<double> job_ms;
  std::size_t not_ok = 0;          ///< sweep points not kOk
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  double cpu_seconds = 0.0;  ///< process CPU time (every pool thread)
  double wall_seconds = 0.0;
  double sim_seconds = 0.0;
  xbar::sim::SimulationResult sim;
};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One repetition of the job set.
Outcome run_jobs(const JobSet& set, xbar::sweep::ThreadPool& pool,
                 std::uint64_t seed, SpanBuffer* spans) {
  Outcome out;
  const auto start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  auto stage = [&](const char* name, auto&& body) {
    const auto t0 = Clock::now();
    body();
    if (spans != nullptr) spans->add(name, 0, -1, t0, Clock::now());
  };
  auto sweep_stage = [&](auto&& sweep) {
    xbar::sweep::SweepOptions options;
    options.threads = kThreads;
    options.pool = &pool;
    options.fault.isolate = true;
    xbar::sweep::SweepRunner runner(options);
    const xbar::sweep::SweepReport report = sweep(runner);
    const std::vector<Measures> answers = report.measures();
    out.measures.insert(out.measures.end(), answers.begin(), answers.end());
    out.not_ok += report.results.size() -
                  report.count(xbar::sweep::PointState::kOk);
    out.cache_hits += report.total_hits();
    out.cache_misses += report.total_misses();
  };

  stage("sweep.load_sweep", [&] {
    sweep_stage([&](xbar::sweep::SweepRunner& runner) {
      return runner.run_report(set.load_points);
    });
  });
  stage("sweep.dimension_sweep", [&] {
    sweep_stage([&](xbar::sweep::SweepRunner& runner) {
      return runner.dimension_sweep_report(set.dimension_model,
                                           set.dimension_sizes);
    });
  });
  stage("core.batch16", [&] {
    xbar::core::Algorithm1Options a1;
    a1.backend = xbar::core::Algorithm1Backend::kDoubleDynamicScaling;
    const xbar::core::Algorithm1BatchSolver solver(set.batch, a1);
    for (std::size_t s = 0; s < set.batch.size(); ++s) {
      out.measures.push_back(solver.solve(s));
    }
  });
  auto parallel_points = [&](const std::vector<CrossbarModel>& models,
                             const xbar::core::SolverSpec& spec) {
    std::vector<Measures> answers(models.size());
    std::vector<double> ms(models.size());
    pool.parallel_for(models.size(), kThreads, [&](std::size_t i, unsigned) {
      const auto t0 = Clock::now();
      answers[i] = xbar::core::solve(models[i], spec);
      ms[i] = ms_since(t0);
    });
    out.measures.insert(out.measures.end(), answers.begin(), answers.end());
    out.job_ms.insert(out.job_ms.end(), ms.begin(), ms.end());
  };
  stage("core.priority_ctmc", [&] {
    parallel_points(set.priority_models,
                    xbar::core::SolverSpec{}.with_fabric(
                        xbar::core::FabricModel::priority()));
  });
  stage("core.speedup2", [&] {
    parallel_points(set.speedup_models,
                    xbar::core::SolverSpec::fast().with_fabric(
                        xbar::core::FabricModel::speedup_s(2)));
  });
  stage("sim.replication", [&] {
    xbar::fabric::CrossbarFabric fabric(16, 16);
    xbar::sim::SimulationConfig config;
    config.warmup_time = 5.0;
    config.measurement_time = kSimTime;
    config.seed = derive_seed(seed, 61);
    const auto t0 = Clock::now();
    xbar::sim::Simulator simulator(set.sim_model, fabric, config);
    out.sim = simulator.run();
    out.sim_seconds = 1e-3 * ms_since(t0);
    Measures m;
    for (const auto& c : out.sim.per_class) {
      xbar::core::ClassMeasures cm;
      cm.blocking = c.time_congestion.mean;
      cm.concurrency = c.concurrency.mean;
      m.per_class.push_back(cm);
    }
    out.measures.push_back(m);
    out.job_ms.push_back(1e3 * out.sim_seconds);
  });
  out.wall_seconds = 1e-3 * ms_since(start);
  out.cpu_seconds = process_cpu_seconds() - cpu_start;
  return out;
}

/// The paper-level oracles, checked once on the first repetition.
void verify_first(RunResult& run, const JobSet& set, const Outcome& first) {
  std::size_t at = 0;
  // Algorithm 1 (the sweep's fast path) agrees with Algorithm 2.
  for (const auto& point : set.load_points) {
    const Measures a2 = xbar::core::Algorithm2Solver(point.model).solve();
    if (auto why = compare_measures(first.measures[at], a2, kA1VsA2Tol, 1e-12)) {
      run.fail("load point " + std::to_string(at) + " A1 vs A2: " + *why);
    }
    ++at;
  }
  // Small sizes of the shared-grid sweep agree with brute force.
  for (const Dims& d : set.dimension_sizes) {
    if (d.n1 <= 8) {
      const Measures brute = xbar::core::BruteForceSolver(
          set.dimension_model.with_dims_same_tuple_rates(d)).solve();
      if (auto why = compare_measures(first.measures[at], brute, kExactTol,
                                      1e-14)) {
        run.fail("dimension " + std::to_string(d.n1) + " vs brute force: " +
                 *why);
      }
    }
    ++at;
  }
  // The batch agrees with single solves.
  for (const CrossbarModel& m : set.batch) {
    const Measures single = xbar::core::solve(m, xbar::core::SolverSpec::fast());
    if (auto why = compare_measures(first.measures[at], single, kExactTol,
                                    1e-14)) {
      run.fail("batch vs single: " + *why);
    }
    ++at;
  }
  // @priority at reservation step 0 is the product form.
  for (const CrossbarModel& m : set.priority_models) {
    xbar::core::PriorityOptions step0;
    step0.reservation_step = 0;
    const Measures ctmc = xbar::core::PriorityCtmcSolver(m, step0).solve();
    if (auto why = compare_measures(ctmc, xbar::core::solve(m), kExactTol,
                                    1e-12)) {
      run.fail("priority step 0 vs product form: " + *why);
    }
  }
  at += set.priority_models.size() + set.speedup_models.size();
  // Simulated time congestion falls inside the replication CI of the
  // analytic blocking (3 half-widths plus the bench's 5e-3 slack).
  const Measures analytic = xbar::core::solve(set.sim_model);
  for (std::size_t r = 0; r < first.sim.per_class.size(); ++r) {
    const auto& est = first.sim.per_class[r].time_congestion;
    if (std::fabs(est.mean - analytic.per_class[r].blocking) >
        3.0 * est.half_width + 5e-3) {
      run.fail("simulated blocking of class " + std::to_string(r) +
               " outside the CI of the analytic value");
    }
  }
}

/// Jobs of `rep` whose answers differ from the verified first repetition.
std::size_t differing(const Outcome& first, const Outcome& rep) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < rep.measures.size(); ++i) {
    if (i >= first.measures.size() ||
        compare_measures(rep.measures[i], first.measures[i], 0.0)) {
      ++bad;
    }
  }
  return bad + (first.measures.size() - std::min(first.measures.size(),
                                                 rep.measures.size()));
}

}  // namespace

RunResult run_offline_sweep(const Options& options) {
  RunResult run;
  // Set-up: pool start, building the job set's scenarios, and one warm-up
  // repetition that pays the lazy set-up (grid arenas, first-touch pages)
  // so the timed repetitions do not.
  std::unique_ptr<xbar::sweep::ThreadPool> pool;
  JobSet set;
  auto set_up = [&] {
    pool = std::make_unique<xbar::sweep::ThreadPool>(kThreads - 1);
    set = build_jobs(options.seed);
    (void)run_jobs(set, *pool, options.seed, nullptr);
  };

  // The measured time is split into slots, each opened by a timed set-up,
  // so the set-ups sample the same stretch of time as the repetitions: a
  // shared virtual machine's speed shifts from one second to the next
  // (see describe_setups).  The traced run uses one slot and reports no
  // set-up time.
  TraceLog log;
  SpanBuffer* spans = options.trace ? &log.buffer(1 << 16) : nullptr;
  const double budget = options.trace ? 0.5 * options.seconds : options.seconds;
  const std::uint64_t slots = options.trace ? 1 : kSetups;
  std::vector<double> setups;
  std::vector<Outcome> reps;
  double measured = 0.0;  ///< repetitions only, set-ups excluded
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    pool.reset();
    setups.push_back(time_seconds(set_up));
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
      reps.push_back(run_jobs(set, *pool, options.seed, spans));
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < budget / static_cast<double>(slots));
    measured += elapsed;
  }

  // Verification, outside the timed loop.
  verify_first(run, set, reps.front());
  std::uint64_t wrong = 0;
  std::uint64_t not_ok = 0;
  LatencyRecorder job_ms(set.jobs() * reps.size());
  for (const Outcome& rep : reps) {
    wrong += differing(reps.front(), rep);
    not_ok += rep.not_ok;
    for (const double ms : rep.job_ms) job_ms.record(ms);
  }
  const std::uint64_t jobs = set.jobs() * reps.size();
  const std::uint64_t bad = std::min<std::uint64_t>(jobs, wrong + not_ok);
  if (bad > 0) run.fail(std::to_string(bad) + " offline jobs not ok");
  run.attempted = jobs;
  run.failed = bad;
  note("offline_sweep: " + std::to_string(reps.size()) + " repetitions of " +
       std::to_string(set.jobs()) + " jobs in " + std::to_string(measured) +
       " s");

  if (!options.trace) {
    // The result line carries every end-to-end metric on every workload.
    // This workload has no arrival process, so p50_ms is the median of the
    // individually submitted jobs' own times, and slo_rps is the job
    // throughput (derived from the same repetitions as offline_s).
    run.add("p50_ms", job_ms.percentile(0.50).value, "ms");
    run.add("slo_rps", static_cast<double>(jobs) / measured, "1/s");
    run.add("ok_ratio",
            static_cast<double>(jobs - bad) / static_cast<double>(jobs),
            "ratio");
    // The mean repetition, not the median: when the host's speed shifts
    // during a run, the mean moves with the share of time spent at each
    // speed, where the median jumps from one speed to the other.
    run.add("offline_s", measured / static_cast<double>(reps.size()), "s");
    run.add("rss_mb", peak_rss_mb(), "MiB");
    describe_setups(setups);
    run.add("setup_s", median(setups), "s");
    return run;
  }

  // ---- Traced run: per-layer metrics. ----
  std::size_t hits = 0;
  std::size_t misses = 0;
  double cpu = 0.0;
  double wall = 0.0;
  double sim_events = 0.0;
  double sim_seconds = 0.0;
  for (const Outcome& rep : reps) {
    hits += rep.cache_hits;
    misses += rep.cache_misses;
    cpu += rep.cpu_seconds;
    wall += rep.wall_seconds;
    sim_events += static_cast<double>(rep.sim.events);
    sim_seconds += rep.sim_seconds;
  }
  run.add_layer("sweep.points",
                static_cast<double>((set.load_points.size() +
                                     set.dimension_sizes.size()) *
                                    reps.size()),
                "count");
  run.add_layer("sweep.solver_cache_hit_ratio",
                static_cast<double>(hits) /
                    std::max(1.0, static_cast<double>(hits + misses)),
                "ratio");
  run.add_layer("sweep.pool_busy_ratio", cpu / (wall * kThreads), "ratio");
  run.add_layer("sweep.not_ok", static_cast<double>(not_ok), "count");
  std::vector<Job> jobs_for_probes;
  for (const auto& p : set.load_points) {
    jobs_for_probes.push_back({render_body("solve", p.model, "fast"), p.model});
  }
  add_layer_probes(run, jobs_for_probes, options.seed);
  // The kernel probes above time one call; the job set's own simulator
  // throughput is the figure that moves offline_s.
  for (Metric& m : run.layer_metrics) {
    if (m.name == "sim.events_per_s") m.value = sim_events / sim_seconds;
  }

  // Tracing overhead: the same repetitions untraced, then compare the
  // per-job p50 (the offline analogue of p50_ms).
  // Half the traced phase's length; twice its capacity leaves headroom.
  LatencyRecorder untraced_ms(2 * job_ms.capacity());
  const auto untraced_start = Clock::now();
  while (std::chrono::duration<double>(Clock::now() - untraced_start).count() <
         0.25 * options.seconds) {
    for (const double ms : run_jobs(set, *pool, options.seed, nullptr).job_ms) {
      untraced_ms.record(ms);
    }
  }
  const double untraced_p50 = untraced_ms.percentile(0.5).value;
  const double traced_p50 = job_ms.percentile(0.5).value;
  run.add_layer("trace.p50_untraced_ms", untraced_p50, "ms");
  run.add_layer("trace.p50_traced_ms", traced_p50, "ms");
  run.add_layer("trace.overhead_p50_ms", traced_p50 - untraced_p50, "ms");
  run.add_layer("trace.spans", static_cast<double>(log.span_count()), "count");
  finish_trace(run, log, options.trace_path);
  return run;
}

}  // namespace perfbench
