// cold_direct: one Server, no router on the measured path (the traced run
// adds a routed phase for the router.* metrics).  Every request is a unique
// n=128 three-class scenario (Poisson, Pascal-bursty, smooth wide) solved
// with Algorithm 1, so every request misses the result cache and the
// per-worker solver cache, inserts and evicts.  Arrivals are Poisson at a
// fixed rate well below the knee; the paper's burstiness enters through the
// solved classes, not the arrival process.

#include <algorithm>
#include <memory>

#include "harness/ladder.hpp"
#include "harness/schedule.hpp"
#include "harness/serving.hpp"
#include "harness/verify.hpp"
#include "harness/workloads.hpp"
#include "router/router.hpp"
#include "service/server.hpp"

namespace perfbench {

namespace {

// Fixed workload parameters (absolute numbers; see perfbench/README.md).
constexpr std::size_t kSenders = 2;
constexpr unsigned kWorkers = 6;
constexpr double kNominalRps = 300.0;
constexpr double kLadderLo = 100.0;
constexpr double kLadderHi = 4000.0;
constexpr double kLadderRatio = 1.05;
constexpr double kLimitMs = 12.0;
constexpr std::size_t kWarmups = 64;  ///< unique solves of every set-up
constexpr std::uint64_t kWarmupStream = 50;
constexpr std::uint64_t kSampleEvery = 32;  ///< verification sample rate
constexpr std::uint64_t kSetups = 9;
constexpr double kRelTol = 1e-9;
/// The traced run's router in front of the server (router.* metrics).
/// Server workers cover its pool, a relay, a hedge and a health probe
/// (DESIGN.md 12.4).
constexpr unsigned kRouterWorkers = 2;
constexpr std::size_t kPoolMaxIdle = 1;
static_assert(kWorkers >= kPoolMaxIdle + kSenders + 2);

/// Whether request `index` of `stream` is in the verification sample.
bool sampled(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return derive_seed(derive_seed(seed, 900 + stream), index) % kSampleEvery ==
         0;
}

/// Unique bodies for `count` requests of `stream`, plus the sample mask.
void build_stream(std::uint64_t seed, std::uint64_t stream, std::size_t count,
                  PhaseSpec& spec) {
  auto bodies = std::make_shared<std::vector<std::string>>();
  auto keep = std::make_shared<std::vector<char>>(count, 0);
  bodies->reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    bodies->push_back(cold_job(seed, stream, i).body);
    (*keep)[i] = sampled(seed, stream, i) ? 1 : 0;
  }
  spec.bodies = std::move(bodies);
  spec.keep = std::move(keep);
  spec.stream = stream;
}

PhaseSpec open_spec(std::uint64_t seed, double rate, double duration,
                    std::uint64_t stream) {
  PhaseSpec spec;
  spec.rate = rate;
  spec.schedules = sender_schedules(rate, duration, kSenders,
                                    derive_seed(seed, 300 + stream));
  std::uint32_t next = 0;
  for (const std::vector<double>& schedule : spec.schedules) {
    std::vector<std::uint32_t> picks(schedule.size());
    for (std::uint32_t& p : picks) p = next++;
    spec.picks.push_back(std::move(picks));
  }
  build_stream(seed, stream, next, spec);
  return spec;
}

struct Backend {
  std::unique_ptr<xbar::service::Server> server;
  Senders senders;

  ~Backend() {
    senders.clear();
    if (server) server->stop();
  }
};

}  // namespace

RunResult run_cold_direct(const Options& options) {
  pin_serving("cold_direct");
  // Thread-per-connection: every sender pins one worker for the run.
  if (kWorkers < kSenders + 1) {
    throw InvalidRun("cold_direct undersized: workers < senders + 1");
  }
  RunResult run;
  const std::uint64_t seed = options.seed;

  ServingPlan plan;
  plan.open_phase = [&](double rate, double duration, std::uint64_t stream) {
    return open_spec(seed, rate, duration, stream);
  };
  plan.nominal = nominal_slices(plan.open_phase, kNominalRps, options.seconds);
  PhaseSpec warmup = closed_loop_spec(nullptr, first_indices(kWarmups),
                                      kSenders);
  build_stream(seed, kWarmupStream, kWarmups, warmup);

  // Set-up: server start, sender connections, and a first batch of unique
  // solves, in which every worker pays its lazy set-up (solver grids,
  // arenas) before the first timed request.
  auto set_up = [&](std::uint64_t i) {
    auto backend = std::make_unique<Backend>();
    xbar::service::ServerConfig config;
    config.workers = kWorkers;
    config.idle_poll_seconds = 0.05;
    backend->server = std::make_unique<xbar::service::Server>(config);
    backend->server->start();
    backend->senders = connect_senders(backend->server->port(), kSenders,
                                       derive_seed(seed, 8 + i));
    if (backend->senders.size() != kSenders) {
      throw InvalidRun("cold_direct: a sender could not reach the server");
    }
    if (run_phase(backend->senders, warmup).ok != kWarmups) {
      throw InvalidRun("cold_direct: a warm-up solve failed");
    }
    return backend;
  };
  std::unique_ptr<Backend> backend = set_up(0);

  plan.ladder = geometric_ladder(kLadderLo, kLadderHi, kLadderRatio);
  plan.limit_ms = kLimitMs;
  std::size_t verified = 0;
  plan.verify = [&](RunResult& r, const PhaseResult& phase) {
    std::uint64_t wrong = 0;
    for (const auto& [index, response] : phase.kept) {
      const Job job = cold_job(seed, phase.stream, index);
      if (auto why = check_response(response, reference_for(job), kRelTol)) {
        r.fail("cold_direct stream " + std::to_string(phase.stream) +
               " request " + std::to_string(index) + ": " + *why);
        ++wrong;
      }
      ++verified;
    }
    return wrong;
  };

  if (!options.trace) {
    run_serving(run, backend->senders, plan, options.seconds);
    run.add("rss_mb", peak_rss_mb(), "MiB");
    note("verified " + std::to_string(verified) + " sampled responses");
    if (verified == 0) run.fail("cold_direct: no response was verified");
    // Set-ups are timed after the measured phase (see describe_setups).
    std::vector<double> setups;
    for (std::uint64_t i = 1; i <= kSetups; ++i) {
      backend.reset();
      setups.push_back(time_seconds([&] { backend = set_up(i); }));
    }
    describe_setups(setups);
    run.add("setup_s", median(setups), "s");
    return run;
  }

  // ---- Traced run: per-layer metrics. ----
  const PhaseSpec stream =
      open_spec(seed, kNominalRps, 0.3 * options.seconds, 1);
  const PhaseResult untraced = run_phase(backend->senders, stream);
  describe_phase("untraced", untraced);
  TraceLog log;
  // A second stream of unique scenarios: replaying stream 1 would hit the
  // result cache the untraced phase just filled.
  const PhaseSpec traced_stream =
      traced_spec(open_spec(seed, kNominalRps, 0.3 * options.seconds, 2), log);
  const xbar::service::StatsSnapshot before = backend->server->stats();
  const PhaseResult traced = run_phase(backend->senders, traced_stream);
  const xbar::service::StatsSnapshot after = backend->server->stats();
  describe_phase("traced", traced);
  for (const PhaseResult* r : {&untraced, &traced}) {
    account_phase(run, *r, plan.verify(run, *r));
  }

  // The router layer on this workload's own requests: a third stream of
  // unique scenarios at the same rate through a Router in front of the
  // server.  This workload has no router on its measured path; the
  // end-to-end metrics it gates do not include this phase.
  backend->senders.clear();
  xbar::router::RouterConfig rc;
  rc.backends.push_back({"127.0.0.1", backend->server->port()});
  rc.workers = kRouterWorkers;
  rc.pool_max_idle = kPoolMaxIdle;
  rc.idle_poll_seconds = 0.05;
  rc.seed = derive_seed(seed, 7);
  xbar::router::Router router(rc);
  router.start();
  Senders routed_senders =
      connect_senders(router.port(), kSenders, derive_seed(seed, 9));
  if (routed_senders.size() != kSenders) {
    throw InvalidRun("cold_direct: a sender could not reach the router");
  }
  const xbar::router::RouterStatsSnapshot rb = router.stats();
  const PhaseResult routed = run_phase(
      routed_senders, open_spec(seed, kNominalRps, 0.2 * options.seconds, 3));
  const xbar::router::RouterStatsSnapshot ra = router.stats();
  describe_phase("routed", routed);
  routed_senders.clear();
  router.stop();
  account_phase(run, routed, plan.verify(run, routed));
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  run.add_layer("router.hop_p50_ms",
                routed.latency.percentile(0.5).value -
                    untraced.latency.percentile(0.5).value,
                "ms");
  run.add_layer(
      "router.relay_mean_ms",
      1e3 *
          (ra.backend_latency.mean *
               static_cast<double>(ra.backend_latency.count) -
           rb.backend_latency.mean *
               static_cast<double>(rb.backend_latency.count)) /
          std::max(1.0, delta(ra.backend_latency.count,
                              rb.backend_latency.count)),
      "ms");
  run.add_layer("router.hedges_launched",
                delta(ra.hedges_launched, rb.hedges_launched), "count");
  run.add_layer("router.hedges_won", delta(ra.hedges_won, rb.hedges_won),
                "count");
  run.add_layer("router.failovers", delta(ra.failovers, rb.failovers),
                "count");
  run.add_layer("router.shed", delta(ra.shed, rb.shed), "count");
  run.add_layer("router.ejections", delta(ra.ejections, rb.ejections),
                "count");
  run.add_layer("router.affinity_hit_ratio",
                static_cast<double>(routed.cached) /
                    std::max(1.0, static_cast<double>(routed.ok)),
                "ratio");

  add_client_layers(run, untraced, traced, log);
  const double svc_ms =
      1e3 *
      (after.latency.mean * static_cast<double>(after.latency.count) -
       before.latency.mean * static_cast<double>(before.latency.count)) /
      std::max(1.0, static_cast<double>(after.latency.count -
                                        before.latency.count));
  const std::uint64_t lookups = (after.cache.hits + after.cache.misses) -
                                (before.cache.hits + before.cache.misses);
  run.add_layer("service.svc_mean_ms", svc_ms, "ms");
  run.add_layer("service.cache_hit_ratio",
                static_cast<double>(after.cache.hits - before.cache.hits) /
                    std::max(1.0, static_cast<double>(lookups)),
                "ratio");
  run.add_layer("service.cache_evictions",
                static_cast<double>(after.cache.evictions -
                                    before.cache.evictions),
                "count");
  run.add_layer("service.rejections",
                static_cast<double>(after.overload_rejections -
                                    before.overload_rejections),
                "count");
  std::vector<Job> jobs;
  for (std::uint64_t i = 0; i < 64; ++i) jobs.push_back(cold_job(seed, 1, i));
  add_layer_probes(run, jobs, seed);
  // Decomposition: client ~= service + network (no router on this path).
  const double client_ms = log.mean_ms("client.call");
  run.add_layer("trace.client_mean_ms", client_ms, "ms");
  run.add_layer("trace.svc_mean_ms", svc_ms, "ms");
  run.add_layer("trace.network_mean_ms", client_ms - svc_ms, "ms");
  finish_trace(run, log, options.trace_path);
  return run;
}

}  // namespace perfbench
