// fleet_hot: Router -> 2 Server backends on loopback, a primed set of
// cacheable solve + revenue keys drawn Zipf-like, Poisson arrivals at a
// fixed nominal rate.  Per-request overhead is the whole cost here.

#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>

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
constexpr std::size_t kKeys = 96;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kSenders = 2;
constexpr std::size_t kBackends = 2;
constexpr std::size_t kPoolMaxIdle = 2;
constexpr unsigned kBackendWorkers = 8;
constexpr unsigned kRouterWorkers = 6;
constexpr double kNominalRps = 3000.0;
constexpr double kLadderLo = 1000.0;
constexpr double kLadderHi = 20000.0;
constexpr double kLadderRatio = 1.05;
constexpr double kLimitMs = 4.0;  ///< the SLO limit on p90
constexpr std::uint64_t kSetups = 9;
constexpr double kRelTol = 1e-9;

using Bodies = std::shared_ptr<const std::vector<std::string>>;

/// A running fleet plus the senders dialled into its router.
struct Fleet {
  std::vector<std::unique_ptr<xbar::service::Server>> backends;
  std::unique_ptr<xbar::router::Router> router;
  Senders senders;

  ~Fleet() {
    senders.clear();
    if (router) router->stop();
    for (auto& b : backends) b->stop();
  }
};

/// DESIGN.md §12.4: backends are thread-per-connection, so each backend
/// needs a worker for every pooled router connection it can hold (the
/// idle pool, one per concurrently relaying router worker, a hedge and a
/// health probe).  An undersized fleet wedges instead of measuring.
void check_fleet_sizing() {
  const std::size_t needed = kPoolMaxIdle + kSenders + 2;
  if (kBackendWorkers < needed) {
    throw InvalidRun("fleet undersized: backend workers " +
                     std::to_string(kBackendWorkers) + " < pool_max_idle " +
                     std::to_string(kPoolMaxIdle) + " + senders " +
                     std::to_string(kSenders) + " + 2 (DESIGN.md 12.4)");
  }
  if (kRouterWorkers < kSenders + 1) {
    throw InvalidRun("fleet undersized: router workers < senders + 1");
  }
}

std::unique_ptr<Fleet> start_fleet(std::uint64_t seed) {
  auto fleet = std::make_unique<Fleet>();
  xbar::router::RouterConfig rc;
  for (std::size_t b = 0; b < kBackends; ++b) {
    xbar::service::ServerConfig sc;
    sc.workers = kBackendWorkers;
    sc.idle_poll_seconds = 0.05;
    fleet->backends.push_back(std::make_unique<xbar::service::Server>(sc));
    fleet->backends.back()->start();
    rc.backends.push_back({"127.0.0.1", fleet->backends.back()->port()});
  }
  rc.workers = kRouterWorkers;
  rc.pool_max_idle = kPoolMaxIdle;
  rc.idle_poll_seconds = 0.05;
  rc.seed = derive_seed(seed, 7);
  fleet->router = std::make_unique<xbar::router::Router>(rc);
  fleet->router->start();
  fleet->senders =
      connect_senders(fleet->router->port(), kSenders, derive_seed(seed, 8));
  if (fleet->senders.size() != kSenders) {
    throw InvalidRun("fleet_hot: a sender could not reach the router");
  }
  return fleet;
}

/// Send every key once (spread over the senders) and confirm the router
/// has seen enough backend latencies to arm its hedge.
void prime(Fleet& fleet, const Bodies& bodies) {
  const PhaseResult primed = run_phase(
      fleet.senders, closed_loop_spec(bodies, first_indices(kKeys), kSenders));
  if (primed.ok != kKeys) {
    throw InvalidRun("fleet_hot: priming failed for " +
                     std::to_string(kKeys - primed.ok) + " keys");
  }
  const xbar::router::HedgeConfig hedge;
  if (fleet.router->stats().backend_latency.count < hedge.warmup) {
    throw InvalidRun("fleet_hot: hedge not armed after priming");
  }
}

PhaseSpec open_spec(const Bodies& bodies, double rate, double duration,
                    std::uint64_t seed, const ZipfKeys& zipf) {
  PhaseSpec spec;
  spec.rate = rate;
  spec.bodies = bodies;
  spec.keep = std::make_shared<const std::vector<char>>(bodies->size(), 1);
  spec.schedules = sender_schedules(rate, duration, kSenders, seed);
  for (std::size_t s = 0; s < kSenders; ++s) {
    spec.picks.push_back(
        zipf.draw(spec.schedules[s].size(), derive_seed(seed, 100 + s)));
  }
  return spec;
}

/// Verified answers: key -> hash of a response checked against the
/// in-process computation.  Every ok answer must carry its key's hash.
struct AnswerCheck {
  const std::vector<Job>* jobs = nullptr;
  std::unordered_map<std::uint32_t, std::uint64_t> verified;
  std::map<std::uint32_t, Reference> refs;

  void absorb(RunResult& run, const PhaseResult& phase) {
    for (const auto& [key, response] : phase.kept) {
      if (verified.count(key)) continue;
      auto ref = refs.find(key);
      if (ref == refs.end()) {
        ref = refs.emplace(key, reference_for((*jobs)[key])).first;
      }
      if (auto why = check_response(response, ref->second, kRelTol)) {
        run.fail("fleet_hot key " + std::to_string(key) + ": " + *why);
        continue;
      }
      verified[key] = answer_hash(response);
    }
  }

  /// Ok answers of `phase` that do not match their key's verified answer.
  std::uint64_t mismatches(const PhaseResult& phase) const {
    std::uint64_t bad = 0;
    for (const auto& [key, hash] : phase.answers) {
      const auto it = verified.find(key);
      if (it == verified.end() || it->second != hash) ++bad;
    }
    return bad;
  }
};

}  // namespace

RunResult run_fleet_hot(const Options& options) {
  pin_serving("fleet_hot");
  check_fleet_sizing();
  RunResult run;
  const std::vector<Job> jobs = fleet_keys(kKeys, options.seed);
  auto key_bodies = std::make_shared<std::vector<std::string>>();
  for (const Job& j : jobs) key_bodies->push_back(j.body);
  const Bodies bodies = std::move(key_bodies);
  const ZipfKeys zipf(kKeys, kZipfExponent);

  // Set-up: fleet start, sender connections, priming, hedge arming.
  auto set_up = [&](std::uint64_t i) {
    std::unique_ptr<Fleet> fleet =
        start_fleet(derive_seed(options.seed, 10 + i));
    prime(*fleet, bodies);
    return fleet;
  };
  std::unique_ptr<Fleet> fleet = set_up(0);

  AnswerCheck check;
  check.jobs = &jobs;
  ServingPlan plan;
  plan.ladder = geometric_ladder(kLadderLo, kLadderHi, kLadderRatio);
  plan.limit_ms = kLimitMs;
  plan.open_phase = [&](double rate, double duration, std::uint64_t stream) {
    return open_spec(bodies, rate, duration,
                     derive_seed(options.seed, 100 + stream), zipf);
  };
  plan.nominal = nominal_slices(plan.open_phase, kNominalRps, options.seconds);
  plan.verify = [&](RunResult& r, const PhaseResult& phase) {
    check.absorb(r, phase);
    const std::uint64_t wrong = check.mismatches(phase);
    if (wrong > 0) {
      r.fail(std::to_string(wrong) + " answers differ from the verified ones");
    }
    return wrong;
  };

  if (!options.trace) {
    run_serving(run, fleet->senders, plan, options.seconds);
    run.add("rss_mb", peak_rss_mb(), "MiB");
    const xbar::router::RouterStatsSnapshot rs = fleet->router->stats();
    note("info router: hedges launched " + std::to_string(rs.hedges_launched) +
         " won " + std::to_string(rs.hedges_won) + ", failovers " +
         std::to_string(rs.failovers) + ", shed " + std::to_string(rs.shed) +
         ", ejections " + std::to_string(rs.ejections) + ", hedge delay " +
         std::to_string(1e3 * rs.hedge_delay_seconds) + " ms");
    if (check.verified.size() != kKeys) {
      run.fail("fleet_hot: only " + std::to_string(check.verified.size()) +
               " of " + std::to_string(kKeys) + " keys were verified");
    }
    // Set-ups are timed after the measured phase (see describe_setups).
    std::vector<double> setups;
    for (std::uint64_t i = 1; i <= kSetups; ++i) {
      fleet.reset();
      setups.push_back(time_seconds([&] { fleet = set_up(i); }));
    }
    describe_setups(setups);
    run.add("setup_s", median(setups), "s");
    return run;
  }

  // ---- Traced run: per-layer metrics. ----
  const PhaseSpec stream = open_spec(bodies, kNominalRps,
                                    0.25 * options.seconds,
                                    derive_seed(options.seed, 21), zipf);
  const PhaseResult untraced = run_phase(fleet->senders, stream);
  describe_phase("untraced", untraced);

  TraceLog log;
  const xbar::router::RouterStatsSnapshot router_before =
      fleet->router->stats();
  std::vector<xbar::service::StatsSnapshot> backend_before;
  for (auto& b : fleet->backends) backend_before.push_back(b->stats());
  const PhaseResult traced = run_phase(fleet->senders, traced_spec(stream, log));
  describe_phase("traced", traced);
  const xbar::router::RouterStatsSnapshot router_after =
      fleet->router->stats();
  std::vector<xbar::service::StatsSnapshot> backend_after;
  for (auto& b : fleet->backends) backend_after.push_back(b->stats());

  // The same stream sent directly to backend 0 (primed with every key
  // first, so it answers from its cache like the router path does).
  Senders direct = connect_senders(
      fleet->backends[0]->port(), kSenders, derive_seed(options.seed, 9));
  if (direct.size() != kSenders) {
    throw InvalidRun("fleet_hot: a sender could not reach backend 0");
  }
  (void)run_phase(direct,
                  closed_loop_spec(bodies, first_indices(kKeys), kSenders));
  const PhaseResult direct_run = run_phase(direct, stream);
  describe_phase("direct", direct_run);
  direct.clear();

  for (const PhaseResult* r : {&untraced, &traced, &direct_run}) {
    account_phase(run, *r, plan.verify(run, *r));
  }

  // Stats deltas over the traced phase.
  double svc_sum = 0.0;
  double svc_count = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejections = 0;
  for (std::size_t b = 0; b < kBackends; ++b) {
    const auto& before = backend_before[b];
    const auto& after = backend_after[b];
    svc_sum += after.latency.mean * static_cast<double>(after.latency.count) -
               before.latency.mean * static_cast<double>(before.latency.count);
    svc_count += static_cast<double>(after.latency.count - before.latency.count);
    hits += after.cache.hits - before.cache.hits;
    lookups += (after.cache.hits + after.cache.misses) -
               (before.cache.hits + before.cache.misses);
    evictions += after.cache.evictions - before.cache.evictions;
    rejections += after.overload_rejections - before.overload_rejections;
  }
  const auto& rb = router_before.backend_latency;
  const auto& ra = router_after.backend_latency;
  const double relay_ms =
      1e3 * (ra.mean * static_cast<double>(ra.count) -
             rb.mean * static_cast<double>(rb.count)) /
      std::max(1.0, static_cast<double>(ra.count - rb.count));
  const double svc_ms = 1e3 * svc_sum / std::max(1.0, svc_count);

  add_client_layers(run, untraced, traced, log);
  run.add_layer("router.hop_p50_ms",
                untraced.latency.percentile(0.5).value -
                    direct_run.latency.percentile(0.5).value,
                "ms");
  run.add_layer("router.relay_mean_ms", relay_ms, "ms");
  run.add_layer("router.hedges_launched",
                static_cast<double>(router_after.hedges_launched -
                                    router_before.hedges_launched),
                "count");
  run.add_layer("router.hedges_won",
                static_cast<double>(router_after.hedges_won -
                                    router_before.hedges_won),
                "count");
  run.add_layer("router.failovers",
                static_cast<double>(router_after.failovers -
                                    router_before.failovers),
                "count");
  run.add_layer("router.shed",
                static_cast<double>(router_after.shed - router_before.shed),
                "count");
  run.add_layer("router.ejections",
                static_cast<double>(router_after.ejections -
                                    router_before.ejections),
                "count");
  run.add_layer("router.affinity_hit_ratio",
                static_cast<double>(traced.cached) /
                    std::max(1.0, static_cast<double>(traced.ok)),
                "ratio");
  run.add_layer("service.svc_mean_ms", svc_ms, "ms");
  run.add_layer("service.cache_hit_ratio",
                static_cast<double>(hits) /
                    std::max(1.0, static_cast<double>(lookups)),
                "ratio");
  run.add_layer("service.cache_evictions", static_cast<double>(evictions),
                "count");
  run.add_layer("service.rejections", static_cast<double>(rejections), "count");
  add_layer_probes(run, jobs, options.seed);

  // Decomposition (means add up where percentiles do not):
  //   client ~= hop + relay,  relay ~= service + network.
  const double client_ms = log.mean_ms("client.call");
  const double hop_ms = untraced.rtt.mean() - direct_run.rtt.mean();
  run.add_layer("trace.client_mean_ms", client_ms, "ms");
  run.add_layer("trace.hop_mean_ms", hop_ms, "ms");
  run.add_layer("trace.relay_mean_ms", relay_ms, "ms");
  run.add_layer("trace.svc_mean_ms", svc_ms, "ms");
  run.add_layer("trace.network_mean_ms", relay_ms - svc_ms, "ms");
  run.add_layer("trace.residual_mean_ms", client_ms - (hop_ms + relay_ms),
                "ms");
  finish_trace(run, log, options.trace_path);
  return run;
}

}  // namespace perfbench
