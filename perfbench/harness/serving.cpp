#include "harness/serving.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string_view>
#include <thread>

#include "harness/ladder.hpp"
#include "harness/scenarios.hpp"
#include "harness/schedule.hpp"
#include "harness/workloads.hpp"

namespace perfbench {

namespace {

constexpr std::string_view kOkStatus = "\"status\":\"ok\"";
constexpr std::string_view kCachedTrue = "\"cached\":true";
constexpr double kSloQuantile = 0.90;  ///< the percentile the SLO limits
/// Probes per rung the ladder budget plans for: a failing rung is probed
/// twice, and about half the rungs of a binary search fail.
constexpr double kProbesPerRung = 1.5;
/// Input stream of the serving warm-up (nominal slices are 1..12, ladder
/// trials 100 on).
constexpr std::uint64_t kWarmupStream = 90;
/// Pause before a nominal slice, so the backlog of a ladder trial above
/// capacity has drained from the fleet.
constexpr auto kSettle = std::chrono::milliseconds(100);

/// Spin until `when`.  A sleep overshoots by the scheduler's wake-up
/// latency, and an open-loop generator charges that overshoot to the
/// request as lateness; on a virtual machine an idle CPU's wake-up is slow,
/// and slower still while the host is busy.  The senders have a CPU of
/// their own (pin_serving), so spinning keeps that CPU awake for the
/// replies without taking time from the servers.  The spin yields, so the
/// senders sharing the CPU take turns.
void wait_until(Clock::time_point when) {
  while (Clock::now() < when) std::this_thread::yield();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Add `part`'s samples and counts to `total` (kept responses and answer
/// hashes are verified per phase and not carried over).
void absorb_phase(PhaseResult& total, const PhaseResult& part) {
  total.rate = part.rate;
  total.latency.merge(part.latency);
  total.rtt.merge(part.rtt);
  total.behind.merge(part.behind);
  total.late.merge(part.late);
  total.scheduled += part.scheduled;
  total.sent += part.sent;
  total.ok += part.ok;
  total.failed += part.failed;
  total.cached += part.cached;
  total.retries += part.retries;
  total.over_budget = total.over_budget || part.over_budget;
  total.wall_seconds += part.wall_seconds;
  total.behind_end_ms = std::max(total.behind_end_ms, part.behind_end_ms);
}

/// CPU of the sender threads once pin_serving() ran (-1: not pinned).
int g_sender_cpu = -1;

cpu_set_t only_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<std::size_t>(cpu), &one);
  return one;
}

struct SenderTally {
  LatencyRecorder latency;
  LatencyRecorder rtt;
  LatencyRecorder behind;
  LatencyRecorder late;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t cached = 0;
  bool over_budget = false;
  double behind_end_ms = 0.0;
  std::vector<std::pair<std::uint32_t, std::string>> kept;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> answers;
};

void run_sender(xbar::client::XbarClient& client, const PhaseSpec& spec,
                std::size_t s, Clock::time_point t0,
                Clock::time_point deadline, std::uint64_t id_base,
                SenderTally& tally) {
  const std::vector<double>& schedule = spec.schedules[s];
  const std::vector<std::uint32_t>& picks = spec.picks[s];
  const std::size_t n = std::min(schedule.size(), picks.size());
  tally.latency = LatencyRecorder(n);
  tally.rtt = LatencyRecorder(n);
  tally.behind = LatencyRecorder(n);
  tally.late = LatencyRecorder(n);
  tally.answers.reserve(n);
  std::vector<char> kept_already(spec.keep ? spec.keep->size() : 0, 0);
  SpanBuffer* spans = s < spec.spans.size() ? spec.spans[s] : nullptr;
  std::string frame;
  frame.reserve(1024);
  Clock::time_point previous_done = t0;

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t body = picks[i];
    const std::uint64_t id = id_base + i;
    render_frame(frame, id, (*spec.bodies)[body]);
    const auto intended =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(schedule[i]));
    wait_until(intended);
    const auto sent = Clock::now();
    if (sent > deadline) {
      tally.over_budget = true;
      tally.failed += n - i;
      break;
    }
    const xbar::client::CallResult result = client.call(frame);
    const auto done = Clock::now();
    ++tally.sent;
    tally.latency.record(ms_between(intended, done));
    tally.rtt.record(ms_between(sent, done));
    tally.behind.record(ms_between(intended, sent));
    tally.late.record(ms_between(std::max(intended, previous_done), sent));
    previous_done = done;
    if (spans != nullptr) {
      const std::int64_t root =
          spans->add("client.request", id, -1, intended, done);
      spans->add("client.wait", id, root, intended, sent);
      spans->add("client.call", id, root, sent, done);
    }
    const bool ok = result.outcome == xbar::client::Outcome::kOk &&
                    result.response_class ==
                        xbar::client::ResponseClass::kExact &&
                    result.response.find(kOkStatus) != std::string::npos;
    if (!ok) {
      ++tally.failed;
      continue;
    }
    ++tally.ok;
    if (result.response.find(kCachedTrue) != std::string::npos) ++tally.cached;
    tally.answers.emplace_back(body, answer_hash(result.response));
    if (spec.keep != nullptr && (*spec.keep)[body] && !kept_already[body]) {
      kept_already[body] = 1;
      tally.kept.emplace_back(body, result.response);
    }
  }
  // Backlog signal: how far behind schedule the last quarter of sends was.
  const std::size_t count = tally.behind.count();
  if (count >= 4) {
    LatencyRecorder tail(count - (3 * count) / 4);
    for (std::size_t i = (3 * count) / 4; i < count; ++i) {
      tail.record(tally.behind.data()[i]);
    }
    tally.behind_end_ms = tail.percentile(0.5).value;
  }
}

}  // namespace

void pin_serving(const std::string& workload) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw InvalidRun(workload + ": cannot read the CPU affinity");
  }
  std::vector<int> cpus;  // the two highest-numbered allowed CPUs
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus.size() < 2; --cpu) {
    if (CPU_ISSET(static_cast<std::size_t>(cpu), &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) throw InvalidRun(workload + ": needs two CPUs");
  const cpu_set_t servers = only_cpu(cpus[0]);
  if (sched_setaffinity(0, sizeof(servers), &servers) != 0) {
    throw InvalidRun(workload + ": cannot pin to CPU " +
                     std::to_string(cpus[0]));
  }
  g_sender_cpu = cpus[1];
  note("info " + workload + ": servers on CPU " + std::to_string(cpus[0]) +
       ", senders on CPU " + std::to_string(cpus[1]));
}

Senders connect_senders(std::uint16_t port, std::size_t count,
                        std::uint64_t seed) {
  Senders out;
  for (std::size_t s = 0; s < count; ++s) {
    xbar::client::ClientConfig config;
    config.port = port;
    config.request_timeout_seconds = 2.0;
    config.seed = derive_seed(seed, 500 + s);
    auto sender = std::make_unique<xbar::client::XbarClient>(config);
    const xbar::client::CallResult ping =
        sender->call("{\"method\":\"ping\",\"id\":0}");
    if (ping.outcome != xbar::client::Outcome::kOk) return {};
    out.push_back(std::move(sender));
  }
  return out;
}

std::uint64_t answer_hash(const std::string& response) noexcept {
  const std::size_t from = response.find("\"result\":");
  if (from == std::string::npos) return 0;
  std::size_t to = response.find(",\"diagnostics\":", from);
  if (to == std::string::npos) to = response.size();
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (std::size_t i = from; i < to; ++i) {
    h ^= static_cast<unsigned char>(response[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::vector<double>> sender_schedules(double rate, double duration,
                                                  std::size_t senders,
                                                  std::uint64_t seed) {
  std::vector<std::vector<double>> out;
  for (std::size_t s = 0; s < senders; ++s) {
    out.push_back(poisson_schedule(rate / static_cast<double>(senders),
                                   duration, derive_seed(seed, s)));
  }
  return out;
}

PhaseResult run_phase(Senders& senders, const PhaseSpec& spec) {
  PhaseResult result;
  result.rate = spec.rate;
  result.stream = spec.stream;
  const std::size_t count = std::min(senders.size(), spec.schedules.size());
  double duration = 0.0;
  for (std::size_t s = 0; s < count; ++s) {
    result.scheduled += std::min(spec.schedules[s].size(), spec.picks[s].size());
    if (!spec.schedules[s].empty()) {
      duration = std::max(duration, spec.schedules[s].back());
    }
  }
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(duration +
                                             spec.budget_slack_seconds));
  std::vector<std::uint64_t> retries_before(count);
  for (std::size_t s = 0; s < count; ++s) {
    retries_before[s] = senders[s]->counters().retries;
  }
  std::vector<SenderTally> tallies(count);
  std::vector<std::thread> threads;
  std::uint64_t id_base = 0;
  bool pinned = true;
  for (std::size_t s = 0; s < count; ++s) {
    threads.emplace_back(run_sender, std::ref(*senders[s]), std::cref(spec), s,
                         t0, deadline, id_base, std::ref(tallies[s]));
    id_base += spec.schedules[s].size();
    if (g_sender_cpu >= 0) {
      const cpu_set_t cpu = only_cpu(g_sender_cpu);
      pinned = pinned && pthread_setaffinity_np(threads.back().native_handle(),
                                                sizeof(cpu), &cpu) == 0;
    }
  }
  for (std::thread& t : threads) t.join();
  if (!pinned) throw InvalidRun("a sender could not be pinned to its CPU");
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  for (SenderTally& t : tallies) {
    result.latency.merge(t.latency);
    result.rtt.merge(t.rtt);
    result.behind.merge(t.behind);
    result.late.merge(t.late);
    result.sent += t.sent;
    result.ok += t.ok;
    result.failed += t.failed;
    result.cached += t.cached;
    result.over_budget = result.over_budget || t.over_budget;
    result.behind_end_ms = std::max(result.behind_end_ms, t.behind_end_ms);
    for (auto& k : t.kept) result.kept.push_back(std::move(k));
    result.answers.insert(result.answers.end(), t.answers.begin(),
                          t.answers.end());
  }
  for (std::size_t s = 0; s < count; ++s) {
    result.retries += senders[s]->counters().retries - retries_before[s];
  }
  return result;
}

std::vector<std::uint32_t> first_indices(std::size_t count) {
  std::vector<std::uint32_t> out(count);
  std::iota(out.begin(), out.end(), 0U);
  return out;
}

PhaseSpec closed_loop_spec(std::shared_ptr<const std::vector<std::string>> bodies,
                           const std::vector<std::uint32_t>& picks,
                           std::size_t senders) {
  PhaseSpec spec;
  spec.bodies = std::move(bodies);
  spec.schedules.assign(senders, {});
  spec.picks.assign(senders, {});
  for (std::size_t i = 0; i < picks.size(); ++i) {
    spec.schedules[i % senders].push_back(0.0);
    spec.picks[i % senders].push_back(picks[i]);
  }
  spec.budget_slack_seconds = 60.0;
  return spec;
}

void describe_phase(const char* label, const PhaseResult& r) {
  const Percentile p50 = r.latency.percentile(0.50);
  const Percentile p90 = r.latency.percentile(0.90);
  const Percentile p99 = r.latency.percentile(0.99);
  char line[512];
  std::snprintf(line, sizeof(line),
                "%s: rate=%.0f/s sent=%llu/%llu ok=%llu failed=%llu "
                "retries=%llu p50=%.4fms p90=%.4fms p99=%.4fms (n=%zu, "
                "beyond p90=%zu p99=%zu) late_p99=%.4fms behind_p99=%.4fms "
                "behind_end=%.4fms "
                "wall=%.3fs%s",
                label, r.rate, static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.scheduled),
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.retries), p50.value,
                p90.value, p99.value, r.latency.count(), p90.beyond,
                p99.beyond, r.late.percentile(0.99).value,
                r.behind.percentile(0.99).value, r.behind_end_ms,
                r.wall_seconds, r.over_budget ? " OVER-BUDGET" : "");
  note(line);
}

void account_phase(RunResult& run, const PhaseResult& r, std::uint64_t wrong) {
  run.attempted += r.sent + (r.over_budget ? r.scheduled - r.sent : 0);
  run.failed += r.failed + wrong;
  if (r.latency.overflow() > 0) throw InvalidRun("latency recorder overflowed");
}

PhaseSpec traced_spec(const PhaseSpec& stream, TraceLog& log) {
  PhaseSpec spec = stream;
  for (const std::vector<double>& schedule : spec.schedules) {
    spec.spans.push_back(&log.buffer(3 * schedule.size() + 16));
  }
  return spec;
}

void add_client_layers(RunResult& run, const PhaseResult& untraced,
                       const PhaseResult& traced, const TraceLog& log) {
  run.add_layer("client.sent", static_cast<double>(traced.sent), "count");
  run.add_layer("client.ok", static_cast<double>(traced.ok), "count");
  run.add_layer("client.failed", static_cast<double>(traced.failed), "count");
  run.add_layer("client.retries", static_cast<double>(traced.retries), "count");
  run.add_layer("client.rtt_p50_ms", traced.rtt.percentile(0.5).value, "ms");
  run.add_layer("client.late_p99_ms", traced.late.percentile(0.99).value, "ms");
  const double untraced_p50 = untraced.latency.percentile(0.5).value;
  const double traced_p50 = traced.latency.percentile(0.5).value;
  run.add_layer("trace.p50_untraced_ms", untraced_p50, "ms");
  run.add_layer("trace.p50_traced_ms", traced_p50, "ms");
  run.add_layer("trace.overhead_p50_ms", traced_p50 - untraced_p50, "ms");
  run.add_layer("trace.spans", static_cast<double>(log.span_count()), "count");
}

void finish_trace(RunResult& run, const TraceLog& log, const std::string& path) {
  if (log.dropped() > 0) {
    run.fail(std::to_string(log.dropped()) + " spans dropped");
  }
  if (!path.empty()) {
    if (log.write(path)) {
      note("spans written to " + path);
    } else {
      run.fail("could not write " + path);
    }
  }
  complete_layers(run);
}

std::vector<PhaseSpec> nominal_slices(const OpenPhase& open_phase, double rate,
                                      double seconds) {
  std::vector<PhaseSpec> out;
  const double duration =
      kNominalShare * seconds / static_cast<double>(kNominalSlices);
  for (std::uint64_t k = 1; k <= kNominalSlices; ++k) {
    out.push_back(open_phase(rate, duration, k));
  }
  return out;
}

void run_serving(RunResult& run, Senders& senders,
                 const ServingPlan& plan, double seconds) {
  // Warm-up: a fresh process runs its first seconds slower.  Its answers
  // are verified, its counts are not kept.
  const PhaseResult warm =
      run_phase(senders, plan.open_phase(plan.nominal.front().rate,
                                         kWarmupShare * seconds, kWarmupStream));
  describe_phase("warm-up", warm);
  (void)plan.verify(run, warm);

  // The nominal slices run between ladder trials, so a slow spell of the
  // host meets a few slices instead of the whole nominal phase.
  PhaseResult nominal;
  std::uint64_t nominal_wrong = 0;
  std::vector<double> slice_p50;
  std::size_t next_slice = 0;
  auto run_slice = [&] {
    std::this_thread::sleep_for(kSettle);
    const PhaseResult r = run_phase(senders, plan.nominal[next_slice++]);
    describe_phase("nominal", r);
    if (r.over_budget) {
      throw InvalidRun("a nominal slice exceeded its wall budget");
    }
    const Percentile p50 = r.latency.percentile(0.50);
    if (!p50.supported()) run.fail("p50 has fewer than 10 samples beyond it");
    slice_p50.push_back(p50.value);
    const std::uint64_t wrong = plan.verify(run, r);
    // The nominal slices are the run's attempts.  Ladder probes above
    // capacity are meant to miss (timeouts, over budget), so they are not
    // failed operations; their answers are still verified, and a wrong one
    // fails the run through plan.verify.
    account_phase(run, r, wrong);
    nominal_wrong += wrong;
    absorb_phase(nominal, r);
  };

  // SLO search over the fixed ladder.
  const double rungs = std::ceil(
      std::log2(static_cast<double>(plan.ladder.size()) + 1.0));
  const double trials =
      kProbesPerRung * rungs + static_cast<double>(kStaircaseTrials);
  const double probe_s = kLadderShare * seconds / trials;
  const auto slice_every = static_cast<std::uint64_t>(std::max(
      1.0, std::floor(trials / static_cast<double>(plan.nominal.size()))));
  std::uint64_t stream = 100;
  const LadderResult slo = search_ladder(
      plan.ladder,
      [&](double rate) {
        if ((stream - 100) % slice_every == 0 &&
            next_slice < plan.nominal.size()) {
          run_slice();
        }
        const PhaseResult r =
            run_phase(senders, plan.open_phase(rate, probe_s, stream++));
        describe_phase("ladder", r);
        const std::uint64_t wrong = plan.verify(run, r);
        const double tail = r.latency.percentile(kSloQuantile).value;
        const double ok_ratio =
            static_cast<double>(r.ok - wrong) /
            static_cast<double>(std::max<std::uint64_t>(r.scheduled, 1));
        return tail <= plan.limit_ms && ok_ratio >= 0.999 && !r.over_budget &&
               r.behind_end_ms <= plan.limit_ms;
      },
      kStaircaseTrials);
  while (next_slice < plan.nominal.size()) run_slice();
  for (const LadderProbe& p : slo.probes) {
    note("ladder rung " + std::to_string(p.rung) + " rate " +
         std::to_string(p.rate) + (p.pass ? " pass" : " fail"));
  }
  if (!slo.rung) run.fail("the lowest ladder rate missed the SLO");

  // Serving figures hold only while the generator itself keeps time.
  if (nominal.late.percentile(0.99).value >=
      0.5 * nominal.latency.percentile(0.5).value) {
    note("WARNING: generator lateness p99 is not well under p50_ms; the "
         "latency figures of this run include generator delay");
  }
  describe_phase("nominal (all slices)", nominal);
  std::string p50s = "info slice p50s (ms):";
  for (const double v : slice_p50) p50s += " " + std::to_string(v);
  note(p50s);
  run.add("p50_ms", median(slice_p50), "ms");
  // p90 and p99 have the samples (n/10 and n/100 beyond them) but not the
  // steadiness: their run-to-run spread exceeds the bound a reported
  // metric must hold, so they are printed, not reported
  // (perfbench/README.md records the spreads).
  for (const double q : {0.90, 0.99}) {
    const Percentile p = nominal.latency.percentile(q);
    note("info p" + std::to_string(static_cast<int>(q * 100)) + "_ms = " +
         std::to_string(p.value) + " ms (" + std::to_string(p.beyond) +
         " samples beyond, n=" + std::to_string(nominal.latency.count()) +
         ")");
  }
  run.add("slo_rps", slo.rate, "1/s");
  run.add("ok_ratio",
          static_cast<double>(nominal.ok - nominal_wrong) /
              static_cast<double>(std::max<std::uint64_t>(nominal.scheduled, 1)),
          "ratio");
  // The nominal request set is the serving workloads' fixed job set: its
  // wall time stays at the schedule's length while the service keeps up
  // and grows when it falls behind.
  run.add("offline_s", nominal.wall_seconds, "s");
}

}  // namespace perfbench
