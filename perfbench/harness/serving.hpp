// The open-loop load generator shared by fleet_hot and cold_direct.
//
// A phase sends a seeded Poisson schedule at a fixed absolute rate from a
// fixed set of senders, each a serial XbarClient on its own persistent
// connection (an open loop: request i is due at t0 + schedule[i] whatever
// happened to request i-1).  Every request is timed from its intended send
// time, so a stall is charged to every request it delays.  Two waits before
// a send are recorded apart: how far behind its schedule a sender was (its
// previous call still in flight), and the generator's own lateness once it
// was free to send.  Samples go into preallocated exact recorders; nothing
// in the send loop allocates except the frame string it reuses.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "harness/latency.hpp"
#include "harness/report.hpp"
#include "harness/trace.hpp"

namespace perfbench {

/// Shares of --seconds: a warm-up at the nominal rate, the nominal phase
/// and the ladder search (the nominal slices run between ladder trials).
inline constexpr double kWarmupShare = 0.04;
inline constexpr double kNominalShare = 0.4;
inline constexpr double kLadderShare = 0.5;
/// The nominal phase runs as this many slices spread over the run, and
/// p50_ms is the median of their p50s.
inline constexpr std::size_t kNominalSlices = 12;
/// Up-down staircase trials after the ladder's binary search.
inline constexpr std::size_t kStaircaseTrials = 9;

/// Pin the serving side and the load generator to one CPU each: this
/// thread, and with it every server and router thread it starts later, to
/// the highest-numbered CPU the process may use, and the senders of every
/// later phase to the next one down.
///
/// On a virtual machine whose cores are shared with other guests, waking
/// a thread on an idle virtual CPU waits until the host runs that CPU
/// again, and while the host is busy that wait grows from microseconds to
/// milliseconds.  Unpinned, a request wakes threads on up to four CPUs
/// (sender, router worker, attempt thread, backend worker); pinned, it
/// crosses between two CPUs once each way, and the spinning senders keep
/// theirs awake.  The senders get a CPU of their own so that they are
/// never late because a server thread held theirs.  Throws InvalidRun when
/// fewer than two CPUs are usable.
void pin_serving(const std::string& workload);

/// The senders of a workload: serial clients, one persistent connection
/// each.
using Senders = std::vector<std::unique_ptr<xbar::client::XbarClient>>;

/// Dial `count` senders to `port` and confirm each with a ping.  Returns
/// an empty vector when any ping fails.
[[nodiscard]] Senders connect_senders(
    std::uint16_t port, std::size_t count, std::uint64_t seed);

struct PhaseSpec {
  double rate = 0.0;  ///< total intended requests per second (reported)
  std::uint64_t stream = 0;  ///< which seeded input stream (verification)
  /// Per-sender intended send offsets, seconds from the phase start.
  std::vector<std::vector<double>> schedules;
  /// Request bodies, and which body each request of each sender sends
  /// (picks[s][i] indexes bodies; one pick per scheduled request).
  std::shared_ptr<const std::vector<std::string>> bodies;
  std::vector<std::vector<std::uint32_t>> picks;
  /// Bodies whose first response each sender keeps for verification.
  std::shared_ptr<const std::vector<char>> keep;
  /// Per-sender span buffers (traced runs only; null = untraced).
  std::vector<SpanBuffer*> spans;
  /// Wall budget past the schedule's end; requests not sent by then count
  /// as failed and mark the phase over budget.
  double budget_slack_seconds = 2.0;
};

struct PhaseResult {
  double rate = 0.0;
  std::uint64_t stream = 0;
  LatencyRecorder latency;  ///< ms, completion - intended send
  LatencyRecorder rtt;      ///< ms, completion - actual send
  LatencyRecorder behind;   ///< ms, actual send - intended send
  /// ms, actual send - max(intended send, previous completion): the
  /// generator's own lateness, excluding time spent behind a slow call.
  LatencyRecorder late;
  std::uint64_t scheduled = 0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;      ///< exact ok frames
  std::uint64_t failed = 0;  ///< transport failures, error frames, unsent
  std::uint64_t cached = 0;  ///< ok frames answered from a result cache
  std::uint64_t retries = 0;
  bool over_budget = false;
  double wall_seconds = 0.0;
  /// Median `behind` over each sender's last quarter of sends, the worst
  /// sender's (ms): a growing backlog shows up here.
  double behind_end_ms = 0.0;
  /// (body index, response) kept for verification.
  std::vector<std::pair<std::uint32_t, std::string>> kept;
  /// (body index, answer hash) of every ok response, for the outside-loop
  /// consistency check.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> answers;
};

/// Hash of a response's answer: the `result` value up to its
/// `diagnostics` member (which carries per-solve wall time), so the same
/// answer from any backend hashes alike.  0 when there is no result.
[[nodiscard]] std::uint64_t answer_hash(const std::string& response) noexcept;

/// Per-sender Poisson schedules at rate/senders each, seeded per sender.
[[nodiscard]] std::vector<std::vector<double>> sender_schedules(
    double rate, double duration, std::size_t senders, std::uint64_t seed);

/// Run one open-loop phase through `senders`.
[[nodiscard]] PhaseResult run_phase(Senders& senders, const PhaseSpec& spec);

/// Picks 0, 1, ..., count - 1: every body once.
[[nodiscard]] std::vector<std::uint32_t> first_indices(std::size_t count);

/// A closed-loop spec: `picks` spread round-robin over `senders`, every
/// request due at once, so each sender sends back to back.
[[nodiscard]] PhaseSpec closed_loop_spec(
    std::shared_ptr<const std::vector<std::string>> bodies,
    const std::vector<std::uint32_t>& picks, std::size_t senders);

/// Print one phase's counts, exact percentiles and generator lateness.
void describe_phase(const char* label, const PhaseResult& r);

/// Count a finished phase into run.attempted / run.failed (`wrong` ok
/// answers that failed verification count as failed); throws InvalidRun
/// when its recorder overflowed.
void account_phase(RunResult& run, const PhaseResult& r, std::uint64_t wrong);

/// `stream` with one span buffer per sender in `log`.
[[nodiscard]] PhaseSpec traced_spec(const PhaseSpec& stream, TraceLog& log);

/// client.* per-layer metrics of the traced phase, and the tracing
/// overhead (traced minus untraced p50 of the same stream).
void add_client_layers(RunResult& run, const PhaseResult& untraced,
                       const PhaseResult& traced, const TraceLog& log);

/// Write the spans to `path` (if set) and complete the layer metric list.
void finish_trace(RunResult& run, const TraceLog& log, const std::string& path);

/// Builds an open-loop phase (bodies, schedules, picks) of input stream
/// `stream`.
using OpenPhase =
    std::function<PhaseSpec(double rate, double duration, std::uint64_t stream)>;

/// The nominal phase at `rate`: kNominalSlices slices, streams 1, 2, ...,
/// together kNominalShare * seconds long.
[[nodiscard]] std::vector<PhaseSpec> nominal_slices(
    const OpenPhase& open_phase, double rate, double seconds);

/// What a serving workload plugs into run_serving().
struct ServingPlan {
  std::vector<PhaseSpec> nominal;   ///< nominal_slices(), built before set-up
  std::vector<double> ladder;       ///< fixed absolute rates for slo_rps
  double limit_ms = 0.0;            ///< the SLO limit on p90
  OpenPhase open_phase;             ///< warm-up and ladder phases
  /// Verifies a finished phase's kept responses outside the timed loop;
  /// returns how many ok answers are wrong.
  std::function<std::uint64_t(RunResult& run, const PhaseResult& phase)>
      verify;
};

/// The untraced serving run: a warm-up, then the ladder search (slo_rps)
/// with the nominal slices (p50_ms, ok_ratio and offline_s; p90 and p99
/// printed) run between its trials; adds every end-to-end metric but
/// setup_s and rss_mb.  Only the nominal slices count into run.attempted /
/// run.failed.
void run_serving(RunResult& run, Senders& senders,
                 const ServingPlan& plan, double seconds);

}  // namespace perfbench
