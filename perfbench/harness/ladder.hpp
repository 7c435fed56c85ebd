// The SLO rate search: the highest rate on a fixed ladder of absolute
// rates at which a trial meets the workload's latency limit, its ok-ratio
// floor and shows no backlog growth.
//
// The ladder is fixed per workload (never a share of measured capacity),
// so two runs probe the same rates and a change in slo_rps means the
// crossing moved, not the grid.  The search is a binary search under the
// assumption that passing is monotone in rate; every probe is kept so the
// latency at each probed rate can be printed.  A failing rung is probed a
// second time and fails only if that probe fails too: one transient stall
// early in a binary search would otherwise discard half the ladder.
//
// The binary search ends on a single rung that its last few probes chose,
// and near the crossing a probe passes or fails by chance.  An optional
// up-down staircase follows it: from the search's rung, each trial steps
// one rung up after a pass and one down after a fail, so the trials
// oscillate around the crossing, and the result is the median rung of the
// passing trials (the binary search's last pass among them).  With a
// crossing that does not move, every one of them passed on the highest
// passing rung.

#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

namespace perfbench {

/// Geometric ladder lo, lo*ratio, ... up to and including hi (the last
/// rung is clamped to hi).
[[nodiscard]] std::vector<double> geometric_ladder(double lo, double hi,
                                                   double ratio);

struct LadderProbe {
  std::size_t rung = 0;
  double rate = 0.0;
  bool pass = false;
};

struct LadderResult {
  /// Highest passing rung (the median passing rung when a staircase ran);
  /// empty when even the lowest rung fails.
  std::optional<std::size_t> rung;
  double rate = 0.0;  ///< rate of `rung` (0 when none passed)
  std::vector<LadderProbe> probes;  ///< in probe order
};

/// Binary search for the highest passing rung.  `trial(rate)` runs one
/// trial and reports whether it met every condition; a rung passes when
/// either of its first two trials does.  Then, when a rung passed,
/// `staircase` up-down trials starting from that rung (none by default).
[[nodiscard]] LadderResult search_ladder(
    const std::vector<double>& ladder,
    const std::function<bool(double rate)>& trial,
    std::size_t staircase = 0);

}  // namespace perfbench
