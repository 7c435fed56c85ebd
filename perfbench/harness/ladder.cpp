#include "harness/ladder.hpp"

#include <algorithm>

namespace perfbench {

std::vector<double> geometric_ladder(double lo, double hi, double ratio) {
  std::vector<double> out;
  if (lo <= 0.0 || hi < lo || ratio <= 1.0) return out;
  for (double r = lo; r < hi * (1.0 - 1e-9); r *= ratio) out.push_back(r);
  out.push_back(hi);
  return out;
}

LadderResult search_ladder(const std::vector<double>& ladder,
                           const std::function<bool(double rate)>& trial,
                           std::size_t staircase) {
  LadderResult result;
  if (ladder.empty()) return result;
  // Invariant: every rung below `lo` passed (or lo == 0), every rung at or
  // above `hi` failed (or hi == size).
  std::size_t lo = 0;
  std::size_t hi = ladder.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    bool pass = trial(ladder[mid]);
    result.probes.push_back({mid, ladder[mid], pass});
    if (!pass) {  // confirm the failure before discarding the rungs above
      pass = trial(ladder[mid]);
      result.probes.push_back({mid, ladder[mid], pass});
    }
    if (pass) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return result;
  std::size_t rung = lo - 1;
  if (staircase > 0) {
    // Rungs of passing trials: the search's last pass, then the
    // staircase's.
    std::vector<std::size_t> passed{rung};
    std::size_t at = rung;
    for (std::size_t i = 0; i < staircase; ++i) {
      const bool pass = trial(ladder[at]);
      result.probes.push_back({at, ladder[at], pass});
      if (pass) {
        passed.push_back(at);
        at = std::min(at + 1, ladder.size() - 1);
      } else if (at > 0) {
        --at;
      }
    }
    std::sort(passed.begin(), passed.end());
    rung = passed[(passed.size() - 1) / 2];
  }
  result.rung = rung;
  result.rate = ladder[rung];
  return result;
}

}  // namespace perfbench
