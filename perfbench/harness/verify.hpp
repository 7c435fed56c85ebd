// Answer verification, run outside every timed loop.
//
// A served frame is checked against an in-process computation of the same
// request through the core library: per-class blocking, concurrency and
// throughput plus revenue, within a relative tolerance, and for revenue
// requests every class's shadow cost too.

#pragma once

#include <optional>
#include <string>

#include "core/measures.hpp"
#include "core/revenue.hpp"
#include "harness/scenarios.hpp"

namespace perfbench {

/// In-process answer for one served request.
struct Reference {
  xbar::core::Measures measures;
  std::vector<double> shadow_costs;  ///< revenue requests only
  unsigned rescales = 0;             ///< diagnostics of the in-process solve
  std::size_t escalations = 0;
};

/// Solve `job` in-process the way its body asks (`method` "solve" with the
/// body's solver, or "revenue").
[[nodiscard]] Reference reference_for(const Job& job);

/// Compare measures within `rel_tol` (plus `abs_tol` for values near 0);
/// returns a description of the first mismatch, or nullopt when they agree.
[[nodiscard]] std::optional<std::string> compare_measures(
    const xbar::core::Measures& got, const xbar::core::Measures& want,
    double rel_tol, double abs_tol = 0.0);

/// Check one response frame against `want`; nullopt when it is an exact ok
/// frame whose answer agrees within `rel_tol`.
[[nodiscard]] std::optional<std::string> check_response(
    const std::string& response, const Reference& want, double rel_tol);

}  // namespace perfbench
