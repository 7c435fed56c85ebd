#include "harness/verify.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "core/solver.hpp"
#include "core/solver_spec.hpp"
#include "report/json_reader.hpp"

namespace perfbench {

namespace {

using xbar::report::JsonValue;

bool is_revenue(const Job& job) {
  return job.body.find("\"method\":\"revenue\"") != std::string::npos;
}

xbar::core::SolverSpec spec_of(const Job& job) {
  const std::string tag = "\"solver\":\"";
  const std::size_t at = job.body.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t from = at + tag.size();
  return xbar::core::SolverSpec::parse(
      job.body.substr(from, job.body.find('"', from) - from));
}

/// |a - b| / max(|a|, |b|, tiny).
double relative_difference(double a, double b) noexcept {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / scale;
}

}  // namespace

Reference reference_for(const Job& job) {
  Reference ref;
  if (is_revenue(job)) {
    const xbar::core::RevenueAnalyzer analyzer(job.model);
    const xbar::core::RevenueReport report = analyzer.analyze();
    ref.measures = report.measures;
    for (const auto& s : report.per_class) {
      ref.shadow_costs.push_back(s.shadow_cost);
    }
    return ref;
  }
  const xbar::core::SolveResult result =
      xbar::core::solve_result(job.model, spec_of(job));
  ref.measures = result.measures;
  ref.rescales = result.diagnostics.rescales;
  ref.escalations = result.diagnostics.escalation.size();
  return ref;
}

std::optional<std::string> compare_measures(const xbar::core::Measures& got,
                                            const xbar::core::Measures& want,
                                            double rel_tol, double abs_tol) {
  if (got.per_class.size() != want.per_class.size()) {
    return "class count differs";
  }
  auto check = [&](const char* what, double a, double b)
      -> std::optional<std::string> {
    if (relative_difference(a, b) > rel_tol && std::fabs(a - b) > abs_tol) {
      return std::string(what) + " " + std::to_string(a) + " vs " +
             std::to_string(b);
    }
    return std::nullopt;
  };
  for (std::size_t r = 0; r < got.per_class.size(); ++r) {
    const auto& g = got.per_class[r];
    const auto& w = want.per_class[r];
    if (auto e = check("blocking", g.blocking, w.blocking)) return e;
    if (auto e = check("concurrency", g.concurrency, w.concurrency)) return e;
    if (auto e = check("throughput", g.throughput, w.throughput)) return e;
  }
  if (auto e = check("revenue", got.revenue, want.revenue)) return e;
  return std::nullopt;
}

std::optional<std::string> check_response(const std::string& response,
                                          const Reference& want,
                                          double rel_tol) {
  try {
    const JsonValue frame = xbar::report::parse_json(response);
    if (frame.at("status").as_string() != "ok") {
      return "status is not ok: " + response.substr(0, 200);
    }
    if (frame.find("degraded") != nullptr) return "degraded frame";
    const JsonValue& result = frame.at("result");
    const JsonValue& m = result.at("measures");
    xbar::core::Measures got;
    for (const JsonValue& c : m.at("per_class").as_array()) {
      xbar::core::ClassMeasures cm;
      cm.blocking = c.at("blocking").as_number();
      cm.concurrency = c.at("concurrency").as_number();
      cm.throughput = c.at("throughput").as_number();
      got.per_class.push_back(cm);
    }
    got.revenue = m.at("revenue").as_number();
    if (auto e = compare_measures(got, want.measures, rel_tol)) return e;
    if (!want.shadow_costs.empty()) {
      const auto& sens = result.at("sensitivities").as_array();
      if (sens.size() != want.shadow_costs.size()) {
        return "sensitivity count differs";
      }
      for (std::size_t r = 0; r < sens.size(); ++r) {
        const double got_cost = sens[r].at("shadow_cost").as_number();
        if (relative_difference(got_cost, want.shadow_costs[r]) > rel_tol) {
          return "shadow_cost differs";
        }
      }
    }
  } catch (const std::exception& e) {
    return std::string("unparseable response: ") + e.what();
  }
  return std::nullopt;
}

}  // namespace perfbench
