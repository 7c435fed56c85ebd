#include "harness/scenarios.hpp"

#include <cstdio>

#include "dist/rng.hpp"
#include "harness/schedule.hpp"

namespace perfbench {

namespace {

using xbar::core::CrossbarModel;
using xbar::core::Dims;
using xbar::core::TrafficClass;

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

double between(xbar::dist::Xoshiro256& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.uniform01();
}

}  // namespace

CrossbarModel random_mix(unsigned n, std::uint64_t seed, bool wide) {
  xbar::dist::Xoshiro256 rng(seed);
  const double side = static_cast<double>(n);
  std::vector<TrafficClass> classes;
  classes.push_back(
      TrafficClass::poisson("voice", side * between(rng, 0.15, 0.35)));
  // Pascal: per-tuple beta/mu in [0.2, 0.6] (peakedness 1.25..2.5).
  const double mu = 2.0;
  classes.push_back(TrafficClass::bursty(
      "bulk", side * mu * between(rng, 0.05, 0.15),
      side * mu * between(rng, 0.2, 0.6), 1, mu, 0.2));
  if (!wide) return CrossbarModel(Dims::square(n), std::move(classes));
  // Smooth (Bernoulli-like) wide class: beta < 0, admissible while
  // alpha + beta * N stays >= 0.
  const double sets = side * (side - 1.0) / 2.0;
  const double alpha = sets * 0.5 * between(rng, 0.005, 0.02);
  classes.push_back(TrafficClass::bursty("video", alpha,
                                         -alpha / (4.0 * side), 2, 0.5, 3.0));
  return CrossbarModel(Dims::square(n), std::move(classes));
}

std::string render_body(const char* method, const CrossbarModel& model,
                        const char* solver) {
  std::string out = "\"method\":\"";
  out += method;
  out += "\",\"scenario\":{\"switch\":{\"inputs\":";
  out += std::to_string(model.dims().n1);
  out += ",\"outputs\":";
  out += std::to_string(model.dims().n2);
  out += "},\"classes\":[";
  bool first = true;
  for (const TrafficClass& c : model.classes()) {
    out += first ? "{" : ",{";
    first = false;
    out += "\"name\":\"" + c.name + "\",";
    if (c.beta_tilde == 0.0) {
      out += "\"shape\":\"poisson\",\"rho\":";
      append_number(out, c.rho_tilde());
    } else {
      out += "\"shape\":\"bursty\",\"alpha\":";
      append_number(out, c.alpha_tilde);
      out += ",\"beta\":";
      append_number(out, c.beta_tilde);
    }
    out += ",\"bandwidth\":" + std::to_string(c.bandwidth) + ",\"mu\":";
    append_number(out, c.mu);
    out += ",\"weight\":";
    append_number(out, c.weight);
    out += "}";
  }
  out += "]},\"solver\":\"";
  out += solver;
  out += "\"}";
  return out;
}

void render_frame(std::string& out, std::uint64_t id,
                  const std::string& body) {
  out.clear();
  out += "{\"id\":";
  out += std::to_string(id);
  out += ",";
  out += body;
}

std::vector<Job> fleet_keys(std::size_t keys, std::uint64_t seed) {
  std::vector<Job> out;
  out.reserve(keys);
  static constexpr unsigned kSides[] = {16, 24, 32, 48, 64};
  for (std::size_t k = 0; k < keys; ++k) {
    const unsigned n = kSides[k % std::size(kSides)];
    CrossbarModel model = random_mix(n, derive_seed(seed, 1000 + k));
    const char* method = (k % 2 == 0) ? "solve" : "revenue";
    std::string body = render_body(method, model, "auto");
    out.push_back({std::move(body), std::move(model)});
  }
  return out;
}

Job cold_job(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  CrossbarModel model =
      random_mix(128, derive_seed(derive_seed(seed, stream), index), false);
  std::string body = render_body("solve", model, "algorithm1");
  return {std::move(body), std::move(model)};
}

}  // namespace perfbench
