#include "harness/report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string display(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void RunResult::add(std::string name, double value, std::string unit) {
  note("metric " + name + " = " + display(value) + " " + unit);
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::add_layer(std::string name, double value, std::string unit) {
  note("layer  " + name + " = " + display(value) + " " + unit);
  layer_metrics.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::fail(std::string why) {
  std::cerr << "perfbench: CHECK FAILED: " << why << "\n";
  correct = false;
}

void describe_setups(const std::vector<double>& seconds) {
  std::string line = "info set-ups (s):";
  for (const double s : seconds) line += " " + display(s);
  note(line);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void note(const std::string& line) { std::cout << line << std::endl; }

std::string result_line(const RunResult& run, bool traced) {
  std::ostringstream out;
  out << "{\"correct\": " << (run.correct ? "true" : "false")
      << ", \"attempted\": " << run.attempted
      << ", \"failed\": " << run.failed << ", \"metrics\": {";
  const std::vector<Metric>& list = traced ? run.layer_metrics : run.metrics;
  for (std::size_t i = 0; i < list.size(); ++i) {
    out << (i ? ", " : "") << "\"" << list[i].name
        << "\": {\"value\": " << number(list[i].value) << ", \"unit\": \""
        << list[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
