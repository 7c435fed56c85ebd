// perfbench: the xbar benchmark.
//
//   perfbench --workload <fleet_hot|cold_direct|offline_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Runs one workload in-process against the public classes, prints every
// metric by name and unit as it is measured, and ends with one JSON result
// line.  --trace 1 is the separate traced run that reports the per-layer
// metrics.  Exit codes: 0 with a result line; 2 for a usage error or an
// invalid run (printed on stderr, no result line).

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "harness/workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <fleet_hot|cold_direct|"
               "offline_sweep> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + std::string(arg));
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else if (arg == "--trace-out") {
        options.trace_path = value;
      } else {
        return usage("unknown option " + std::string(arg));
      }
    } catch (const std::exception&) {
      return usage("bad value for " + std::string(arg) + ": " + value);
    }
  }
  if (!(options.seconds >= 1.0 && options.seconds <= 600.0)) {
    return usage("--seconds must be within [1, 600]");
  }
  try {
    perfbench::RunResult run;
    if (workload == "fleet_hot") {
      run = perfbench::run_fleet_hot(options);
    } else if (workload == "cold_direct") {
      run = perfbench::run_cold_direct(options);
    } else if (workload == "offline_sweep") {
      run = perfbench::run_offline_sweep(options);
    } else {
      return usage("unknown workload '" + workload + "'");
    }
    std::cout << perfbench::result_line(run, options.trace) << std::endl;
    return 0;
  } catch (const perfbench::InvalidRun& e) {
    std::cerr << "perfbench: INVALID RUN: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run aborted: " << e.what() << "\n";
    return 2;
  }
}
