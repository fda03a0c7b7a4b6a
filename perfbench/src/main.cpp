// perfbench_harness: runs one benchmark workload against the wrsn library.
//
//   perfbench_harness --workload paper_sweep|large_field|service
//                     --seed N --seconds S --trace 0|1 [--smoke] [--pin]
//
// Prints progress to stderr and one JSON document as the last stdout line.
// Exit codes: 0 measured (failures are counted in the document), 2 usage,
// 3 the run is invalid (the measurement itself broke), 4 not a release build.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload paper_sweep|large_field|service --seed N\n"
               "                         --seconds S --trace 0|1 [--smoke] [--pin]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--pin") {
        options.pin = true;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  // Gated numbers from an unoptimized build would be meaningless.
  if (!perfbench::release_build()) {
    std::fprintf(stderr, "perfbench_harness: refusing to measure a debug build\n");
    return 4;
  }

  perfbench::Result result;
  int status = 0;
  try {
    if (options.workload == "paper_sweep") {
      status = perfbench::run_paper_sweep(options, result);
    } else if (options.workload == "large_field") {
      status = perfbench::run_large_field(options, result);
    } else if (options.workload == "service") {
      status = perfbench::run_service(options, result);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  if (!result.invalid_reason().empty()) {
    std::fprintf(stderr, "perfbench_harness: run invalid: %s\n",
                 result.invalid_reason().c_str());
    return 3;
  }
  std::cout << result.dump(options) << std::endl;
  return status;
}
