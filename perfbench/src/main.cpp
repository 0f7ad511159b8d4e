// qrc_perfbench: runs one benchmark workload against the qrc library and
// prints its metrics; the last line of stdout is the JSON result.
//
//   qrc_perfbench --workload greedy_compile|serve_mixed
//                 --seed N --seconds S --trace 0|1 [--saturation 1]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer table. --saturation 1 (serve_mixed)
// prints the request rate the service sustains with the workload's mix.

#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: qrc_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--saturation 1]\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--saturation") {
        options.saturation = std::stoi(value) != 0;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) {
    return usage("flags take one value each");
  }
  if (!(options.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }
  try {
    if (options.workload == "greedy_compile") {
      return perfbench::run_closed_loop(options);
    }
    if (options.workload == "serve_mixed") {
      return perfbench::run_serve_mixed(options);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage(("unknown workload '" + options.workload + "'").c_str());
}
