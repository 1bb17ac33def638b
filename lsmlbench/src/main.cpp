// lsmlbench --workload contest|synth_cec|serve --seed N --seconds S
//           --trace 0|1 [--size full|tiny] [--work-dir DIR]
//
// Runs one workload, prints a human-readable report, and as the last
// stdout line one JSON object {correct, attempted, failed, metrics}.
// Exit code 0 when every output check passed, 1 when one failed, 2 on a
// usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  lsmlbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "lsmlbench: %s needs a value\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--size") {
      args.size = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "lsmlbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0 || (args.size != "full" && args.size != "tiny")) {
    std::fprintf(stderr, "lsmlbench: bad --seconds or --size\n");
    return 2;
  }
  try {
    lsmlbench::Report report;
    if (args.workload == "contest") {
      report = lsmlbench::run_contest(args);
    } else if (args.workload == "synth_cec") {
      report = lsmlbench::run_synth_cec(args);
    } else if (args.workload == "serve") {
      report = lsmlbench::run_serve(args);
    } else {
      std::fprintf(stderr,
                   "lsmlbench: --workload must be contest, synth_cec or "
                   "serve\n");
      return 2;
    }
    lsmlbench::print_report(report, args);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lsmlbench: %s\n", e.what());
    return 1;
  }
}
