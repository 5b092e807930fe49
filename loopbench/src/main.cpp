// Control-loop benchmark: runs one workload of the report -> RIB ->
// decision loop and prints its metrics (see ../README.md). Normally started
// through run.py, which builds this binary first:
//
//   loopbench --workload per_tti_ingest --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line before
// it carries the run's identity and details. Exit code 1 means an output
// check failed, 2 a usage or set-up error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: loopbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 [--inject drop_report|unrouted_command] [--hash-inputs]\n"
               "                 [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]\n");
}

}  // namespace

int main(int argc, char** argv) {
  loopbench::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() != "0";
      } else if (arg == "--inject") {
        options.inject = value();
      } else if (arg == "--hash-inputs") {
        options.hash_inputs = true;
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else if (arg == "--git-sha") {
        options.git_sha = value();
      } else if (arg == "--source-digest") {
        options.source_digest = value();
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (options.workload.empty()) throw std::invalid_argument("--workload is required");
    if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    if (!options.inject.empty() && options.inject != "drop_report" &&
        options.inject != "unrouted_command") {
      throw std::invalid_argument("unknown --inject " + options.inject);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loopbench: %s\n", e.what());
    usage();
    return 2;
  }
  try {
    return loopbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loopbench: %s: %s\n", options.workload.c_str(), e.what());
    return 2;
  }
}
