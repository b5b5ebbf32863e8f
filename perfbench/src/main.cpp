// cqa_perfbench: one workload run of the cqa benchmark.
//
//   cqa_perfbench --workload exact_cold|mc_poly --seed N
//                 --seconds S --trace 0|1 --tmpdir DIR [--trace-out FILE]
//
// Prints one JSON result line on stdout (diagnostics go to stderr).
// Exits 1 after printing when any answer was wrong, 2 on bad usage or
// a run that could not complete.

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cqa_perfbench: %s\nusage: cqa_perfbench --workload "
               "exact_cold|mc_poly --seed N --seconds S "
               "--trace 0|1 --tmpdir DIR [--trace-out FILE]\n",
               why);
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--tmpdir") {
      a.tmpdir = val;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.seconds < 1 || a.seconds > 600) usage("--seconds must be 1..600");
  if (a.tmpdir.empty()) usage("--tmpdir is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse_args(argc, argv);
  // Socket and disk-cache files are created relative to the per-run
  // directory: unix socket paths are limited to ~100 bytes, and a
  // checkout's absolute path may already be longer.
  if (chdir(args.tmpdir.c_str()) != 0) {
    usage(("cannot enter --tmpdir: " + std::string(std::strerror(errno)))
              .c_str());
  }
  perfbench::Report report;
  try {
    if (args.workload == "exact_cold") {
      report = args.trace ? perfbench::trace_exact_cold(args)
                          : perfbench::run_exact_cold(args);
    } else if (args.workload == "mc_poly") {
      report = args.trace ? perfbench::trace_mc_poly(args)
                          : perfbench::run_mc_poly(args);
    } else {
      usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cqa_perfbench: run failed: %s\n", e.what());
    return 2;
  }
  std::printf("%s\n", report.to_json().c_str());
  std::fflush(stdout);
  if (!report.correct) {
    std::fprintf(stderr, "cqa_perfbench: %llu of %llu answers wrong\n",
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted));
    return 1;
  }
  return 0;
}
