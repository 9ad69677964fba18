// The benchmark harness: runs one workload and prints a human report and,
// as its last line, one JSON object with every metric it measured. run.py
// builds this binary, runs it and turns that line into the result the
// benchmark contract asks for.
//
//   wms_perfbench --workload train|serve|sync --seed N --seconds S
//                 --trace 0|1 --run-dir DIR
//
// The harness works inside DIR (sockets, traces/), which must exist.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions o;
  const char* workload = FlagValue(argc, argv, "--workload");
  const char* seed = FlagValue(argc, argv, "--seed");
  const char* seconds = FlagValue(argc, argv, "--seconds");
  const char* trace = FlagValue(argc, argv, "--trace");
  const char* run_dir = FlagValue(argc, argv, "--run-dir");
  if (workload == nullptr || seed == nullptr || seconds == nullptr || run_dir == nullptr) {
    std::fprintf(stderr,
                 "usage: wms_perfbench --workload train|serve|sync --seed N --seconds S "
                 "[--trace 0|1] --run-dir DIR\n");
    return 2;
  }
  o.workload = workload;
  o.seed = std::strtoull(seed, nullptr, 10);
  o.seconds = std::atof(seconds);
  o.trace = trace != nullptr && std::strcmp(trace, "1") == 0;
  if (o.seconds <= 0.0) {
    std::fprintf(stderr, "wms_perfbench: --seconds must be positive\n");
    return 2;
  }
  if (::chdir(run_dir) != 0) {
    std::fprintf(stderr, "wms_perfbench: cannot enter run directory %s\n", run_dir);
    return 2;
  }

  Report report;
  RecordFacts(o, report);
  if (o.workload == "train") {
    RunTrain(o, report);
  } else if (o.workload == "serve") {
    RunServe(o, report);
  } else if (o.workload == "sync") {
    RunSync(o, report);
  } else {
    std::fprintf(stderr, "wms_perfbench: unknown workload '%s'\n", workload);
    return 2;
  }
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report.PrintHuman(o);
  std::printf("%s\n", report.ToJsonLine(o).c_str());
  return 0;
}
