// The serving benchmark's driver. Usage:
//
//   servebench --workload ingest|retail-scan --seed N
//              --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints one JSON line describing the run, then, as the last line, the
// result: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones
// (servebench/README.md lists both). Exits 1 on a correctness mismatch,
// 2 on bad arguments and 3 when the run could not be carried out.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

using servebench::Options;
using servebench::Report;

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      const unsigned long seed = std::strtoul(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
      options->seed = static_cast<std::uint32_t>(seed);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0.0) ||
          options->seconds > 120.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

void PrintResult(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const servebench::Metric& m = report.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: servebench --workload ingest|retail-scan "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  Report report;
  std::string error;
  if (!servebench::RunWorkload(options, &report, &error)) {
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
    return 3;
  }
  std::printf("%s\n", report.info.c_str());
  if (!report.correct) {
    std::fprintf(stderr, "servebench: correctness mismatch: %s\n",
                 report.first_mismatch.c_str());
    report.metrics.clear();
    PrintResult(report);
    return 1;
  }
  PrintResult(report);
  return 0;
}
