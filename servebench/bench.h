#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

struct Options {
  std::string workload;  // ingest | retail-scan
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run found. A run with `correct` false reports no metrics.
struct Report {
  bool correct = true;
  std::string first_mismatch;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One JSON object describing the run (sizes, rates, sample counts).
  std::string info;
};

/// Runs one workload. A non-OK return is a set-up failure (the run is
/// not reported); correctness mismatches land in `report`.
bool RunWorkload(const Options& options, Report* report, std::string* error);

/// Linear-interpolated quantile `q` in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
