// Metric catalogue and result reporting.  The catalogue mirrors the
// end_to_end / per_layer lists of BENCHMARK.json (the self-test checks
// that they agree); every run prints each metric of its mode with unit,
// direction and sample count, then the one-line JSON result.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher".
};

/// Reported by the untraced run (--trace 0), on every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// Reported by the traced run (--trace 1), on every workload.
const std::vector<MetricDef>& PerLayerMetrics();
/// Printed by the untraced run where they apply (latency delivery only),
/// but not part of the result line: they are zero on immediate delivery.
const std::vector<MetricDef>& ExtraMetrics();

struct Sampled {
  double value = 0.0;
  uint64_t n = 0;  ///< samples behind the value.
};

using Results = std::map<std::string, Sampled>;

/// Nearest-rank quantile (q in (0, 1]) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

/// Median of `v` (mean of the middle two for an even count); 0 if empty.
double Median(std::vector<double> v);

struct RunMeta {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  bool smoke = false;
  std::string git_commit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< empty = outputs correct.
};

/// True when the binary was compiled with optimisation and NDEBUG.
bool OptimisedBuild();

/// Prints the metric table, a detail JSON line (metadata, units,
/// directions, sample counts) and, last, the result JSON line.  A
/// catalogue metric that is missing or not finite counts as a failed
/// check.  Returns whether every check passed (the line's "correct").
bool PrintReport(const RunMeta& meta, const Results& results,
                 const Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
