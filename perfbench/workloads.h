#ifndef PLP_PERFBENCH_WORKLOADS_H_
#define PLP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sgns/model.h"

namespace plp::perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;  ///< train_publish | serve_steady | serve_overload
  uint64_t seed = 1;
  /// Length of a serving workload's timed window. train_publish runs a
  /// fixed amount of work instead (two trainings to the budget).
  double seconds = 25.0;
  bool trace = false;     ///< traced run: per-layer metrics instead
  std::string work_dir;   ///< scratch space for publish trees, checkpoints
  std::string trace_path;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured and checked.
struct Outcome {
  std::vector<std::string> failures;  ///< correctness checks that failed
  int64_t attempted = 0;  ///< operations the workload issued
  int64_t failed = 0;     ///< operations that returned an unexpected error
  std::vector<Metric> end_to_end;  ///< the untraced run's metrics
  std::vector<Metric> per_layer;   ///< the traced run's metrics
  /// Workload-specific figures printed for people: train_to_budget_s,
  /// p99_us_low, goodput_qps, ...
  std::vector<Metric> report;

  bool correct() const { return failures.empty(); }
  void Check(bool ok, const std::string& what);
};

Outcome RunTrainPublish(const RunOptions& options);
Outcome RunServe(const RunOptions& options);

/// CRC-64/XZ over the model's three tensors, row by row over the logical
/// dims — the fingerprint the test suite's golden pins use.
uint64_t ModelCrc64(const sgns::SgnsModel& model);

/// The names and units of every per-layer metric, in print order; a
/// traced run reports all of them (0 where its workload does not
/// exercise the layer).
const std::vector<Metric>& PerLayerCatalog();

}  // namespace plp::perfbench

#endif  // PLP_PERFBENCH_WORKLOADS_H_
