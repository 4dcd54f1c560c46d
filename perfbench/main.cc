// plp_perfbench — the end-to-end benchmark of the train-to-budget →
// publish → serve path.
//
//   plp_perfbench --workload=<train_publish|serve_steady|serve_overload>
//                 --seed=<n> --seconds=<s> --trace=<0|1>
//                 [--git_sha=<sha>] [--work_dir=.bench_work]
//
// Prints provenance, every measured figure by name with its unit, the
// correctness checks, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one. Exits 1
// when any correctness check fails. See README.md in this directory.

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "common/flags.h"
#include "common/math_util.h"
#include "workloads.h"

namespace {

using plp::perfbench::Metric;
using plp::perfbench::Outcome;

/// Shortest round-trip decimal form of a finite double.
std::string Number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-10s %-34s %16s %s\n", kind, m.name.c_str(),
                Number(m.value).c_str(), m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = plp::FlagParser::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 2;
  }
  const plp::FlagParser& flags = *flags_or;
  plp::perfbench::RunOptions options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 25.0);
  options.trace = flags.GetInt("trace", 0) != 0;
  const std::string work_root = flags.GetString("work_dir", ".bench_work");
  const std::string git_sha = flags.GetString("git_sha", "unknown");

  if (options.workload != "train_publish" &&
      options.workload != "serve_steady" &&
      options.workload != "serve_overload") {
    std::fprintf(stderr, "unknown --workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (!(options.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  options.work_dir =
      work_root + "/run-" + std::to_string(static_cast<long>(getpid()));
  options.trace_path = work_root + "/trace-" + options.workload + ".tsv";
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  std::printf(
      "provenance nproc=%u avx2=%d build=%s git=%s workload=%s seed=%llu "
      "seconds=%s trace=%d\n",
      std::thread::hardware_concurrency(),
      plp::internal_simd::Avx2Active() ? 1 : 0, PERFBENCH_BUILD_TYPE,
      git_sha.c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed),
      Number(options.seconds).c_str(), options.trace ? 1 : 0);
  std::fflush(stdout);

  Outcome outcome = options.workload == "train_publish"
                        ? plp::perfbench::RunTrainPublish(options)
                        : plp::perfbench::RunServe(options);
  std::filesystem::remove_all(options.work_dir);

  const std::vector<Metric>& result =
      options.trace ? outcome.per_layer : outcome.end_to_end;
  for (const Metric& m : result) {
    outcome.Check(std::isfinite(m.value), "metric " + m.name + " is finite");
  }
  if (result.empty()) outcome.Check(false, "the run produced its metrics");
  if (outcome.attempted < 1) outcome.Check(false, "the run attempted work");

  PrintMetrics("report", outcome.report);
  PrintMetrics(options.trace ? "per_layer" : "end_to_end", result);
  for (const std::string& failure : outcome.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  if (options.trace) std::printf("spans: %s\n", options.trace_path.c_str());

  std::string json = "{\"correct\": ";
  json += outcome.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.size(); ++i) {
    const Metric& m = result[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " +
            Number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return outcome.correct() ? 0 : 1;
}
