#include "serve/metrics.h"

#include <bit>
#include <chrono>
#include <string>
#include <vector>

#include "common/table_printer.h"

namespace plp::serve {

void LatencyHistogram::Record(uint64_t micros) {
  // bucket = floor(log2(micros)), clamped; 0 and 1 µs share bucket 0.
  const int bucket =
      micros < 2 ? 0
                 : std::min(kNumBuckets - 1,
                            static_cast<int>(std::bit_width(micros)) - 1);
  buckets_[static_cast<size_t>(bucket)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
}

double LatencyHistogram::MeanMicros() const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) /
         static_cast<double>(n);
}

uint64_t LatencyHistogram::QuantileUpperBoundMicros(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the quantile sample (1-based, ceil), then walk the buckets.
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(q * static_cast<double>(n) +
                                                  0.999999));
  uint64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    cumulative += BucketCount(b);
    if (cumulative >= rank) return uint64_t{1} << (b + 1);
  }
  return uint64_t{1} << kNumBuckets;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  for (int b = 0; b < kNumBuckets; ++b) {
    buckets_[static_cast<size_t>(b)].fetch_add(other.BucketCount(b),
                                               std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_micros_.fetch_add(other.sum_micros_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
}

double Metrics::SwapAgeSeconds(int64_t now_micros) const {
  const int64_t stamp = last_swap_steady_micros.load(std::memory_order_relaxed);
  if (stamp == 0) return -1.0;
  return static_cast<double>(now_micros - stamp) * 1e-6;
}

void Metrics::RecordSwap(int64_t now_micros) {
  model_swaps.fetch_add(1, std::memory_order_relaxed);
  last_swap_steady_micros.store(now_micros, std::memory_order_relaxed);
}

void Metrics::MergeFrom(const Metrics& other) {
  auto acc = [](std::atomic<uint64_t>& into, const std::atomic<uint64_t>& from) {
    into.fetch_add(from.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  };
  acc(requests_ok, other.requests_ok);
  acc(requests_invalid_argument, other.requests_invalid_argument);
  acc(requests_not_found, other.requests_not_found);
  acc(requests_deadline_exceeded, other.requests_deadline_exceeded);
  acc(requests_no_model, other.requests_no_model);
  acc(requests_overloaded, other.requests_overloaded);
  acc(model_swaps, other.model_swaps);
  acc(protocol_errors, other.protocol_errors);
  acc(requests_f32, other.requests_f32);
  acc(requests_fp16, other.requests_fp16);
  acc(requests_int8, other.requests_int8);
  const int64_t stamp =
      other.last_swap_steady_micros.load(std::memory_order_relaxed);
  int64_t current = last_swap_steady_micros.load(std::memory_order_relaxed);
  while (stamp > current && !last_swap_steady_micros.compare_exchange_weak(
                                current, stamp, std::memory_order_relaxed)) {
  }
  latency.MergeFrom(other.latency);
}

uint64_t Metrics::TotalRequests() const {
  return requests_ok.load(std::memory_order_relaxed) +
         requests_invalid_argument.load(std::memory_order_relaxed) +
         requests_not_found.load(std::memory_order_relaxed) +
         requests_deadline_exceeded.load(std::memory_order_relaxed) +
         requests_no_model.load(std::memory_order_relaxed) +
         requests_overloaded.load(std::memory_order_relaxed);
}

void Metrics::PrintTable(std::ostream& os) const {
  TablePrinter table({"metric", "value"});
  auto add = [&table](const std::string& name, uint64_t value) {
    table.NewRow();
    table.AddCell(name);
    table.AddCell(static_cast<int64_t>(value));
  };
  add("requests_total", TotalRequests());
  add("requests_ok", requests_ok.load(std::memory_order_relaxed));
  add("requests_invalid_argument",
      requests_invalid_argument.load(std::memory_order_relaxed));
  add("requests_not_found",
      requests_not_found.load(std::memory_order_relaxed));
  add("requests_deadline_exceeded",
      requests_deadline_exceeded.load(std::memory_order_relaxed));
  add("requests_no_model",
      requests_no_model.load(std::memory_order_relaxed));
  add("requests_overloaded",
      requests_overloaded.load(std::memory_order_relaxed));
  add("protocol_errors", protocol_errors.load(std::memory_order_relaxed));
  add("requests_f32", requests_f32.load(std::memory_order_relaxed));
  add("requests_fp16", requests_fp16.load(std::memory_order_relaxed));
  add("requests_int8", requests_int8.load(std::memory_order_relaxed));
  add("model_swaps", model_swaps.load(std::memory_order_relaxed));
  add("latency_p50_us_le", latency.QuantileUpperBoundMicros(0.50));
  add("latency_p95_us_le", latency.QuantileUpperBoundMicros(0.95));
  add("latency_p99_us_le", latency.QuantileUpperBoundMicros(0.99));
  table.NewRow();
  table.AddCell("latency_mean_us");
  table.AddCell(latency.MeanMicros(), 1);
  table.NewRow();
  table.AddCell("swap_age_seconds");
  table.AddCell(
      SwapAgeSeconds(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count()),
      1);
  table.PrintAligned(os);
}

}  // namespace plp::serve
