#ifndef PLP_PERFBENCH_TRACE_H_
#define PLP_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace plp::perfbench {

/// Steady-clock nanoseconds (the one time base of every span and metric).
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A finished span as it is written to and read back from the trace file.
/// `key` is the step number for training spans, the request index for
/// serving spans and the cycle number for publish spans.
struct Span {
  int64_t id = 0;
  int64_t parent = -1;  ///< id of the enclosing span; -1 = root
  int64_t key = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string name;

  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span recorder. Spans are appended under one mutex (the hot
/// spans are per bucket and per request, microseconds to milliseconds
/// apart, so the lock is never contended long) and written out once, by
/// WriteTsv, when the benchmark ends. Span ids are indices, so a parent
/// may be opened before its children and closed after them.
class Tracer {
 public:
  /// Opens a span starting now; close it with End.
  int64_t Begin(const char* name, int64_t parent, int64_t key);
  void End(int64_t id);
  void EndAt(int64_t id, int64_t end_ns);

  /// Records an already-finished span.
  int64_t Add(const char* name, int64_t parent, int64_t key,
              int64_t start_ns, int64_t end_ns);

  size_t size() const;

  /// One header line, then one tab-separated line per span:
  /// id, parent, key, start_ns, end_ns, name.
  Status WriteTsv(const std::string& path) const;

 private:
  struct Record {
    int64_t parent;
    int64_t key;
    int64_t start_ns;
    int64_t end_ns;
    const char* name;  ///< always a string literal
  };
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// Opens a span for the lifetime of the scope (no-op without a tracer).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent, int64_t key)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, key) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Parses a file written by Tracer::WriteTsv.
Result<std::vector<Span>> ReadTsv(const std::string& path);

/// The spans of a trace file with their child lists resolved.
class SpanTree {
 public:
  explicit SpanTree(std::vector<Span> spans);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<int64_t>& children(int64_t id) const {
    return children_[static_cast<size_t>(id)];
  }

  /// Nanoseconds of span `id` covered by the union of its children's
  /// intervals (clipped to the span). Parallel children count once.
  int64_t ChildCoverageNanos(int64_t id) const;

  /// Duration minus child coverage: the time the span's own layer spent
  /// outside any traced call beneath it.
  int64_t SelfNanos(int64_t id) const;

  /// Ids of every span with `name`, in id order.
  std::vector<int64_t> Named(const std::string& name) const;

  /// Per span name: Σ self time in milliseconds.
  std::map<std::string, double> SelfMillisByName() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<int64_t>> children_;
};

/// Length of the union of [start, end) intervals, in the intervals' unit.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals);

/// q-quantile, interpolated linearly between the two nearest ranks of the
/// sorted copy (so q = 0.5 is the median); 0 for an empty input.
double Quantile(std::vector<double> values, double q);

}  // namespace plp::perfbench

#endif  // PLP_PERFBENCH_TRACE_H_
