#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

namespace plp::perfbench {

int64_t Tracer::Begin(const char* name, int64_t parent, int64_t key) {
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back({parent, key, now, now, name});
  return static_cast<int64_t>(records_.size()) - 1;
}

void Tracer::End(int64_t id) { EndAt(id, NowNanos()); }

void Tracer::EndAt(int64_t id, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<size_t>(id)].end_ns = end_ns;
}

int64_t Tracer::Add(const char* name, int64_t parent, int64_t key,
                    int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back({parent, key, start_ns, end_ns, name});
  return static_cast<int64_t>(records_.size()) - 1;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

Status Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  out << "id\tparent\tkey\tstart_ns\tend_ns\tname\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << i << '\t' << r.parent << '\t' << r.key << '\t' << r.start_ns
        << '\t' << r.end_ns << '\t' << r.name << '\n';
  }
  out.flush();
  if (!out) return InternalError("cannot write trace file " + path);
  return Status::Ok();
}

Result<std::vector<Span>> ReadTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open trace file " + path);
  std::string line;
  std::getline(in, line);  // header
  std::vector<Span> spans;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Span span;
    if (!(fields >> span.id >> span.parent >> span.key >> span.start_ns >>
          span.end_ns >> span.name) ||
        span.id != static_cast<int64_t>(spans.size()) ||
        span.end_ns < span.start_ns) {
      return InvalidArgumentError("malformed trace line: " + line);
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_begin = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [begin, end] : intervals) {
    if (!open || begin > cur_end) {
      if (open) total += cur_end - cur_begin;
      cur_begin = begin;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + (pos - static_cast<double>(lo)) *
                          (values[lo + 1] - values[lo]);
}

SpanTree::SpanTree(std::vector<Span> spans)
    : spans_(std::move(spans)), children_(spans_.size()) {
  for (const Span& span : spans_) {
    if (span.parent >= 0 &&
        span.parent < static_cast<int64_t>(spans_.size())) {
      children_[static_cast<size_t>(span.parent)].push_back(span.id);
    }
  }
}

int64_t SpanTree::ChildCoverageNanos(int64_t id) const {
  const Span& parent = spans_[static_cast<size_t>(id)];
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (int64_t child : children(id)) {
    const Span& c = spans_[static_cast<size_t>(child)];
    const int64_t begin = std::max(c.start_ns, parent.start_ns);
    const int64_t end = std::min(c.end_ns, parent.end_ns);
    if (end > begin) intervals.emplace_back(begin, end);
  }
  return UnionLength(std::move(intervals));
}

int64_t SpanTree::SelfNanos(int64_t id) const {
  const Span& span = spans_[static_cast<size_t>(id)];
  return (span.end_ns - span.start_ns) - ChildCoverageNanos(id);
}

std::vector<int64_t> SpanTree::Named(const std::string& name) const {
  std::vector<int64_t> ids;
  for (const Span& span : spans_) {
    if (span.name == name) ids.push_back(span.id);
  }
  return ids;
}

std::map<std::string, double> SpanTree::SelfMillisByName() const {
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    self[span.name] += static_cast<double>(SelfNanos(span.id)) / 1e6;
  }
  return self;
}

}  // namespace plp::perfbench
