// In-memory span tracer and the sample statistics of dpbench.
//
// A span records one call dpbench made into a dblrep layer: its name,
// start, end, the span that caused it (parent) and the operation it belongs
// to (op id). Spans live in memory and are written out once, at exit. A
// layer's self time is its span's duration minus the part of that interval
// its child spans cover; children may nest or overlap, so the covered part
// is the length of the union of the child intervals clipped to the parent.
//
// Header-only so the self-test (selftest.cc) checks exactly the math the
// benchmark uses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dpbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;
  double start_us = 0;
  double end_us = 0;
  double duration_us() const { return end_us - start_us; }
};

/// Length of the union of [start, end) intervals.
inline double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double cur_start = 0;
  double cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

/// Self time of `parent`: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
inline double self_time_us(const Span& parent, const std::vector<Span>& spans) {
  std::vector<std::pair<double, double>> covered;
  for (const Span& s : spans) {
    if (s.parent != parent.id || s.id == parent.id) continue;
    const double lo = std::max(s.start_us, parent.start_us);
    const double hi = std::min(s.end_us, parent.end_us);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  return parent.duration_us() - union_length(std::move(covered));
}

/// Thread-safe span recorder. A disabled tracer records nothing and costs
/// one branch per call, so untraced runs pay no bookkeeping.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  std::uint64_t new_op() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_op_;
  }

  /// Reserves a span id, so children can name a parent that is recorded
  /// after them (a parent ends last).
  std::uint64_t reserve_id() {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }

  /// Records a finished span under `id` (a reserved one) or, with id 0,
  /// a fresh one. Returns the span's id (0 when disabled).
  std::uint64_t record(std::string name, std::uint64_t parent,
                       std::uint64_t op, double start_us, double end_us,
                       std::uint64_t id = 0) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = std::move(name);
    span.id = id != 0 ? id : ++next_id_;
    span.parent = parent;
    span.op = op;
    span.start_us = start_us;
    span.end_us = end_us;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes every span as one JSON array. Returns false on I/O failure.
  bool write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"op\":" << s.op
          << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
          << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_, next_id_, next_op_
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 0;
  std::uint64_t next_op_ = 0;
};

/// Quantile q in [0, 1] of `values` by linear interpolation between order
/// statistics (the "inclusive" method of Python's statistics.quantiles).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Samples strictly above the q-quantile's rank: a percentile is reported
/// only with at least ten of them.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto at = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n > at ? n - at : 0;
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace dpbench
