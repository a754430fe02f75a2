#ifndef HIQUE_BENCH_E2E_E2E_UTIL_H_
#define HIQUE_BENCH_E2E_E2E_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hique::e2e {

/// One named measurement, printed as `name value unit`.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Linear interpolation between order statistics (q in [0, 1]).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Nanoseconds on the steady clock since the first call in the process.
inline int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// A client-side span: a call into one layer, made by one request.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;       // index into the same SpanLog, -1 for a request root
  int64_t request = -1;  // spans of one request share this id
  double DurationNs() const { return static_cast<double>(end_ns - start_ns); }
};

/// Spans kept in memory by one thread, written out when the run ends.
class SpanLog {
 public:
  int Begin(const std::string& name, int parent, int64_t request) {
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) { spans_[index].end_ns = NowNs(); }
  /// A span whose bounds were measured by the caller.
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int parent, int64_t request) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Appends another log, re-basing its parent indexes.
  void Append(const SpanLog& other) {
    int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(std::move(s));
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
inline std::vector<double> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(static_cast<int>(i));
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (int c : children[i]) {
      iv.emplace_back(std::max(spans[c].start_ns, spans[i].start_ns),
                      std::min(spans[c].end_ns, spans[i].end_ns));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = spans[i].DurationNs() - static_cast<double>(covered);
  }
  return self;
}

}  // namespace hique::e2e

#endif  // HIQUE_BENCH_E2E_E2E_UTIL_H_
