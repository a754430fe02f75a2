#ifndef HIQUE_OBS_METRICS_H_
#define HIQUE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hique::obs {

/// Process-wide engine metrics: counters, gauges, and fixed-bucket
/// histograms, registered by name in one global registry and rendered as
/// Prometheus-style text for the hiqued stats surface (protocol-v5
/// ServerStats frame, SIGUSR1 dump, `remote_client --server-stats`).
///
/// Design constraints, in order:
///  - Hot-path writes (a counter bump per query, per page, per DML
///    statement) must be lock-free and avoid a single contended cache line:
///    counters shard their value over a small padded atomic array indexed
///    by a per-thread slot.
///  - Reads (the stats dump) are rare and may be approximate: a dump that
///    races a bump may miss it — every value is monotone and eventually
///    consistent, which is all a scrape needs.
///  - Registration is idempotent and returns stable pointers: call sites
///    look their instrument up once (static local) and bump forever after
///    without touching the registry mutex again.

/// Sharded monotone counter.
class Counter {
 public:
  static constexpr size_t kShards = 16;

  void Add(uint64_t delta);
  void Increment() { Add(1); }
  uint64_t Value() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Point-in-time signed value (queue depth, active connections, cache
/// entries). Single atomic — gauges are set/adjusted far less often than
/// counters are bumped.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket histogram. Bucket upper bounds are set at registration and
/// never change; observations index the first bound >= value (linear scan —
/// bucket lists are short). Count and sum are exact; quantiles are
/// interpolated within the winning bucket, the standard Prometheus
/// histogram_quantile estimate.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);
  uint64_t Count() const;
  double Sum() const;

  /// Interpolated q-quantile (q in [0, 1]) over the recorded buckets.
  /// Returns 0 when empty. Values beyond the last bound clamp to it (an
  /// unbounded tail has no width to interpolate in).
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of observations <= bounds()[i].
  uint64_t CumulativeCount(size_t i) const;

 private:
  std::vector<double> bounds_;  // ascending upper bounds
  std::vector<std::atomic<uint64_t>> buckets_;  // one per bound
  std::atomic<uint64_t> overflow_{0};           // > last bound
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  // double bits, CAS-accumulated
};

/// Default latency buckets (milliseconds): 0.05 ms .. ~30 s, roughly
/// geometric. Shared by the query-latency and wait-time histograms.
std::vector<double> LatencyBucketsMs();

/// The process-wide instrument registry. Get* registers on first use and
/// returns the same instrument for the same name forever after (the help
/// text of the first registration wins). Instruments are never removed, so
/// returned pointers are stable for the process lifetime.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds);

  /// Prometheus text exposition: `# HELP` / `# TYPE` per family, counter
  /// and gauge sample lines, and `_bucket{le=...}` / `_sum` / `_count`
  /// series per histogram. Deterministic order (sorted by name).
  std::string RenderPrometheus() const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace hique::obs

#endif  // HIQUE_OBS_METRICS_H_
