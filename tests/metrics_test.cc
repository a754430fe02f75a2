// Metrics registry semantics: concurrent counter/gauge/histogram updates
// must never lose writes or race (this suite runs under TSan in CI),
// histogram quantile interpolation must match the closed-form expectation,
// the Prometheus rendering must be well formed and deterministic, and the
// engine must feed the registry and the slow-query log from real
// statements.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace hique {
namespace {

TEST(MetricsTest, CounterIsExactUnderConcurrency) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(MetricsTest, GaugeAndHistogramAreExactUnderConcurrency) {
  obs::Gauge gauge;
  obs::Histogram hist(obs::LatencyBucketsMs());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        gauge.Add(1);
        hist.Observe(static_cast<double>((t * kPerThread + i) % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(gauge.Value(), kThreads * kPerThread);
  EXPECT_EQ(hist.Count(), static_cast<uint64_t>(kThreads * kPerThread));
  // Sum is CAS-accumulated, so it must be exact, not approximate:
  // each thread observed 0..99 cyclically, kPerThread values each.
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      expected_sum += (t * kPerThread + i) % 100;
    }
  }
  EXPECT_DOUBLE_EQ(hist.Sum(), expected_sum);
}

TEST(MetricsTest, HistogramQuantileInterpolation) {
  // Buckets 10 / 20 / 30: put 10 observations in each, uniformly spread.
  obs::Histogram hist({10.0, 20.0, 30.0});
  for (int i = 0; i < 10; ++i) hist.Observe(5.0);
  for (int i = 0; i < 10; ++i) hist.Observe(15.0);
  for (int i = 0; i < 10; ++i) hist.Observe(25.0);

  EXPECT_EQ(hist.Count(), 30u);
  EXPECT_EQ(hist.CumulativeCount(0), 10u);
  EXPECT_EQ(hist.CumulativeCount(1), 20u);
  EXPECT_EQ(hist.CumulativeCount(2), 30u);

  // Prometheus histogram_quantile: rank interpolated within the winning
  // bucket, assuming a uniform distribution inside it.
  // q=0.5 -> rank 15 -> bucket (10,20], 5/10 through it -> 15.
  EXPECT_NEAR(hist.Quantile(0.5), 15.0, 1e-9);
  // q=1/6 -> rank 5 -> first bucket, lower bound 0 -> 5.
  EXPECT_NEAR(hist.Quantile(1.0 / 6.0), 5.0, 1e-9);
  // q=1 -> last bound.
  EXPECT_NEAR(hist.Quantile(1.0), 30.0, 1e-9);
  // Values beyond every bound clamp to the last bound.
  obs::Histogram overflow({1.0});
  overflow.Observe(50.0);
  EXPECT_NEAR(overflow.Quantile(0.99), 1.0, 1e-9);
  // Empty histogram -> 0.
  obs::Histogram empty({1.0, 2.0});
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
}

TEST(MetricsTest, RegistryIsIdempotentAndStableUnderConcurrency) {
  auto& registry = obs::Registry::Global();
  obs::Counter* first =
      registry.GetCounter("metrics_test_idem_total", "idempotency probe");
  constexpr int kThreads = 8;
  std::vector<obs::Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::Counter* c =
          registry.GetCounter("metrics_test_idem_total", "ignored help");
      c->Increment();
      seen[t] = c;
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], first);
  EXPECT_EQ(first->Value(), static_cast<uint64_t>(kThreads));
}

TEST(MetricsTest, PrometheusRenderingIsWellFormed) {
  auto& registry = obs::Registry::Global();
  registry.GetCounter("metrics_test_render_total", "render probe")->Add(3);
  registry.GetGauge("metrics_test_render_gauge", "render gauge")->Set(-7);
  auto* hist = registry.GetHistogram("metrics_test_render_ms", "render hist",
                                     {1.0, 10.0});
  hist->Observe(0.5);
  hist->Observe(100.0);

  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP metrics_test_render_total render probe"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE metrics_test_render_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("metrics_test_render_total 3"), std::string::npos);
  EXPECT_NE(text.find("metrics_test_render_gauge -7"), std::string::npos);
  EXPECT_NE(text.find("metrics_test_render_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("metrics_test_render_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("metrics_test_render_ms_count 2"), std::string::npos);
  // Every non-comment line is "name[{labels}] value" — two tokens.
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.find(' ', space + 1), std::string::npos) << line;
  }
  // Deterministic: two renders are byte-identical when nothing changed.
  EXPECT_EQ(text, registry.RenderPrometheus());
}

TEST(MetricsTest, EngineFeedsStatementMetricsAndPlanCache) {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    testing::MakeIntTable(c, "mt", 5000, 20, 91);
    return c;
  }();
  auto& registry = obs::Registry::Global();
  auto* statements = registry.GetCounter("hique_statements_total", "");
  auto* hits = registry.GetCounter("hique_plan_cache_hits_total", "");
  auto* misses = registry.GetCounter("hique_plan_cache_misses_total", "");
  uint64_t statements_before = statements->Value();
  uint64_t hits_before = hits->Value();
  uint64_t misses_before = misses->Value();

  EngineOptions o;
  o.threads = 2;
  o.compile.opt_level = 0;
  o.gen_dir = env::ProcessTempDir() + "/metrics_e";
  HiqueEngine engine(catalog, o);
  const std::string sql = "select mt_k, count(*) as c from mt group by mt_k";
  ASSERT_TRUE(engine.Query(sql).ok());
  ASSERT_TRUE(engine.Query(sql).ok());

  EXPECT_GE(statements->Value(), statements_before + 2);
  EXPECT_GE(misses->Value(), misses_before + 1);
  EXPECT_GE(hits->Value(), hits_before + 1);
}

TEST(MetricsTest, SlowQueryLogTriggersOnThreshold) {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    testing::MakeIntTable(c, "sq", 50000, 200, 92);
    return c;
  }();
  EngineOptions o;
  o.threads = 2;
  o.compile.opt_level = 0;
  o.gen_dir = env::ProcessTempDir() + "/metrics_slow_e";
  // Any statement that takes at least a microsecond-ish qualifies: the
  // first compile alone crosses this.
  o.slow_query_ms = 0.000001;
  HiqueEngine engine(catalog, o);
  const std::string sql =
      "select sq_k, count(*) as c from sq group by sq_k order by sq_k";
  ASSERT_TRUE(engine.Query(sql).ok());
  ASSERT_GE(engine.slow_log()->total_recorded(), 1u);
  auto entries = engine.slow_log()->Snapshot();
  ASSERT_FALSE(entries.empty());
  const auto& entry = entries.back();
  EXPECT_EQ(entry.sql, sql);
  EXPECT_FALSE(entry.signature.empty());
  EXPECT_GT(entry.total_ms, 0.0);
  EXPECT_NE(entry.span_summary.find("execute "), std::string::npos);

  // Ring bound: capacity is respected while the total keeps counting.
  obs::SlowQueryLog ring(4);
  for (int i = 0; i < 10; ++i) {
    obs::SlowQueryEntry e;
    e.sql = "q" + std::to_string(i);
    ring.Record(std::move(e));
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  auto kept = ring.Snapshot();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().sql, "q6");
  EXPECT_EQ(kept.back().sql, "q9");
}

}  // namespace
}  // namespace hique
