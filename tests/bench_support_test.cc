// Workload generator invariants: the benchmark results are only meaningful
// if the inputs have exactly the paper's shape (72-byte tuples, controlled
// join fan-out, exact key domains).

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_support/flags.h"
#include "bench_support/git_commit.h"
#include "bench_support/micro_data.h"
#include "exec/engine.h"
#include "perf/perf_counters.h"
#include "ref/reference.h"
#include "tpch/tpch.h"

namespace hique {
namespace {

TEST(MicroDataTest, TupleIsExactly72Bytes) {
  Schema s = bench::MicroSchema("x");
  EXPECT_EQ(s.TupleSize(), 72u);
  EXPECT_EQ(s.OffsetAt(0), 0u);   // k
  EXPECT_EQ(s.OffsetAt(1), 4u);   // v
  EXPECT_EQ(s.OffsetAt(2), 8u);   // a
  EXPECT_EQ(s.OffsetAt(3), 16u);  // b
  EXPECT_EQ(s.OffsetAt(4), 24u);  // pad
}

TEST(MicroDataTest, KeysStayInDomain) {
  Catalog catalog;
  bench::MicroTableSpec spec;
  spec.rows = 5000;
  spec.key_domain = 37;
  spec.seed = 5;
  Table* t = bench::MakeMicroTable(&catalog, "m", spec).value();
  const Schema& schema = t->schema();
  (void)t->ForEachTuple([&](const uint8_t* tuple) {
    int32_t k = schema.GetValue(tuple, 0).AsInt32();
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 37);
  });
  // Statistics are computed (required by the optimizer).
  EXPECT_TRUE(t->stats().valid);
  EXPECT_LE(t->stats().columns[0].distinct, 37u);
}

TEST(MicroDataTest, UniqueDenseIsAPermutation) {
  Catalog catalog;
  bench::MicroTableSpec spec;
  spec.rows = 1000;
  spec.key_domain = 1000;
  spec.unique_dense = true;
  spec.seed = 6;
  Table* t = bench::MakeMicroTable(&catalog, "u", spec).value();
  std::set<int32_t> seen;
  const Schema& schema = t->schema();
  (void)t->ForEachTuple([&](const uint8_t* tuple) {
    seen.insert(schema.GetValue(tuple, 0).AsInt32());
  });
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 999);
}

TEST(MicroDataTest, JoinFanOutMatchesRowsOverDomain) {
  // rows/domain controls matches-per-outer-tuple (paper §VI-A setup).
  Catalog catalog;
  bench::MicroTableSpec spec;
  spec.rows = 10000;
  spec.key_domain = 10;
  spec.seed = 7;
  Table* t = bench::MakeMicroTable(&catalog, "f", spec).value();
  // Each key should appear ~1000 times (within 3 sigma of binomial).
  std::map<int32_t, int> counts;
  const Schema& schema = t->schema();
  (void)t->ForEachTuple([&](const uint8_t* tuple) {
    counts[schema.GetValue(tuple, 0).AsInt32()]++;
  });
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [k, c] : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(LatencyProbeTest, ProducesPositiveLatencies) {
  perf::LatencyResult r = perf::MeasureAccessLatency(1 << 16);
  EXPECT_GT(r.sequential_ns, 0.01);
  EXPECT_GT(r.random_ns, 0.01);
  EXPECT_LT(r.sequential_ns, 1000.0);
}

TEST(LatencyProbeTest, RandomSlowerThanSequentialInDram) {
  // The §II-A motivation: outside the caches, dependent random access costs
  // multiples of sequential access.
  perf::LatencyResult r = perf::MeasureAccessLatency(128 << 20);
  EXPECT_GT(r.random_ns, r.sequential_ns * 1.5);
}

TEST(TpchQ6Test, MatchesScanFilterAggShape) {
  Catalog catalog;
  tpch::TpchOptions opts;
  opts.scale_factor = 0.002;
  ASSERT_TRUE(tpch::LoadTpch(&catalog, opts).ok());
  HiqueEngine engine(&catalog);
  auto r = engine.Query(tpch::Query6Sql());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().NumRows(), 1);
  // Q6 is a pure scan: single pass, no staging or join ops in the plan.
  EXPECT_EQ(r.value().plan_text.find("join"), std::string::npos);
  auto expected = ref::ExecuteSql(tpch::Query6Sql(), catalog);
  ASSERT_TRUE(expected.ok());
  std::vector<ref::Row> actual;
  for (auto& row : r.value().Rows()) actual.push_back(row);
  EXPECT_TRUE(ref::CompareRowSets(expected.value(), actual).ok());
}

/// A command line for bench::Flags: a program name, then `args`.
class CommandLine {
 public:
  explicit CommandLine(std::vector<std::string> args) : args_(std::move(args)) {
    argv_.push_back(const_cast<char*>("bench"));
    for (std::string& a : args_) argv_.push_back(a.data());
  }
  bench::Flags flags() {
    return bench::Flags(static_cast<int>(argv_.size()), argv_.data());
  }

 private:
  std::vector<std::string> args_;
  std::vector<char*> argv_;
};

TEST(GitCommitTest, StampIsACommitHashOrUnknown) {
  // The benchmarks' --json stamp: a full hash, "-dirty" when the working
  // tree differs from it, "unknown" outside a checkout.
  std::string commit = bench::GitCommit();
  if (commit == "unknown") return;
  const std::string dirty = "-dirty";
  if (commit.size() > dirty.size() &&
      commit.compare(commit.size() - dirty.size(), dirty.size(), dirty) == 0) {
    commit.resize(commit.size() - dirty.size());
  }
  EXPECT_EQ(commit.size(), 40u) << commit;
  EXPECT_EQ(commit.find_first_not_of("0123456789abcdef"), std::string::npos)
      << commit;
}

TEST(FlagsTest, ParsesCompleteValues) {
  CommandLine cl({"--repeat=5", "--seed=-3", "--sf=0.05", "--tiny=1e-3",
                  "--trace", "--name=x"});
  bench::Flags f = cl.flags();
  EXPECT_EQ(f.GetInt("repeat", 1), 5);
  EXPECT_EQ(f.GetInt("seed", 1), -3);
  EXPECT_EQ(f.GetInt("absent", 7), 7);
  EXPECT_DOUBLE_EQ(f.GetDouble("sf", 1), 0.05);
  EXPECT_DOUBLE_EQ(f.GetDouble("tiny", 1), 1e-3);
  EXPECT_DOUBLE_EQ(f.GetDouble("absent", 0.5), 0.5);
  EXPECT_TRUE(f.GetBool("trace", false));
  EXPECT_EQ(f.GetString("name", ""), "x");
}

TEST(FlagsTest, ParsesTheEndToEndBenchmarkCommandLine) {
  // The flags bench_e2e/run.py passes, formatted as it formats them.
  CommandLine cl({"--workload=adhoc_cold", "--seed=1", "--duration-s=16",
                  "--trace=0", "--work-dir=/w", "--json=/w/r.json"});
  bench::Flags f = cl.flags();
  EXPECT_EQ(f.GetString("workload", ""), "adhoc_cold");
  EXPECT_EQ(f.GetInt("seed", 9), 1);
  EXPECT_DOUBLE_EQ(f.GetDouble("duration-s", 30), 16);
  EXPECT_FALSE(f.GetBool("trace", true));
  EXPECT_EQ(f.GetString("work-dir", ""), "/w");
  EXPECT_EQ(f.GetString("json", ""), "/w/r.json");
  CommandLine fractional({"--duration-s=0.5", "--trace=1"});
  EXPECT_DOUBLE_EQ(fractional.flags().GetDouble("duration-s", 30), 0.5);
  EXPECT_TRUE(fractional.flags().GetBool("trace", false));
}

TEST(FlagsDeathTest, RejectsValuesThatDoNotParseCompletely) {
  // "--repeat 5" reaches Flags as "--repeat" with an empty value.
  for (const char* bad : {"--repeat", "--repeat=", "--repeat=5x",
                          "--repeat=five", "--repeat=1.5",
                          "--repeat=99999999999999999999"}) {
    SCOPED_TRACE(bad);
    CommandLine cl({bad, "5"});
    EXPECT_EXIT(cl.flags().GetInt("repeat", 3),
                ::testing::ExitedWithCode(2), "bad value for --repeat");
  }
  for (const char* bad : {"--sf", "--sf=", "--sf=0.1x", "--sf=1e999"}) {
    SCOPED_TRACE(bad);
    CommandLine cl({bad});
    EXPECT_EXIT(cl.flags().GetDouble("sf", 0.1),
                ::testing::ExitedWithCode(2), "bad value for --sf");
  }
}

}  // namespace
}  // namespace hique
