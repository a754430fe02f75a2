// Differential test matrix: every execution engine (HIQUE generated code,
// Volcano generic, Volcano optimized, column-at-a-time) against the naive
// reference executor, across randomized workloads and a battery of query
// shapes covering all staging/join/aggregation algorithms.

#include <gtest/gtest.h>

#include "column/column_engine.h"
#include "iterator/volcano_engine.h"
#include "tests/test_util.h"

namespace hique {
namespace {

enum class EngineKind { kHique, kVolcanoGeneric, kVolcanoOptimized, kColumn };

const char* EngineName(EngineKind k) {
  switch (k) {
    case EngineKind::kHique:
      return "hique";
    case EngineKind::kVolcanoGeneric:
      return "volcano_generic";
    case EngineKind::kVolcanoOptimized:
      return "volcano_optimized";
    case EngineKind::kColumn:
      return "column";
  }
  return "?";
}

struct Workload {
  uint64_t seed;
  uint64_t rows_r;
  uint64_t rows_s;
  int64_t domain;
};

struct Case {
  EngineKind engine;
  Workload workload;
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  return std::string(EngineName(c.engine)) + "_s" +
         std::to_string(c.workload.seed) + "_r" +
         std::to_string(c.workload.rows_r) + "_d" +
         std::to_string(c.workload.domain);
}

class DifferentialTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const Workload& w = GetParam().workload;
    testing::MakeIntTable(&catalog_, "r", w.rows_r, w.domain, w.seed);
    testing::MakeIntTable(&catalog_, "s", w.rows_s, w.domain, w.seed + 99);
  }

  /// Runs `sql` on the engine under test and compares with the reference.
  Status Check(const std::string& sql) {
    auto expected = ref::ExecuteSql(sql, catalog_);
    if (!expected.ok()) return expected.status();
    std::vector<ref::Row> actual;
    switch (GetParam().engine) {
      case EngineKind::kHique: {
        HiqueEngine engine(&catalog_);
        auto r = engine.Query(sql);
        if (!r.ok()) return r.status();
        for (auto& row : r.value().Rows()) actual.push_back(row);
        break;
      }
      case EngineKind::kVolcanoGeneric:
      case EngineKind::kVolcanoOptimized: {
        iter::VolcanoEngine engine(
            &catalog_, GetParam().engine == EngineKind::kVolcanoGeneric
                           ? iter::Mode::kGeneric
                           : iter::Mode::kOptimized);
        auto r = engine.Query(sql);
        if (!r.ok()) return r.status();
        AppendRows(r.value().table.get(), &actual);
        break;
      }
      case EngineKind::kColumn: {
        col::ColumnEngine engine(&catalog_);
        auto r = engine.Query(sql);
        if (!r.ok()) return r.status();
        AppendRows(r.value().table.get(), &actual);
        break;
      }
    }
    return ref::CompareRowSets(expected.value(), actual, false);
  }

  static void AppendRows(Table* table, std::vector<ref::Row>* out) {
    const Schema& s = table->schema();
    (void)table->ForEachTuple([&](const uint8_t* tuple) {
      ref::Row row;
      for (size_t c = 0; c < s.NumColumns(); ++c) {
        row.push_back(s.GetValue(tuple, c));
      }
      out->push_back(std::move(row));
    });
  }

  Catalog catalog_;
};

#define EXPECT_QUERY_MATCHES(sql)                                   \
  do {                                                              \
    Status _s = Check(sql);                                         \
    EXPECT_TRUE(_s.ok()) << _s.ToString() << "\n  query: " << sql;  \
  } while (0)

TEST_P(DifferentialTest, ScanProjectFilter) {
  EXPECT_QUERY_MATCHES("select r_k, r_v, r_d from r");
  EXPECT_QUERY_MATCHES("select r_k from r where r_v < 2000");
  EXPECT_QUERY_MATCHES(
      "select r_k, r_d from r where r_v >= 1000 and r_v < 9000 and r_k <> 2");
  EXPECT_QUERY_MATCHES("select r_pad, r_k from r where r_pad = 'p3'");
}

TEST_P(DifferentialTest, Expressions) {
  EXPECT_QUERY_MATCHES(
      "select r_k, r_d * 2.0 + r_v as x, r_v - r_k as y from r "
      "where r_k <= 7");
}

TEST_P(DifferentialTest, BinaryJoin) {
  EXPECT_QUERY_MATCHES(
      "select r_k, r_v, s_v from r, s where r_k = s_k and r_v < 300");
}

TEST_P(DifferentialTest, JoinWithFiltersBothSides) {
  EXPECT_QUERY_MATCHES(
      "select r_v, s_d from r, s "
      "where r_k = s_k and r_v < 5000 and s_v >= 2000");
}

TEST_P(DifferentialTest, GroupByAllAggregates) {
  EXPECT_QUERY_MATCHES(
      "select r_k, count(*), sum(r_v), sum(r_d), avg(r_v), min(r_v), "
      "max(r_d) from r group by r_k");
}

TEST_P(DifferentialTest, GroupByChar) {
  EXPECT_QUERY_MATCHES(
      "select r_pad, count(*), sum(r_v) from r group by r_pad");
}

TEST_P(DifferentialTest, MultiKeyGroupBy) {
  EXPECT_QUERY_MATCHES(
      "select r_k, r_pad, count(*), sum(r_d) from r group by r_k, r_pad");
}

TEST_P(DifferentialTest, ScalarAggregation) {
  EXPECT_QUERY_MATCHES("select count(*), sum(r_v), avg(r_d) from r");
  EXPECT_QUERY_MATCHES(
      "select count(*), sum(r_v) from r where r_v < 0");  // empty input
}

TEST_P(DifferentialTest, ScalarAggOverJoinFused) {
  EXPECT_QUERY_MATCHES(
      "select count(*) as c, sum(s_d) as t, min(r_v) as mn, max(s_v) as mx, "
      "avg(r_d) as av from r, s where r_k = s_k");
}

TEST_P(DifferentialTest, JoinThenGroupBy) {
  EXPECT_QUERY_MATCHES(
      "select r_k, count(*), sum(s_v) from r, s where r_k = s_k "
      "group by r_k");
}

TEST_P(DifferentialTest, AggregateOfJoinExpression) {
  EXPECT_QUERY_MATCHES(
      "select r_k, sum(r_d * (1 + s_d)) from r, s where r_k = s_k "
      "group by r_k");
}

TEST_P(DifferentialTest, OrderByLimit) {
  Status s = Check(
      "select r_k, sum(r_v) as total from r group by r_k "
      "order by total desc, r_k limit 5");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Engines, DifferentialTest,
    ::testing::Values(
        // Moderate tables, small key domain (heavy duplicates).
        Case{EngineKind::kHique, {1, 3000, 2000, 20}},
        Case{EngineKind::kVolcanoGeneric, {1, 3000, 2000, 20}},
        Case{EngineKind::kVolcanoOptimized, {1, 3000, 2000, 20}},
        Case{EngineKind::kColumn, {1, 3000, 2000, 20}},
        // Wide key domain (few duplicates, exercises sparse matches).
        Case{EngineKind::kHique, {2, 2500, 2500, 5000}},
        Case{EngineKind::kVolcanoGeneric, {2, 2500, 2500, 5000}},
        Case{EngineKind::kVolcanoOptimized, {2, 2500, 2500, 5000}},
        Case{EngineKind::kColumn, {2, 2500, 2500, 5000}},
        // Asymmetric sizes.
        Case{EngineKind::kHique, {3, 5000, 100, 50}},
        Case{EngineKind::kVolcanoGeneric, {3, 5000, 100, 50}},
        Case{EngineKind::kVolcanoOptimized, {3, 5000, 100, 50}},
        Case{EngineKind::kColumn, {3, 5000, 100, 50}},
        // Tiny tables (page-boundary and small-group edge cases).
        Case{EngineKind::kHique, {4, 3, 2, 2}},
        Case{EngineKind::kVolcanoGeneric, {4, 3, 2, 2}},
        Case{EngineKind::kVolcanoOptimized, {4, 3, 2, 2}},
        Case{EngineKind::kColumn, {4, 3, 2, 2}},
        // Single-row tables.
        Case{EngineKind::kHique, {5, 1, 1, 1}},
        Case{EngineKind::kVolcanoGeneric, {5, 1, 1, 1}},
        Case{EngineKind::kVolcanoOptimized, {5, 1, 1, 1}},
        Case{EngineKind::kColumn, {5, 1, 1, 1}}),
    CaseName);

// Forced-algorithm sweeps: every join and aggregation algorithm must agree
// with the reference regardless of what the optimizer would pick.
struct AlgoCase {
  plan::JoinAlgo join_algo;
  plan::AggAlgo agg_algo;
  bool fine;
  uint64_t seed;
};

class ForcedAlgoTest : public ::testing::TestWithParam<AlgoCase> {
 protected:
  void SetUp() override {
    const AlgoCase& c = GetParam();
    testing::MakeIntTable(&catalog_, "r", 2000, 30, c.seed);
    testing::MakeIntTable(&catalog_, "s", 1500, 30, c.seed + 7);
  }
  Catalog catalog_;
};

TEST_P(ForcedAlgoTest, JoinAggAgainstReference) {
  const AlgoCase& c = GetParam();
  plan::PlannerOptions opts;
  opts.force_join_algo = c.join_algo;
  opts.force_agg_algo = c.agg_algo;
  opts.fine_partition_max_domain = c.fine ? 64 : 0;
  std::string sql =
      "select r_k, count(*), sum(s_v) from r, s where r_k = s_k "
      "group by r_k";
  auto expected = ref::ExecuteSql(sql, catalog_);
  ASSERT_TRUE(expected.ok());
  // HIQUE: one uncached run through a planner-override session.
  {
    EngineOptions uncached;
    uncached.max_cached_queries = 0;
    HiqueEngine engine(&catalog_, uncached);
    SessionOptions so;
    so.override_planner = true;
    so.planner = opts;
    auto r = engine.OpenSession(so).Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<ref::Row> actual;
    for (auto& row : r.value().Rows()) actual.push_back(row);
    Status cmp = ref::CompareRowSets(expected.value(), actual, false);
    EXPECT_TRUE(cmp.ok()) << "hique: " << cmp.ToString();
  }
  // Volcano (optimized mode).
  {
    iter::VolcanoEngine engine(&catalog_, iter::Mode::kOptimized);
    auto r = engine.Query(sql, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<ref::Row> actual;
    const Schema& sch = r.value().table->schema();
    (void)r.value().table->ForEachTuple([&](const uint8_t* tuple) {
      ref::Row row;
      for (size_t col = 0; col < sch.NumColumns(); ++col) {
        row.push_back(sch.GetValue(tuple, col));
      }
      actual.push_back(std::move(row));
    });
    Status cmp = ref::CompareRowSets(expected.value(), actual, false);
    EXPECT_TRUE(cmp.ok()) << "volcano: " << cmp.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ForcedAlgoTest,
    ::testing::Values(
        AlgoCase{plan::JoinAlgo::kMerge, plan::AggAlgo::kSort, false, 10},
        AlgoCase{plan::JoinAlgo::kMerge, plan::AggAlgo::kHybridHashSort,
                 false, 11},
        AlgoCase{plan::JoinAlgo::kMerge, plan::AggAlgo::kMap, false, 12},
        AlgoCase{plan::JoinAlgo::kHybridHashSortMerge, plan::AggAlgo::kSort,
                 false, 13},
        AlgoCase{plan::JoinAlgo::kHybridHashSortMerge,
                 plan::AggAlgo::kHybridHashSort, false, 14},
        AlgoCase{plan::JoinAlgo::kHybridHashSortMerge, plan::AggAlgo::kMap,
                 false, 15},
        AlgoCase{plan::JoinAlgo::kHybridHashSortMerge,
                 plan::AggAlgo::kHybridHashSort, true, 16},
        AlgoCase{plan::JoinAlgo::kHybridHashSortMerge, plan::AggAlgo::kMap,
                 true, 17}));

// A scalar aggregate returns one row even when no row qualifies. Forcing
// map aggregation plans the same running registers as the default plan;
// there is no key to sort on, so forcing sort aggregation is a PlanError.
TEST(ScalarAggregateTest, EmptyFilterReturnsOneRowUnderEveryPlan) {
  Catalog catalog;
  testing::MakeIntTable(&catalog, "r", 2000, 30, 10);
  const std::string sql = "select count(*), sum(r_v) from r where r_k < 0";
  auto expected = ref::ExecuteSql(sql, catalog);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected.value().size(), 1u);
  EngineOptions uncached;
  uncached.max_cached_queries = 0;
  HiqueEngine engine(&catalog, uncached);
  plan::PlannerOptions forced_map;
  forced_map.force_agg_algo = plan::AggAlgo::kMap;
  for (const auto& planner : {plan::PlannerOptions{}, forced_map}) {
    SessionOptions so;
    so.override_planner = true;
    so.planner = planner;
    auto r = engine.OpenSession(so).Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<ref::Row> actual;
    for (auto& row : r.value().Rows()) actual.push_back(row);
    EXPECT_EQ(actual.size(), 1u);
    Status cmp = ref::CompareRowSets(expected.value(), actual, false);
    EXPECT_TRUE(cmp.ok()) << cmp.ToString();
  }
  SessionOptions so;
  so.override_planner = true;
  so.planner.force_agg_algo = plan::AggAlgo::kSort;
  auto sorted = engine.OpenSession(so).Query(sql);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kPlanError);
}

// Team joins across 3..5 tables, merge and hybrid, vs the reference.
class TeamJoinTest : public ::testing::TestWithParam<std::pair<int, bool>> {};

TEST_P(TeamJoinTest, MatchesReference) {
  auto [ntables, hybrid] = GetParam();
  Catalog catalog;
  // Small cardinalities: the reference oracle materializes the full n-way
  // join, which grows as (rows/domain)^k.
  for (int t = 0; t < ntables; ++t) {
    testing::MakeIntTable(&catalog, "t" + std::to_string(t),
                          120 - t * 10, 30, 40 + t);
  }
  std::string from = "t0";
  std::string where;
  for (int t = 1; t < ntables; ++t) {
    from += ", t" + std::to_string(t);
    if (t > 1) where += " and ";
    where += "t0_k = t" + std::to_string(t) + "_k";
  }
  std::string sql =
      "select count(*) as c, sum(t0_v) as s from " + from + " where " + where;
  plan::PlannerOptions opts;
  opts.enable_join_teams = true;
  opts.force_join_algo =
      hybrid ? plan::JoinAlgo::kHybridHashSortMerge : plan::JoinAlgo::kMerge;
  opts.fine_partition_max_domain = 0;
  auto expected = ref::ExecuteSql(sql, catalog);
  ASSERT_TRUE(expected.ok());
  EngineOptions uncached;
  uncached.max_cached_queries = 0;
  HiqueEngine engine(&catalog, uncached);
  SessionOptions so;
  so.override_planner = true;
  so.planner = opts;
  auto r = engine.OpenSession(so).Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<ref::Row> actual;
  for (auto& row : r.value().Rows()) actual.push_back(row);
  Status cmp = ref::CompareRowSets(expected.value(), actual, false);
  EXPECT_TRUE(cmp.ok()) << cmp.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Teams, TeamJoinTest,
    ::testing::Values(std::make_pair(3, false), std::make_pair(3, true),
                      std::make_pair(4, false), std::make_pair(4, true),
                      std::make_pair(5, false), std::make_pair(5, true)));

// DML differential: randomized INSERT/UPDATE/DELETE batches interleaved with
// the query-shape battery. The reference executor reads each table through
// ForEachTuple, which merges base pages with the delta store, so it stays an
// oracle for the compiled engine over mutated state — including mid-sequence
// compactions, which must not change any result.
class DmlDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DmlDifferentialTest, RandomizedDmlBatchesBetweenQueryShapes) {
  const uint64_t seed = GetParam();
  Catalog catalog;
  testing::MakeIntTable(&catalog, "r", 1200, 40, seed);
  testing::MakeIntTable(&catalog, "s", 800, 40, seed + 99);
  HiqueEngine engine(&catalog);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);

  const std::vector<std::string> shapes = {
      "select r_k, r_v, r_d from r where r_v < 800",
      "select r_k, r_v, s_v from r, s where r_k = s_k and r_v < 600",
      "select r_k, count(*), sum(r_v), min(r_v), max(r_d) from r group by r_k",
      "select count(*), sum(r_v), avg(r_d) from r",
      "select r_k, count(*), sum(s_v) from r, s where r_k = s_k group by r_k",
  };

  for (int round = 0; round < 5; ++round) {
    const uint64_t ops = 3 + rng.NextBounded(5);
    for (uint64_t op = 0; op < ops; ++op) {
      const char* table = rng.NextBounded(3) == 0 ? "s" : "r";
      const int64_t k = static_cast<int64_t>(rng.NextBounded(40));
      const int64_t v = static_cast<int64_t>(rng.NextBounded(1000));
      std::string sql;
      switch (rng.NextBounded(3)) {
        case 0:
          sql = std::string("insert into ") + table + " values (" +
                std::to_string(k) + ", " + std::to_string(v) + ", " +
                std::to_string(v * 0.5 + k) + ", 'p" + std::to_string(k % 10) +
                "')";
          break;
        case 1:
          sql = std::string("update ") + table + " set " + table +
                "_v = " + table + "_v + " + std::to_string(1 + k % 7) +
                " where " + table + "_k = " + std::to_string(k);
          break;
        default:
          sql = std::string("delete from ") + table + " where " + table +
                "_k = " + std::to_string(k) + " and " + table + "_v < " +
                std::to_string(v % 200);
          break;
      }
      auto r = engine.Query(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n  dml: " << sql;
      EXPECT_GE(r.value().rows_affected, 0) << sql;
    }
    // Fold the delta mid-sequence every other round: results over the
    // freshly compacted pages must stay identical to the merged view.
    if (round % 2 == 1) {
      ASSERT_TRUE(catalog.GetTable("r").value()->Compact(false).ok());
    }
    for (const std::string& q : shapes) {
      Status s = testing::CheckAgainstReference(&engine, q);
      EXPECT_TRUE(s.ok()) << s.ToString() << "\n  round " << round
                          << " query: " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmlDifferentialTest,
                         ::testing::Values(21, 22, 23));

}  // namespace
}  // namespace hique
