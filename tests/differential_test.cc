// Differential test matrix: every execution engine (HIQUE generated code,
// Volcano generic, Volcano optimized, column-at-a-time) against the naive
// reference executor, across randomized workloads and a battery of query
// shapes covering all staging/join/aggregation algorithms.

#include <gtest/gtest.h>

#include <limits>

#include "column/column_engine.h"
#include "iterator/volcano_engine.h"
#include "tests/test_util.h"
#include "tpch/tpch.h"

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

const AlgoCase kAlgoCases[] = {
    {plan::JoinAlgo::kMerge, plan::AggAlgo::kSort, false, 10},
    {plan::JoinAlgo::kMerge, plan::AggAlgo::kHybridHashSort, false, 11},
    {plan::JoinAlgo::kMerge, plan::AggAlgo::kMap, false, 12},
    {plan::JoinAlgo::kHybridHashSortMerge, plan::AggAlgo::kSort, false, 13},
    {plan::JoinAlgo::kHybridHashSortMerge, plan::AggAlgo::kHybridHashSort,
     false, 14},
    {plan::JoinAlgo::kHybridHashSortMerge, plan::AggAlgo::kMap, false, 15},
    {plan::JoinAlgo::kHybridHashSortMerge, plan::AggAlgo::kHybridHashSort,
     true, 16},
    {plan::JoinAlgo::kHybridHashSortMerge, plan::AggAlgo::kMap, true, 17}};

const char* kAlgoSql =
    "select r_k, count(*), sum(s_v) from r, s where r_k = s_k group by r_k";

void LoadAlgoTables(Catalog* catalog, const AlgoCase& c) {
  testing::MakeIntTable(catalog, "r", 2000, 30, c.seed);
  testing::MakeIntTable(catalog, "s", 1500, 30, c.seed + 7);
}

plan::PlannerOptions AlgoPlanner(const AlgoCase& c) {
  plan::PlannerOptions opts;
  opts.force_join_algo = c.join_algo;
  opts.force_agg_algo = c.agg_algo;
  opts.fine_partition_max_domain = c.fine ? 64 : 0;
  return opts;
}

/// One uncached HIQUE run of kAlgoSql through a planner-override session.
void CheckAlgoCaseOnHique(const AlgoCase& c, EngineOptions opts) {
  Catalog catalog;
  LoadAlgoTables(&catalog, c);
  auto expected = ref::ExecuteSql(kAlgoSql, catalog);
  ASSERT_TRUE(expected.ok());
  opts.max_cached_queries = 0;
  HiqueEngine engine(&catalog, opts);
  SessionOptions so;
  so.override_planner = true;
  so.planner = AlgoPlanner(c);
  auto r = engine.OpenSession(so).Query(kAlgoSql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<ref::Row> actual;
  for (auto& row : r.value().Rows()) actual.push_back(row);
  Status cmp = ref::CompareRowSets(expected.value(), actual, false);
  EXPECT_TRUE(cmp.ok()) << "hique: " << cmp.ToString();
}

class ForcedAlgoTest : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(ForcedAlgoTest, JoinAggAgainstReference) {
  const AlgoCase& c = GetParam();
  CheckAlgoCaseOnHique(c, EngineOptions());
  // Volcano (optimized mode).
  Catalog catalog;
  LoadAlgoTables(&catalog, c);
  auto expected = ref::ExecuteSql(kAlgoSql, catalog);
  ASSERT_TRUE(expected.ok());
  iter::VolcanoEngine engine(&catalog, iter::Mode::kOptimized);
  auto r = engine.Query(kAlgoSql, AlgoPlanner(c));
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

INSTANTIATE_TEST_SUITE_P(Algorithms, ForcedAlgoTest,
                         ::testing::ValuesIn(kAlgoCases));

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

// Join-key filters (StageOp::key_filter_op): the build table b is staged
// first, the probe table p's scan tests a bitmap of b's staged keys. Each
// case holds the rule's preconditions (b's key dense in its statistics,
// few build keys against p's key domain), so every plan carries a filter;
// the run-time edge cases are in the data. Checked against the reference
// at 1 and 4 threads, over plain and compressed pages, and bit-identical
// across the four.
struct KeyFilterCase {
  const char* name;
  std::vector<int32_t> build_keys;  // b_k, statistics computed over these
  std::vector<int32_t> late_keys;   // b_k in b's delta store, and in p
  int32_t probe_lo, probe_hi;       // p_k uniform in [probe_lo, probe_hi)
  uint64_t probe_rows;
  std::string build_filter;         // extra conjunct on b
  bool bitmap;                      // false: the width guard fires
};

std::vector<int32_t> KeyRange(int32_t lo, int32_t hi, int copies = 1) {
  std::vector<int32_t> keys;
  for (int c = 0; c < copies; ++c) {
    for (int32_t k = lo; k < hi; ++k) keys.push_back(k);
  }
  return keys;
}

void AppendKeyRows(Table* t, const std::vector<int32_t>& keys, Rng* rng) {
  for (int32_t k : keys) {
    int32_t v = static_cast<int32_t>(rng->NextBounded(1000));
    HQ_CHECK(t->AppendRow({Value::Int32(k), Value::Int32(v),
                           Value::Double(v * 0.25 + k),
                           Value::Char("p" + std::to_string(v % 7), 8)})
                 .ok());
  }
}

Table* MakeKeyTable(Catalog* catalog, const std::string& name) {
  Schema schema;
  schema.AddColumn(name + "_k", Type::Int32());
  schema.AddColumn(name + "_v", Type::Int32());
  schema.AddColumn(name + "_d", Type::Double());
  schema.AddColumn(name + "_pad", Type::Char(8));
  return catalog->CreateTable(name, schema).value();
}

/// Fresh tables per run: compression rewrites them in place.
void LoadKeyFilterTables(Catalog* catalog, const KeyFilterCase& c) {
  Rng rng(77);
  Table* b = MakeKeyTable(catalog, "b");
  AppendKeyRows(b, c.build_keys, &rng);
  HQ_CHECK(b->ComputeStats().ok());
  if (!c.late_keys.empty()) {
    // Delta-store rows the statistics do not know.
    HQ_CHECK(b->EnableWrites().ok());
    AppendKeyRows(b, c.late_keys, &rng);
  }
  Table* p = MakeKeyTable(catalog, "p");
  std::vector<int32_t> probe;
  for (uint64_t i = 0; i < c.probe_rows; ++i) {
    probe.push_back(c.probe_lo + static_cast<int32_t>(rng.NextBounded(
                                     static_cast<uint64_t>(c.probe_hi) -
                                     static_cast<uint64_t>(c.probe_lo))));
  }
  probe.insert(probe.end(), c.late_keys.begin(), c.late_keys.end());
  AppendKeyRows(p, probe, &rng);
  HQ_CHECK(p->ComputeStats().ok());
}

std::string KeyFilterSql(const KeyFilterCase& c) {
  return "select b_k, b_v, p_v, p_d from b, p where b_k = p_k" +
         c.build_filter;
}

/// Runs the case's join at `threads` over plain or compressed pages,
/// checks it against `expected` and its filter's counters, and returns its
/// rows in `rows`.
void CheckKeyFilterCase(const KeyFilterCase& c,
                        const std::vector<ref::Row>& expected, bool compress,
                        uint32_t threads,
                        std::vector<std::vector<Value>>* rows) {
  Catalog catalog;
  LoadKeyFilterTables(&catalog, c);
  EngineOptions opts;
  opts.threads = threads;
  opts.compression = compress;
  opts.trace_spans = true;
  HiqueEngine engine(&catalog, opts);
  auto r = engine.Query(KeyFilterSql(c));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryResult& res = r.value();
  ASSERT_NE(res.plan_text.find("key filter <- op0"), std::string::npos)
      << res.plan_text;
  *rows = res.Rows();
  std::vector<ref::Row> actual(rows->begin(), rows->end());
  Status cmp = ref::CompareRowSets(expected, actual, false);
  EXPECT_TRUE(cmp.ok()) << cmp.ToString();
  // The probe stage (op1) reports its filter; with a bitmap it stages
  // exactly the rows the join keeps (b's keys are unique, or the join
  // repeats them), without one it stages every probe row.
  const exec::OpStat* probe = nullptr;
  for (const exec::OpStat& op : res.exec_stats.ops) {
    if (op.op_id == 1) probe = &op;
  }
  ASSERT_NE(probe, nullptr);
  const exec::KeyFilterStat& kf = probe->key_filter;
  EXPECT_TRUE(kf.present);
  EXPECT_EQ(kf.bytes > 0, c.bitmap);
  EXPECT_EQ(kf.passed, probe->tuples);
  EXPECT_EQ(kf.tested, catalog.GetTable("p").value()->NumTuples());
  if (!c.bitmap) {
    EXPECT_EQ(kf.passed, kf.tested);
  }
}

/// The reference result of the case's join.
std::vector<ref::Row> KeyFilterExpected(const KeyFilterCase& c) {
  Catalog catalog;
  LoadKeyFilterTables(&catalog, c);
  auto expected = ref::ExecuteSql(KeyFilterSql(c), catalog);
  HQ_CHECK_MSG(expected.ok(), expected.status().ToString());
  return expected.value();
}

class KeyFilterTest : public ::testing::TestWithParam<KeyFilterCase> {};

TEST_P(KeyFilterTest, MatchesReferenceAtEveryWidthAndEncoding) {
  const KeyFilterCase& c = GetParam();
  // The data is the same in every run: one reference result serves all.
  const std::vector<ref::Row> expected = KeyFilterExpected(c);
  std::vector<std::vector<Value>> first;
  for (bool compress : {false, true}) {
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(compress ? "compressed" : "plain") + ", " +
                   std::to_string(threads) + " threads");
      std::vector<std::vector<Value>> rows;
      CheckKeyFilterCase(c, expected, compress, threads, &rows);
      if (first.empty()) {
        first = rows;
      } else {
        EXPECT_EQ(rows, first) << "results differ across settings";
      }
    }
  }
}

const KeyFilterCase kKeyFilterCases[] = {
    {"EmptyBuildSide", KeyRange(0, 200), {}, -100, 2000, 3000, " and b_v < 0",
     true},
    {"SingleBuildKey", KeyRange(0, 200), {}, -100, 2000, 3000,
     " and b_k = 57", true},
    {"NegativeKeys", KeyRange(-700, -500), {}, -1000, 1000, 3000, "", true},
    {"ProbeKeysBelowAndAboveTheRange", KeyRange(1000, 1200), {}, 0, 3000,
     3000, "", true},
    {"DuplicateBuildKeys", KeyRange(0, 100, 4), {}, 0, 1000, 3000, "", true},
    {"BuildLargerThanProbe", KeyRange(0, 4000), {}, 0, 10000, 500, "", true},
    // 5000 build keys: a key domain wider than fine partitioning's, whose
    // stale-statistics domain would drop the late keys first.
    {"WidthGuardAtInt32Extremes", KeyRange(0, 5000),
     {std::numeric_limits<int32_t>::min(),
      std::numeric_limits<int32_t>::max()},
     -100, 12000, 3000, "", false}};

INSTANTIATE_TEST_SUITE_P(
    Edges, KeyFilterTest, ::testing::ValuesIn(kKeyFilterCases),
    [](const ::testing::TestParamInfo<KeyFilterCase>& info) {
      return std::string(info.param.name);
    });

// Fine partitioning drops join keys outside the statistics' domain, so it
// must not run over a table whose delta store holds rows the statistics
// do not cover. b's statistics say 0..199, then rows with b_k at the int32
// extremes arrive; p holds the same keys. A plan prepared or cached before
// the writes must not serve them either: a query re-plans, a prepared
// statement restarts on the stale-plan signal. At 1 and 4 threads, over
// plain and compressed pages.
TEST(FinePartitionTest, LateRowsOutsideTheStatisticsStillJoin) {
  const std::vector<int32_t> late = {std::numeric_limits<int32_t>::min(),
                                     std::numeric_limits<int32_t>::max()};
  const std::string sql = "select b_k from b, p where b_k = p_k and p_v < 2";
  auto add = [](Table* t, int32_t k, int32_t v) {
    HQ_CHECK(t->AppendRow({Value::Int32(k), Value::Int32(v), Value::Double(v),
                           Value::Char("x", 8)})
                 .ok());
  };
  auto rows_of = [](const QueryResult& r) {
    std::vector<std::vector<Value>> rows = r.Rows();
    return std::vector<ref::Row>(rows.begin(), rows.end());
  };
  for (bool compress : {false, true}) {
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(compress ? "compressed" : "plain") + ", " +
                   std::to_string(threads) + " threads");
      Catalog catalog;
      Table* b = MakeKeyTable(&catalog, "b");
      Table* p = MakeKeyTable(&catalog, "p");
      for (int32_t k = 0; k < 200; ++k) {
        add(b, k, 5);
        add(p, k, 2 + k % 50);
      }
      for (size_t i = 0; i < late.size(); ++i) {
        add(p, late[i], static_cast<int32_t>(i));
      }
      ASSERT_TRUE(b->ComputeStats().ok());
      ASSERT_TRUE(p->ComputeStats().ok());
      EngineOptions opts;
      opts.threads = threads;
      opts.compression = compress;
      HiqueEngine engine(&catalog, opts);
      auto prepared = engine.Prepare(sql);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      auto before = engine.Query(sql);
      ASSERT_TRUE(before.ok()) << before.status().ToString();
      EXPECT_NE(before.value().plan_text.find("partition(fine)"),
                std::string::npos)
          << before.value().plan_text;
      EXPECT_EQ(before.value().NumRows(), 0);

      ASSERT_TRUE(b->EnableWrites().ok());
      for (int32_t k : late) add(b, k, 5);
      auto expected = ref::ExecuteSql(sql, catalog);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_EQ(expected.value().size(), 2u);

      auto after = engine.Query(sql);
      ASSERT_TRUE(after.ok()) << after.status().ToString();
      EXPECT_EQ(after.value().plan_text.find("partition(fine)"),
                std::string::npos)
          << after.value().plan_text;
      Status cmp = ref::CompareRowSets(expected.value(), rows_of(after.value()),
                                       false);
      EXPECT_TRUE(cmp.ok()) << "query: " << cmp.ToString();
      auto executed = engine.Execute(prepared.value());
      ASSERT_TRUE(executed.ok()) << executed.status().ToString();
      cmp = ref::CompareRowSets(expected.value(), rows_of(executed.value()),
                                false);
      EXPECT_TRUE(cmp.ok()) << "prepared: " << cmp.ToString();
    }
  }
}

// Poisoned arena blocks: every block an arena takes, pooled or oversized,
// is filled with a non-zero pattern first, so a plan that read arena
// memory it did not write (and passed only because fresh pages are zero)
// fails here. TPC-H Q1/Q3/Q6/Q10 (each run twice: the second run's blocks
// come from the pool), the forced join and aggregation sweeps and the
// key-filter cases, at 1 and 4 threads, over plain and compressed pages.
struct PoisonCase {
  uint32_t threads;
  bool compress;
};

class PoisonedArenaTest : public ::testing::TestWithParam<PoisonCase> {
 protected:
  void SetUp() override { exec::internal::PoisonArenaBlocks(true); }
  void TearDown() override { exec::internal::PoisonArenaBlocks(false); }
  EngineOptions Options() const {
    EngineOptions opts;
    opts.threads = GetParam().threads;
    opts.compression = GetParam().compress;
    return opts;
  }
};

TEST_P(PoisonedArenaTest, TpchQueries) {
  Catalog catalog;
  tpch::TpchOptions tpch_opts;
  tpch_opts.scale_factor = 0.005;
  ASSERT_TRUE(tpch::LoadTpch(&catalog, tpch_opts).ok());
  HiqueEngine engine(&catalog, Options());
  for (const std::string& sql : {tpch::Query1Sql(), tpch::Query3Sql(),
                                 tpch::Query6Sql(), tpch::Query10Sql()}) {
    auto expected = ref::ExecuteSql(sql, catalog);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (int run = 0; run < 2; ++run) {
      auto r = engine.Query(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::vector<std::vector<Value>> rows = r.value().Rows();
      std::vector<ref::Row> actual(rows.begin(), rows.end());
      Status cmp = ref::CompareRowSets(expected.value(), actual, false);
      EXPECT_TRUE(cmp.ok()) << "run " << run << ": " << cmp.ToString()
                            << "\n  query: " << sql;
    }
  }
}

TEST_P(PoisonedArenaTest, ForcedAlgorithms) {
  for (const AlgoCase& c : kAlgoCases) {
    SCOPED_TRACE("seed " + std::to_string(c.seed));
    CheckAlgoCaseOnHique(c, Options());
  }
}

TEST_P(PoisonedArenaTest, KeyFilters) {
  for (const KeyFilterCase& c : kKeyFilterCases) {
    SCOPED_TRACE(c.name);
    std::vector<std::vector<Value>> rows;
    CheckKeyFilterCase(c, KeyFilterExpected(c), GetParam().compress,
                       GetParam().threads, &rows);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Settings, PoisonedArenaTest,
    ::testing::Values(PoisonCase{1, false}, PoisonCase{4, false},
                      PoisonCase{1, true}, PoisonCase{4, true}),
    [](const ::testing::TestParamInfo<PoisonCase>& info) {
      return std::string(info.param.compress ? "Compressed" : "Plain") +
             std::to_string(info.param.threads) + "Threads";
    });

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
