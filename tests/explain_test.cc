// EXPLAIN / EXPLAIN ANALYZE coverage: the plan report must mirror the
// physical plan the inner statement actually runs, ANALYZE spans must
// account for (nearly all of) the execute phase at every thread count,
// instrumentation must change neither the generated source nor the result
// bytes, cached and cold explains must print the same plan, and the report
// must flow over the wire protocol like any other result set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "tests/test_util.h"
#include "tpch/tpch.h"

namespace hique {
namespace {

EngineOptions FastOptions(uint32_t threads) {
  EngineOptions o;
  o.threads = threads;
  o.compile.opt_level = 0;
  return o;
}

/// The single-column EXPLAIN result as trimmed text lines.
std::vector<std::string> ReportLines(const QueryResult& r) {
  std::vector<std::string> lines;
  for (const auto& row : r.Rows()) {
    lines.push_back(row[0].ToString());
  }
  return lines;
}

std::vector<std::string> ResultTuples(const QueryResult& r) {
  std::vector<std::string> rows;
  if (!r.table) return rows;
  uint32_t sz = r.table->schema().TupleSize();
  (void)r.table->ForEachTuple([&](const uint8_t* tuple) {
    rows.emplace_back(reinterpret_cast<const char*>(tuple), sz);
  });
  return rows;
}

std::vector<std::string> PlanOnlyLines(const std::vector<std::string>& lines) {
  std::vector<std::string> ops;
  for (const auto& line : lines) {
    if (line.rfind("op", 0) == 0) ops.push_back(line);
  }
  return ops;
}

class ExplainTest : public ::testing::Test {
 public:
  static Catalog& SharedCatalog() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      testing::MakeIntTable(c, "xr", 20000, 50, 71);
      testing::MakeIntTable(c, "xs", 30000, 50, 72);
      testing::MakeIntTable(c, "xbig", 200000, 1000, 73);
      tpch::TpchOptions tpch_options;
      tpch_options.scale_factor = 0.01;
      HQ_CHECK(tpch::LoadTpch(c, tpch_options).ok());
      return c;
    }();
    return *catalog;
  }
};

// EXPLAIN prints the same physical plan the statement runs, prefixed by
// the header and cache lines, and does not execute the query.
TEST_F(ExplainTest, ExplainMatchesExecutedPlan) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  const std::string inner =
      "select xr_k, count(*) as c, sum(xs_v) as sv from xr, xs "
      "where xr_k = xs_k group by xr_k order by xr_k";

  auto explained = engine.Query("explain " + inner);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  std::vector<std::string> lines = ReportLines(explained.value());
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0], "physical plan");
  EXPECT_EQ(lines[1].rfind("cache: ", 0), 0u) << lines[1];
  // EXPLAIN never executed anything: the report has no span annotations.
  for (const auto& line : lines) {
    EXPECT_EQ(line.find("  time "), std::string::npos) << line;
  }

  auto run = engine.Query(inner);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // The op lines are exactly the plan the real execution reports.
  std::vector<std::string> expected_ops;
  for (const auto& line : PlanOnlyLines(lines)) expected_ops.push_back(line);
  std::string plan_text = run.value().plan_text;
  std::vector<std::string> actual_ops;
  size_t pos = 0;
  while (pos < plan_text.size()) {
    size_t end = plan_text.find('\n', pos);
    if (end == std::string::npos) end = plan_text.size();
    std::string line = plan_text.substr(pos, end - pos);
    // CHAR results right-trim; do the same to the raw plan line.
    while (!line.empty() && line.back() == ' ') line.pop_back();
    if (!line.empty()) actual_ops.push_back(line);
    pos = end + 1;
  }
  EXPECT_EQ(expected_ops, actual_ops);
  EXPECT_EQ(explained.value().plan_signature, run.value().plan_signature);
}

// The same EXPLAIN, cold then cached: identical plan report except for the
// cache line flipping miss -> hit.
TEST_F(ExplainTest, CachedAndColdExplainPrintIdenticalPlans) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  const std::string sql =
      "explain select xbig_k, count(*) as c from xbig group by xbig_k "
      "order by c desc, xbig_k limit 17";

  auto cold = engine.Query(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto cached = engine.Query(sql);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();

  std::vector<std::string> cold_lines = ReportLines(cold.value());
  std::vector<std::string> cached_lines = ReportLines(cached.value());
  ASSERT_EQ(cold_lines.size(), cached_lines.size());
  EXPECT_NE(cold_lines[1].find("miss"), std::string::npos) << cold_lines[1];
  EXPECT_NE(cached_lines[1].find("hit"), std::string::npos) << cached_lines[1];
  EXPECT_EQ(PlanOnlyLines(cold_lines), PlanOnlyLines(cached_lines));
}

// EXPLAIN ANALYZE at threads 1, 2 and 8: every operator gets a span, span
// tuple counts are sane, and the per-operator wall time adds up to the
// execute phase (the engine-side recorder covers the pipeline end to end;
// only pre-pipeline setup may fall outside the spans).
TEST_F(ExplainTest, AnalyzeSpansCoverExecuteAcrossThreads) {
  Catalog& catalog = SharedCatalog();
  const std::vector<std::string> queries = {
      "select xbig_k, xbig_v, xbig_d from xbig where xbig_v >= 10",
      "select xr_k, count(*) as c, sum(xs_v) as sv from xr, xs "
      "where xr_k = xs_k group by xr_k order by xr_k",
      tpch::Query1Sql(),
      tpch::Query6Sql(),
  };
  for (uint32_t threads : {1u, 2u, 8u}) {
    HiqueEngine engine(&catalog, FastOptions(threads));
    for (const auto& inner : queries) {
      auto r = engine.Query("explain analyze " + inner);
      ASSERT_TRUE(r.ok()) << inner << ": " << r.status().ToString();
      const exec::ExecStats& stats = r.value().exec_stats;
      ASSERT_FALSE(stats.ops.empty()) << inner;
      double span_sum = 0;
      uint64_t tuple_sum = 0;
      for (const auto& op : stats.ops) {
        EXPECT_GE(op.op_id, 0);
        EXPECT_GE(op.wall_seconds, 0.0);
        span_sum += op.wall_seconds;
        tuple_sum += op.tuples;
      }
      EXPECT_GT(tuple_sum, 0u) << inner;
      // Acceptance bound: span sum within 10% of the measured execute
      // phase (plus a small absolute slack for sub-millisecond runs).
      EXPECT_LE(span_sum, stats.execute_seconds * 1.10 + 0.002)
          << "threads=" << threads << " " << inner;
      EXPECT_GE(span_sum, stats.execute_seconds * 0.90 - 0.002)
          << "threads=" << threads << " " << inner;

      std::vector<std::string> lines = ReportLines(r.value());
      ASSERT_GE(lines.size(), 5u);
      EXPECT_EQ(lines[0], "physical plan (analyzed)");
      EXPECT_EQ(lines[2].rfind("phases: ", 0), 0u) << lines[2];
      EXPECT_EQ(lines[3].rfind("execute: ", 0), 0u) << lines[3];
      // Each op line is followed by its span annotation.
      size_t spans = 0;
      for (const auto& line : lines) {
        if (line.rfind("  time ", 0) == 0) ++spans;
      }
      EXPECT_EQ(spans, stats.ops.size());
    }
  }
}

// Every span reports its operator's output cardinality — the records the
// operator hands on — not just the output operator's: a filtered staging
// op and a join op report the reference executor's counts, at every
// thread count.
TEST_F(ExplainTest, AnalyzeReportsEachOperatorsOutputTuples) {
  Catalog& catalog = SharedCatalog();
  const std::string sql =
      "select xr_k, xs_v from xr, xs "
      "where xr_k = xs_k and xr_v < 10 and xs_v < 500";
  auto staged =
      ref::ExecuteSql("select xr_k from xr where xr_v < 10", catalog);
  auto joined = ref::ExecuteSql(sql, catalog);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_GT(staged.value().size(), 0u);
  ASSERT_GT(joined.value().size(), 0u);
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    HiqueEngine engine(&catalog, FastOptions(threads));
    auto r = engine.Query("explain analyze " + sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Plan lines read "opK: stage <action> stream <in> -> <out> (...)";
    // stream 0 is xr, the first table.
    int stage_op = -1, join_op = -1;
    for (const auto& line : PlanOnlyLines(ReportLines(r.value()))) {
      int id = std::stoi(line.substr(2));
      if (line.find(": stage ") != std::string::npos &&
          line.find(" stream 0 -> ") != std::string::npos) {
        EXPECT_NE(line.find("1 filters"), std::string::npos) << line;
        stage_op = id;
      }
      if (line.find(": join ") != std::string::npos) join_op = id;
    }
    ASSERT_GE(stage_op, 0);
    ASSERT_GE(join_op, 0);
    std::map<int32_t, uint64_t> tuples;
    for (const auto& op : r.value().exec_stats.ops) {
      tuples[op.op_id] = op.tuples;
    }
    EXPECT_EQ(tuples[stage_op], staged.value().size());
    EXPECT_EQ(tuples[join_op], joined.value().size());
  }
}

// Join-key filters: EXPLAIN names the op whose staged keys build each
// filter, EXPLAIN ANALYZE adds its key count, bitmap bytes and pass rate.
// In TPC-H Q3 lineitem's stage (op4) keeps exactly the rows the join
// (op5) emits: a bitmap has no false positives and o_orderkey is unique.
// The counts are the same at every thread count, and so is the source
// with tracing on or off.
TEST_F(ExplainTest, AnalyzeReportsEachKeyFilterAndItsPassRate) {
  Catalog& catalog = SharedCatalog();
  const std::string sql = tpch::Query3Sql();
  std::string first_report;
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EngineOptions off = FastOptions(threads);
    off.keep_source = true;
    HiqueEngine engine(&catalog, off);
    auto plain = engine.Query(sql);
    auto r = engine.Query("explain analyze " + sql);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::vector<std::string> lines = ReportLines(r.value());
    std::map<int32_t, const exec::OpStat*> ops;
    for (const auto& op : r.value().exec_stats.ops) ops[op.op_id] = &op;
    std::string report;
    for (const auto& [probe, build] : {std::make_pair(1, 0),
                                       std::make_pair(4, 3)}) {
      const std::string head = "op" + std::to_string(probe) + ": stage ";
      auto at = std::find_if(lines.begin(), lines.end(), [&](const auto& l) {
        return l.rfind(head, 0) == 0;
      });
      ASSERT_NE(at, lines.end());
      EXPECT_NE(at->find("key filter <- op" + std::to_string(build)),
                std::string::npos)
          << *at;
      // The plan line, its span line, then the filter line.
      ASSERT_LT(at + 2, lines.end());
      const std::string& kf = *(at + 2);
      ASSERT_EQ(kf.rfind("  key filter: ", 0), 0u) << kf;
      const exec::KeyFilterStat& stat = ops.at(probe)->key_filter;
      ASSERT_TRUE(stat.present);
      EXPECT_EQ(stat.keys, static_cast<int64_t>(ops.at(build)->tuples));
      EXPECT_GT(stat.bytes, 0u);
      EXPECT_EQ(stat.passed, ops.at(probe)->tuples);
      EXPECT_LT(stat.passed, stat.tested);
      EXPECT_NE(kf.find("passed " + std::to_string(stat.passed) + " of " +
                        std::to_string(stat.tested) + " ("),
                std::string::npos)
          << kf;
      report += kf + "\n";
    }
    EXPECT_EQ(ops.at(4)->tuples, ops.at(5)->tuples);
    EXPECT_FALSE(ops.at(2)->key_filter.present);  // the join reports none
    if (first_report.empty()) {
      first_report = report;
    } else {
      EXPECT_EQ(report, first_report);
    }
    // Traced and untraced runs compile the same source.
    EngineOptions on = off;
    on.trace_spans = true;
    HiqueEngine traced(&catalog, on);
    auto t = traced.Query(sql);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(plain.value().generated_source, t.value().generated_source);
    EXPECT_EQ(ResultTuples(plain.value()), ResultTuples(t.value()));
  }
}

// Flipping span collection on (HQ_TRACE_SPANS-equivalent option) must not
// change the generated source (byte for byte) or the result bytes — the
// marks are always emitted; only the engine-side recorder is optional.
TEST_F(ExplainTest, InstrumentationChangesNeitherSourceNorResults) {
  Catalog& catalog = SharedCatalog();
  const std::string sql =
      "select xr_k, count(*) as c, sum(xs_v) as sv from xr, xs "
      "where xr_k = xs_k group by xr_k order by xr_k";
  for (uint32_t threads : {1u, 2u, 8u}) {
    EngineOptions off = FastOptions(threads);
    off.keep_source = true;
    EngineOptions on = FastOptions(threads);
    on.keep_source = true;
    on.trace_spans = true;
    HiqueEngine engine_off(&catalog, off);
    HiqueEngine engine_on(&catalog, on);

    auto r_off = engine_off.Query(sql);
    auto r_on = engine_on.Query(sql);
    ASSERT_TRUE(r_off.ok()) << r_off.status().ToString();
    ASSERT_TRUE(r_on.ok()) << r_on.status().ToString();
    ASSERT_FALSE(r_off.value().generated_source.empty());
    EXPECT_EQ(r_off.value().generated_source, r_on.value().generated_source)
        << "threads=" << threads;
    EXPECT_EQ(ResultTuples(r_off.value()), ResultTuples(r_on.value()))
        << "threads=" << threads;
    // Tracing engine collected spans; untraced engine did not.
    EXPECT_TRUE(r_off.value().exec_stats.ops.empty());
    EXPECT_FALSE(r_on.value().exec_stats.ops.empty());
  }
}

// EXPLAIN rides the ordinary result-set machinery, so a remote client sees
// the same report over the wire protocol, with no new message types.
TEST_F(ExplainTest, ExplainWorksOverTheWire) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  net::Server server(&engine);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto connected = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  net::Client client = std::move(connected).value();

  const std::string sql = "explain analyze " + tpch::Query6Sql();
  auto rs = client.Query(sql);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  net::RemoteResultSet cursor = std::move(rs).value();
  ASSERT_EQ(cursor.schema().NumColumns(), 1u);
  EXPECT_EQ(cursor.schema().ColumnAt(0).type.id, TypeId::kChar);

  std::vector<std::string> lines;
  uint32_t width = cursor.schema().ColumnAt(0).type.length;
  while (cursor.Next()) {
    std::string line(reinterpret_cast<const char*>(cursor.RowBytes()), width);
    while (!line.empty() && line.back() == ' ') line.pop_back();
    lines.push_back(line);
  }
  ASSERT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  ASSERT_GE(lines.size(), 5u);
  EXPECT_EQ(lines[0], "physical plan (analyzed)");

  // The same report computed in-process (modulo timings, so compare the
  // structural lines only).
  auto local = engine.Query(sql);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(PlanOnlyLines(lines),
            PlanOnlyLines(ReportLines(local.value())));
  (void)client.Close();
  server.Stop();
}

// EXPLAIN is a one-shot diagnostic: Prepare refuses it, and EXPLAIN of a
// DML statement is a planning error, not a crash.
TEST_F(ExplainTest, ExplainRejectsPrepareAndDml) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(1));
  EXPECT_FALSE(engine.Prepare("explain select xr_k from xr").ok());
  EXPECT_FALSE(
      engine.Query("explain insert into xr values (1, 2, 3.0, 'x')").ok());
  // The EXPLAIN keyword must not leak into ordinary parsing.
  EXPECT_FALSE(engine.Query("explain").ok());
  EXPECT_FALSE(engine.Query("explain analyze").ok());
}

}  // namespace
}  // namespace hique
