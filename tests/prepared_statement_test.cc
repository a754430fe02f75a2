// Prepared statements: `?` placeholders through lexer/parser/binder into
// ParamTable slots, Prepare/Execute skipping parse+optimize on re-execution,
// arity/type errors, eviction-proof shared library ownership, and the
// -O0 -> -O2 background tier upgrade producing identical results.

#include <gtest/gtest.h>

#include "exec/engine.h"
#include "ref/reference.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace hique {
namespace {

/// Rows from a QueryResult as the reference executor's row type.
std::vector<ref::Row> RowsOf(const QueryResult& r) {
  std::vector<ref::Row> rows;
  for (auto& row : r.Rows()) rows.push_back(row);
  return rows;
}

/// Executes `stmt` with `values` and checks the rows against the reference
/// executor running `literal_sql` (the same query with literals inlined).
Status CheckExecuteAgainstReference(HiqueEngine* engine,
                                    const PreparedStatement& stmt,
                                    const std::vector<Value>& values,
                                    const std::string& literal_sql) {
  auto expected = ref::ExecuteSql(literal_sql, *engine->catalog());
  if (!expected.ok()) return expected.status();
  auto actual = engine->Execute(stmt, values);
  if (!actual.ok()) return actual.status();
  return ref::CompareRowSets(expected.value(), RowsOf(actual.value()), false);
}

class PreparedStatementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::MakeIntTable(&catalog_, "t", 2000, 16, 31);
    engine_ = std::make_unique<HiqueEngine>(&catalog_);
  }
  Catalog catalog_;
  std::unique_ptr<HiqueEngine> engine_;
};

TEST(PlaceholderParseTest, OrdinalsAssignedInLexicalOrder) {
  auto stmt = sql::Parse("select a + ? from t where b < ? and c > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value()->num_placeholders, 3);
  ASSERT_EQ(stmt.value()->items.size(), 1u);
  const sql::Expr& item = *stmt.value()->items[0].expr;
  ASSERT_EQ(item.kind, sql::ExprKind::kBinary);
  EXPECT_EQ(item.right->kind, sql::ExprKind::kPlaceholder);
  EXPECT_EQ(item.right->placeholder, 0);
}

TEST_F(PreparedStatementTest, PlaceholderTypeInferredFromColumn) {
  // int32 column, double column, CHAR column: the filter placeholder takes
  // the column's type in each case.
  auto stmt = engine_->Prepare(
      "select t_k from t where t_v < ? and t_d < ? and t_pad = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().num_placeholders(), 3u);
  Status s = CheckExecuteAgainstReference(
      engine_.get(), stmt.value(),
      {Value::Int64(500), Value::Double(400.0), Value::Char("p1", 2)},
      "select t_k from t where t_v < 500 and t_d < 400.0 and t_pad = 'p1'");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(PreparedStatementTest, ArithmeticPlaceholderInfersSiblingType) {
  auto stmt = engine_->Prepare("select t_k, sum(t_d * ?) from t group by t_k");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  Status s = CheckExecuteAgainstReference(
      engine_.get(), stmt.value(), {Value::Double(2.5)},
      "select t_k, sum(t_d * 2.5) from t group by t_k");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(PreparedStatementTest, ExecuteSkipsParseAndOptimize) {
  auto prepared = engine_->Prepare("select t_k from t where t_v < ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const PreparedStatement& stmt = prepared.value();
  // Preparation paid the pipeline once.
  EXPECT_GT(stmt.prepare_timings().parse_ms, 0.0);
  EXPECT_GT(stmt.prepare_timings().compile_ms, 0.0);

  auto r = engine_->Execute(stmt, {Value::Int64(300)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Re-execution pays parameter binding + execution only.
  EXPECT_EQ(r.value().timings.parse_ms, 0.0);
  EXPECT_EQ(r.value().timings.optimize_ms, 0.0);
  EXPECT_EQ(r.value().timings.generate_ms, 0.0);
  EXPECT_EQ(r.value().timings.compile_ms, 0.0);
  EXPECT_GT(r.value().timings.execute_ms, 0.0);
  EXPECT_TRUE(r.value().cache_hit);
}

TEST_F(PreparedStatementTest, ArityAndTypeErrors) {
  auto stmt = engine_->Prepare("select t_k from t where t_v < ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(engine_->Execute(stmt.value(), {}).ok());
  EXPECT_FALSE(engine_->Execute(stmt.value(),
                                {Value::Int64(1), Value::Int64(2)})
                   .ok());
  // CHAR value against an int32 column: uncoercible.
  EXPECT_FALSE(engine_->Execute(stmt.value(), {Value::Char("x", 1)}).ok());
  // A statement without placeholders rejects extra values.
  auto plain = engine_->Prepare("select count(*) from t");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(engine_->Execute(plain.value(), {Value::Int64(1)}).ok());
  EXPECT_TRUE(engine_->Execute(plain.value()).ok());
}

TEST_F(PreparedStatementTest, UnbindablePlaceholdersRejected) {
  // Both comparison sides placeholders: no column to infer a type from.
  EXPECT_FALSE(engine_->Prepare("select t_k from t where ? < ?").ok());
  // Bare placeholder in the select list: no typed context at all.
  EXPECT_FALSE(engine_->Prepare("select ? from t").ok());
  // Both arithmetic operands placeholders.
  EXPECT_FALSE(engine_->Prepare("select t_k from t where t_v < ? + ?").ok());
}

TEST_F(PreparedStatementTest, QueryRejectsPlaceholders) {
  auto r = engine_->Query("select t_k from t where t_v < ?");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Prepare"), std::string::npos);
}

TEST_F(PreparedStatementTest, SharesCacheWithLiteralQueries) {
  // With constant hoisting, `< 100` and `< ?` are the same plan template.
  ASSERT_TRUE(engine_->Query("select t_k from t where t_v < 100").ok());
  auto stmt = engine_->Prepare("select t_k from t where t_v < ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt.value().cache_hit());
  EXPECT_EQ(engine_->CacheStats().entries, 1u);
}

TEST_F(PreparedStatementTest, SurvivesEviction) {
  EngineOptions opts;
  opts.max_cached_queries = 1;
  HiqueEngine engine(&catalog_, opts);
  auto stmt = engine.Prepare("select t_k from t where t_v < ?");
  ASSERT_TRUE(stmt.ok());
  // Evict the statement's cache entry with a structurally different query.
  ASSERT_TRUE(engine.Query("select count(*) from t").ok());
  EXPECT_GE(engine.CacheStats().evictions, 1u);
  // The statement pinned its library: execution still works, no recompile.
  auto r = engine.Execute(stmt.value(), {Value::Int64(300)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().timings.compile_ms, 0.0);
  EXPECT_GT(r.value().NumRows(), 0);
}

TEST_F(PreparedStatementTest, TierUpgradeIsResultIdentical) {
  // Default options: tier 0 compiles at -O0, the background worker swaps in
  // the -O2 library under the same signature.
  auto stmt = engine_->Prepare("select t_k, count(*) from t where t_v < ? "
                               "group by t_k");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto before = engine_->Execute(stmt.value(), {Value::Int64(700)});
  ASSERT_TRUE(before.ok());
  // Usually still the -O0 tier, but the background worker may already have
  // swapped -O2 in (it races a slow test runner, e.g. under TSan).
  EXPECT_TRUE(before.value().library_opt_level == 0 ||
              before.value().library_opt_level == 2)
      << before.value().library_opt_level;

  engine_->WaitForTierUpgrades();
  EXPECT_GE(engine_->CacheStats().tier_upgrades, 1u);

  auto after = engine_->Execute(stmt.value(), {Value::Int64(700)});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().library_opt_level, 2);

  // The -O2 tier is result-identical to the -O0 tier and to the reference.
  Status tiers = ref::CompareRowSets(RowsOf(before.value()),
                                     RowsOf(after.value()), false);
  EXPECT_TRUE(tiers.ok()) << tiers.ToString();
  Status s = CheckExecuteAgainstReference(
      engine_.get(), stmt.value(), {Value::Int64(700)},
      "select t_k, count(*) from t where t_v < 700 group by t_k");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(PreparedStatementTest, CacheStatsCounts) {
  ASSERT_TRUE(engine_->Query("select t_k from t where t_v < 100").ok());
  ASSERT_TRUE(engine_->Query("select t_k from t where t_v < 200").ok());
  ASSERT_TRUE(engine_->Query("select count(*) from t").ok());
  CacheStats stats = engine_->CacheStats();
  EXPECT_EQ(stats.misses, 2u);   // two distinct plan templates
  EXPECT_EQ(stats.hits, 1u);     // the literal variant
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(PreparedOverflowTest, MapOverflowFallsBackToHybridOnce) {
  Catalog catalog;
  Table* t = testing::MakeIntTable(&catalog, "t", 200, 4, 5);
  // Stale statistics: claim 4 distinct keys, then insert many new ones so
  // map aggregation's directories overflow at run time.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int32(1000 + i), Value::Int32(i),
                              Value::Double(i), Value::Char("x", 8)})
                    .ok());
  }
  t->mutable_stats().valid = true;

  HiqueEngine engine(&catalog);
  auto stmt = engine.Prepare(
      "select t_k, count(*) from t where t_v < ? group by t_k");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // The first execution overflows the map plan, lazily prepares the hybrid
  // fallback and retries through it transparently.
  Status first = CheckExecuteAgainstReference(
      &engine, stmt.value(), {Value::Int64(100000)},
      "select t_k, count(*) from t where t_v < 100000 group by t_k");
  EXPECT_TRUE(first.ok()) << first.ToString();
  // Later executions start directly from the fallback (different binding).
  Status second = CheckExecuteAgainstReference(
      &engine, stmt.value(), {Value::Int64(250)},
      "select t_k, count(*) from t where t_v < 250 group by t_k");
  EXPECT_TRUE(second.ok()) << second.ToString();
}

TEST(PreparedStalePlanTest, LayoutChangeAfterPrepareReplansTransparently) {
  Catalog catalog;
  Table* t = testing::MakeIntTable(&catalog, "t", 2000, 16, 9);
  HiqueEngine engine(&catalog);
  auto stmt = engine.Prepare(
      "select t_k, count(*) from t where t_v < ? group by t_k");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // Compressing rewrites the page encoding the statement was compiled
  // against: the execution meets the stale-plan signal and re-prepares the
  // statement (placeholders included) against the new layout.
  ASSERT_TRUE(t->Compress().ok());
  ASSERT_TRUE(t->codec().enabled);
  Status st = CheckExecuteAgainstReference(
      &engine, stmt.value(), {Value::Int64(500)},
      "select t_k, count(*) from t where t_v < 500 group by t_k");
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace hique
