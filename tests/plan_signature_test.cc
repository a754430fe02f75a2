// Parameterized plan-signature query cache: literal constants are hoisted
// into a runtime parameter block and the compiled-query cache is keyed on a
// canonical structural plan signature, so queries that differ only in their
// literals share one compiled library (and one fork-g++-dlopen round trip).

#include <gtest/gtest.h>

#include "exec/engine.h"
#include "iterator/volcano_engine.h"
#include "plan/params.h"
#include "plan/optimizer.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace hique {
namespace {

/// Plans a query end-to-end (parse, bind, optimize, parameterize) the same
/// way the engine does, returning the parameterized physical plan.
std::unique_ptr<plan::PhysicalPlan> PlanFor(const std::string& sql,
                                            Catalog* catalog) {
  auto stmt = sql::Parse(sql);
  HQ_CHECK(stmt.ok());
  auto bound = sql::Bind(*stmt.value(), *catalog);
  HQ_CHECK(bound.ok());
  auto plan = plan::Optimize(std::move(bound).value(), {});
  HQ_CHECK(plan.ok());
  auto result = std::move(plan).value();
  plan::ParameterizePlan(result.get());
  return result;
}

class PlanSignatureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::MakeIntTable(&catalog_, "t", 1000, 10, 11);
    testing::MakeIntTable(&catalog_, "u", 600, 10, 12);
  }
  Catalog catalog_;
};

TEST_F(PlanSignatureTest, IdenticalForLiteralVariants) {
  auto a = PlanFor("select t_k from t where t_v < 100", &catalog_);
  auto b = PlanFor("select t_k from t where t_v < 900", &catalog_);
  EXPECT_EQ(plan::PlanSignature(*a), plan::PlanSignature(*b));
  // Same slots, different bound values.
  ASSERT_EQ(a->params.entries.size(), 1u);
  ASSERT_EQ(b->params.entries.size(), 1u);
  EXPECT_EQ(a->params.entries[0].value.AsInt32(), 100);
  EXPECT_EQ(b->params.entries[0].value.AsInt32(), 900);
}

TEST_F(PlanSignatureTest, DiffersForStructuralChanges) {
  auto base = PlanFor("select t_k from t where t_v < 100", &catalog_);
  // Different comparison operator, different column, different projection,
  // different table: all structural, all must miss.
  for (const char* sql : {
           "select t_k from t where t_v > 100",
           "select t_k from t where t_k < 100",
           "select t_v from t where t_v < 100",
           "select u_k from u where u_v < 100",
       }) {
    auto other = PlanFor(sql, &catalog_);
    EXPECT_NE(plan::PlanSignature(*base), plan::PlanSignature(*other))
        << sql;
  }
}

TEST_F(PlanSignatureTest, SignatureHidesOnlyLiterals) {
  // Arithmetic output expressions: the multiplier literal is hoisted, the
  // expression shape stays structural.
  auto a = PlanFor("select t_v * 2 from t where t_k < 5", &catalog_);
  auto b = PlanFor("select t_v * 7 from t where t_k < 5", &catalog_);
  auto c = PlanFor("select t_v + 2 from t where t_k < 5", &catalog_);
  EXPECT_EQ(plan::PlanSignature(*a), plan::PlanSignature(*b));
  EXPECT_NE(plan::PlanSignature(*a), plan::PlanSignature(*c));
  EXPECT_EQ(a->params.entries.size(), 2u);  // multiplier + filter bound
}

class ParamCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::MakeIntTable(&catalog_, "t", 2000, 16, 21);
    engine_ = std::make_unique<HiqueEngine>(&catalog_);
  }

  /// Runs through HIQUE and checks the rows against the reference executor.
  void ExpectMatchesReference(const std::string& sql) {
    Status s = testing::CheckAgainstReference(engine_.get(), sql);
    EXPECT_TRUE(s.ok()) << sql << ": " << s.ToString();
  }

  Catalog catalog_;
  std::unique_ptr<HiqueEngine> engine_;
};

TEST_F(ParamCacheTest, LiteralVariantsCompileExactlyOnce) {
  // The issue's motivating case: WHERE ... < 24 and ... < 25 must not each
  // pay a fork-g++-dlopen round trip.
  int values[] = {100, 250, 400, 550, 700, 850};
  for (int v : values) {
    std::string sql =
        "select t_k from t where t_v < " + std::to_string(v);
    ExpectMatchesReference(sql);
  }
  EXPECT_EQ(engine_->CacheStats().entries, 1u);

  // First execution compiled; every variant after it hit the cache.
  auto again = engine_->Query("select t_k from t where t_v < 123");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().cache_hit);
  EXPECT_EQ(again.value().timings.compile_ms, 0.0);
  EXPECT_EQ(again.value().timings.generate_ms, 0.0);
}

TEST_F(ParamCacheTest, LiteralVariantsAgreeWithIteratorEngine) {
  iter::VolcanoEngine volcano(&catalog_, iter::Mode::kOptimized);
  for (int v : {200, 500, 800}) {
    std::string sql = "select t_k, count(*), sum(t_d) from t where t_v < " +
                      std::to_string(v) + " group by t_k";
    auto compiled = engine_->Query(sql);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto iterated = volcano.Query(sql);
    ASSERT_TRUE(iterated.ok()) << iterated.status().ToString();

    std::vector<ref::Row> expected;
    (void)iterated.value().table->ForEachTuple([&](const uint8_t* tuple) {
      const Schema& s = iterated.value().table->schema();
      ref::Row row;
      for (size_t c = 0; c < s.NumColumns(); ++c) {
        row.push_back(s.GetValue(tuple, c));
      }
      expected.push_back(std::move(row));
    });
    std::vector<ref::Row> actual;
    for (auto& row : compiled.value().Rows()) actual.push_back(row);
    Status cmp = ref::CompareRowSets(expected, actual, false);
    EXPECT_TRUE(cmp.ok()) << sql << ": " << cmp.ToString();
  }
  EXPECT_EQ(engine_->CacheStats().entries, 1u);
}

TEST_F(ParamCacheTest, CharLiteralVariantsShareOneLibrary) {
  for (const char* pad : {"p0", "p3", "p5"}) {
    ExpectMatchesReference("select t_k from t where t_pad = '" +
                           std::string(pad) + "'");
  }
  EXPECT_EQ(engine_->CacheStats().entries, 1u);
}

TEST_F(ParamCacheTest, StructurallyDifferentQueriesMiss) {
  ASSERT_TRUE(engine_->Query("select t_k from t where t_v < 100").ok());
  ASSERT_TRUE(engine_->Query("select t_k from t where t_v > 100").ok());
  ASSERT_TRUE(engine_->Query("select count(*) from t").ok());
  EXPECT_EQ(engine_->CacheStats().entries, 3u);
}

TEST_F(ParamCacheTest, LruEvictionRespectsBound) {
  EngineOptions opts;
  opts.max_cached_queries = 2;
  HiqueEngine engine(&catalog_, opts);
  const std::string q1 = "select t_k from t where t_v < 100";
  const std::string q2 = "select count(*) from t";
  const std::string q3 = "select t_v from t where t_k < 3";
  ASSERT_TRUE(engine.Query(q1).ok());
  ASSERT_TRUE(engine.Query(q2).ok());
  EXPECT_EQ(engine.CacheStats().entries, 2u);

  // q3 evicts q1 (the coldest); q2 stays hot.
  ASSERT_TRUE(engine.Query(q3).ok());
  EXPECT_EQ(engine.CacheStats().entries, 2u);
  auto q2_again = engine.Query(q2);
  ASSERT_TRUE(q2_again.ok());
  EXPECT_TRUE(q2_again.value().cache_hit);
  auto q1_again = engine.Query(q1);
  ASSERT_TRUE(q1_again.ok());
  EXPECT_FALSE(q1_again.value().cache_hit);  // was evicted, recompiled
  EXPECT_EQ(engine.CacheStats().entries, 2u);
}

TEST_F(ParamCacheTest, StatsRefreshInvalidatesCachedLibraries) {
  // The engine prefixes cache keys with the catalog statistics version:
  // refreshed statistics must stop serving libraries whose stats-derived
  // constants (partition counts, directory geometry) are stale, instead of
  // letting them linger until LRU eviction.
  const std::string sql = "select t_k, count(*) from t group by t_k";
  auto first = engine_->Query(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().cache_hit);

  auto warm = engine_->Query(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().cache_hit);

  // A statistics refresh re-keys the plan: same SQL, fresh compile.
  ASSERT_TRUE(catalog_.GetTable("t").value()->ComputeStats().ok());
  auto refreshed = engine_->Query(sql);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_FALSE(refreshed.value().cache_hit);
  EXPECT_NE(refreshed.value().plan_signature, first.value().plan_signature);

  // The new key is stable: repeats hit again.
  auto rewarm = engine_->Query(sql);
  ASSERT_TRUE(rewarm.ok());
  EXPECT_TRUE(rewarm.value().cache_hit);
}

TEST_F(ParamCacheTest, PlannerOverrideSessionsCacheTheirOwnPlans) {
  // Sessions that pin an algorithm plan the same SQL into structurally
  // different plans: each gets its own signature and its own cache entry.
  const std::string sql =
      "select t_k, count(*) as c, sum(t_d) as s from t group by t_k";
  auto expected = ref::ExecuteSql(sql, catalog_);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::vector<std::string> signatures;
  for (plan::AggAlgo algo : {plan::AggAlgo::kSort, plan::AggAlgo::kMap}) {
    SessionOptions so;
    so.override_planner = true;
    so.planner.force_agg_algo = algo;
    Session session = engine_->OpenSession(so);
    auto first = session.Query(sql);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_FALSE(first.value().cache_hit);
    std::vector<ref::Row> rows;
    for (auto& row : first.value().Rows()) rows.push_back(row);
    Status cmp = ref::CompareRowSets(expected.value(), rows, false);
    EXPECT_TRUE(cmp.ok()) << cmp.ToString();
    signatures.push_back(first.value().plan_signature);

    auto repeat = session.Query(sql);
    ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
    EXPECT_TRUE(repeat.value().cache_hit);
    EXPECT_EQ(repeat.value().plan_signature, first.value().plan_signature);
  }
  EXPECT_NE(signatures[0], signatures[1]);
  EXPECT_EQ(engine_->CacheStats().entries, 2u);
}

TEST_F(ParamCacheTest, DoubleLiteralVariantsBindAtFullPrecision) {
  // Doubles that round to the same display string share one library, and
  // each execution binds its own value at full precision.
  Status a = testing::CheckAgainstReference(
      engine_.get(), "select t_k from t where t_d < 250.004");
  EXPECT_TRUE(a.ok()) << a.ToString();
  Status b = testing::CheckAgainstReference(
      engine_.get(), "select t_k from t where t_d < 250.0041");
  EXPECT_TRUE(b.ok()) << b.ToString();
  EXPECT_EQ(engine_->CacheStats().entries, 1u);
}

}  // namespace
}  // namespace hique
