// Cross-validation of the §VI-A microbenchmark variants: all five code
// styles must produce bit-identical counts and matching checksums for each
// query, and must agree with the real engine running the equivalent SQL.

#include <gtest/gtest.h>

#include <cmath>

#include "bench_support/micro_data.h"
#include "exec/engine.h"
#include "tests/test_util.h"
#include "util/env.h"
#include "variants/variants.h"

namespace hique {
namespace {

struct VariantCase {
  variants::MicroQuery query;
  variants::Style style;
  int opt_level;
};

std::string VariantCaseName(
    const ::testing::TestParamInfo<VariantCase>& info) {
  std::string q;
  switch (info.param.query) {
    case variants::MicroQuery::kJoinMerge:
      q = "JoinMerge";
      break;
    case variants::MicroQuery::kJoinHybrid:
      q = "JoinHybrid";
      break;
    case variants::MicroQuery::kAggHybrid:
      q = "AggHybrid";
      break;
    case variants::MicroQuery::kAggMap:
      q = "AggMap";
      break;
  }
  std::string s;
  switch (info.param.style) {
    case variants::Style::kGenericIterators:
      s = "GenIter";
      break;
    case variants::Style::kOptimizedIterators:
      s = "OptIter";
      break;
    case variants::Style::kGenericHardcoded:
      s = "GenHard";
      break;
    case variants::Style::kOptimizedHardcoded:
      s = "OptHard";
      break;
    case variants::Style::kHique:
      s = "Hique";
      break;
  }
  return q + "_" + s + "_O" + std::to_string(info.param.opt_level);
}

class VariantsTest : public ::testing::TestWithParam<VariantCase> {
 protected:
  static Catalog& SharedCatalog() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      bench::MicroTableSpec spec;
      spec.rows = 5000;
      spec.key_domain = 25;
      spec.seed = 81;
      (void)bench::MakeMicroTable(c, "vo", spec).value();
      spec.seed = 82;
      (void)bench::MakeMicroTable(c, "vi", spec).value();
      bench::MicroTableSpec agg;
      agg.rows = 20000;
      agg.key_domain = 500;
      agg.seed = 83;
      (void)bench::MakeMicroTable(c, "va", agg).value();
      return c;
    }();
    return *catalog;
  }

  static bool IsJoin(variants::MicroQuery q) {
    return q == variants::MicroQuery::kJoinMerge ||
           q == variants::MicroQuery::kJoinHybrid;
  }

  /// Ground truth from the real engine via equivalent SQL.
  static std::pair<int64_t, double> EngineTruth(variants::MicroQuery q) {
    Catalog& catalog = SharedCatalog();
    HiqueEngine engine(&catalog);
    if (IsJoin(q)) {
      auto r = engine.Query(
          "select count(*) as c, sum(vi_a) as s from vo, vi "
          "where vo_k = vi_k");
      HQ_CHECK(r.ok());
      auto rows = r.value().Rows();
      return {rows[0][0].AsInt64(), rows[0][1].AsDouble()};
    }
    // Aggregations: the variant checksum is count(groups) and
    // sum over groups of (sum a + sum b) == total sum(a) + sum(b).
    auto r = engine.Query("select sum(va_a) as sa, sum(va_b) as sb from va");
    HQ_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    auto rows = r.value().Rows();
    auto g = engine.Query(
        "select va_k, count(*) as c from va group by va_k");
    HQ_CHECK_MSG(g.ok(), g.status().ToString().c_str());
    return {g.value().NumRows(),
            rows[0][0].AsDouble() + rows[0][1].AsDouble()};
  }
};

TEST_P(VariantsTest, MatchesEngineTruth) {
  const VariantCase& c = GetParam();
  Catalog& catalog = SharedCatalog();
  std::vector<Table*> tables;
  if (IsJoin(c.query)) {
    tables = {catalog.GetTable("vo").value(), catalog.GetTable("vi").value()};
  } else {
    tables = {catalog.GetTable("va").value()};
  }
  variants::MicroParams params;
  params.partitions = 32;
  params.map_domain = 500;
  std::string dir = env::ProcessTempDir() + "/variants_test";
  auto run = variants::RunVariant(c.query, c.style, params, tables,
                                  c.opt_level, dir);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // The variant's .cc/.so go with its library: nothing piles up in `dir`.
  auto files = env::ListDir(dir);
  ASSERT_TRUE(files.ok()) << files.status().ToString();
  EXPECT_TRUE(files.value().empty())
      << files.value().size() << " artefacts left behind";
  auto [cnt, checksum] = EngineTruth(c.query);
  EXPECT_EQ(run.value().count, cnt);
  EXPECT_NEAR(run.value().checksum, checksum,
              1e-6 * std::max(1.0, std::fabs(checksum)));
}

std::vector<VariantCase> AllVariantCases() {
  std::vector<VariantCase> cases;
  for (auto q : {variants::MicroQuery::kJoinMerge,
                 variants::MicroQuery::kJoinHybrid,
                 variants::MicroQuery::kAggHybrid,
                 variants::MicroQuery::kAggMap}) {
    for (auto s : {variants::Style::kGenericIterators,
                   variants::Style::kOptimizedIterators,
                   variants::Style::kGenericHardcoded,
                   variants::Style::kOptimizedHardcoded,
                   variants::Style::kHique}) {
      cases.push_back({q, s, 2});
    }
  }
  // -O0 spot checks (one per query kind; Table II sweeps the rest).
  cases.push_back({variants::MicroQuery::kJoinMerge,
                   variants::Style::kHique, 0});
  cases.push_back({variants::MicroQuery::kAggMap,
                   variants::Style::kGenericIterators, 0});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStyles, VariantsTest,
                         ::testing::ValuesIn(AllVariantCases()),
                         VariantCaseName);

TEST(VariantSourceTest, EmittedSourcesDifferByStyle) {
  variants::MicroParams params;
  std::string generic = variants::EmitVariantSource(
      variants::MicroQuery::kJoinMerge,
      variants::Style::kGenericIterators, params);
  std::string hique = variants::EmitVariantSource(
      variants::MicroQuery::kJoinMerge, variants::Style::kHique, params);
  // Iterator styles carry virtual dispatch; the holistic style must not.
  EXPECT_NE(generic.find("virtual"), std::string::npos);
  EXPECT_EQ(hique.find("virtual"), std::string::npos);
  // Generic styles evaluate fields/predicates through helper functions; the
  // holistic style inlines both.
  EXPECT_NE(generic.find("hv_get_field"), std::string::npos);
  EXPECT_EQ(hique.find("hv_get_field"), std::string::npos);
  EXPECT_EQ(hique.find("hv_cmp_datum"), std::string::npos);
}

}  // namespace
}  // namespace hique
