// SIMD codegen tests: the vectorized kernels (selection bitmaps, batched
// partition hashing, prefetched scatter) emitted by the generator must be
// *bit-identical* to the scalar per-tuple loops — same result bytes, same
// row order, same deterministic counters — at every thread count, because
// the kernels preserve selection order and per-tuple arithmetic exactly.
// Also covers the single-signature dispatch contract: the generated source
// (and plan signature) may not depend on the SIMD knob or the host ISA;
// only the load-time `hique_set_simd` call differs.
//
// The engine has no NULL support (see docs/architecture.md), so the
// NULL-bearing-column coverage a nullable engine would need is substituted
// with CHAR keys (per-lane scalar fallback), an empty table, and a row
// count that is not a multiple of the vector width (scalar-tail path).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "exec/compiled_library.h"
#include "exec/engine.h"
#include "tests/test_util.h"
#include "tpch/tpch.h"

namespace hique {
namespace {

/// Raw result tuples, in emission order: byte-exact comparison material.
std::vector<std::string> ResultTuples(const QueryResult& r) {
  std::vector<std::string> rows;
  if (!r.table) return rows;
  uint32_t sz = r.table->schema().TupleSize();
  (void)r.table->ForEachTuple([&](const uint8_t* tuple) {
    rows.emplace_back(reinterpret_cast<const char*>(tuple), sz);
  });
  return rows;
}

class SimdCodegenTest : public ::testing::Test {
 public:
  static Catalog& SharedCatalog() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      tpch::TpchOptions opts;
      opts.scale_factor = 0.005;
      HQ_CHECK(tpch::LoadTpch(c, opts).ok());
      // Dense domain (50): fine-partitioned joins, which stay scalar by
      // design — the SIMD pid kernel only serves hash partitioning.
      testing::MakeIntTable(c, "pr", 20000, 50, 7);
      testing::MakeIntTable(c, "ps", 30000, 50, 8);
      // Sparse domain (100000 > fine_partition_max_domain): joins on _k
      // hash-partition, exercising the batched hash + prefetched scatter.
      testing::MakeIntTable(c, "sr", 20000, 100000, 5);
      testing::MakeIntTable(c, "ss", 30000, 100000, 6);
      // 12345 % 64 != 0 and % 4 != 0: every kernel runs its scalar tail.
      testing::MakeIntTable(c, "podd", 12345, 50, 11);
      testing::MakeIntTable(c, "pempty", 0, 50, 3);
      return c;
    }();
    return *catalog;
  }

  static EngineOptions Options(uint32_t threads, bool simd) {
    EngineOptions o;
    o.threads = threads;
    o.simd = simd;
    // -O0, so nothing tiers up: the SIMD/scalar equivalence must hold at
    // the tier-0 opt level every first execution actually runs at.
    o.compile.opt_level = 0;
    return o;
  }

  static std::vector<std::string> Queries() {
    return {
        tpch::Query1Sql(),
        tpch::Query6Sql(),
        // Selective int predicate (~1% pass): sparse bitmaps, ctz walk.
        "select count(*) as c from pr where pr_v < 10",
        // Non-selective predicate (all pass) with an ordered double fold.
        "select count(*) as c, sum(pr_d) as sd from pr where pr_v >= 0",
        // Double-typed comparison: f64 lanes must match C's promotions.
        "select count(*) as c, sum(pr_d) as sd from pr where pr_d < 100.5",
        // CHAR equality filter + CHAR group keys: per-lane scalar fallback
        // inside the bitmap kernel, scalar pid kernel.
        "select pr_pad, count(*) as c from pr where pr_pad = 'p1' "
        "group by pr_pad",
        // Empty input: kernels must tolerate zero pages / zero tuples.
        "select count(*) as c from pempty where pempty_v < 10",
        // |rows| = 12345: bitmap blocks and 4-lane hash groups both end in
        // a partial tail.
        "select count(*) as c, sum(podd_d) as sd from podd "
        "where podd_v < 500",
        // Hash-partitioned join (sparse keys): batched pid computation and
        // software-prefetched scatter feed the sort-merge join.
        "select sr_k, count(*) as c, sum(ss_d) as sd from sr, ss "
        "where sr_k = ss_k group by sr_k order by sr_k",
        // Filtered fine-partitioned join: bitmap selection staging into a
        // scalar (fine) partition pass.
        "select count(*) as c, sum(ps_d) as sd from pr, ps "
        "where pr_k = ps_k and pr_v < 200",
    };
  }
};

TEST_F(SimdCodegenTest, SimdResultsBitIdenticalToScalar) {
  // NOTE: under HQ_SIMD=off (one leg of the CI matrix) the simd=true
  // engines also resolve to scalar and this degenerates to scalar-vs-
  // scalar; the HQ_SIMD=on leg runs the real comparison.
  Catalog& catalog = SharedCatalog();
  std::vector<std::string> queries = Queries();

  std::vector<std::vector<std::string>> scalar_rows;
  std::vector<exec::ExecStats> scalar_stats;
  {
    HiqueEngine scalar(&catalog, Options(1, /*simd=*/false));
    EXPECT_EQ(scalar.simd_level(), HQ_SIMD_SCALAR);
    for (const auto& sql : queries) {
      auto r = scalar.Query(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      scalar_rows.push_back(ResultTuples(r.value()));
      scalar_stats.push_back(r.value().exec_stats);
    }
  }

  for (uint32_t threads : {1u, 2u, 8u}) {
    HiqueEngine engine(&catalog, Options(threads, /*simd=*/true));
    for (size_t q = 0; q < queries.size(); ++q) {
      auto r = engine.Query(queries[q]);
      ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
      // Bit-identical: same rows, same order, byte for byte — including
      // double aggregates, whose fold order the kernels preserve.
      EXPECT_EQ(ResultTuples(r.value()), scalar_rows[q])
          << "threads=" << threads << " query: " << queries[q];
      // The deterministic counters see the same tuples and pages: the
      // bitmap path walks exactly the rows the scalar loop selected.
      EXPECT_EQ(r.value().exec_stats.tuples_emitted,
                scalar_stats[q].tuples_emitted)
          << "threads=" << threads << " query: " << queries[q];
      EXPECT_EQ(r.value().exec_stats.pages_touched,
                scalar_stats[q].pages_touched)
          << "threads=" << threads << " query: " << queries[q];
    }
  }
}

TEST_F(SimdCodegenTest, GeneratedSourceIndependentOfSimdKnob) {
  Catalog& catalog = SharedCatalog();
  EngineOptions scalar_opts = Options(1, /*simd=*/false);
  scalar_opts.keep_source = true;
  EngineOptions simd_opts = Options(8, /*simd=*/true);
  simd_opts.keep_source = true;
  HiqueEngine scalar(&catalog, scalar_opts);
  HiqueEngine simd(&catalog, simd_opts);

  // Filter + hash-partitioned join + grouping: the source carries every
  // kernel family (bitmap predicate, pid hash, prefetched scatter).
  const std::string sql =
      "select sr_k, count(*) as c from sr, ss where sr_k = ss_k "
      "and sr_v < 500 group by sr_k";
  auto a = scalar.Query(sql);
  auto b = simd.Query(sql);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // The SIMD knob is pure load-time dispatch: one source text (and one
  // plan signature) serves scalar and vector hosts alike. Host ISA never
  // leaks into the emitted bytes — multiversioned entry points are always
  // emitted, selection happens via hique_set_simd after dlopen.
  EXPECT_EQ(a.value().plan_signature, b.value().plan_signature);
  EXPECT_EQ(a.value().generated_source, b.value().generated_source);
  EXPECT_NE(a.value().generated_source.find("hique_set_simd"),
            std::string::npos);
  EXPECT_NE(a.value().generated_source.find("_avx2"), std::string::npos);
  EXPECT_NE(a.value().generated_source.find("_sse2"), std::string::npos);
}

TEST_F(SimdCodegenTest, ResolveSimdLevelHonorsKnobAndOption) {
  const char* saved = std::getenv("HQ_SIMD");
  std::string saved_value = saved != nullptr ? saved : "";

  int32_t detected = exec::DetectSimdLevel();
  EXPECT_GE(detected, HQ_SIMD_SCALAR);
  EXPECT_LE(detected, HQ_SIMD_AVX2);

  // EngineOptions::simd == false forces scalar regardless of host/env.
  ::setenv("HQ_SIMD", "avx2", 1);
  EXPECT_EQ(exec::ResolveSimdLevel(false), HQ_SIMD_SCALAR);

  // The env knob can only narrow what CPUID detected, never widen it.
  EXPECT_LE(exec::ResolveSimdLevel(true), detected);
  ::setenv("HQ_SIMD", "off", 1);
  EXPECT_EQ(exec::ResolveSimdLevel(true), HQ_SIMD_SCALAR);
  ::setenv("HQ_SIMD", "scalar", 1);
  EXPECT_EQ(exec::ResolveSimdLevel(true), HQ_SIMD_SCALAR);
  ::setenv("HQ_SIMD", "sse2", 1);
  EXPECT_LE(exec::ResolveSimdLevel(true), HQ_SIMD_SSE2);
  ::unsetenv("HQ_SIMD");
  EXPECT_EQ(exec::ResolveSimdLevel(true), detected);

  if (saved != nullptr) {
    ::setenv("HQ_SIMD", saved_value.c_str(), 1);
  } else {
    ::unsetenv("HQ_SIMD");
  }

  // The engine pins its level at construction from the same resolution.
  Catalog& catalog = SharedCatalog();
  HiqueEngine off(&catalog, Options(1, /*simd=*/false));
  EXPECT_EQ(off.simd_level(), HQ_SIMD_SCALAR);
  HiqueEngine on(&catalog, Options(1, /*simd=*/true));
  EXPECT_EQ(on.simd_level(), exec::ResolveSimdLevel(true));
}

TEST_F(SimdCodegenTest, SimdResultsMatchReferenceExecutor) {
  // Independent oracle: the interpreted reference executor never touches
  // the generated kernels at all. Scan/aggregate queries only — the join
  // queries are quadratic under the reference executor and their
  // scalar-vs-SIMD equivalence is already pinned bit-exactly above.
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, Options(4, /*simd=*/true));
  const std::vector<std::string> queries = {
      tpch::Query6Sql(),
      "select count(*) as c from pr where pr_v < 10",
      "select count(*) as c, sum(pr_d) as sd from pr where pr_d < 100.5",
      "select pr_pad, count(*) as c from pr where pr_pad = 'p1' "
      "group by pr_pad",
      "select count(*) as c from pempty where pempty_v < 10",
      "select count(*) as c, sum(podd_d) as sd from podd "
      "where podd_v < 500",
  };
  for (const auto& sql : queries) {
    Status s = testing::CheckAgainstReference(&engine, sql);
    EXPECT_TRUE(s.ok()) << sql << ": " << s.ToString();
  }
}

}  // namespace
}  // namespace hique
