// SIMD codegen tests: the AVX2 kernel versions (selection bitmaps, batched
// partition hashing) emitted by the generator must be *bit-identical* to
// their portable versions — same result bytes, same row order, same
// deterministic counters — at every thread count, because both preserve
// selection order and per-tuple arithmetic exactly. HQ_SIMD=off selects
// the portable versions on an AVX2 host. Also covers the single-signature
// dispatch contract: the generated source (and plan signature) may not
// depend on HQ_SIMD or the host ISA; only the load-time `hique_set_simd`
// call differs.
//
// The engine has no NULL support (see docs/architecture.md), so the
// NULL-bearing-column coverage a nullable engine would need is substituted
// with CHAR keys (per-lane scalar fallback), an empty table, and a row
// count that is not a multiple of the vector width (scalar-tail path).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
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

/// Sets HQ_SIMD for the scope of one engine construction and restores the
/// caller's value (the CI matrix sets it process-wide).
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    const char* saved = std::getenv("HQ_SIMD");
    had_ = saved != nullptr;
    if (had_) saved_ = saved;
    if (value != nullptr) {
      ::setenv("HQ_SIMD", value, 1);
    } else {
      ::unsetenv("HQ_SIMD");
    }
  }
  ~ScopedSimdEnv() {
    if (had_) {
      ::setenv("HQ_SIMD", saved_.c_str(), 1);
    } else {
      ::unsetenv("HQ_SIMD");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

class SimdCodegenTest : public ::testing::Test {
 public:
  static Catalog& SharedCatalog() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      tpch::TpchOptions opts;
      opts.scale_factor = 0.005;
      HQ_CHECK(tpch::LoadTpch(c, opts).ok());
      // Dense domain (50): fine-partitioned joins, which keep the
      // per-record partition loop — the pid kernel only serves hash
      // partitioning.
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

  /// An engine whose libraries load the kernel version `simd` selects
  /// ("off": the portable kernels; "on": what CPUID detects).
  static std::unique_ptr<HiqueEngine> MakeEngine(const char* simd,
                                                 uint32_t threads,
                                                 bool keep_source = false) {
    ScopedSimdEnv env(simd);
    EngineOptions o;
    o.threads = threads;
    o.keep_source = keep_source;
    // -O0, so nothing tiers up: the kernel equivalence must hold at the
    // tier-0 opt level every first execution actually runs at.
    o.compile.opt_level = 0;
    return std::make_unique<HiqueEngine>(&SharedCatalog(), o);
  }

  /// Conjunctions over lineitem whose leading conjunct is numeric (the
  /// scan runs batched, the CHAR conjunct refines surviving bits) or CHAR
  /// (the scan keeps the tuple-at-a-time loop).
  static std::vector<std::string> MixedLeadQueries() {
    return {
        "select count(*) as c, sum(l_extendedprice) as s from lineitem "
        "where l_quantity < 20 and l_returnflag = 'R'",
        "select count(*) as c, sum(l_extendedprice) as s from lineitem "
        "where l_returnflag = 'R' and l_quantity < 20",
    };
  }

  static std::vector<std::string> Queries() {
    std::vector<std::string> queries = {
        tpch::Query1Sql(),
        tpch::Query6Sql(),
        // Selective int predicate (~1% pass): sparse bitmaps, ctz walk.
        "select count(*) as c from pr where pr_v < 10",
        // Non-selective predicate (all pass) with an ordered double fold.
        "select count(*) as c, sum(pr_d) as sd from pr where pr_v >= 0",
        // Double-typed comparison: f64 lanes must match C's promotions.
        "select count(*) as c, sum(pr_d) as sd from pr where pr_d < 100.5",
        // CHAR equality filter + CHAR group keys: a CHAR-led scan keeps
        // the tuple-at-a-time loop.
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
        // per-record (fine) partition pass.
        "select count(*) as c, sum(ps_d) as sd from pr, ps "
        "where pr_k = ps_k and pr_v < 200",
    };
    for (const std::string& q : MixedLeadQueries()) queries.push_back(q);
    return queries;
  }
};

TEST_F(SimdCodegenTest, SimdResultsBitIdenticalToScalar) {
  // The baseline runs the portable kernels serially. On a host without
  // AVX2 the "on" engines resolve to the portable kernels too and this
  // degenerates to portable-vs-portable across thread counts.
  std::vector<std::string> queries = Queries();

  std::vector<std::vector<std::string>> scalar_rows;
  std::vector<exec::ExecStats> scalar_stats;
  {
    auto scalar = MakeEngine("off", 1);
    EXPECT_EQ(scalar->simd_level(), HQ_SIMD_SCALAR);
    for (const auto& sql : queries) {
      auto r = scalar->Query(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      scalar_rows.push_back(ResultTuples(r.value()));
      scalar_stats.push_back(r.value().exec_stats);
    }
  }

  for (const char* simd : {"off", "on"}) {
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      if (std::string(simd) == "off" && threads == 1) continue;  // baseline
      auto engine = MakeEngine(simd, threads);
      for (size_t q = 0; q < queries.size(); ++q) {
        auto r = engine->Query(queries[q]);
        ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
        // Bit-identical: same rows, same order, byte for byte — including
        // double aggregates, whose fold order the kernels preserve.
        EXPECT_EQ(ResultTuples(r.value()), scalar_rows[q])
            << "simd=" << simd << " threads=" << threads
            << " query: " << queries[q];
        // The deterministic counters see the same tuples and pages: both
        // kernel versions select exactly the same rows.
        EXPECT_EQ(r.value().exec_stats.tuples_emitted,
                  scalar_stats[q].tuples_emitted)
            << "simd=" << simd << " threads=" << threads
            << " query: " << queries[q];
        EXPECT_EQ(r.value().exec_stats.pages_touched,
                  scalar_stats[q].pages_touched)
            << "simd=" << simd << " threads=" << threads
            << " query: " << queries[q];
      }
    }
  }
}

TEST_F(SimdCodegenTest, GeneratedSourceIndependentOfSimdKnob) {
  auto scalar = MakeEngine("off", 1, /*keep_source=*/true);
  auto simd = MakeEngine("on", 8, /*keep_source=*/true);

  // Filter + hash-partitioned join + grouping: the source carries every
  // kernel family (bitmap predicate, pid hash, prefetched scatter).
  const std::string sql =
      "select sr_k, count(*) as c from sr, ss where sr_k = ss_k "
      "and sr_v < 500 group by sr_k";
  auto a = scalar->Query(sql);
  auto b = simd->Query(sql);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // HQ_SIMD is pure load-time dispatch: one source text (and one plan
  // signature) serves AVX2 and portable hosts alike. Host ISA never leaks
  // into the emitted bytes — the AVX2 version is always emitted, selection
  // happens via hique_set_simd after dlopen.
  EXPECT_EQ(a.value().plan_signature, b.value().plan_signature);
  EXPECT_EQ(a.value().generated_source, b.value().generated_source);
  EXPECT_NE(a.value().generated_source.find("hique_set_simd"),
            std::string::npos);
  EXPECT_NE(a.value().generated_source.find("_avx2"), std::string::npos);
}

TEST_F(SimdCodegenTest, ResolveSimdLevelHonorsKnob) {
  int32_t detected = exec::DetectSimdLevel();
  EXPECT_TRUE(detected == HQ_SIMD_SCALAR || detected == HQ_SIMD_AVX2)
      << detected;
  {
    // "off" is the one meaning HQ_SIMD has: the portable kernels.
    ScopedSimdEnv env("off");
    EXPECT_EQ(exec::ResolveSimdLevel(), HQ_SIMD_SCALAR);
  }
  // Every other value, and no value, trusts CPUID.
  for (const char* value : {"on", "avx2", "2", "sse2", "scalar", "0"}) {
    ScopedSimdEnv env(value);
    EXPECT_EQ(exec::ResolveSimdLevel(), detected) << "HQ_SIMD=" << value;
  }
  {
    ScopedSimdEnv env(nullptr);
    EXPECT_EQ(exec::ResolveSimdLevel(), detected);
  }

  // The engine pins its level at construction from the same resolution.
  EXPECT_EQ(MakeEngine("off", 1)->simd_level(), HQ_SIMD_SCALAR);
  EXPECT_EQ(MakeEngine("on", 1)->simd_level(), detected);
}

TEST_F(SimdCodegenTest, SimdResultsMatchReferenceExecutor) {
  // Independent oracle: the interpreted reference executor never touches
  // the generated kernels at all. Scan/aggregate queries only — the join
  // queries are quadratic under the reference executor and their
  // cross-version equivalence is already pinned bit-exactly above.
  std::vector<std::string> queries = {
      tpch::Query6Sql(),
      "select count(*) as c from pr where pr_v < 10",
      "select count(*) as c, sum(pr_d) as sd from pr where pr_d < 100.5",
      "select pr_pad, count(*) as c from pr where pr_pad = 'p1' "
      "group by pr_pad",
      "select count(*) as c from pempty where pempty_v < 10",
      "select count(*) as c, sum(podd_d) as sd from podd "
      "where podd_v < 500",
  };
  for (const std::string& q : MixedLeadQueries()) queries.push_back(q);
  for (const char* simd : {"off", "on"}) {
    for (uint32_t threads : {1u, 4u}) {
      auto engine = MakeEngine(simd, threads);
      for (const auto& sql : queries) {
        Status s = testing::CheckAgainstReference(engine.get(), sql);
        EXPECT_TRUE(s.ok()) << "simd=" << simd << " threads=" << threads
                            << " " << sql << ": " << s.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace hique
