// Code generator unit tests: emitted-source structure (the paper's
// Listings 1 and 2 must be recognizable), ABI conventions, layout math, and
// expression rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "codegen/abi_embed.h"
#include "codegen/expr_gen.h"
#include "codegen/generator.h"
#include "plan/optimizer.h"
#include "sql/binder.h"
#include "tests/test_util.h"

namespace hique {
namespace {

class CodegenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::MakeIntTable(&catalog_, "r", 1000, 10, 1);
    testing::MakeIntTable(&catalog_, "s", 800, 10, 2);
  }

  std::string GenerateFor(const std::string& sql,
                          const plan::PlannerOptions& opts = {}) {
    auto bound = sql::ParseAndBind(sql, catalog_);
    HQ_CHECK_MSG(bound.ok(), bound.status().ToString().c_str());
    auto plan = plan::Optimize(std::move(bound).value(), opts);
    HQ_CHECK_MSG(plan.ok(), plan.status().ToString().c_str());
    auto gen = codegen::Generate(*plan.value());
    HQ_CHECK_MSG(gen.ok(), gen.status().ToString().c_str());
    return gen.value().source;
  }

  /// The generated part of a source file: everything after the embedded
  /// runtime ABI header and its operator drivers. Checks for what the
  /// generator emitted (or did not) look here, so a driver name matches
  /// only where an operator instantiates it.
  std::string BodyFor(const std::string& sql,
                      const plan::PlannerOptions& opts = {}) {
    std::string src = GenerateFor(sql, opts);
    size_t at = src.find(kAbiEnd);
    HQ_CHECK(at != std::string::npos);
    return src.substr(at + std::strlen(kAbiEnd));
  }

  static constexpr const char* kAbiEnd =
      "#endif  // HIQUE_CODEGEN_RUNTIME_ABI_H_";

  Catalog catalog_;
};

/// Occurrences of `needle` in `haystack`.
size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// The text of the function whose signature contains `signature`, from
/// the signature to its closing brace at column 0.
std::string FunctionText(const std::string& src, const std::string& signature) {
  size_t begin = src.find(signature);
  if (begin == std::string::npos) return "";
  size_t end = src.find("\n}\n", begin);
  return end == std::string::npos ? "" : src.substr(begin, end - begin);
}

TEST_F(CodegenTest, ScanSelectMatchesListing1Shape) {
  // A non-selective filter (~90% pass) does not batch (see
  // EachScanHasOneLoopShape), so the scan is the paper's Listing 1: page
  // loop, tuple loop, inlined predicate, no function calls in the inner
  // loop.
  std::string src = GenerateFor("select r_k from r where r_v < 900");
  EXPECT_NE(src.find("for (uint64_t p = pb; p < pe; ++p) {"),
            std::string::npos);
  EXPECT_NE(src.find("for (uint32_t ti = 0; ti < nt; ++ti, tup += "),
            std::string::npos);
  EXPECT_NE(src.find("(*(const int32_t*)(tup + 4)) < 900"),
            std::string::npos)
      << src;
  EXPECT_NE(src.find("extern \"C\" int64_t hique_query_main"),
            std::string::npos);
}

TEST_F(CodegenTest, PredicatesAreInlinedNotCalls) {
  // CHAR-led, so the scan keeps the tuple-at-a-time loop.
  std::string src = GenerateFor(
      "select r_k from r where r_pad = 'p1' and r_v >= 10 and r_v < 90");
  // CHAR predicates become memcmp against the padded literal.
  EXPECT_NE(src.find("memcmp"), std::string::npos);
  EXPECT_NE(src.find("'"), 0u);
  // Conjuncts compile to early-continue guards.
  EXPECT_NE(src.find("continue;"), std::string::npos);
}

TEST_F(CodegenTest, HybridJoinEmitsJitPartitionSort) {
  plan::PlannerOptions opts;
  opts.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
  opts.fine_partition_max_domain = 0;
  std::string src = BodyFor(
      "select r_k, s_v from r, s where r_k = s_k", opts);
  // The partition-range driver sorts corresponding partitions just before
  // joining them: one hq_record_sort per input.
  EXPECT_NE(src.find("hq_part_ranges<2, op"), std::string::npos) << src;
  EXPECT_EQ(CountOf(src, "hq_record_sort<"), 2u) << src;
  EXPECT_NE(src.find("hq_partition_coarse<"), std::string::npos);
  EXPECT_NE(src.find("hybrid hash-sort-merge join"), std::string::npos);
  EXPECT_NE(src.find("nested-loops template, Listing 2"), std::string::npos);
}

TEST_F(CodegenTest, FineJoinSkipsSorting) {
  plan::PlannerOptions opts;
  opts.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
  opts.fine_partition_max_domain = 64;  // domain is 10: fine applies
  std::string src = BodyFor(
      "select r_k, s_v from r, s where r_k = s_k", opts);
  EXPECT_NE(src.find("fine-partition join"), std::string::npos);
  EXPECT_NE(src.find("hq_part_ranges<2, op"), std::string::npos) << src;
  EXPECT_EQ(src.find("hq_record_sort<"), std::string::npos);
  // The cross product needs no merge cursors.
  std::string kernel = FunctionText(src, "_merge_range(");
  ASSERT_FALSE(kernel.empty()) << src;
  EXPECT_EQ(kernel.find("int64_t i0"), std::string::npos) << kernel;
  EXPECT_NE(src.find("hq_partition_fine<"), std::string::npos);
  EXPECT_EQ(src.find("hq_partition_coarse<"), std::string::npos);
}

TEST_F(CodegenTest, MergeJoinHasNoPartitioning) {
  plan::PlannerOptions opts;
  opts.force_join_algo = plan::JoinAlgo::kMerge;
  std::string src = BodyFor(
      "select r_k, s_v from r, s where r_k = s_k", opts);
  EXPECT_NE(src.find("merge join"), std::string::npos);
  EXPECT_EQ(src.find("hq_partition_"), std::string::npos);
  EXPECT_NE(src.find("hq_sort_cascade<"), std::string::npos);  // sort staging
}

TEST_F(CodegenTest, MapAggUsesDenseDirectoryForDenseDomain) {
  std::string src = BodyFor(
      "select r_k, sum(r_v), count(*) from r group by r_k");
  // Dense int domain 0..9: identity directory, no binary search.
  EXPECT_NE(src.find("map aggregation"), std::string::npos);
  EXPECT_EQ(src.find("hq_dir"), std::string::npos) << src;
}

TEST_F(CodegenTest, CharGroupKeyUsesSparseDirectory) {
  std::string src = BodyFor(
      "select r_pad, count(*) from r group by r_pad");
  // One hq_dir per task block; the scan and the fold's re-keying look ids
  // up through the one hq_dir_id template.
  EXPECT_EQ(CountOf(src, "hq_dir<"), 1u) << src;
  EXPECT_EQ(CountOf(src, "hq_dir_id<"), 2u) << src;
  EXPECT_NE(src.find("HQ_ERR_MAP_OVERFLOW"), std::string::npos);
}

TEST_F(CodegenTest, FusedScalarAggHasNoVecAppendInLoops) {
  std::string src = GenerateFor(
      "select count(*) as c, sum(s_d) as t from r, s where r_k = s_k");
  EXPECT_NE(src.find("scalar aggregation fused"), std::string::npos);
  // The fused join updates a per-task accumulator block instead of
  // materializing (no file-scope statics: those would race under
  // partition parallelism and leak state across cached re-executions).
  EXPECT_NE(src.find("acc->grp_n"), std::string::npos);
  EXPECT_EQ(src.find("_grp_n = 0;"), std::string::npos);  // no file statics
}

TEST_F(CodegenTest, OperatorsRunThroughParallelForService) {
  plan::PlannerOptions opts;
  opts.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
  opts.fine_partition_max_domain = 0;
  std::string src = BodyFor(
      "select r_k, s_v from r, s where r_k = s_k", opts);
  // Staging, partitioning and the per-partition join all dispatch through
  // the runtime parallel-for service inside their drivers; the thread
  // count is a pure runtime knob, never baked into the source.
  EXPECT_EQ(src.find("hq_parallel_for(ctx"), std::string::npos);
  EXPECT_NE(src.find("hq_stage_base<"), std::string::npos);
  EXPECT_NE(src.find("hq_partition_coarse<"), std::string::npos);
  EXPECT_NE(src.find("hq_part_ranges<"), std::string::npos);
  EXPECT_EQ(src.find("HQ_THREADS"), std::string::npos);
}

TEST_F(CodegenTest, SortedOutputSkipsFinalSort) {
  plan::PlannerOptions opts;
  opts.force_agg_algo = plan::AggAlgo::kSort;
  std::string src = BodyFor(
      "select r_k, count(*) from r group by r_k order by r_k", opts);
  // No output comparator or sort is emitted when the interesting order
  // covers the ORDER BY (paper §IV: interesting orders).
  EXPECT_EQ(src.find("_out(const uint8_t* a"), std::string::npos);
  EXPECT_EQ(src.find("hq_order_by_output<"), std::string::npos);
  EXPECT_NE(src.find("hq_emit_rows<"), std::string::npos);
}

TEST_F(CodegenTest, EveryOutputUsesOnlyBulkPageProtocol) {
  // Result rows leave generated code one way: every output operator
  // instantiates one of the two output drivers, and both drivers allocate
  // and emit result pages through the bulk hooks.
  const std::string abi = codegen::kAbiHeaderSource;
  for (const char* driver : {"hq_emit_rows(", "hq_order_by_output("}) {
    std::string fn = FunctionText(abi, driver);
    ASSERT_FALSE(fn.empty()) << driver;
    EXPECT_NE(fn.find("result_alloc_pages"), std::string::npos) << fn;
    EXPECT_NE(fn.find("result_emit_pages"), std::string::npos) << fn;
  }
  struct Case {
    const char* sql;
    const char* driver;
  };
  for (const Case& c : std::vector<Case>{
           {"select r_k, r_v from r where r_v < 500 order by r_v, r_k",
            "hq_order_by_output<"},
           {"select r_k, r_v from r where r_v < 500", "hq_emit_rows<"},
           {"select r_k, r_v from r where r_v < 500 limit 7",
            "hq_emit_rows<"},
           {"select count(*), sum(r_v) from r", "hq_emit_rows<"},
       }) {
    SCOPED_TRACE(c.sql);
    std::string src = GenerateFor(c.sql);
    std::string output_fn =
        FunctionText(BodyFor(c.sql), "_output(HqQueryCtx* ctx");
    ASSERT_FALSE(output_fn.empty()) << src;
    EXPECT_NE(output_fn.find(c.driver), std::string::npos) << output_fn;
    // No per-slot writer anywhere, the embedded runtime ABI included.
    for (const char* gone : {"hq_result_slot", "HqResultWriter",
                             "result_new_page"}) {
      EXPECT_EQ(src.find(gone), std::string::npos) << gone;
    }
  }
}

TEST_F(CodegenTest, EmbedsOnlyTheDriverGroupsItInstantiates) {
  // g++ parses every embedded template, so a source carries a driver group
  // only when one of its operators instantiates it. Every join and every
  // sort or hybrid aggregation runs through a range driver (group range),
  // key ranges also need group key_range, a fused scalar aggregate the
  // accumulator fold. Map aggregation runs through hq_map_agg (group map)
  // and the same fold; only a scan over compressed pages decodes.
  plan::PlannerOptions hash_join;
  hash_join.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
  hash_join.fine_partition_max_domain = 0;
  plan::PlannerOptions merge_join;
  merge_join.force_join_algo = plan::JoinAlgo::kMerge;
  plan::PlannerOptions fine_join;
  fine_join.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
  fine_join.fine_partition_max_domain = 64;
  plan::PlannerOptions sort_agg;
  sort_agg.force_agg_algo = plan::AggAlgo::kSort;
  plan::PlannerOptions hybrid_agg;
  hybrid_agg.force_agg_algo = plan::AggAlgo::kHybridHashSort;
  struct Case {
    const char* sql;
    plan::PlannerOptions opts;
    std::vector<std::string> groups;
  };
  const char* join = "select r_k, s_v from r, s where r_k = s_k";
  const char* fused = "select count(*), sum(s_v) from r, s where r_k = s_k";
  const char* grouped = "select r_k, count(*) from r group by r_k";
  const char* scalar = "select count(*), sum(r_v) from r";
  const char* staged = "select r_k, r_v from r where r_v < 500";
  const std::vector<Case> cases = {
      {staged, {}, {"stage"}},
      {grouped, {}, {"fold", "map"}},
      {scalar, {}, {"fold", "map"}},
      {"select r_pad, count(*), min(r_v) from r group by r_pad",
       {},
       {"fold", "map"}},
      {"select r_k, r_pad, max(r_pad) from r group by r_k, r_pad",
       {},
       {"fold", "map"}},
      {"select r_k, r_v from r order by r_v",
       {},
       {"stage", "record_sort", "sort"}},
      {join,
       merge_join,
       {"stage", "record_sort", "sort", "range", "key_range"}},
      {join, hash_join, {"stage", "record_sort", "partition", "range"}},
      {join, fine_join, {"stage", "partition", "range"}},
      {fused,
       merge_join,
       {"stage", "record_sort", "sort", "range", "key_range", "fold"}},
      {fused,
       hash_join,
       {"stage", "record_sort", "partition", "range", "fold"}},
      {fused, fine_join, {"stage", "partition", "range", "fold"}},
      {grouped,
       sort_agg,
       {"stage", "record_sort", "sort", "range", "key_range"}},
      {grouped,
       hybrid_agg,
       {"stage", "record_sort", "partition", "range"}},
  };
  // Compressed inputs: the same shapes, now decoding.
  const std::vector<Case> compressed = {
      {staged, {}, {"decode", "stage"}},
      {grouped, {}, {"decode", "fold", "map"}},
      {scalar, {}, {"decode", "fold", "map"}},
  };
  auto check = [&](const Case& c) {
    SCOPED_TRACE(c.sql);
    auto has = [&](const char* group) {
      return std::find(c.groups.begin(), c.groups.end(), group) !=
             c.groups.end();
    };
    std::string src = GenerateFor(c.sql, c.opts);
    for (const char* group : {"decode", "stage", "record_sort", "sort",
                              "partition", "range", "key_range", "fold",
                              "map"}) {
      EXPECT_EQ(
          src.find("// [driver group " + std::string(group) + "]\n") !=
              std::string::npos,
          has(group))
          << group;
    }
    // A join, a sort/hybrid aggregation or a map aggregation is its
    // kernels plus one driver instantiation; no per-operator task wrapper,
    // slice array or fold loop is generated.
    std::string body = BodyFor(c.sql, c.opts);
    EXPECT_EQ(CountOf(body, "hq_part_ranges<") +
                  CountOf(body, "hq_key_ranges<"),
              has("range") ? 1u : 0u)
        << body;
    EXPECT_EQ(CountOf(body, "hq_map_agg<"), has("map") ? 1u : 0u) << body;
    for (const char* gone : {"_join_args", "_join_part", "_mr_args",
                             "_mr_bounds", "_mr_task", "_agg_args",
                             "_agg_part", "_sagg_", "_map_args",
                             "merged view", "_dir0(", "_dir1("}) {
      EXPECT_EQ(src.find(gone), std::string::npos) << gone;
    }
  };
  for (const Case& c : cases) check(c);
  for (const char* t : {"r", "s"}) {
    ASSERT_TRUE(catalog_.GetTable(t).value()->Compress().ok());
  }
  for (const Case& c : compressed) check(c);
}

TEST_F(CodegenTest, EachScanHasOneLoopShape) {
  // The loop shape of every scan is decided at generation time: a scan
  // whose leading conjunct lowers to 64-bit lanes runs batched over a
  // predicate kernel with exactly one AVX2 copy; a CHAR-led scan keeps the
  // tuple-at-a-time loop and gets no kernel; hash partitioning always
  // computes partition ids a block at a time. No runtime fork remains.
  plan::PlannerOptions hash_join;
  hash_join.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
  hash_join.fine_partition_max_domain = 0;
  struct Case {
    const char* sql;
    plan::PlannerOptions opts;
    const char* kernel;  // the one kernel the source defines, or nullptr
    size_t avx2_copies;
  };
  for (const Case& c : std::vector<Case>{
           {"select r_k, r_v from r where r_v < 100 and r_pad = 'p1'", {},
            "_pred(", 1},
           {"select r_k, count(*) from r where r_v < 100 group by r_k", {},
            "_mpred(", 1},
           {"select r_k, r_v from r where r_pad = 'p1' and r_v < 100", {},
            nullptr, 0},
           {"select r_k, count(*) from r where r_pad = 'p1' and r_v < 100 "
            "group by r_k",
            {}, nullptr, 0},
           {"select r_k, s_v from r, s where r_k = s_k", hash_join, "_pids(",
            2},
       }) {
    SCOPED_TRACE(c.sql);
    // No fork or SSE2 tier anywhere, the embedded runtime ABI included.
    std::string whole = GenerateFor(c.sql, c.opts);
    for (const char* gone : {"hq_simd_level !=", "sse2", "SSE2"}) {
      EXPECT_EQ(whole.find(gone), std::string::npos) << gone;
    }
    std::string src = BodyFor(c.sql, c.opts);
    EXPECT_EQ(CountOf(src, "__attribute__((target(\"avx2\")))"),
              c.avx2_copies)
        << src;
    for (const char* kernel : {"_pred(", "_mpred(", "_pids("}) {
      bool want = c.kernel != nullptr && std::string(c.kernel) == kernel;
      EXPECT_EQ(src.find(kernel) != std::string::npos, want) << kernel;
    }
    if (c.kernel == nullptr) {
      // CHAR-led: the paper's loop with early-continue guards.
      EXPECT_NE(src.find("++ti, tup += "), std::string::npos) << src;
    } else if (std::string(c.kernel) != "_pids(") {
      // Batched: the bitmap-block loop only.
      EXPECT_NE(src.find("__builtin_ctzll(bm)"), std::string::npos) << src;
      EXPECT_EQ(src.find("++ti, tup += "), std::string::npos) << src;
    } else {
      // Hash partitioning: block-at-a-time ids through the coarse
      // driver, no per-record pass.
      EXPECT_NE(src.find("hq_partition_coarse<"), std::string::npos) << src;
      EXPECT_EQ(src.find("for (uint64_t i = rb; i < re; ++i)"),
                std::string::npos)
          << src;
    }
  }
}

TEST_F(CodegenTest, OnePageLoopPerBaseTableScan) {
  // Every base-table scan is one generated page loop, compressed or not:
  // staging's count and fill passes are the two instantiations of one
  // op<k>_scan<FILL>, and hq_stage_base chooses between serial and
  // parallel staging at run time, so the body names neither choice.
  struct Case {
    const char* sql;
    size_t scans;     // base-table scans, each one page loop
    size_t stagings;  // of which staging ops
  };
  const std::vector<Case> cases = {
      // batched, unbatched and unfiltered staging
      {"select r_k, r_v from r where r_v < 100 and r_pad = 'p1'", 1, 1},
      {"select r_k, r_v from r where r_pad = 'p1' and r_v < 100", 1, 1},
      {"select r_k, r_v from r order by r_v", 1, 1},
      {"select r_k, s_v from r, s where r_k = s_k", 2, 2},
      // batched and unbatched map aggregation
      {"select r_k, count(*) from r where r_v < 100 group by r_k", 1, 0},
      {"select r_k, count(*) from r where r_pad = 'p1' and r_v < 100 "
       "group by r_k",
       1, 0},
  };
  for (bool compressed : {false, true}) {
    if (compressed) {
      for (const char* t : {"r", "s"}) {
        ASSERT_TRUE(catalog_.GetTable(t).value()->Compress().ok());
      }
    }
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.sql) +
                   (compressed ? " (compressed)" : " (NSM)"));
      std::string src = BodyFor(c.sql);
      EXPECT_EQ(CountOf(src, "const uint8_t* page = T->pages[p];"), c.scans)
          << src;
      EXPECT_EQ(CountOf(src, "template <bool FILL>"), c.stagings);
      EXPECT_EQ(CountOf(src, "hq_stage_base<"), c.stagings);
      EXPECT_EQ(CountOf(src, "_dec_init(&ds"), compressed ? c.scans : 0);
      for (const char* gone : {"_stage_count", "_stage_fill", "num_workers"}) {
        EXPECT_EQ(src.find(gone), std::string::npos) << gone;
      }
    }
  }
}

TEST_F(CodegenTest, DescendingSortComparatorFlipsSign) {
  std::string out;
  codegen::AppendFieldCompare(&out, "a", "b", 8, Type::Double(),
                              /*desc=*/true, "");
  EXPECT_NE(out.find("< (*(const double*)(b + 8))) return 1"),
            std::string::npos)
      << out;
}

TEST(ExprGenTest, LiteralRendering) {
  EXPECT_EQ(codegen::LiteralToC(Value::Int32(-5)), "-5");
  EXPECT_EQ(codegen::LiteralToC(Value::Int64(7)), "7LL");
  EXPECT_EQ(codegen::LiteralToC(Value::Double(1.0)), "1.0");
  EXPECT_EQ(codegen::LiteralToC(Value::Date(9000)), "9000");
  EXPECT_EQ(codegen::LiteralToC(Value::Char("a\"b", 4)), "\"a\\\"b \"");
}

TEST(ExprGenTest, FieldAccessRendering) {
  EXPECT_EQ(codegen::FieldAccess("rec", 0, Type::Int32()),
            "(*(const int32_t*)rec)");
  EXPECT_EQ(codegen::FieldAccess("rec", 16, Type::Double()),
            "(*(const double*)(rec + 16))");
  EXPECT_EQ(codegen::FieldAccess("rec", 4, Type::Char(8)),
            "((const char*)(rec + 4))");
}

TEST(ExprGenTest, CStringEscapes) {
  EXPECT_EQ(codegen::CStringLiteral("a\\b\nc"), "\"a\\\\b\\nc\"");
}

TEST_F(CodegenTest, GeneratedSourceIsStablePerPlan) {
  // Same query, same catalog: byte-identical source (determinism matters
  // for the compiled-query cache and for debugging).
  std::string a = GenerateFor("select r_k from r where r_v < 100");
  std::string b = GenerateFor("select r_k from r where r_v < 100");
  EXPECT_EQ(a, b);
}

TEST(RecordLayoutTest, ConcatPreservesInternalOffsets) {
  plan::RecordLayout left;
  left.AddField({sql::ColRef{0, 0}, Type::Int32(), "k"});  // 0..4, size 8
  plan::RecordLayout right;
  right.AddField({sql::ColRef{1, 0}, Type::Int32(), "x"});   // 0
  right.AddField({sql::ColRef{1, 1}, Type::Double(), "y"});  // 8
  plan::RecordLayout cat;
  cat.AppendConcat(left);
  cat.AppendConcat(right);
  EXPECT_EQ(cat.record_size, left.record_size + right.record_size);
  EXPECT_EQ(cat.OffsetOf(1), left.record_size + right.OffsetOf(0));
  EXPECT_EQ(cat.OffsetOf(2), left.record_size + right.OffsetOf(1));
  EXPECT_EQ(cat.FindField(sql::ColRef{1, 1}), 2);
}

}  // namespace
}  // namespace hique
