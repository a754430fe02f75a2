// Code generator unit tests: emitted-source structure (the paper's
// Listings 1 and 2 must be recognizable), ABI conventions, layout math, and
// expression rendering.

#include <gtest/gtest.h>

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

  Catalog catalog_;
};

TEST_F(CodegenTest, ScanSelectMatchesListing1Shape) {
  // A non-selective filter (~90% pass) does not batch (see
  // EachScanHasOneLoopShape), so the scan is the paper's Listing 1: page
  // loop, tuple loop, inlined predicate, no function calls in the inner
  // loop.
  std::string src = GenerateFor("select r_k from r where r_v < 900");
  EXPECT_NE(src.find("loop over pages"), std::string::npos);
  EXPECT_NE(src.find("loop over tuples"), std::string::npos);
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
  std::string src = GenerateFor(
      "select r_k, s_v from r, s where r_k = s_k", opts);
  EXPECT_NE(src.find("sort corresponding partitions just before joining"),
            std::string::npos);
  EXPECT_NE(src.find("hybrid hash-sort-merge join"), std::string::npos);
  EXPECT_NE(src.find("nested-loops template, Listing 2"), std::string::npos);
}

TEST_F(CodegenTest, FineJoinSkipsSorting) {
  plan::PlannerOptions opts;
  opts.force_join_algo = plan::JoinAlgo::kHybridHashSortMerge;
  opts.fine_partition_max_domain = 64;  // domain is 10: fine applies
  std::string src = GenerateFor(
      "select r_k, s_v from r, s where r_k = s_k", opts);
  EXPECT_NE(src.find("fine-partition join"), std::string::npos);
  EXPECT_EQ(src.find("sort corresponding partitions"), std::string::npos);
}

TEST_F(CodegenTest, MergeJoinHasNoPartitioning) {
  plan::PlannerOptions opts;
  opts.force_join_algo = plan::JoinAlgo::kMerge;
  std::string src = GenerateFor(
      "select r_k, s_v from r, s where r_k = s_k", opts);
  EXPECT_NE(src.find("merge join"), std::string::npos);
  EXPECT_EQ(src.find("coarse/fine partitioning"), std::string::npos);
  EXPECT_NE(src.find("fullsort_op"), std::string::npos);  // sort staging
}

TEST_F(CodegenTest, MapAggUsesDenseDirectoryForDenseDomain) {
  std::string src = GenerateFor(
      "select r_k, sum(r_v), count(*) from r group by r_k");
  // Dense int domain 0..9: identity directory, no binary-search helper.
  EXPECT_NE(src.find("map aggregation"), std::string::npos);
  EXPECT_EQ(src.find("_dir0(int64_t key"), std::string::npos) << src;
}

TEST_F(CodegenTest, CharGroupKeyUsesSparseDirectory) {
  std::string src = GenerateFor(
      "select r_pad, count(*) from r group by r_pad");
  EXPECT_NE(src.find("_dir0(int64_t key"), std::string::npos);
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
  std::string src = GenerateFor(
      "select r_k, s_v from r, s where r_k = s_k", opts);
  // Staging, partitioning and the per-partition join all dispatch through
  // the runtime parallel-for service; the thread count is a pure runtime
  // knob, never baked into the source.
  EXPECT_NE(src.find("hq_parallel_for(ctx"), std::string::npos);
  EXPECT_NE(src.find("_stage_count"), std::string::npos);
  EXPECT_NE(src.find("_part_scatter"), std::string::npos);
  EXPECT_NE(src.find("_join_part"), std::string::npos);
  EXPECT_EQ(src.find("HQ_THREADS"), std::string::npos);
}

TEST_F(CodegenTest, SortedOutputSkipsFinalSort) {
  plan::PlannerOptions opts;
  opts.force_agg_algo = plan::AggAlgo::kSort;
  std::string src = GenerateFor(
      "select r_k, count(*) from r group by r_k order by r_k", opts);
  // No output comparator is emitted when the interesting order covers the
  // ORDER BY (paper §IV: interesting orders).
  EXPECT_EQ(src.find("_out(const uint8_t* a"), std::string::npos);
}

TEST_F(CodegenTest, EveryOutputUsesOnlyBulkPageProtocol) {
  // Result rows leave generated code one way: result pages allocated and
  // emitted through the bulk hooks, whatever the output's shape.
  for (const char* sql : {
           "select r_k, r_v from r where r_v < 500 order by r_v, r_k",
           "select r_k, r_v from r where r_v < 500",
           "select r_k, r_v from r where r_v < 500 limit 7",
           "select count(*), sum(r_v) from r",
       }) {
    SCOPED_TRACE(sql);
    std::string src = GenerateFor(sql);
    size_t begin = src.find("_output(HqQueryCtx* ctx");
    ASSERT_NE(begin, std::string::npos) << src;
    size_t end = src.find("\n}\n", begin);
    ASSERT_NE(end, std::string::npos);
    std::string output_fn = src.substr(begin, end - begin);
    EXPECT_NE(output_fn.find("result_alloc_pages"), std::string::npos)
        << output_fn;
    EXPECT_NE(output_fn.find("result_emit_pages"), std::string::npos)
        << output_fn;
    // No per-slot writer anywhere, the embedded runtime ABI included.
    for (const char* gone : {"hq_result_slot", "HqResultWriter",
                             "result_new_page"}) {
      EXPECT_EQ(src.find(gone), std::string::npos) << gone;
    }
  }
}

/// Occurrences of `needle` in `haystack`.
size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
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
    std::string src = GenerateFor(c.sql, c.opts);
    for (const char* gone : {"hq_simd_level !=", "sse2", "SSE2"}) {
      EXPECT_EQ(src.find(gone), std::string::npos) << gone;
    }
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
      // Hash partitioning: block-at-a-time ids, no per-record pass.
      EXPECT_EQ(src.find("for (uint64_t i = rb; i < re; ++i)"),
                std::string::npos)
          << src;
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
