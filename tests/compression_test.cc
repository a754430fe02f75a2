// Compressed-page tests: the storage codec (frame-of-reference, delta,
// dictionary) must round-trip every supported type byte-exactly, reject
// hostile or corrupt page bytes cleanly, and the fused decode kernels the
// generator emits must produce results *bit-identical* to uncompressed
// execution at every thread count and SIMD level — compression is a storage
// layout change, never a semantics change.
//
// The engine has no NULL support (see docs/architecture.md), so the
// NULL-bearing-column coverage a nullable engine would need is substituted
// the same way the SIMD suite does it: single-constant columns (the bits==0
// degenerate encodings), an empty table, max-width CHAR, and a row count
// that is not a multiple of the decode block.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "storage/compress.h"
#include "tests/test_util.h"
#include "tpch/tpch.h"
#include "util/rng.h"

namespace hique {
namespace {

/// All tuples of a table as raw byte strings, in scan order.
std::vector<std::string> TableRows(Table* t) {
  std::vector<std::string> rows;
  uint32_t sz = t->tuple_size();
  (void)t->ForEachTuple([&](const uint8_t* tuple) {
    rows.emplace_back(reinterpret_cast<const char*>(tuple), sz);
  });
  return rows;
}

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

/// A table exercising every encoding at once: sorted int64 key (kDelta),
/// small-domain int32 (kFOR), date (kFOR), low-cardinality CHAR (kDict),
/// double (kRaw). 10007 rows: prime, so pages and 64-tuple decode blocks
/// all end in partial tails.
Table* MakeMixedTable(Catalog* catalog, const std::string& name,
                      uint64_t rows, uint64_t seed) {
  Schema schema;
  schema.AddColumn(name + "_id", Type::Int64());    // sorted -> kDelta
  schema.AddColumn(name + "_v", Type::Int32());     // [0,1000) -> kFOR
  schema.AddColumn(name + "_dt", Type::Date());     // narrow range -> kFOR
  schema.AddColumn(name + "_tag", Type::Char(16));  // 7 distinct -> kDict
  schema.AddColumn(name + "_d", Type::Double());    // -> kRaw
  Table* t = catalog->CreateTable(name, schema).value();
  Rng rng(seed);
  int64_t id = 1000;
  for (uint64_t i = 0; i < rows; ++i) {
    id += static_cast<int64_t>(rng.NextBounded(5));  // non-decreasing
    int32_t v = static_cast<int32_t>(rng.NextBounded(1000));
    (void)t->AppendRow({Value::Int64(id), Value::Int32(v),
                        Value::Date(9000 + v % 365),
                        Value::Char("tag" + std::to_string(i % 7), 16),
                        Value::Double(v * 0.25 - 17.5)});
  }
  HQ_CHECK(t->ComputeStats().ok());
  return t;
}

// ---- storage-level round trips ---------------------------------------------

TEST(CompressionCodecTest, MixedEncodingsRoundTrip) {
  Catalog catalog;
  Table* t = MakeMixedTable(&catalog, "mix", 10007, 42);
  std::vector<std::string> before = TableRows(t);
  uint64_t pages_before = t->NumPages();

  ASSERT_TRUE(t->Compress().ok());
  ASSERT_TRUE(t->codec().enabled);
  // The chooser only compresses when it strictly raises page capacity.
  EXPECT_GT(t->codec().tuples_per_cpage, t->tuples_per_page());
  EXPECT_LT(t->NumPages(), pages_before);
  // Every planned encoding actually got picked.
  EXPECT_EQ(t->codec().cols[0].enc, ColEncoding::kDelta);
  EXPECT_EQ(t->codec().cols[1].enc, ColEncoding::kFOR);
  EXPECT_EQ(t->codec().cols[2].enc, ColEncoding::kFOR);
  EXPECT_EQ(t->codec().cols[3].enc, ColEncoding::kDict);
  EXPECT_EQ(t->codec().cols[3].dict_entries, 7u);
  EXPECT_EQ(t->codec().cols[4].enc, ColEncoding::kRaw);

  EXPECT_EQ(TableRows(t), before);  // byte-exact, same scan order

  // Decompress restores plain NSM pages with the same bytes.
  ASSERT_TRUE(t->Decompress().ok());
  EXPECT_FALSE(t->codec().enabled);
  EXPECT_EQ(TableRows(t), before);
}

TEST(CompressionCodecTest, SingleValueColumnsUseZeroBits) {
  // Constant columns: kFOR/kDict degenerate to bits == 0 — no segment at
  // all, the value reconstructed from the codec (or a 1-entry dictionary).
  Catalog catalog;
  Schema schema;
  schema.AddColumn("c_k", Type::Int32());
  schema.AddColumn("c_tag", Type::Char(8));
  schema.AddColumn("c_pay", Type::Int64());
  Table* t = catalog.CreateTable("cons", schema).value();
  for (int i = 0; i < 5000; ++i) {
    (void)t->AppendRow({Value::Int32(7), Value::Char("same", 8),
                        Value::Int64(1234567)});
  }
  ASSERT_TRUE(t->ComputeStats().ok());
  std::vector<std::string> before = TableRows(t);
  ASSERT_TRUE(t->Compress().ok());
  ASSERT_TRUE(t->codec().enabled);
  EXPECT_EQ(t->codec().cols[0].bits, 0u);
  EXPECT_EQ(t->codec().cols[1].bits, 0u);
  EXPECT_EQ(TableRows(t), before);
}

TEST(CompressionCodecTest, MaxWidthCharDictionaryRoundTrip) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("w_k", Type::Int32());
  schema.AddColumn("w_c", Type::Char(255));
  Table* t = catalog.CreateTable("wide", schema).value();
  Rng rng(9);
  for (int i = 0; i < 3000; ++i) {
    (void)t->AppendRow(
        {Value::Int32(static_cast<int32_t>(rng.NextBounded(100))),
         Value::Char(std::string(200, 'a' + i % 11), 255)});
  }
  ASSERT_TRUE(t->ComputeStats().ok());
  std::vector<std::string> before = TableRows(t);
  ASSERT_TRUE(t->Compress().ok());
  ASSERT_TRUE(t->codec().enabled);
  EXPECT_EQ(t->codec().cols[1].enc, ColEncoding::kDict);
  EXPECT_EQ(t->codec().cols[1].dict_entries, 11u);
  EXPECT_EQ(TableRows(t), before);
}

TEST(CompressionCodecTest, EmptyTableStaysUncompressed) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn("e_k", Type::Int32());
  Table* t = catalog.CreateTable("empty", schema).value();
  ASSERT_TRUE(t->ComputeStats().ok());
  EXPECT_TRUE(t->Compress().ok());  // a clean no-op, not an error
  EXPECT_FALSE(t->codec().enabled);
  EXPECT_EQ(t->NumTuples(), 0u);
}

TEST(CompressionCodecTest, HighEntropyTableDeclined) {
  // Full-domain unsorted ints and doubles in a pad-free schema: no encoding
  // beats raw width and column-major packing recovers no alignment slack, so
  // the chooser must decline (enabled == false) rather than pay decode cost
  // for nothing. (A padded schema — e.g. int32 + double — WOULD be accepted
  // even all-raw, because column-major layout drops the row padding.)
  Catalog catalog;
  Schema schema;
  schema.AddColumn("h_k", Type::Int64());
  schema.AddColumn("h_d", Type::Double());
  Table* t = catalog.CreateTable("entropy", schema).value();
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    (void)t->AppendRow(
        {Value::Int64(static_cast<int64_t>(rng.Next())),  // full 64-bit range
         Value::Double(static_cast<double>(rng.Next()))});
  }
  ASSERT_TRUE(t->ComputeStats().ok());
  std::vector<std::string> before = TableRows(t);
  EXPECT_TRUE(t->Compress().ok());
  EXPECT_FALSE(t->codec().enabled);
  EXPECT_EQ(TableRows(t), before);
}

TEST(CompressionCodecTest, SortedColumnWithHugeStepIsNotDeltaEncoded) {
  // A sorted int64 column with one step wider than INT64_MAX: no packed
  // delta width can hold that step, so the chooser must not pick kDelta,
  // and the rows must round-trip byte-exactly.
  Catalog catalog;
  Schema schema;
  schema.AddColumn("j_k", Type::Int64());
  schema.AddColumn("j_v", Type::Int32());
  Table* t = catalog.CreateTable("jump", schema).value();
  const int64_t base = -5000000000000000000;
  for (int i = 0; i < 2000; ++i) {
    const int64_t k = (i < 1000 ? base : -base) + i;
    (void)t->AppendRow({Value::Int64(k), Value::Int32(i % 10)});
  }
  ASSERT_TRUE(t->ComputeStats().ok());
  EXPECT_TRUE(t->stats().columns[0].sorted_asc);
  std::vector<std::string> before = TableRows(t);
  ASSERT_TRUE(t->Compress().ok());
  if (t->codec().enabled) {
    EXPECT_NE(t->codec().cols[0].enc, ColEncoding::kDelta);
  }
  EXPECT_EQ(TableRows(t), before);
}

TEST(CompressionCodecTest, AppendDecompressesTransparently) {
  // Writes to a compressed table decompress it first (like dropping an
  // index on write): appends must never fail or corrupt existing rows.
  Catalog catalog;
  Table* t = MakeMixedTable(&catalog, "app", 2000, 5);
  std::vector<std::string> before = TableRows(t);
  ASSERT_TRUE(t->Compress().ok());
  ASSERT_TRUE(t->codec().enabled);
  ASSERT_TRUE(t->AppendRow({Value::Int64(1 << 30), Value::Int32(1),
                            Value::Date(9001), Value::Char("new", 16),
                            Value::Double(0.5)})
                  .ok());
  EXPECT_FALSE(t->codec().enabled);  // auto-decompressed
  std::vector<std::string> after = TableRows(t);
  ASSERT_EQ(after.size(), before.size() + 1);
  for (size_t i = 0; i < before.size(); ++i) EXPECT_EQ(after[i], before[i]);
}

// ---- hostile / corrupt page bytes ------------------------------------------

class CorruptPageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeMixedTable(&catalog_, "corr", 3000, 17);
    ASSERT_TRUE(table_->Compress().ok());
    ASSERT_TRUE(table_->codec().enabled);
    auto pinned = table_->Pin();
    ASSERT_TRUE(pinned.ok());
    ASSERT_FALSE(pinned.value().pages().empty());
    std::memcpy(&page_, pinned.value().pages()[0], sizeof(Page));
  }

  Status Decode(const Page& page) {
    std::vector<uint8_t> out;
    const auto layout = table_->layout();
    return DecodePage(layout->codec, table_->schema(), page, layout->dicts,
                      &out);
  }

  Catalog catalog_;
  Table* table_ = nullptr;
  Page page_;  // pristine compressed page copy
};

TEST_F(CorruptPageTest, ValidPageDecodes) {
  EXPECT_TRUE(Decode(page_).ok());
}

TEST_F(CorruptPageTest, MissingMagicRejected) {
  Page p;
  std::memcpy(&p, &page_, sizeof(Page));
  p.reserved = 0;  // an NSM page handed to the decoder
  EXPECT_FALSE(Decode(p).ok());
}

TEST_F(CorruptPageTest, OversizedTupleCountRejected) {
  Page p;
  std::memcpy(&p, &page_, sizeof(Page));
  p.num_tuples = table_->codec().tuples_per_cpage + 1000;
  EXPECT_FALSE(Decode(p).ok());  // would read past every segment
}

TEST_F(CorruptPageTest, HostileBitsRejectedByDictionaryBounds) {
  // All-ones payload: FOR/delta decode any bit pattern, but the dictionary
  // column's codes (7 entries, 3-bit codes, mask 7) must be bounds-checked
  // — code 7 >= dict_entries fails the decode instead of reading out of
  // the dictionary blob.
  Page p;
  std::memcpy(&p, &page_, sizeof(Page));
  std::memset(p.data, 0xFF, sizeof(p.data));
  EXPECT_FALSE(Decode(p).ok());
}

// ---- engine-level bit-identity ---------------------------------------------

class CompressedExecTest : public ::testing::Test {
 public:
  /// Two identically seeded catalogs: the compressing engine rewrites its
  /// tables in place, so the uncompressed baseline needs its own copy.
  static void LoadCatalog(Catalog* c) {
    tpch::TpchOptions opts;
    opts.scale_factor = 0.005;
    HQ_CHECK(tpch::LoadTpch(c, opts).ok());
    testing::MakeIntTable(c, "pr", 20000, 50, 7);
    testing::MakeIntTable(c, "ps", 30000, 50, 8);
    testing::MakeIntTable(c, "podd", 12345, 50, 11);
    testing::MakeIntTable(c, "pempty", 0, 50, 3);
  }

  static EngineOptions Options(uint32_t threads, bool compression) {
    EngineOptions o;
    o.threads = threads;
    o.compression = compression;
    o.compile.opt_level = 0;
    return o;
  }

  static std::vector<std::string> Queries() {
    return {
        tpch::Query1Sql(),  // map aggregation over compressed lineitem
        tpch::Query6Sql(),  // fused filter + scalar aggregate
        // Selective & non-selective predicates: batched bitmap path and the
        // scalar fallback, both over decoded blocks.
        "select count(*) as c from pr where pr_v < 10",
        "select count(*) as c, sum(pr_d) as sd from pr where pr_v >= 0",
        // CHAR dictionary column in filter and group key.
        "select pr_pad, count(*) as c from pr where pr_pad = 'p1' "
        "group by pr_pad",
        // Join: compressed base tables staged, then joined.
        "select count(*) as c, sum(ps_d) as sd from pr, ps "
        "where pr_k = ps_k and pr_v < 200",
        // Decode-block tail (12345 % 64 != 0) and an empty input.
        "select count(*) as c, sum(podd_d) as sd from podd "
        "where podd_v < 500",
        "select count(*) as c from pempty where pempty_v < 10",
        // ORDER BY over a compressed scan.
        "select pr_k, count(*) as c from pr where pr_v < 300 "
        "group by pr_k order by pr_k",
    };
  }
};

TEST_F(CompressedExecTest, BitIdenticalAcrossThreadsAndSimdLevels) {
  const char* saved = std::getenv("HQ_SIMD");
  std::string saved_value = saved != nullptr ? saved : "";

  Catalog plain_catalog;
  LoadCatalog(&plain_catalog);
  std::vector<std::string> queries = Queries();

  // Uncompressed serial scalar baseline.
  ::setenv("HQ_SIMD", "off", 1);
  std::vector<std::vector<std::string>> baseline_rows;
  std::vector<exec::ExecStats> baseline_stats;
  {
    HiqueEngine base(&plain_catalog, Options(1, /*compression=*/false));
    for (const auto& sql : queries) {
      auto r = base.Query(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      baseline_rows.push_back(ResultTuples(r.value()));
      baseline_stats.push_back(r.value().exec_stats);
    }
  }

  Catalog comp_catalog;
  LoadCatalog(&comp_catalog);
  bool compressed_any = false;
  for (const char* simd : {"off", "on"}) {
    ::setenv("HQ_SIMD", simd, 1);
    for (uint32_t threads : {1u, 2u, 8u}) {
      HiqueEngine engine(&comp_catalog, Options(threads, /*compression=*/true));
      compressed_any =
          compressed_any ||
          comp_catalog.GetTable("lineitem").value()->codec().enabled;
      for (size_t q = 0; q < queries.size(); ++q) {
        auto r = engine.Query(queries[q]);
        ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
        // Bit-identical rows in the same order, including double
        // aggregates: the decode kernels feed the same values in the same
        // sequence as the NSM scan did.
        EXPECT_EQ(ResultTuples(r.value()), baseline_rows[q])
            << "simd=" << simd << " threads=" << threads
            << " query: " << queries[q];
        EXPECT_EQ(r.value().exec_stats.tuples_emitted,
                  baseline_stats[q].tuples_emitted)
            << "simd=" << simd << " threads=" << threads
            << " query: " << queries[q];
      }
    }
  }
  EXPECT_TRUE(compressed_any) << "test never exercised a compressed table";

  if (saved != nullptr) {
    ::setenv("HQ_SIMD", saved_value.c_str(), 1);
  } else {
    ::unsetenv("HQ_SIMD");
  }
}

TEST_F(CompressedExecTest, UnaffectedPlansKeepSourceAndSignature) {
  // A table the codec declines (full-range ints + doubles) must plan,
  // sign and generate *byte-identically* whether the engine compresses or
  // not — the feature leaves unaffected queries untouched.
  Catalog catalog;
  Schema schema;
  schema.AddColumn("u_k", Type::Int64());
  schema.AddColumn("u_d", Type::Double());
  Table* t = catalog.CreateTable("uc", schema).value();
  Rng rng(23);
  for (int i = 0; i < 5000; ++i) {
    (void)t->AppendRow(
        {Value::Int64(static_cast<int64_t>(rng.Next())),
         Value::Double(static_cast<double>(rng.Next()))});
  }
  ASSERT_TRUE(t->ComputeStats().ok());

  EngineOptions off_opts = Options(1, /*compression=*/false);
  off_opts.keep_source = true;
  EngineOptions on_opts = Options(1, /*compression=*/true);
  on_opts.keep_source = true;
  HiqueEngine off(&catalog, off_opts);
  HiqueEngine on(&catalog, on_opts);
  ASSERT_FALSE(t->codec().enabled);  // chooser declined

  const std::string sql =
      "select count(*) as c, sum(u_d) as sd from uc where u_k >= 0";
  auto a = off.Query(sql);
  auto b = on.Query(sql);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value().plan_signature, b.value().plan_signature);
  EXPECT_EQ(a.value().generated_source, b.value().generated_source);
}

TEST_F(CompressedExecTest, CompressedPlansSignDistinctly) {
  // Compressed scans bake decode constants into the generated code, so the
  // plan signature must distinguish them (",enc=") — otherwise a cached
  // NSM library would run against compressed pages.
  // Pin the env knob off so the compression=false engine stays NSM even
  // when the suite runs in a HQ_COMPRESS=1 CI leg.
  const char* saved = std::getenv("HQ_COMPRESS");
  std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("HQ_COMPRESS", "0", 1);
  Catalog catalog;
  MakeMixedTable(&catalog, "sig", 5000, 31);
  EngineOptions off_opts = Options(1, /*compression=*/false);
  EngineOptions on_opts = Options(1, /*compression=*/true);
  HiqueEngine off(&catalog, off_opts);
  std::string sql = "select count(*) as c from sig where sig_v < 100";
  auto a = off.Query(sql);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  HiqueEngine on(&catalog, on_opts);  // compresses "sig" at construction
  auto b = on.Query(sql);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NE(a.value().plan_signature, b.value().plan_signature);
  EXPECT_NE(b.value().plan_signature.find("enc="), std::string::npos);
  EXPECT_EQ(ResultTuples(a.value()), ResultTuples(b.value()));
  if (saved != nullptr) {
    ::setenv("HQ_COMPRESS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("HQ_COMPRESS");
  }
}

TEST_F(CompressedExecTest, EnvKnobEnablesCompression) {
  const char* saved = std::getenv("HQ_COMPRESS");
  std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("HQ_COMPRESS", "1", 1);
  Catalog catalog;
  MakeMixedTable(&catalog, "envt", 5000, 13);
  HiqueEngine engine(&catalog, Options(1, /*compression=*/false));
  EXPECT_TRUE(engine.options().compression);
  EXPECT_TRUE(catalog.GetTable("envt").value()->codec().enabled);
  if (saved != nullptr) {
    ::setenv("HQ_COMPRESS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("HQ_COMPRESS");
  }
}

}  // namespace
}  // namespace hique
