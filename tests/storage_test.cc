#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "storage/catalog.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "tpch/tpch.h"

namespace hique {
namespace {

TEST(TypesTest, ByteSizes) {
  EXPECT_EQ(Type::Int32().ByteSize(), 4u);
  EXPECT_EQ(Type::Int64().ByteSize(), 8u);
  EXPECT_EQ(Type::Double().ByteSize(), 8u);
  EXPECT_EQ(Type::Date().ByteSize(), 4u);
  EXPECT_EQ(Type::Char(13).ByteSize(), 13u);
}

struct DateCase {
  int y, m, d;
  const char* text;
};

class DateTest : public ::testing::TestWithParam<DateCase> {};

TEST_P(DateTest, RoundTrip) {
  const DateCase& c = GetParam();
  int32_t days = DateToDays(c.y, c.m, c.d);
  int y, m, d;
  DaysToDate(days, &y, &m, &d);
  EXPECT_EQ(y, c.y);
  EXPECT_EQ(m, c.m);
  EXPECT_EQ(d, c.d);
  EXPECT_EQ(FormatDate(days), c.text);
}

INSTANTIATE_TEST_SUITE_P(
    Dates, DateTest,
    ::testing::Values(DateCase{1970, 1, 1, "1970-01-01"},
                      DateCase{1992, 1, 1, "1992-01-01"},
                      DateCase{1995, 3, 15, "1995-03-15"},
                      DateCase{1998, 9, 2, "1998-09-02"},
                      DateCase{2000, 2, 29, "2000-02-29"},
                      DateCase{1900, 12, 31, "1900-12-31"},
                      DateCase{2038, 6, 10, "2038-06-10"}));

TEST(DateTest, OrderingMatchesCalendar) {
  EXPECT_LT(DateToDays(1995, 3, 14), DateToDays(1995, 3, 15));
  EXPECT_LT(DateToDays(1994, 12, 31), DateToDays(1995, 1, 1));
}

TEST(ValueTest, CompareNumeric) {
  EXPECT_LT(Value::Int32(1).Compare(Value::Int32(2)), 0);
  EXPECT_EQ(Value::Int64(5).Compare(Value::Int64(5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Double(1.5)), 0);
}

TEST(ValueTest, CharPaddedCompare) {
  Value a = Value::Char("ab", 4);
  Value b = Value::Char("ab  ", 4);
  EXPECT_EQ(a.Compare(b), 0);
  EXPECT_EQ(a.ToString(), "ab");  // display trims padding
}

TEST(SchemaTest, PackedAlignedOffsets) {
  Schema s;
  s.AddColumn("a", Type::Int32());   // offset 0
  s.AddColumn("b", Type::Int32());   // offset 4 (packed, no 8-padding)
  s.AddColumn("c", Type::Double());  // offset 8 (8-aligned)
  s.AddColumn("d", Type::Char(3));   // offset 16
  s.AddColumn("e", Type::Int32());   // offset 20 (4-aligned after char)
  EXPECT_EQ(s.OffsetAt(0), 0u);
  EXPECT_EQ(s.OffsetAt(1), 4u);
  EXPECT_EQ(s.OffsetAt(2), 8u);
  EXPECT_EQ(s.OffsetAt(3), 16u);
  EXPECT_EQ(s.OffsetAt(4), 20u);
  EXPECT_EQ(s.TupleSize(), 24u);  // padded to 8
}

TEST(SchemaTest, MicrobenchTupleIs72Bytes) {
  Schema s;
  s.AddColumn("k", Type::Int32());
  s.AddColumn("v", Type::Int32());
  s.AddColumn("a", Type::Double());
  s.AddColumn("b", Type::Double());
  s.AddColumn("pad", Type::Char(48));
  EXPECT_EQ(s.TupleSize(), 72u);  // the paper's 72-byte tuples
}

TEST(SchemaTest, ValueRoundTripAllTypes) {
  Schema s;
  s.AddColumn("i", Type::Int32());
  s.AddColumn("l", Type::Int64());
  s.AddColumn("f", Type::Double());
  s.AddColumn("d", Type::Date());
  s.AddColumn("c", Type::Char(6));
  std::vector<uint8_t> tuple(s.TupleSize(), 0);
  s.SetValue(tuple.data(), 0, Value::Int32(-7));
  s.SetValue(tuple.data(), 1, Value::Int64(1ll << 40));
  s.SetValue(tuple.data(), 2, Value::Double(3.25));
  s.SetValue(tuple.data(), 3, Value::Date(DateToDays(1996, 6, 6)));
  s.SetValue(tuple.data(), 4, Value::Char("abc", 6));
  EXPECT_EQ(s.GetValue(tuple.data(), 0).AsInt32(), -7);
  EXPECT_EQ(s.GetValue(tuple.data(), 1).AsInt64(), 1ll << 40);
  EXPECT_DOUBLE_EQ(s.GetValue(tuple.data(), 2).AsDouble(), 3.25);
  EXPECT_EQ(s.GetValue(tuple.data(), 3).ToString(), "1996-06-06");
  EXPECT_EQ(s.GetValue(tuple.data(), 4).ToString(), "abc");
}

TEST(PageTest, Geometry) {
  EXPECT_EQ(sizeof(Page), 4096u);
  EXPECT_EQ(Page::TuplesPerPage(72), (4096u - 8u) / 72u);
}

class TableTest : public ::testing::TestWithParam<int> {};

TEST_P(TableTest, AppendScanCountsAcrossPageBoundaries) {
  int rows = GetParam();
  Schema s;
  s.AddColumn("x", Type::Int32());
  s.AddColumn("y", Type::Double());
  Table t("t", s);
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value::Int32(i), Value::Double(i * 0.5)}).ok());
  }
  EXPECT_EQ(t.NumTuples(), static_cast<uint64_t>(rows));
  int64_t sum = 0;
  int count = 0;
  ASSERT_TRUE(t.ForEachTuple([&](const uint8_t* tuple) {
                 sum += s.GetValue(tuple, 0).AsInt32();
                 ++count;
               })
                  .ok());
  EXPECT_EQ(count, rows);
  EXPECT_EQ(sum, static_cast<int64_t>(rows) * (rows - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TableTest,
                         ::testing::Values(0, 1, 254, 255, 256, 1000, 5000));

TEST(TableTest, StatsMinMaxDistinct) {
  Schema s;
  s.AddColumn("k", Type::Int32());
  Table t("t", s);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int32(i % 10)}).ok());
  }
  ASSERT_TRUE(t.ComputeStats().ok());
  const ColumnStats cs = t.stats().columns[0];
  EXPECT_EQ(cs.min.AsInt32(), 0);
  EXPECT_EQ(cs.max.AsInt32(), 9);
  EXPECT_EQ(cs.distinct, 10u);
  EXPECT_TRUE(cs.distinct_exact);
}

TEST(TableTest, StatsCharColumn) {
  Schema s;
  s.AddColumn("c", Type::Char(4));
  Table t("t", s);
  for (const char* v : {"aa", "bb", "aa", "cc"}) {
    ASSERT_TRUE(t.AppendRow({Value::Char(v, 4)}).ok());
  }
  ASSERT_TRUE(t.ComputeStats().ok());
  EXPECT_EQ(t.stats().columns[0].distinct, 3u);
  EXPECT_EQ(t.stats().columns[0].min.ToString(), "aa");
  EXPECT_EQ(t.stats().columns[0].max.ToString(), "cc");
}

/// ComputeStats as the definition reads: every value boxed, distinct values
/// in an ordered set, min/max its ends, sortedness by walking scan order.
TableStats NaiveStats(Table* t) {
  const Schema& s = t->schema();
  const size_t n = s.NumColumns();
  std::vector<std::set<Value>> values(n);
  std::vector<int64_t> prev(n, 0), max_step(n, 0);
  std::vector<bool> sorted(n, true);
  uint64_t rows = 0;
  Status scanned = t->ForEachTuple([&](const uint8_t* tuple) {
    for (size_t c = 0; c < n; ++c) {
      Value v = s.GetValue(tuple, c);
      values[c].insert(v);
      if (v.type_id() == TypeId::kDouble || v.type_id() == TypeId::kChar) {
        continue;
      }
      const int64_t iv = v.AsInt64();
      if (rows > 0 && iv < prev[c]) sorted[c] = false;
      if (rows > 0 && iv >= prev[c]) {
        max_step[c] = std::max(max_step[c], iv - prev[c]);
      }
      prev[c] = iv;
    }
    ++rows;
  });
  EXPECT_TRUE(scanned.ok()) << scanned.ToString();
  TableStats ref;
  ref.rows = rows;
  ref.valid = true;
  ref.columns.resize(n);
  for (size_t c = 0; c < n; ++c) {
    ColumnStats& cs = ref.columns[c];
    const TypeId id = s.ColumnAt(c).type.id;
    cs.valid = rows > 0;
    if (cs.valid) {
      cs.min = *values[c].begin();
      cs.max = *values[c].rbegin();
    }
    cs.distinct = values[c].size();
    cs.distinct_exact = true;
    cs.sorted_asc = rows > 0 && sorted[c] && id != TypeId::kDouble &&
                    id != TypeId::kChar;
    cs.max_step = cs.sorted_asc ? max_step[c] : 0;
  }
  return ref;
}

void ExpectStatsEqual(const Table& t, const TableStats& got,
                      const TableStats& want) {
  EXPECT_TRUE(got.valid);
  EXPECT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (size_t c = 0; c < want.columns.size(); ++c) {
    SCOPED_TRACE(t.schema().ColumnAt(c).name);
    const ColumnStats& g = got.columns[c];
    const ColumnStats& w = want.columns[c];
    ASSERT_EQ(g.valid, w.valid);
    if (w.valid) {
      ASSERT_EQ(g.min.type_id(), w.min.type_id());
      EXPECT_EQ(g.min.Compare(w.min), 0) << g.min.ToString();
      EXPECT_EQ(g.min.AsString(), w.min.AsString());
      ASSERT_EQ(g.max.type_id(), w.max.type_id());
      EXPECT_EQ(g.max.Compare(w.max), 0) << g.max.ToString();
      EXPECT_EQ(g.max.AsString(), w.max.AsString());
    }
    EXPECT_EQ(g.distinct, w.distinct);
    EXPECT_EQ(g.distinct_exact, w.distinct_exact);
    EXPECT_EQ(g.sorted_asc, w.sorted_asc);
    EXPECT_EQ(g.max_step, w.max_step);
  }
}

// Every ColumnStats field of every TPC-H table at SF 0.01 matches the naive
// reference, over plain pages and again over compressed ones (where the
// scan decodes each page into a reused buffer).
TEST(TableTest, StatsMatchNaiveReferenceOnTpch) {
  Catalog catalog;
  tpch::TpchOptions options;
  options.scale_factor = 0.01;
  ASSERT_TRUE(tpch::LoadTpch(&catalog, options).ok());
  ASSERT_EQ(catalog.TableNames().size(), 8u);
  int compressed = 0;
  for (const std::string& name : catalog.TableNames()) {
    SCOPED_TRACE(name);
    Table* t = catalog.GetTable(name).value();
    const TableStats want = NaiveStats(t);
    ExpectStatsEqual(*t, t->stats(), want);
    ASSERT_TRUE(t->Compress().ok());
    if (t->layout()->codec.enabled) ++compressed;
    ASSERT_TRUE(t->ComputeStats().ok());
    ExpectStatsEqual(*t, t->stats(), want);
  }
  EXPECT_GT(compressed, 0);
}

TEST(TableTest, RejectsRowArityAndTypeMismatch) {
  Schema s;
  s.AddColumn("x", Type::Int32());
  Table t("t", s);
  EXPECT_FALSE(t.AppendRow({}).ok());
  EXPECT_FALSE(t.AppendRow({Value::Double(1.0)}).ok());
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog c;
  Schema s;
  s.AddColumn("x", Type::Int32());
  ASSERT_TRUE(c.CreateTable("t", s).ok());
  EXPECT_TRUE(c.HasTable("t"));
  EXPECT_FALSE(c.CreateTable("t", s).ok());  // duplicate
  EXPECT_TRUE(c.GetTable("t").ok());
  EXPECT_FALSE(c.GetTable("missing").ok());
  EXPECT_TRUE(c.DropTable("t").ok());
  EXPECT_FALSE(c.HasTable("t"));
  EXPECT_FALSE(c.DropTable("t").ok());
}

}  // namespace
}  // namespace hique
