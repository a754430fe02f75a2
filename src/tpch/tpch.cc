#include "tpch/tpch.h"

#include <cstdio>
#include <cstring>

#include "util/rng.h"

namespace hique::tpch {
namespace {

constexpr int32_t kStartDate = 8035;   // 1992-01-01
constexpr int32_t kEndDate = 10442;    // 1998-08-02
constexpr int32_t kCurrentDate = 9298; // 1995-06-17 (returnflag boundary)

const char* const kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                 "MACHINERY", "HOUSEHOLD"};
const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                   "4-NOT SPECIFIED", "5-LOW"};
const char* const kInstructs[] = {"DELIVER IN PERSON", "COLLECT COD",
                                  "NONE", "TAKE BACK RETURN"};
const char* const kModes[] = {"REG AIR", "AIR", "RAIL", "SHIP",
                              "TRUCK", "MAIL", "FOB"};
const char* const kNations[] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const int kNationRegion[] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                             4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* const kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                "MIDDLE EAST"};
const char* const kWords[] = {
    "furiously", "quickly",  "carefully", "silent",  "ironic",   "final",
    "pending",   "express",  "regular",   "special", "blithely", "even",
    "bold",      "packages", "deposits",  "requests", "accounts", "theodolites",
    "instructions", "foxes", "pinto",     "beans",   "dependencies", "platelets"};

/// Fills a CHAR(n) column slot with space-padded pseudo-text.
void FillText(uint8_t* dst, uint16_t width, Rng* rng) {
  uint16_t pos = 0;
  while (pos < width) {
    const char* w = kWords[rng->NextBounded(sizeof(kWords) / sizeof(char*))];
    size_t len = std::strlen(w);
    if (pos + len >= width) break;
    std::memcpy(dst + pos, w, len);
    pos += static_cast<uint16_t>(len);
    if (pos < width) dst[pos++] = ' ';
  }
  while (pos < width) dst[pos++] = ' ';
}

void FillString(uint8_t* dst, uint16_t width, const std::string& s) {
  size_t n = s.size() < width ? s.size() : width;
  std::memcpy(dst, s.data(), n);
  if (n < width) std::memset(dst + n, ' ', width - n);
}

struct FieldWriter {
  const Schema& schema;
  uint8_t* tuple;
  void I32(int col, int32_t v) {
    std::memcpy(tuple + schema.OffsetAt(col), &v, 4);
  }
  void F64(int col, double v) {
    std::memcpy(tuple + schema.OffsetAt(col), &v, 8);
  }
  void Str(int col, const std::string& s) {
    FillString(tuple + schema.OffsetAt(col),
               schema.ColumnAt(col).type.length, s);
  }
  void Text(int col, Rng* rng) {
    FillText(tuple + schema.OffsetAt(col), schema.ColumnAt(col).type.length,
             rng);
  }
};

Schema RegionSchema() {
  return Schema({{"r_regionkey", Type::Int32()},
                 {"r_name", Type::Char(25)},
                 {"r_comment", Type::Char(152)}});
}
Schema NationSchema() {
  return Schema({{"n_nationkey", Type::Int32()},
                 {"n_name", Type::Char(25)},
                 {"n_regionkey", Type::Int32()},
                 {"n_comment", Type::Char(152)}});
}
Schema SupplierSchema() {
  return Schema({{"s_suppkey", Type::Int32()},
                 {"s_name", Type::Char(25)},
                 {"s_address", Type::Char(40)},
                 {"s_nationkey", Type::Int32()},
                 {"s_phone", Type::Char(15)},
                 {"s_acctbal", Type::Double()},
                 {"s_comment", Type::Char(101)}});
}
Schema CustomerSchema() {
  return Schema({{"c_custkey", Type::Int32()},
                 {"c_name", Type::Char(25)},
                 {"c_address", Type::Char(40)},
                 {"c_nationkey", Type::Int32()},
                 {"c_phone", Type::Char(15)},
                 {"c_acctbal", Type::Double()},
                 {"c_mktsegment", Type::Char(10)},
                 {"c_comment", Type::Char(117)}});
}
Schema PartSchema() {
  return Schema({{"p_partkey", Type::Int32()},
                 {"p_name", Type::Char(55)},
                 {"p_mfgr", Type::Char(25)},
                 {"p_brand", Type::Char(10)},
                 {"p_type", Type::Char(25)},
                 {"p_size", Type::Int32()},
                 {"p_container", Type::Char(10)},
                 {"p_retailprice", Type::Double()},
                 {"p_comment", Type::Char(23)}});
}
Schema PartsuppSchema() {
  return Schema({{"ps_partkey", Type::Int32()},
                 {"ps_suppkey", Type::Int32()},
                 {"ps_availqty", Type::Int32()},
                 {"ps_supplycost", Type::Double()},
                 {"ps_comment", Type::Char(199)}});
}
Schema OrdersSchema() {
  return Schema({{"o_orderkey", Type::Int32()},
                 {"o_custkey", Type::Int32()},
                 {"o_orderstatus", Type::Char(1)},
                 {"o_totalprice", Type::Double()},
                 {"o_orderdate", Type::Date()},
                 {"o_orderpriority", Type::Char(15)},
                 {"o_clerk", Type::Char(15)},
                 {"o_shippriority", Type::Int32()},
                 {"o_comment", Type::Char(79)}});
}
Schema LineitemSchema() {
  return Schema({{"l_orderkey", Type::Int32()},
                 {"l_partkey", Type::Int32()},
                 {"l_suppkey", Type::Int32()},
                 {"l_linenumber", Type::Int32()},
                 {"l_quantity", Type::Double()},
                 {"l_extendedprice", Type::Double()},
                 {"l_discount", Type::Double()},
                 {"l_tax", Type::Double()},
                 {"l_returnflag", Type::Char(1)},
                 {"l_linestatus", Type::Char(1)},
                 {"l_shipdate", Type::Date()},
                 {"l_commitdate", Type::Date()},
                 {"l_receiptdate", Type::Date()},
                 {"l_shipinstruct", Type::Char(25)},
                 {"l_shipmode", Type::Char(10)},
                 {"l_comment", Type::Char(44)}});
}

uint64_t Scaled(uint64_t base, double sf) {
  uint64_t v = static_cast<uint64_t>(base * sf);
  return v == 0 ? 1 : v;
}

}  // namespace

uint64_t TableCardinality(const std::string& table, double sf) {
  if (table == "region") return 5;
  if (table == "nation") return 25;
  if (table == "supplier") return Scaled(10000, sf);
  if (table == "customer") return Scaled(150000, sf);
  if (table == "part") return Scaled(200000, sf);
  if (table == "partsupp") return Scaled(800000, sf);
  if (table == "orders") return Scaled(1500000, sf);
  if (table == "lineitem") return Scaled(6000000, sf);  // approximate
  return 0;
}

Status LoadTpch(Catalog* catalog, const TpchOptions& options) {
  const double sf = options.scale_factor;
  Rng rng(options.seed);

  // region / nation -------------------------------------------------------
  {
    HQ_ASSIGN_OR_RETURN(Table * region,
                        catalog->CreateTable("region", RegionSchema()));
    for (int r = 0; r < 5; ++r) {
      HQ_ASSIGN_OR_RETURN(uint8_t * tup, region->AppendTupleSlot());
      std::memset(tup, 0, region->tuple_size());
      FieldWriter w{region->schema(), tup};
      w.I32(0, r);
      w.Str(1, kRegions[r]);
      w.Text(2, &rng);
    }
    HQ_ASSIGN_OR_RETURN(Table * nation,
                        catalog->CreateTable("nation", NationSchema()));
    for (int n = 0; n < 25; ++n) {
      HQ_ASSIGN_OR_RETURN(uint8_t * tup, nation->AppendTupleSlot());
      std::memset(tup, 0, nation->tuple_size());
      FieldWriter w{nation->schema(), tup};
      w.I32(0, n);
      w.Str(1, kNations[n]);
      w.I32(2, kNationRegion[n]);
      w.Text(3, &rng);
    }
  }

  // supplier ---------------------------------------------------------------
  {
    HQ_ASSIGN_OR_RETURN(Table * supplier,
                        catalog->CreateTable("supplier", SupplierSchema()));
    uint64_t n = TableCardinality("supplier", sf);
    for (uint64_t i = 1; i <= n; ++i) {
      HQ_ASSIGN_OR_RETURN(uint8_t * tup, supplier->AppendTupleSlot());
      std::memset(tup, 0, supplier->tuple_size());
      FieldWriter w{supplier->schema(), tup};
      w.I32(0, static_cast<int32_t>(i));
      w.Str(1, "Supplier#" + std::to_string(i));
      w.Text(2, &rng);
      w.I32(3, static_cast<int32_t>(rng.NextBounded(25)));
      w.Str(4, std::to_string(10 + rng.NextBounded(25)) + "-" +
                   std::to_string(100 + rng.NextBounded(900)));
      w.F64(5, -999.99 + rng.NextDouble() * 10998.98);
      w.Text(6, &rng);
    }
  }

  // customer ---------------------------------------------------------------
  {
    HQ_ASSIGN_OR_RETURN(Table * customer,
                        catalog->CreateTable("customer", CustomerSchema()));
    uint64_t n = TableCardinality("customer", sf);
    for (uint64_t i = 1; i <= n; ++i) {
      HQ_ASSIGN_OR_RETURN(uint8_t * tup, customer->AppendTupleSlot());
      std::memset(tup, 0, customer->tuple_size());
      FieldWriter w{customer->schema(), tup};
      w.I32(0, static_cast<int32_t>(i));
      w.Str(1, "Customer#" + std::to_string(i));
      w.Text(2, &rng);
      int32_t nat = static_cast<int32_t>(rng.NextBounded(25));
      w.I32(3, nat);
      w.Str(4, std::to_string(10 + nat) + "-" +
                   std::to_string(100 + rng.NextBounded(900)));
      w.F64(5, -999.99 + rng.NextDouble() * 10998.98);
      w.Str(6, kSegments[rng.NextBounded(5)]);
      w.Text(7, &rng);
    }
  }

  // part / partsupp ---------------------------------------------------------
  {
    HQ_ASSIGN_OR_RETURN(Table * part,
                        catalog->CreateTable("part", PartSchema()));
    uint64_t n = TableCardinality("part", sf);
    for (uint64_t i = 1; i <= n; ++i) {
      HQ_ASSIGN_OR_RETURN(uint8_t * tup, part->AppendTupleSlot());
      std::memset(tup, 0, part->tuple_size());
      FieldWriter w{part->schema(), tup};
      w.I32(0, static_cast<int32_t>(i));
      w.Text(1, &rng);
      w.Str(2, "Manufacturer#" + std::to_string(1 + rng.NextBounded(5)));
      w.Str(3, "Brand#" + std::to_string(11 + rng.NextBounded(45)));
      w.Text(4, &rng);
      w.I32(5, static_cast<int32_t>(1 + rng.NextBounded(50)));
      w.Str(6, "SM BOX");
      w.F64(7, 900.0 + (static_cast<double>(i % 200000) / 10.0));
      w.Text(8, &rng);
    }
    HQ_ASSIGN_OR_RETURN(Table * partsupp,
                        catalog->CreateTable("partsupp", PartsuppSchema()));
    uint64_t suppliers = TableCardinality("supplier", sf);
    for (uint64_t i = 1; i <= n; ++i) {
      for (int s = 0; s < 4; ++s) {
        HQ_ASSIGN_OR_RETURN(uint8_t * tup, partsupp->AppendTupleSlot());
        std::memset(tup, 0, partsupp->tuple_size());
        FieldWriter w{partsupp->schema(), tup};
        w.I32(0, static_cast<int32_t>(i));
        w.I32(1, static_cast<int32_t>(1 + (i + s * (suppliers / 4 + 1)) %
                                              suppliers));
        w.I32(2, static_cast<int32_t>(1 + rng.NextBounded(9999)));
        w.F64(3, 1.0 + rng.NextDouble() * 999.0);
        w.Text(4, &rng);
      }
    }
  }

  // orders / lineitem -------------------------------------------------------
  {
    HQ_ASSIGN_OR_RETURN(Table * orders,
                        catalog->CreateTable("orders", OrdersSchema()));
    HQ_ASSIGN_OR_RETURN(Table * lineitem,
                        catalog->CreateTable("lineitem", LineitemSchema()));
    uint64_t norders = TableCardinality("orders", sf);
    uint64_t ncustomers = TableCardinality("customer", sf);
    uint64_t nparts = TableCardinality("part", sf);
    uint64_t nsuppliers = TableCardinality("supplier", sf);
    for (uint64_t o = 1; o <= norders; ++o) {
      int32_t orderdate = static_cast<int32_t>(
          kStartDate + rng.NextBounded(kEndDate - 151 - kStartDate));
      uint32_t nlines = 1 + static_cast<uint32_t>(rng.NextBounded(7));
      double totalprice = 0;
      char orderstatus = 'O';
      uint32_t f_count = 0;
      // lineitems first to derive order status / total price.
      for (uint32_t ln = 1; ln <= nlines; ++ln) {
        HQ_ASSIGN_OR_RETURN(uint8_t * tup, lineitem->AppendTupleSlot());
        std::memset(tup, 0, lineitem->tuple_size());
        FieldWriter w{lineitem->schema(), tup};
        double quantity = 1 + static_cast<double>(rng.NextBounded(50));
        uint64_t partkey = 1 + rng.NextBounded(nparts);
        double price =
            (900.0 + static_cast<double>(partkey % 200000) / 10.0) * quantity;
        double discount = static_cast<double>(rng.NextBounded(11)) / 100.0;
        double tax = static_cast<double>(rng.NextBounded(9)) / 100.0;
        int32_t shipdate =
            orderdate + 1 + static_cast<int32_t>(rng.NextBounded(121));
        int32_t commitdate =
            orderdate + 30 + static_cast<int32_t>(rng.NextBounded(61));
        int32_t receiptdate =
            shipdate + 1 + static_cast<int32_t>(rng.NextBounded(30));
        char returnflag;
        if (receiptdate <= kCurrentDate) {
          returnflag = rng.NextBounded(2) == 0 ? 'R' : 'A';
        } else {
          returnflag = 'N';
        }
        char linestatus = shipdate > kCurrentDate ? 'O' : 'F';
        if (linestatus == 'F') ++f_count;
        w.I32(0, static_cast<int32_t>(o));
        w.I32(1, static_cast<int32_t>(partkey));
        w.I32(2, static_cast<int32_t>(1 + rng.NextBounded(nsuppliers)));
        w.I32(3, static_cast<int32_t>(ln));
        w.F64(4, quantity);
        w.F64(5, price);
        w.F64(6, discount);
        w.F64(7, tax);
        w.Str(8, std::string(1, returnflag));
        w.Str(9, std::string(1, linestatus));
        w.I32(10, shipdate);
        w.I32(11, commitdate);
        w.I32(12, receiptdate);
        w.Str(13, kInstructs[rng.NextBounded(4)]);
        w.Str(14, kModes[rng.NextBounded(7)]);
        w.Text(15, &rng);
        totalprice += price * (1.0 - discount) * (1.0 + tax);
      }
      if (f_count == nlines) {
        orderstatus = 'F';
      } else if (f_count > 0) {
        orderstatus = 'P';
      }
      HQ_ASSIGN_OR_RETURN(uint8_t * tup, orders->AppendTupleSlot());
      std::memset(tup, 0, orders->tuple_size());
      FieldWriter w{orders->schema(), tup};
      w.I32(0, static_cast<int32_t>(o));
      w.I32(1, static_cast<int32_t>(1 + rng.NextBounded(ncustomers)));
      w.Str(2, std::string(1, orderstatus));
      w.F64(3, totalprice);
      w.I32(4, orderdate);
      w.Str(5, kPriorities[rng.NextBounded(5)]);
      w.Str(6, "Clerk#" + std::to_string(1 + rng.NextBounded(1000)));
      w.I32(7, 0);
      w.Text(8, &rng);
    }
  }

  if (options.compute_stats) {
    for (const std::string& name : catalog->TableNames()) {
      HQ_ASSIGN_OR_RETURN(Table * t, catalog->GetTable(name));
      HQ_RETURN_IF_ERROR(t->ComputeStats());
    }
  }
  return Status::OK();
}

std::string Query1Sql() {
  return "select l_returnflag, l_linestatus, "
         "sum(l_quantity) as sum_qty, "
         "sum(l_extendedprice) as sum_base_price, "
         "sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, "
         "sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as "
         "sum_charge, "
         "avg(l_quantity) as avg_qty, "
         "avg(l_extendedprice) as avg_price, "
         "avg(l_discount) as avg_disc, "
         "count(*) as count_order "
         "from lineitem "
         "where l_shipdate <= date '1998-09-02' "
         "group by l_returnflag, l_linestatus "
         "order by l_returnflag, l_linestatus";
}

std::string Query3Sql() {
  return "select l_orderkey, "
         "sum(l_extendedprice * (1 - l_discount)) as revenue, "
         "o_orderdate, o_shippriority "
         "from customer, orders, lineitem "
         "where c_mktsegment = 'BUILDING' "
         "and c_custkey = o_custkey "
         "and l_orderkey = o_orderkey "
         "and o_orderdate < date '1995-03-15' "
         "and l_shipdate > date '1995-03-15' "
         "group by l_orderkey, o_orderdate, o_shippriority "
         "order by revenue desc, o_orderdate "
         "limit 10";
}

std::string Query6Sql() {
  return "select sum(l_extendedprice * l_discount) as revenue "
         "from lineitem "
         "where l_shipdate >= date '1994-01-01' "
         "and l_shipdate < date '1995-01-01' "
         "and l_discount >= 0.05 and l_discount <= 0.07 "
         "and l_quantity < 24";
}

namespace {

// ---- Refresh streams (RF1 / RF2) ------------------------------------------

constexpr uint32_t kRowsPerInsert = 48;  // multi-row INSERT chunk size

std::string DateLiteral(int32_t days) {
  int y, m, d;
  DaysToDate(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return std::string("date '") + buf + "'";
}

/// Shortest representation that strtod round-trips to the same double, so
/// the engine's DML path and the reference executor both reconstruct the
/// generator's exact value.
std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string TextLiteral(Rng* rng, int max_words) {
  std::string s;
  int n = 1 + static_cast<int>(rng->NextBounded(max_words));
  for (int i = 0; i < n; ++i) {
    if (i > 0) s += ' ';
    s += kWords[rng->NextBounded(sizeof(kWords) / sizeof(char*))];
  }
  return s;
}

void FlushInsert(const std::string& table, std::vector<std::string>* rows,
                 std::vector<std::string>* out) {
  if (rows->empty()) return;
  std::string sql = "insert into " + table + " values ";
  for (size_t i = 0; i < rows->size(); ++i) {
    if (i > 0) sql += ", ";
    sql += (*rows)[i];
  }
  out->push_back(std::move(sql));
  rows->clear();
}

}  // namespace

RefreshBatch MakeRf1(double scale_factor, uint64_t seed, uint64_t stream) {
  RefreshBatch rf;
  const uint64_t norders = TableCardinality("orders", scale_factor);
  const uint64_t ncustomers = TableCardinality("customer", scale_factor);
  const uint64_t nparts = TableCardinality("part", scale_factor);
  const uint64_t nsuppliers = TableCardinality("supplier", scale_factor);
  const uint64_t batch = Scaled(1500, scale_factor);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + (stream + 1) * 0x2545f4914f6cdd1dull);

  std::vector<std::string> order_rows, line_rows;
  for (uint64_t i = 1; i <= batch; ++i) {
    const uint64_t okey = norders + stream * batch + i;
    const int32_t orderdate = static_cast<int32_t>(
        kStartDate + rng.NextBounded(kEndDate - 151 - kStartDate));
    const uint32_t nlines = 1 + static_cast<uint32_t>(rng.NextBounded(7));
    double totalprice = 0;
    for (uint32_t ln = 1; ln <= nlines; ++ln) {
      const double quantity = 1 + static_cast<double>(rng.NextBounded(50));
      const uint64_t partkey = 1 + rng.NextBounded(nparts);
      const double price =
          (900.0 + static_cast<double>(partkey % 200000) / 10.0) * quantity;
      const double discount = static_cast<double>(rng.NextBounded(11)) / 100.0;
      const double tax = static_cast<double>(rng.NextBounded(9)) / 100.0;
      const int32_t shipdate =
          orderdate + 1 + static_cast<int32_t>(rng.NextBounded(121));
      const int32_t commitdate =
          orderdate + 30 + static_cast<int32_t>(rng.NextBounded(61));
      const int32_t receiptdate =
          shipdate + 1 + static_cast<int32_t>(rng.NextBounded(30));
      const char returnflag =
          receiptdate <= kCurrentDate ? (rng.NextBounded(2) == 0 ? 'R' : 'A')
                                      : 'N';
      const char linestatus = shipdate > kCurrentDate ? 'O' : 'F';
      totalprice += price * (1.0 - discount) * (1.0 + tax);
      std::string row = "(";
      row += std::to_string(okey) + ", ";
      row += std::to_string(partkey) + ", ";
      row += std::to_string(1 + rng.NextBounded(nsuppliers)) + ", ";
      row += std::to_string(ln) + ", ";
      row += Num(quantity) + ", ";
      row += Num(price) + ", ";
      row += Num(discount) + ", ";
      row += Num(tax) + ", ";
      row += std::string("'") + returnflag + "', ";
      row += std::string("'") + linestatus + "', ";
      row += DateLiteral(shipdate) + ", ";
      row += DateLiteral(commitdate) + ", ";
      row += DateLiteral(receiptdate) + ", ";
      row += std::string("'") + kInstructs[rng.NextBounded(4)] + "', ";
      row += std::string("'") + kModes[rng.NextBounded(7)] + "', ";
      row += "'" + TextLiteral(&rng, 4) + "')";
      line_rows.push_back(std::move(row));
      if (line_rows.size() >= kRowsPerInsert) {
        FlushInsert("lineitem", &line_rows, &rf.statements);
      }
      ++rf.lineitems;
    }
    std::string row = "(";
    row += std::to_string(okey) + ", ";
    row += std::to_string(1 + rng.NextBounded(ncustomers)) + ", ";
    row += "'O', ";
    row += Num(totalprice) + ", ";
    row += DateLiteral(orderdate) + ", ";
    row += std::string("'") + kPriorities[rng.NextBounded(5)] + "', ";
    row += "'Clerk#" + std::to_string(1 + rng.NextBounded(1000)) + "', ";
    row += "0, ";
    row += "'" + TextLiteral(&rng, 6) + "')";
    order_rows.push_back(std::move(row));
    if (order_rows.size() >= kRowsPerInsert) {
      FlushInsert("orders", &order_rows, &rf.statements);
    }
    ++rf.orders;
  }
  FlushInsert("lineitem", &line_rows, &rf.statements);
  FlushInsert("orders", &order_rows, &rf.statements);
  return rf;
}

RefreshBatch MakeRf2(double scale_factor, uint64_t /*seed*/,
                     uint64_t stream) {
  RefreshBatch rf;
  const uint64_t batch = Scaled(1500, scale_factor);
  const uint64_t lo = stream * batch + 1;
  const uint64_t hi = lo + batch;  // exclusive
  rf.statements.push_back("delete from lineitem where l_orderkey >= " +
                          std::to_string(lo) + " and l_orderkey < " +
                          std::to_string(hi));
  rf.statements.push_back("delete from orders where o_orderkey >= " +
                          std::to_string(lo) + " and o_orderkey < " +
                          std::to_string(hi));
  rf.orders = batch;
  return rf;
}

std::string Query10Sql() {
  return "select c_custkey, c_name, "
         "sum(l_extendedprice * (1 - l_discount)) as revenue, "
         "c_acctbal, n_name, c_address, c_phone, c_comment "
         "from customer, orders, lineitem, nation "
         "where c_custkey = o_custkey "
         "and l_orderkey = o_orderkey "
         "and o_orderdate >= date '1993-10-01' "
         "and o_orderdate < date '1994-01-01' "
         "and l_returnflag = 'R' "
         "and c_nationkey = n_nationkey "
         "group by c_custkey, c_name, c_acctbal, c_phone, n_name, "
         "c_address, c_comment "
         "order by revenue desc "
         "limit 20";
}

}  // namespace hique::tpch
