// End-to-end wire-protocol coverage with an in-process hiqued server on an
// ephemeral port: concurrent remote clients must read rows bit-identical
// to in-process Session::Query at every thread count, a mid-stream client
// disconnect must cancel the server-side query long before completion
// (the stream buffer bounds how far the producer can run ahead), Cancel /
// Prepare / Execute / Close must round-trip, and protocol errors must be
// statement-terminal, not connection-terminal.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "tests/test_util.h"
#include "tpch/tpch.h"

namespace hique {
namespace {

std::vector<std::string> ResultTuples(const QueryResult& r) {
  std::vector<std::string> rows;
  if (!r.table) return rows;
  uint32_t sz = r.table->schema().TupleSize();
  (void)r.table->ForEachTuple([&](const uint8_t* tuple) {
    rows.emplace_back(reinterpret_cast<const char*>(tuple), sz);
  });
  return rows;
}

std::vector<std::string> RemoteTuples(net::RemoteResultSet* rs) {
  std::vector<std::string> rows;
  uint32_t sz = rs->schema().TupleSize();
  while (rs->Next()) {
    rows.emplace_back(reinterpret_cast<const char*>(rs->RowBytes()), sz);
  }
  return rows;
}

EngineOptions FastOptions(uint32_t threads) {
  EngineOptions o;
  o.threads = threads;
  o.compile.opt_level = 0;
  return o;
}

class NetServerTest : public ::testing::Test {
 public:
  /// Micro tables plus a small TPC-H load, shared across the suite.
  static Catalog& SharedCatalog() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      testing::MakeIntTable(c, "nr", 20000, 50, 31);
      testing::MakeIntTable(c, "ns", 30000, 50, 32);
      testing::MakeIntTable(c, "nbig", 150000, 1000, 33);
      tpch::TpchOptions tpch_options;
      tpch_options.scale_factor = 0.01;
      HQ_CHECK(tpch::LoadTpch(c, tpch_options).ok());
      return c;
    }();
    return *catalog;
  }

  /// TPC-H + micro queries every remote/local comparison runs.
  static std::vector<std::string> Queries() {
    return {
        // Scan + filter + projection (pure streaming path).
        "select nbig_k, nbig_v, nbig_d from nbig where nbig_v >= 700",
        // Hybrid join + grouped aggregation + order by.
        "select nr_k, count(*) as c, sum(ns_v) as sv from nr, ns "
        "where nr_k = ns_k group by nr_k order by nr_k",
        // Map aggregation with order by + limit.
        "select nbig_k, count(*) as c from nbig group by nbig_k "
        "order by c desc, nbig_k limit 13",
        // TPC-H Q6 (scan + conjunctive selection + scalar aggregation).
        tpch::Query6Sql(),
        // TPC-H Q1 (the paper's evaluation workhorse).
        tpch::Query1Sql(),
    };
  }

  /// A query whose result is far too large for any socket buffer (~12M
  /// join rows): mid-stream cancellation tests hang off this.
  static std::string HugeJoinSql() {
    return "select nr_k, ns_v from nr, ns where nr_k = ns_k";
  }
};

// Acceptance: N >= 4 concurrent remote clients over one hiqued instance
// read rows bit-identical to the in-process Session::Query bytes for the
// same SQL, at threads 1, 2 and 8.
TEST_F(NetServerTest, ConcurrentRemoteClientsBitIdenticalAcrossThreads) {
  Catalog& catalog = SharedCatalog();
  for (uint32_t threads : {1u, 2u, 8u}) {
    HiqueEngine engine(&catalog, FastOptions(threads));
    net::Server server(&engine);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_GT(server.port(), 0);

    std::vector<std::string> queries = Queries();
    std::vector<std::vector<std::string>> expected;
    Session local = engine.OpenSession({});
    for (const auto& sql : queries) {
      auto r = local.Query(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
      expected.push_back(ResultTuples(r.value()));
    }

    constexpr int kClients = 5;
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto connected = net::Client::Connect("127.0.0.1", server.port());
        if (!connected.ok()) {
          failures[c] = "connect: " + connected.status().ToString();
          return;
        }
        net::Client client = std::move(connected).value();
        for (size_t q = 0; q < queries.size(); ++q) {
          auto rs = client.Query(queries[q]);
          if (!rs.ok()) {
            failures[c] = queries[q] + ": " + rs.status().ToString();
            return;
          }
          net::RemoteResultSet cursor = std::move(rs).value();
          std::vector<std::string> rows = RemoteTuples(&cursor);
          if (!cursor.status().ok()) {
            failures[c] = queries[q] + ": " + cursor.status().ToString();
            return;
          }
          if (rows != expected[q]) {
            failures[c] = queries[q] + ": rows differ from local execution";
            return;
          }
          if (cursor.total_rows() != rows.size()) {
            failures[c] = queries[q] + ": ResultDone row count mismatch";
            return;
          }
        }
        auto stats = client.Close();
        if (!stats.ok()) {
          failures[c] = "close: " + stats.status().ToString();
        } else if (stats.value().streams_opened != queries.size()) {
          failures[c] = "CloseAck streams_opened mismatch";
        }
      });
    }
    for (auto& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(failures[c], "") << "threads=" << threads << " client " << c;
    }
    server.Stop();
  }
}

// Acceptance: killing the client socket mid-stream cancels the server-side
// query within one result page of the backpressure window — the server
// must stream only a small prefix of the ~23k-page result, and the engine
// must stay healthy.
TEST_F(NetServerTest, MidStreamDisconnectCancelsServerQuery) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  net::Server server(&engine);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  net::Client client = std::move(connected).value();
  auto rs = client.Query(HugeJoinSql());
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  net::RemoteResultSet cursor = std::move(rs).value();
  int rows = 0;
  while (rows < 500 && cursor.Next()) ++rows;
  ASSERT_EQ(rows, 500);
  client.Abort();  // hard socket close: no Cancel frame, no goodbye

  // The dead socket must cancel the server-side query promptly. Poll the
  // server stats rather than sleeping a fixed time.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  net::ServerStats stats;
  for (;;) {
    stats = server.stats();
    if (stats.queries_cancelled >= 1) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "server never observed the dead client";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // The producer is throttled by the bounded stream buffer, so the server
  // can only ever have pulled a small prefix of the ~23k result pages
  // before the disconnect cancelled the rest.
  EXPECT_LT(stats.pages_streamed, 2000u);
  EXPECT_EQ(stats.queries_finished, 0u);

  // Engine fully healthy afterwards.
  auto check = engine.Query(
      "select nr_k, count(*) as c from nr group by nr_k order by nr_k");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check.value().NumRows(), 50);
  server.Stop();
}

TEST_F(NetServerTest, RemoteCancelKeepsConnectionUsable) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  net::Server server(&engine);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Client client = std::move(connected).value();
  {
    auto rs = client.Query(HugeJoinSql());
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    net::RemoteResultSet cursor = std::move(rs).value();
    int rows = 0;
    while (rows < 100 && cursor.Next()) ++rows;
    ASSERT_EQ(rows, 100);
    cursor.Close();  // sends Cancel, drains to the terminal Error frame
    EXPECT_FALSE(cursor.status().ok());
  }
  // Statement cancellation is not connection death: the next query runs.
  Session local = engine.OpenSession({});
  auto expected = local.Query("select count(*) as c from nr");
  ASSERT_TRUE(expected.ok());
  auto rs = client.Query("select count(*) as c from nr");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  net::RemoteResultSet cursor = std::move(rs).value();
  EXPECT_EQ(RemoteTuples(&cursor), ResultTuples(expected.value()));
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  server.Stop();
}

TEST_F(NetServerTest, RemotePrepareExecuteMatchesLocal) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  net::Server server(&engine);
  ASSERT_TRUE(server.Start().ok());
  Session local = engine.OpenSession({});

  auto connected = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Client client = std::move(connected).value();

  const std::string sql =
      "select nr_k, count(*) as c from nr where nr_v >= ? "
      "group by nr_k order by nr_k";
  auto remote_stmt = client.Prepare(sql);
  ASSERT_TRUE(remote_stmt.ok()) << remote_stmt.status().ToString();
  EXPECT_EQ(remote_stmt.value().num_placeholders, 1u);
  auto local_stmt = local.Prepare(sql);
  ASSERT_TRUE(local_stmt.ok());
  EXPECT_EQ(remote_stmt.value().plan_signature,
            local_stmt.value().plan_signature());

  for (int threshold : {0, 250, 900}) {
    std::vector<Value> values = {Value::Int32(threshold)};
    auto expected = local.Execute(local_stmt.value(), values);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto rs = client.Execute(remote_stmt.value(), values);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    net::RemoteResultSet cursor = std::move(rs).value();
    EXPECT_EQ(RemoteTuples(&cursor), ResultTuples(expected.value()))
        << "threshold=" << threshold;
    EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  }

  // CHAR parameter: space-padding must survive the wire byte-for-byte.
  const std::string char_sql = "select count(*) as c from nr where nr_pad = ?";
  auto char_stmt = client.Prepare(char_sql);
  ASSERT_TRUE(char_stmt.ok()) << char_stmt.status().ToString();
  auto local_char = local.Prepare(char_sql);
  ASSERT_TRUE(local_char.ok());
  std::vector<Value> pad = {Value::Char("p3", 8)};
  auto expected = local.Execute(local_char.value(), pad);
  ASSERT_TRUE(expected.ok());
  auto rs = client.Execute(char_stmt.value(), pad);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  net::RemoteResultSet cursor = std::move(rs).value();
  EXPECT_EQ(RemoteTuples(&cursor), ResultTuples(expected.value()));

  // Arity errors surface as a statement error, not a dead connection.
  auto bad = client.Execute(remote_stmt.value(), {});
  EXPECT_FALSE(bad.ok());
  auto again = client.Execute(remote_stmt.value(), {Value::Int32(0)});
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  net::RemoteResultSet cursor2 = std::move(again).value();
  while (cursor2.Next()) {
  }
  EXPECT_TRUE(cursor2.status().ok());
  server.Stop();
}

TEST_F(NetServerTest, SqlErrorsAreStatementTerminalOnly) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(1));
  net::Server server(&engine);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Client client = std::move(connected).value();

  auto bad = client.Query("select frob from no_such_table");
  EXPECT_FALSE(bad.ok());
  auto worse = client.Query("select ) ( from");
  EXPECT_FALSE(worse.ok());

  auto good = client.Query("select count(*) as c from ns");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  net::RemoteResultSet cursor = std::move(good).value();
  ASSERT_TRUE(cursor.Next());
  EXPECT_EQ(cursor.Get(0).AsInt64(), 30000);
  EXPECT_FALSE(cursor.Next());
  EXPECT_TRUE(cursor.status().ok());

  net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_failed, 2u);
  EXPECT_EQ(stats.queries_finished, 1u);
  server.Stop();
}

TEST_F(NetServerTest, MaxConnectionsRejectsExtraClients) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(1));
  net::ServerOptions options;
  options.max_connections = 1;
  net::Server server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  auto first = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  net::Client client = std::move(first).value();

  auto second = net::Client::Connect("127.0.0.1", server.port());
  EXPECT_FALSE(second.ok());

  // The admitted client is unaffected by the rejection next door.
  auto rs = client.Query("select count(*) as c from nr");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  net::RemoteResultSet cursor = std::move(rs).value();
  ASSERT_TRUE(cursor.Next());
  EXPECT_EQ(cursor.Get(0).AsInt64(), 20000);
  net::ServerStats stats = server.stats();
  EXPECT_GE(stats.connections_rejected, 1u);
  EXPECT_EQ(stats.connections_active, 1u);  // rejections were never counted
  server.Stop();
}

// DML over the wire (protocol v4): the ResultDone frame carries
// rows_affected, the DML cursor is pre-finished (no row pages), and a
// follow-up SELECT on the same connection observes the write.
TEST_F(NetServerTest, DmlOverWireReadYourWrites) {
  // Private catalog: DML must not perturb the suite's shared tables.
  Catalog catalog;
  testing::MakeIntTable(&catalog, "w", 1000, 50, 77);
  HiqueEngine engine(&catalog, FastOptions(2));
  net::Server server(&engine);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Client client = std::move(connected).value();

  auto count = [&](const std::string& sql) -> int64_t {
    auto rs = client.Query(sql);
    HQ_CHECK(rs.ok());
    net::RemoteResultSet cursor = std::move(rs).value();
    HQ_CHECK(cursor.Next());
    int64_t n = cursor.Get(0).AsInt64();
    while (cursor.Next()) {
    }
    return n;
  };

  auto ins = client.Query("insert into w values (777, 5, 2.5, 'zz')");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  net::RemoteResultSet cursor = std::move(ins).value();
  EXPECT_FALSE(cursor.Next());  // pre-finished: a DML cursor has no rows
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor.rows_affected(), 1);
  EXPECT_EQ(count("select count(*) as c from w where w_k = 777"), 1);

  auto upd = client.Query("update w set w_v = 9 where w_k = 777");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  net::RemoteResultSet ucur = std::move(upd).value();
  EXPECT_FALSE(ucur.Next());
  EXPECT_EQ(ucur.rows_affected(), 1);
  EXPECT_EQ(count("select count(*) as c from w where w_k = 777 and w_v = 9"),
            1);

  auto del = client.Query("delete from w where w_k = 777");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  net::RemoteResultSet dcur = std::move(del).value();
  EXPECT_FALSE(dcur.Next());
  EXPECT_EQ(dcur.rows_affected(), 1);
  EXPECT_EQ(count("select count(*) as c from w where w_k = 777"), 0);
  server.Stop();
}

// Hostile DML frames: malformed DML text, unknown tables, read-only
// (system/bench) targets and arity mismatches must come back as error
// frames — typed statement failures, never an assert or a dead connection.
TEST_F(NetServerTest, HostileDmlFramesAreStatementTerminalOnly) {
  Catalog catalog;
  testing::MakeIntTable(&catalog, "w", 100, 10, 78);
  testing::MakeIntTable(&catalog, "sysw", 100, 10, 79);
  catalog.GetTable("sysw").value()->SetReadOnly(true);
  HiqueEngine engine(&catalog, FastOptions(1));
  net::Server server(&engine);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Client client = std::move(connected).value();

  EXPECT_FALSE(client.Query("insert into w values (").ok());
  EXPECT_FALSE(client.Query("delete from no_such_table").ok());
  EXPECT_FALSE(client.Query("delete from sysw where sysw_k = 1").ok());
  EXPECT_FALSE(client.Query("insert into w values (1, 2)").ok());
  EXPECT_FALSE(client.Query("update w set nope = 1 where w_k = 1").ok());

  // The connection survives all five rejections.
  auto good = client.Query("select count(*) as c from w");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  net::RemoteResultSet cursor = std::move(good).value();
  ASSERT_TRUE(cursor.Next());
  EXPECT_EQ(cursor.Get(0).AsInt64(), 100);
  EXPECT_FALSE(cursor.Next());

  net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_failed, 5u);
  EXPECT_EQ(stats.queries_finished, 1u);
  server.Stop();
}

// Acceptance: the v5 ServerStats scrape serves a well-formed Prometheus
// dump while other connections are mid-query — scrapers and query traffic
// share the server and the metrics registry without racing (run under
// TSan in CI). Every scrape must parse, report a plausible uptime, and
// contain the statement/server metric families the traffic feeds.
TEST_F(NetServerTest, StatsScrapeUnderConcurrentLoad) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  net::Server server(&engine);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::vector<std::string> failures(4);
  std::vector<std::thread> workers;
  // Two query clients loop the suite's SQL; two scrapers poll ServerStats.
  for (int c = 0; c < 2; ++c) {
    workers.emplace_back([&, c] {
      auto connected = net::Client::Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        failures[c] = "connect: " + connected.status().ToString();
        return;
      }
      net::Client client = std::move(connected).value();
      std::vector<std::string> queries = Queries();
      while (!stop.load(std::memory_order_acquire)) {
        const std::string& sql = queries[static_cast<size_t>(c) %
                                         queries.size()];
        auto rs = client.Query(sql);
        if (!rs.ok()) {
          failures[c] = sql + ": " + rs.status().ToString();
          return;
        }
        net::RemoteResultSet cursor = std::move(rs).value();
        while (cursor.Next()) {
        }
        if (!cursor.status().ok()) {
          failures[c] = sql + ": " + cursor.status().ToString();
          return;
        }
      }
    });
  }
  for (int c = 2; c < 4; ++c) {
    workers.emplace_back([&, c] {
      auto connected = net::Client::Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        failures[c] = "connect: " + connected.status().ToString();
        return;
      }
      net::Client client = std::move(connected).value();
      int scrapes = 0;
      while (!stop.load(std::memory_order_acquire) || scrapes == 0) {
        auto stats = client.ServerStats();
        if (!stats.ok()) {
          failures[c] = "scrape: " + stats.status().ToString();
          return;
        }
        if (stats.value().uptime_seconds < 0) {
          failures[c] = "negative uptime";
          return;
        }
        const std::string& text = stats.value().prometheus_text;
        if (text.find("# HELP hique_statements_total ") == std::string::npos ||
            text.find("hique_server_connections_active") ==
                std::string::npos ||
            text.find("hique_statement_execute_ms_bucket{le=\"+Inf\"}") ==
                std::string::npos) {
          failures[c] = "scrape missing expected metric families";
          return;
        }
        ++scrapes;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  for (int c = 0; c < 4; ++c) EXPECT_EQ(failures[c], "") << "worker " << c;

  net::ServerStats stats = server.stats();
  EXPECT_GT(stats.stats_requests, 0u);
  EXPECT_GT(stats.queries_finished, 0u);
  server.Stop();
}

TEST_F(NetServerTest, ServerStopUnblocksConnectedClients) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  net::Server server(&engine);
  ASSERT_TRUE(server.Start().ok());

  auto connected = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  net::Client client = std::move(connected).value();
  auto rs = client.Query(HugeJoinSql());
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  net::RemoteResultSet cursor = std::move(rs).value();
  ASSERT_TRUE(cursor.Next());

  server.Stop();  // cancels the stream and closes every socket
  while (cursor.Next()) {
  }
  EXPECT_FALSE(cursor.status().ok());  // closed mid-stream, not a clean end
  client.Abort();
}

}  // namespace
}  // namespace hique
