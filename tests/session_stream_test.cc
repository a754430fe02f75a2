// Session / ResultSet streaming semantics: streamed rows must be
// bit-identical to the materialized Query() rows at every thread count,
// peak result-page residency must stay bounded regardless of result
// cardinality, early cursor close must cancel the rest of the query
// cleanly (no leaked pages, engine stays healthy), every blocking and
// cursor entry point must share one statement pipeline, a closed session
// must refuse them all, and an event-loop consumer must be woken exactly
// once per kPending answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "exec/executor.h"
// The arm/fire tests drive StreamCore directly, without a producer thread.
#include "exec/session_internal.h"
#include "ref/reference.h"
#include "storage/page.h"
#include "tests/test_util.h"

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

std::vector<std::string> StreamTuples(ResultSet* rs) {
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

class SessionStreamTest : public ::testing::Test {
 public:
  static Catalog& SharedCatalog() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      testing::MakeIntTable(c, "sr", 20000, 50, 11);
      testing::MakeIntTable(c, "ss", 30000, 50, 12);
      testing::MakeIntTable(c, "big", 200000, 1000, 13);
      return c;
    }();
    return *catalog;
  }

  static std::vector<std::string> Queries() {
    return {
        // Scan + filter + projection (pure streaming, no sort buffer).
        "select big_k, big_v, big_d from big where big_v >= 10",
        // Hybrid join + grouped aggregation + order by.
        "select sr_k, count(*) as c, sum(ss_v) as sv from sr, ss "
        "where sr_k = ss_k group by sr_k order by sr_k",
        // Fused scalar aggregation over a join.
        "select count(*) as c, sum(ss_d) as sd from sr, ss "
        "where sr_k = ss_k",
        // Map aggregation, order by + limit.
        "select big_k, count(*) as c from big group by big_k "
        "order by c desc, big_k limit 17",
        // LIMIT without ORDER BY: the projection's own output loop stops.
        "select big_k, big_v, big_d from big where big_v >= 0 limit 5000",
    };
  }
};

TEST_F(SessionStreamTest, StreamedRowsBitIdenticalToQueryAcrossThreads) {
  Catalog& catalog = SharedCatalog();
  for (uint32_t threads : {1u, 2u, 8u}) {
    HiqueEngine engine(&catalog, FastOptions(threads));
    Session session = engine.OpenSession({});
    for (const auto& sql : Queries()) {
      auto materialized = engine.Query(sql);
      ASSERT_TRUE(materialized.ok()) << sql << ": "
                                     << materialized.status().ToString();
      auto rs = session.QueryStream(sql);
      ASSERT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
      ResultSet cursor = std::move(rs).value();
      EXPECT_EQ(StreamTuples(&cursor), ResultTuples(materialized.value()))
          << "threads=" << threads << " query: " << sql;
      EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
      EXPECT_EQ(cursor.rows_read(), materialized.value().NumRows());
      // Streaming shares the compiled-plan cache with the blocking path.
      EXPECT_EQ(cursor.plan_signature(),
                materialized.value().plan_signature);
      cursor.Close();
    }
  }
}

// LIMIT without ORDER BY keeps exactly the first min(limit, n) rows of the
// unlimited result — at zero, on a page boundary, one row past it and past
// the row count — through the blocking and the cursor path alike.
TEST_F(SessionStreamTest, LimitWithoutOrderByKeepsThePrefix) {
  Catalog& catalog = SharedCatalog();
  const std::string sql = "select big_k, big_v, big_d from big "
                          "where big_v >= 0";
  for (uint32_t threads : {1u, 2u, 8u}) {
    HiqueEngine engine(&catalog, FastOptions(threads));
    Session session = engine.OpenSession({});
    auto unlimited = engine.Query(sql);
    ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
    const std::vector<std::string> all = ResultTuples(unlimited.value());
    const int64_t n = static_cast<int64_t>(all.size());
    const int64_t tpp =
        Page::TuplesPerPage(unlimited.value().schema.TupleSize());
    ASSERT_GT(n, tpp + 1);
    for (int64_t limit : {int64_t{0}, tpp, tpp + 1, n + 1000}) {
      const std::string limited = sql + " limit " + std::to_string(limit);
      const std::vector<std::string> expected(
          all.begin(), all.begin() + std::min(limit, n));
      auto blocking = engine.Query(limited);
      ASSERT_TRUE(blocking.ok()) << limited << ": "
                                 << blocking.status().ToString();
      EXPECT_EQ(ResultTuples(blocking.value()), expected)
          << "threads=" << threads << " query: " << limited;
      auto rs = session.QueryStream(limited);
      ASSERT_TRUE(rs.ok()) << limited << ": " << rs.status().ToString();
      ResultSet cursor = std::move(rs).value();
      EXPECT_EQ(StreamTuples(&cursor), expected)
          << "threads=" << threads << " query: " << limited;
      EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
    }
  }
}

// Acceptance: the streaming path never materializes the full result. A
// ~1200-page result must flow through a cursor whose peak result-page
// residency stays at the configured bound (buffered pages + the page in
// production + the page the reader holds), and still match Query() byte
// for byte.
TEST_F(SessionStreamTest, PeakResultPageResidencyIsBounded) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  SessionOptions options;
  options.stream_buffer_pages = 4;
  Session session = engine.OpenSession(options);

  const std::string sql = "select big_k, big_v, big_d from big "
                          "where big_v >= 0";
  auto materialized = engine.Query(sql);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  ASSERT_GT(materialized.value().NumRows(), 150000);
  uint64_t result_pages = materialized.value().table->NumPages();
  ASSERT_GT(result_pages, 100u) << "result too small to prove streaming";

  auto rs = session.QueryStream(sql);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ResultSet cursor = std::move(rs).value();
  EXPECT_EQ(StreamTuples(&cursor), ResultTuples(materialized.value()));
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  // O(pinned pages), independent of the result's ~1200 pages.
  EXPECT_LE(cursor.peak_result_pages(), options.stream_buffer_pages + 2);
  EXPECT_GE(cursor.peak_result_pages(), 1u);
}

// Backpressure-aware page recycling: a fully drained ~780-page stream must
// reach steady state on a handful of fresh allocations — every page past
// the residency bound is a reuse of a page the consumer drained, not a new
// posix_memalign.
TEST_F(SessionStreamTest, PageRecyclingBoundsSteadyStateAllocations) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  SessionOptions options;
  options.stream_buffer_pages = 4;
  Session session = engine.OpenSession(options);

  const std::string sql = "select big_k, big_v, big_d from big "
                          "where big_v >= 0";
  auto materialized = engine.Query(sql);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  uint64_t result_pages = materialized.value().table->NumPages();
  ASSERT_GT(result_pages, 100u) << "result too small to prove recycling";

  auto rs = session.QueryStream(sql);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ResultSet cursor = std::move(rs).value();
  EXPECT_EQ(StreamTuples(&cursor), ResultTuples(materialized.value()));
  ASSERT_TRUE(cursor.status().ok()) << cursor.status().ToString();

  // Steady state: fresh allocations stay within the residency bound
  // (buffered + in-production + reader-held), with one page of slack for
  // the producer/consumer race; everything else is recycled.
  uint64_t allocated = cursor.pages_allocated();
  uint64_t recycled = cursor.pages_recycled();
  EXPECT_LE(allocated, uint64_t{options.stream_buffer_pages} + 3);
  EXPECT_GE(recycled, result_pages - allocated);
  EXPECT_EQ(allocated + recycled, result_pages);
}

TEST_F(SessionStreamTest, EarlyCloseCancelsCleanly) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(4));
  Session session = engine.OpenSession({});
  const std::string sql = "select big_k, big_v, big_d from big "
                          "where big_v >= 0";
  // Repeat to shake races between the producer and the early close: the
  // close lands at a different point of the pipeline each iteration.
  for (int round = 0; round < 8; ++round) {
    auto rs = session.QueryStream(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ResultSet cursor = std::move(rs).value();
    int rows = 0;
    while (rows < 1 + round * 37 && cursor.Next()) ++rows;
    cursor.Close();  // cancels the remaining execution, joins the producer
    // A closed cursor stops yielding rows.
    EXPECT_FALSE(cursor.Next());
  }
  // The engine (pool, cache, arenas) must be fully healthy afterwards.
  auto check = engine.Query(
      "select sr_k, count(*) as c from sr group by sr_k order by sr_k");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_GT(check.value().NumRows(), 0);
}

TEST_F(SessionStreamTest, DroppedCursorCancelsViaDestructor) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  Session session = engine.OpenSession({});
  {
    auto rs = session.QueryStream(
        "select big_k, big_v from big where big_v >= 0");
    ASSERT_TRUE(rs.ok());
    ResultSet cursor = std::move(rs).value();
    ASSERT_TRUE(cursor.Next());  // start consuming, then just drop it
  }
  auto check = engine.Query("select count(*) as c from sr");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
}

TEST_F(SessionStreamTest, SessionThreadOverrideForcesSerialExecution) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(4));
  SessionOptions serial;
  serial.threads = 1;
  Session serial_session = engine.OpenSession(serial);
  const std::string sql = "select sr_k, count(*) as c from sr group by sr_k";

  auto parallel = engine.Query(sql);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel.value().exec_stats.threads, 4u);

  auto forced = serial_session.Query(sql);
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(forced.value().exec_stats.threads, 1u);
  EXPECT_EQ(ResultTuples(forced.value()), ResultTuples(parallel.value()));
}

TEST_F(SessionStreamTest, ExecuteStreamMatchesExecute) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  Session session = engine.OpenSession({});
  auto stmt = session.Prepare(
      "select sr_k, count(*) as c from sr where sr_v >= ? "
      "group by sr_k order by sr_k");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  for (int threshold : {0, 250, 900}) {
    std::vector<Value> values = {Value::Int32(threshold)};
    auto blocking = session.Execute(stmt.value(), values);
    ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();
    auto rs = session.ExecuteStream(stmt.value(), values);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ResultSet cursor = std::move(rs).value();
    EXPECT_EQ(StreamTuples(&cursor), ResultTuples(blocking.value()))
        << "threshold=" << threshold;
    EXPECT_TRUE(cursor.cache_hit());  // Execute never generates or compiles
  }
}

/// What one statement returned through some entry point.
struct Outcome {
  Schema schema;
  std::vector<ref::Row> rows;
  bool cache_hit = false;
  int64_t rows_affected = 0;
};

Outcome FromResult(const QueryResult& r) {
  Outcome out;
  out.schema = r.schema;
  out.rows = r.Rows();
  out.cache_hit = r.cache_hit;
  out.rows_affected = r.rows_affected;
  return out;
}

/// The consumer side of a ready callback: Wait sleeps until the callback
/// has run once since the last Wait.
struct ReadySignal {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t fired = 0;
  uint64_t consumed = 0;

  void Fire() {
    {
      std::lock_guard<std::mutex> lk(mu);
      ++fired;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return fired > consumed; });
    ++consumed;
  }
  uint64_t Fired() {
    std::lock_guard<std::mutex> lk(mu);
    return fired;
  }
};

/// Drains a cursor row by row, or page by page through the non-blocking
/// TryTakePage pump the wire server runs. The pump sleeps on the ready
/// callback after every kPending, so a lost wake-up hangs here.
Result<Outcome> FromCursor(Result<ResultSet> opened, bool pump) {
  if (!opened.ok()) return opened.status();
  ResultSet cursor = std::move(opened).value();
  Outcome out;
  out.schema = cursor.schema();
  if (pump) {
    const uint32_t tuple_size = out.schema.TupleSize();
    auto signal = std::make_shared<ReadySignal>();
    cursor.SetReadyCallback([signal] { signal->Fire(); });
    uint64_t pending = 0;
    for (;;) {
      Page* page = nullptr;
      ResultSet::PagePoll poll = cursor.TryTakePage(&page);
      if (poll == ResultSet::PagePoll::kEnd) break;
      if (poll == ResultSet::PagePoll::kPending) {
        ++pending;
        signal->Wait();
        continue;
      }
      for (uint32_t i = 0; i < page->num_tuples; ++i) {
        const uint8_t* tuple = page->TupleAt(i, tuple_size);
        ref::Row row;
        for (size_t c = 0; c < out.schema.NumColumns(); ++c) {
          row.push_back(out.schema.GetValue(tuple, c));
        }
        out.rows.push_back(std::move(row));
      }
      cursor.RecyclePage(page);
    }
    if (signal->Fired() != pending) {
      return Status::Internal("ready callback ran " +
                              std::to_string(signal->Fired()) +
                              " times for " + std::to_string(pending) +
                              " kPending answers");
    }
  } else {
    while (cursor.Next()) out.rows.push_back(cursor.Row());
  }
  if (!cursor.status().ok()) return cursor.status();
  out.cache_hit = cursor.cache_hit();
  out.rows_affected = cursor.rows_affected();
  return out;
}

Result<Outcome> FromBlocking(Result<QueryResult> r) {
  if (!r.ok()) return r.status();
  return FromResult(r.value());
}

struct EntryPoint {
  const char* name;
  bool prepared;  // runs the statement through Prepare first
  std::function<Result<Outcome>(Session*, const std::string&)> run;
};

std::vector<EntryPoint> EntryPoints() {
  auto prepared = [](const std::function<Result<Outcome>(
                         Session*, const PreparedStatement&)>& exec) {
    return [exec](Session* s, const std::string& sql) -> Result<Outcome> {
      auto stmt = s->Prepare(sql);
      if (!stmt.ok()) return stmt.status();
      return exec(s, stmt.value());
    };
  };
  return {
      {"Query", false,
       [](Session* s, const std::string& sql) {
         return FromBlocking(s->Query(sql));
       }},
      {"Execute", true,
       prepared([](Session* s, const PreparedStatement& stmt) {
         return FromBlocking(s->Execute(stmt));
       })},
      {"QueryStream", false,
       [](Session* s, const std::string& sql) {
         return FromCursor(s->QueryStream(sql), /*pump=*/false);
       }},
      {"ExecuteStream", true,
       prepared([](Session* s, const PreparedStatement& stmt) {
         return FromCursor(s->ExecuteStream(stmt), /*pump=*/false);
       })},
      {"TryTakePage pump", false,
       [](Session* s, const std::string& sql) {
         return FromCursor(s->QueryStream(sql), /*pump=*/true);
       }},
  };
}

// Every entry point reaches the same pipeline: a map-overflow restart is
// transparent, the restart's alias serves the repeat from the cache, DML
// reports rows affected, and EXPLAIN answers with its plan column.
TEST_F(SessionStreamTest, EveryEntryPointRestartsOverflowAndAnswersDml) {
  const std::string sql = "select t_k, count(*), sum(t_v) from t group by t_k";
  for (const EntryPoint& entry : EntryPoints()) {
    SCOPED_TRACE(entry.name);
    Catalog catalog;
    Table* t = testing::MakeIntTable(&catalog, "t", 200, 4, 5);
    // Stale statistics: claim 4 distinct keys, then insert many new ones so
    // map aggregation's directories overflow at run time.
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(t->AppendRow({Value::Int32(1000 + i), Value::Int32(i),
                                Value::Double(i), Value::Char("x", 8)})
                      .ok());
    }
    t->mutable_stats().valid = true;  // keep the stale statistics
    auto expected = ref::ExecuteSql(sql, catalog);
    ASSERT_TRUE(expected.ok());

    HiqueEngine engine(&catalog, FastOptions(1));
    Session session = engine.OpenSession({});
    auto first = entry.run(&session, sql);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    Status cmp = ref::CompareRowSets(expected.value(), first.value().rows,
                                     false);
    EXPECT_TRUE(cmp.ok()) << cmp.ToString();

    // The restart aliased the hybrid library under the overflowing plan's
    // signature (or cached it in the prepared statement): the repeat hits.
    auto repeat = entry.run(&session, sql);
    ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
    EXPECT_TRUE(repeat.value().cache_hit);
    cmp = ref::CompareRowSets(expected.value(), repeat.value().rows, false);
    EXPECT_TRUE(cmp.ok()) << cmp.ToString();
    if (!entry.prepared) {
      // The alias serves the blocking path too, whichever path restarted.
      auto blocking = engine.Query(sql);
      ASSERT_TRUE(blocking.ok()) << blocking.status().ToString();
      EXPECT_TRUE(blocking.value().cache_hit);
    }

    auto insert = entry.run(&session, "insert into t values (7, 7, 7.0, 'y')");
    ASSERT_TRUE(insert.ok()) << insert.status().ToString();
    EXPECT_EQ(insert.value().rows_affected, 1);
    EXPECT_TRUE(insert.value().rows.empty());

    auto explained = entry.run(&session, "explain " + sql);
    if (entry.prepared) {
      EXPECT_FALSE(explained.ok());  // EXPLAIN cannot be prepared
      continue;
    }
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    ASSERT_EQ(explained.value().schema.NumColumns(), 1u);
    EXPECT_EQ(explained.value().schema.ColumnAt(0).name, "plan");
    EXPECT_FALSE(explained.value().rows.empty());
  }
}

TEST_F(SessionStreamTest, SessionCloseCancelsOpenCursors) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  Session session = engine.OpenSession({});
  auto rs = session.QueryStream(
      "select big_k, big_v from big where big_v >= 0");
  ASSERT_TRUE(rs.ok());
  ResultSet cursor = std::move(rs).value();
  session.Close();
  // Drain whatever was already buffered; the stream must end (cancelled or
  // complete) rather than hang, and new work on the session must fail.
  while (cursor.Next()) {
  }
  auto after = session.Query("select count(*) as c from sr");
  EXPECT_FALSE(after.ok());
}

// Session::Close from another thread lands at a different point of a
// running cursor's life each round (mid-execution, mid-drain or after the
// last page): the stream either ends cancelled or delivers every row, and
// nothing hangs, leaks or races (TSan-checked in CI).
TEST_F(SessionStreamTest, SessionCloseFromAnotherThreadIsRaceFree) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  const std::string sql = "select big_k, big_v, big_d from big "
                          "where big_v >= 0";
  auto full = engine.Query(sql);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (int round = 0; round < 10; ++round) {
    Session session = engine.OpenSession({});
    auto rs = session.QueryStream(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ResultSet cursor = std::move(rs).value();
    std::thread closer([&session, round] {
      for (volatile int spin = 0; spin < round * 20000; ++spin) {
      }
      session.Close();
    });
    while (cursor.Next()) {
    }
    closer.join();
    if (cursor.status().ok()) {
      EXPECT_EQ(cursor.rows_read(), full.value().NumRows());
    } else {
      EXPECT_TRUE(exec::IsCancelled(cursor.status()))
          << cursor.status().ToString();
    }
  }
  // Engine healthy afterwards.
  auto check = engine.Query("select count(*) as c from sr");
  ASSERT_TRUE(check.ok()) << check.status().ToString();
}

// A closed session refuses every entry point, counts only the cursors it
// opened, and leaves the engine's other sessions answering.
TEST_F(SessionStreamTest, ClosedSessionRefusesEveryEntryPoint) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(1));
  Session session = engine.OpenSession({});
  const std::string sql = "select count(*) as c from sr";
  auto stmt = session.Prepare(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  ASSERT_TRUE(session.Query(sql).ok());
  EXPECT_EQ(session.Stats().streams_opened, 0u);
  for (int i = 0; i < 3; ++i) {
    auto rs = i % 2 == 0 ? session.QueryStream(sql)
                         : session.ExecuteStream(stmt.value());
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ResultSet cursor = std::move(rs).value();
    while (cursor.Next()) {
    }
    EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  }
  EXPECT_EQ(session.Stats().streams_opened, 3u);

  session.Close();
  EXPECT_FALSE(session.Query(sql).ok());
  EXPECT_FALSE(session.Execute(stmt.value()).ok());
  EXPECT_FALSE(session.QueryStream(sql).ok());
  EXPECT_FALSE(session.ExecuteStream(stmt.value()).ok());
  EXPECT_EQ(session.Stats().streams_opened, 3u);

  Session other = engine.OpenSession({});
  auto answered = other.Query(sql);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered.value().NumRows(), 1);
}

// ---- Consumer wake-up: StreamCore's arm/fire protocol ----------------------

Page* NewPage() {
  void* mem = nullptr;
  EXPECT_EQ(posix_memalign(&mem, kPageSize, kPageSize), 0);
  return static_cast<Page*>(mem);
}

/// A StreamCore whose ready callback counts its calls.
struct CountingCore {
  StreamCore core{4};
  int fired = 0;
  CountingCore() {
    core.ready = [this] { ++fired; };
  }
  bool TryPop() {
    Page* page = nullptr;
    bool ended = false;
    bool got = core.TryPop(&page, &ended);
    std::free(page);
    return got;
  }
};

TEST(StreamCoreReadyTest, PushWithoutArmedWaitDoesNotFire) {
  CountingCore c;
  ASSERT_TRUE(c.core.Push(NewPage()));
  ASSERT_TRUE(c.core.Push(NewPage()));
  EXPECT_EQ(c.fired, 0);  // nobody polled yet
  EXPECT_TRUE(c.TryPop());
  EXPECT_TRUE(c.TryPop());
  EXPECT_EQ(c.fired, 0);  // a successful poll arms nothing
  ASSERT_TRUE(c.core.Push(NewPage()));
  EXPECT_EQ(c.fired, 0);
}

TEST(StreamCoreReadyTest, PendingArmsExactlyOneFire) {
  CountingCore c;
  EXPECT_FALSE(c.TryPop());  // kPending: arms
  EXPECT_FALSE(c.TryPop());  // still pending: arms nothing more
  EXPECT_EQ(c.fired, 0);
  ASSERT_TRUE(c.core.Push(NewPage()));
  EXPECT_EQ(c.fired, 1);
  ASSERT_TRUE(c.core.Push(NewPage()));
  ASSERT_TRUE(c.core.Push(NewPage()));
  EXPECT_EQ(c.fired, 1);  // one wake per kPending, not one per page
  EXPECT_TRUE(c.TryPop());
  EXPECT_TRUE(c.TryPop());
  EXPECT_TRUE(c.TryPop());
  EXPECT_FALSE(c.TryPop());
  ASSERT_TRUE(c.core.Push(NewPage()));
  EXPECT_EQ(c.fired, 2);
  EXPECT_TRUE(c.TryPop());
}

TEST(StreamCoreReadyTest, FinishFiresAnArmedWait) {
  CountingCore c;
  c.core.Finish(Status::OK(), {}, {});
  EXPECT_EQ(c.fired, 0);  // finished before anyone waited
  CountingCore armed;
  EXPECT_FALSE(armed.TryPop());
  armed.core.Finish(Status::OK(), {}, {});
  EXPECT_EQ(armed.fired, 1);
  Page* page = nullptr;
  bool ended = false;
  EXPECT_TRUE(armed.core.TryPop(&page, &ended));
  EXPECT_TRUE(ended);
  EXPECT_EQ(page, nullptr);
}

TEST_F(SessionStreamTest, ReadyCallbackNeverRunsAfterClose) {
  Catalog& catalog = SharedCatalog();
  HiqueEngine engine(&catalog, FastOptions(2));
  Session session = engine.OpenSession({});
  // Close lands at a different point of the stream each round; a round
  // whose cursor answered kPending closes with the wake armed.
  for (int round = 0; round < 8; ++round) {
    auto rs = session.QueryStream(
        "select big_k, big_v, big_d from big where big_v >= 0");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ResultSet cursor = std::move(rs).value();
    auto closed = std::make_shared<std::atomic<bool>>(false);
    auto late = std::make_shared<std::atomic<int>>(0);
    cursor.SetReadyCallback([closed, late] {
      if (closed->load()) late->fetch_add(1);
    });
    int pending = 0;
    for (int polls = 0; polls < 1000 && pending <= round; ++polls) {
      Page* page = nullptr;
      ResultSet::PagePoll poll = cursor.TryTakePage(&page);
      if (poll == ResultSet::PagePoll::kEnd) break;
      if (poll == ResultSet::PagePoll::kPending) ++pending;
      cursor.RecyclePage(page);
    }
    cursor.Close();
    closed->store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(late->load(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace hique
