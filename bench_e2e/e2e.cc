// bench_e2e: the path users take, measured end to end. SQL text goes over
// the wire protocol into an in-process hiqued (net::Server over a
// HiqueEngine with default engine options, so execution is serial and
// tiered compilation and constant hoisting stay on), and rows come back through
// net::Client. One invocation drives one workload from one process in a
// closed loop (each connection waits for its reply before sending the next
// statement), checks the results against the column engine, and prints
// every end-to-end metric with its unit. --trace adds per-layer numbers
// from client-side spans and a replay of the request log through each
// layer's public functions. README.md describes the workloads, metrics and
// bounds.
//
//   bench_e2e --workload=tpch_warm --seed=1 --duration-s=30 [--trace]
//             [--json=FILE] [--trace-out=FILE] [--work-dir=DIR] [--self-check]
//
// The last line of stdout is one JSON object: correct / attempted / failed
// plus the end-to-end metrics (or, with --trace, the per-layer metrics).

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "bench_support/flags.h"
#include "bench_support/json.h"
#include "column/column_engine.h"
#include "e2e_util.h"
#include "exec/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "ref/reference.h"
#include "replay.h"
#include "tpch/tpch.h"
#include "util/env.h"
#include "util/macros.h"
#include "util/timer.h"
#include "workloads.h"

using namespace hique;
using namespace hique::e2e;

namespace {

/// Serial execution, the engine's default, set explicitly so HQ_THREADS in
/// the environment cannot change what is measured. With 2, every statement
/// waits at its parallel barriers for the slower of two vCPUs of a shared
/// host, and run-to-run spread widens with the host's load.
constexpr uint32_t kEngineThreads = 1;
/// Result pages a session buffers ahead of the event loop: more than a
/// stream_wide result holds (about 1800), so its producer never waits for
/// the loop. A producer that fills the buffer waits for the loop's next
/// 2 ms re-poll. With the default of 4 the same statement took anywhere
/// from 6 to 100 ms. With 64, it took 2.5-3x as long while two busy loops
/// ran beside it on the host's 4 vCPUs.
constexpr uint32_t kStreamBufferPages = 2048;
constexpr int kSetups = 3;                // set-ups per run; setup_s is their median
/// The closed loop runs this long before timing starts, so allocator and
/// page-cache growth and refresh_mixed's first compaction cycle stay out of
/// the metrics. Its statements are still checked and counted as attempted.
constexpr double kWarmupSeconds = 1.0;
/// refresh_mixed's writer sends one statement per period on a fixed
/// schedule. Unpaced, it writes as fast as the host lets it, so how many
/// compactions a run sees (each re-keys and recompiles the reader's plans)
/// follows the host's speed, and with it the share of reads that wait for
/// a compile or run -O0 code.
constexpr int64_t kWritePeriodNs = 40000000;
constexpr int kTraceBlock = 8;           // requests per traced/untraced block
constexpr size_t kReplayPerConnection = 12;
constexpr int kHashRequests = 256;        // requests per connection hashed
constexpr int64_t kRequestIdStride = 1000000000;  // request id = conn*stride+n

/// A statement the adhoc_cold generator never produces (it reads orders
/// alone): warms the compiler's files without pre-compiling a timed shape.
const char* const kAdhocWarmup =
    "select o_orderstatus, count(*) as cnt from orders "
    "where o_orderdate < date '1995-01-01' group by o_orderstatus";

struct Options {
  Workload workload = Workload::kTpchWarm;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  double sf = 0;
  std::string json_path;
  std::string work_dir;
  std::string trace_path;
};

/// One statement of the timed phase.
struct Sample {
  int conn = 0;
  int64_t id = 0;
  Request request;
  int64_t start_ns = 0, first_ns = 0, end_ns = 0;
  double server_execute_ms = 0;
  int opt_level = 0;  // -O level of the library the server ran
  int64_t rows_affected = 0;
  bool ok = false;
  bool timed = false;  // started after the warm-up
  bool traced = false;
  std::string error;
  std::vector<ref::Row> rows;  // adhoc_cold: kept for the correctness check

  bool is_read() const { return request.kind != Request::Kind::kDml; }
  double latency_ms() const { return (end_ns - start_ns) * 1e-6; }
};

/// One set-up: engine, server and connected clients. Members are destroyed
/// in reverse order: clients close, the server stops, then the engine goes.
struct Served {
  std::unique_ptr<HiqueEngine> engine;
  std::unique_ptr<net::Server> server;
  std::vector<net::Client> clients;
  std::vector<net::RemoteStatement> prepared;  // stream_wide, per connection
};

/// Sends one request and drains its result; latency runs from the call
/// until the last row is drained.
Status Issue(net::Client* client, const net::RemoteStatement* stmt,
             const Request& r, Sample* s, std::vector<ref::Row>* keep) {
  s->start_ns = NowNs();
  Result<net::RemoteResultSet> rs = r.kind == Request::Kind::kExecute
                                        ? client->Execute(*stmt, r.params)
                                        : client->Query(r.sql);
  s->first_ns = NowNs();
  if (!rs.ok()) {
    s->end_ns = s->first_ns;
    return rs.status();
  }
  net::RemoteResultSet cursor = std::move(rs).value();
  while (cursor.Next()) {
    if (keep != nullptr) keep->push_back(cursor.Row());
  }
  s->end_ns = NowNs();
  s->server_execute_ms = cursor.server_execute_ms();
  s->opt_level = cursor.library_opt_level();
  s->rows_affected = cursor.rows_affected();
  return cursor.status();
}

Status IssueAndDrain(Served* served, int conn, const Request& r,
                     std::vector<ref::Row>* keep = nullptr) {
  Sample s;
  const net::RemoteStatement* stmt =
      served->prepared.empty() ? nullptr : &served->prepared[conn];
  Status st = Issue(&served->clients[conn], stmt, r, &s, keep);
  if (!st.ok()) return Status(st.code(), st.message() + "\n  in: " + r.sql);
  return st;
}

/// Engine + server start + client connects + warm-up compiles, then waits
/// for the background -O2 tier so the timed phase sees the final tier.
Result<std::unique_ptr<Served>> SetUp(const Options& o, Catalog* catalog,
                                      int rep) {
  auto served = std::make_unique<Served>();
  EngineOptions eo;
  eo.threads = kEngineThreads;
  eo.gen_dir = o.work_dir + "/gen" + std::to_string(rep);
  served->engine = std::make_unique<HiqueEngine>(catalog, eo);
  net::ServerOptions so;
  so.session.stream_buffer_pages = kStreamBufferPages;
  served->server = std::make_unique<net::Server>(served->engine.get(), so);
  HQ_RETURN_IF_ERROR(served->server->Start());
  for (int c = 0; c < Connections(o.workload); ++c) {
    HQ_ASSIGN_OR_RETURN(net::Client client,
                        net::Client::Connect(served->server->address(),
                                             served->server->port(),
                                             "bench_e2e"));
    served->clients.push_back(std::move(client));
  }
  std::vector<Request> pool = CheckPool(o.workload, o.seed, o.sf);
  switch (o.workload) {
    case Workload::kStreamWide:
      for (net::Client& client : served->clients) {
        HQ_ASSIGN_OR_RETURN(net::RemoteStatement stmt,
                            client.Prepare(StreamWideSql()));
        served->prepared.push_back(stmt);
      }
      for (size_t c = 0; c < served->clients.size(); ++c) {
        HQ_RETURN_IF_ERROR(IssueAndDrain(served.get(), static_cast<int>(c),
                                         pool.front()));
      }
      break;
    case Workload::kAdhocCold: {
      Request warm;
      warm.sql = kAdhocWarmup;
      HQ_RETURN_IF_ERROR(IssueAndDrain(served.get(), 0, warm));
      break;
    }
    case Workload::kTpchWarm:
    case Workload::kRefreshMixed:
      // Every variant, not one per template: a literal can overflow the
      // planned aggregation map (some Q10 quarters do), and the hybrid
      // fallback plan it switches to compiles a library of its own.
      for (const Request& r : pool) {
        HQ_RETURN_IF_ERROR(IssueAndDrain(served.get(), 0, r));
      }
      break;
  }
  served->engine->WaitForTierUpgrades();
  return served;
}

struct Phase {
  std::vector<Sample> samples;  // warm-up and timed, ordered by start time
  int64_t start_ns = 0;         // end of the warm-up
  int64_t end_ns = 0;
  SpanLog spans;
};

/// The closed loop: one thread per connection, kWarmupSeconds untimed, then
/// o.seconds timed; the statement in flight at the deadline completes and
/// counts. refresh_mixed's writer waits for its next slot of the
/// kWritePeriodNs schedule and is timed from that slot, so time it spends
/// behind schedule counts. With tracing, alternate blocks of kTraceBlock
/// requests record client spans, so traced and untraced requests see the
/// same drift.
Phase RunTimed(const Options& o, Served* served) {
  int conns = Connections(o.workload);
  std::vector<std::vector<Sample>> per(conns);
  std::vector<SpanLog> logs(conns);
  Phase phase;
  const int64_t origin = NowNs();
  phase.start_ns = origin + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t deadline =
      phase.start_ns + static_cast<int64_t>(o.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      RequestStream stream(o.workload, o.seed, c, o.sf);
      const net::RemoteStatement* stmt =
          served->prepared.empty() ? nullptr : &served->prepared[c];
      const bool paced = o.workload == Workload::kRefreshMixed && c == 0;
      for (int64_t n = 0;; ++n) {
        const int64_t due = origin + n * kWritePeriodNs;
        if ((paced ? due : NowNs()) >= deadline) break;
        if (paced) std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
        Sample s;
        s.conn = c;
        s.id = c * kRequestIdStride + n;
        s.request = stream.Next();
        s.traced = o.trace && (n / kTraceBlock) % 2 == 1;
        bool keep = o.workload == Workload::kAdhocCold;
        Status st = Issue(&served->clients[c], stmt, s.request, &s,
                          keep ? &s.rows : nullptr);
        if (paced) s.start_ns = due;
        s.timed = s.start_ns >= phase.start_ns;
        s.ok = st.ok();
        if (!s.ok) s.error = st.ToString();
        if (s.traced) {
          int root = logs[c].Add("request", s.start_ns, s.end_ns, -1, s.id);
          logs[c].Add("net.first_frame", s.start_ns, s.first_ns, root, s.id);
          logs[c].Add("net.drain", s.first_ns, s.end_ns, root, s.id);
        }
        per[c].push_back(std::move(s));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < conns; ++c) {
    phase.spans.Append(logs[c]);
    for (Sample& s : per[c]) {
      phase.end_ns = std::max(phase.end_ns, s.end_ns);
      phase.samples.push_back(std::move(s));
    }
  }
  std::sort(phase.samples.begin(), phase.samples.end(),
            [](const Sample& a, const Sample& b) { return a.start_ns < b.start_ns; });
  return phase;
}

/// Statements completed per second, robust to a slow stretch of the run:
/// the timed phase is cut into one-second windows, a statement counts in
/// each window in proportion to the share of its duration inside it, and
/// the median window rate is reported.
double WindowedThroughput(const Phase& phase) {
  constexpr int64_t kWindowNs = 1000000000;
  const int64_t span = phase.end_ns - phase.start_ns;
  if (span < kWindowNs) {
    int64_t ok = std::count_if(phase.samples.begin(), phase.samples.end(),
                               [](const Sample& s) { return s.ok && s.timed; });
    return span > 0 ? ok * 1e9 / span : 0;
  }
  std::vector<double> credit(span / kWindowNs, 0.0);
  for (const Sample& s : phase.samples) {
    if (!s.ok || s.end_ns <= phase.start_ns) continue;
    const double duration = static_cast<double>(std::max<int64_t>(1, s.end_ns - s.start_ns));
    const int64_t from = std::max(s.start_ns, phase.start_ns);
    for (size_t w = (from - phase.start_ns) / kWindowNs; w < credit.size(); ++w) {
      int64_t lo = std::max(s.start_ns, phase.start_ns + static_cast<int64_t>(w) * kWindowNs);
      int64_t hi = std::min(s.end_ns, phase.start_ns + static_cast<int64_t>(w + 1) * kWindowNs);
      if (hi <= lo) break;
      credit[w] += (hi - lo) / duration;
    }
  }
  return Median(credit);
}

double MaxRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

std::vector<ref::Row> TableRows(Table* table) {
  std::vector<ref::Row> rows;
  const Schema& schema = table->schema();
  (void)table->ForEachTuple([&](const uint8_t* tuple) {
    ref::Row row;
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      row.push_back(schema.GetValue(tuple, c));
    }
    rows.push_back(std::move(row));
  });
  return rows;
}

/// The statement with every `?` replaced by its value, for the reference.
std::string LiteralSql(const Request& r) {
  std::string sql = r.sql;
  for (const Value& v : r.params) {
    size_t pos = sql.find('?');
    if (pos == std::string::npos) break;
    sql.replace(pos, 1, v.ToString());
  }
  return sql;
}

/// Compares a wire result with the column engine's (an independent DSM
/// interpreter). Every result's leading columns are exact and unique per
/// row, so both sides are put in one lexicographic order first and
/// compared positionally with ref::CompareRowSets' double tolerance.
Status CompareWithReference(col::ColumnEngine* reference,
                            const std::string& sql,
                            std::vector<ref::Row> actual) {
  auto expected = reference->Query(sql);
  if (!expected.ok()) {
    return Status(expected.status().code(),
                  "reference failed: " + expected.status().message() +
                      "\n  in: " + sql);
  }
  std::vector<ref::Row> want = TableRows(expected.value().table.get());
  auto lex = [](const ref::Row& a, const ref::Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  };
  std::sort(want.begin(), want.end(), lex);
  std::sort(actual.begin(), actual.end(), lex);
  Status st = ref::CompareRowSets(want, actual, /*respect_order=*/true);
  if (!st.ok()) return Status(st.code(), st.message() + "\n  in: " + sql);
  return st;
}

/// Checks every distinct statement's wire result against the reference.
/// adhoc_cold statements were kept as they were issued (re-issuing would
/// recompile them all); the other workloads' pools are re-issued here, after
/// the timed phase and after peak RSS was read, so the reference's column
/// copies stay out of peak_rss_mb.
Status CheckResults(const Options& o, Served* served, Catalog* catalog,
                    const Phase& phase, int* checked) {
  col::ColumnEngine reference(catalog);
  if (o.workload == Workload::kAdhocCold) {
    for (const Sample& s : phase.samples) {
      if (!s.ok) continue;
      HQ_RETURN_IF_ERROR(CompareWithReference(&reference, s.request.sql, s.rows));
      ++*checked;
    }
    return Status::OK();
  }
  for (const Request& r : CheckPool(o.workload, o.seed, o.sf)) {
    std::vector<ref::Row> rows;
    HQ_RETURN_IF_ERROR(IssueAndDrain(served, 0, r, &rows));
    HQ_RETURN_IF_ERROR(CompareWithReference(&reference, LiteralSql(r), rows));
    ++*checked;
  }
  return Status::OK();
}

uint64_t TableRowsOf(Catalog* catalog, const char* name) {
  return catalog->GetTable(name).value()->NumTuples();
}

/// Worst relative gap, over all requests, between a request span and the
/// sum of the self times of every span of that request.
double SelfTimeErrorPct(const std::vector<Span>& spans) {
  std::vector<double> self = SelfTimesNs(spans);
  std::map<int64_t, double> sum, root;
  for (size_t i = 0; i < spans.size(); ++i) {
    sum[spans[i].request] += self[i];
    if (spans[i].parent < 0) root[spans[i].request] = spans[i].DurationNs();
  }
  double worst = 0;
  for (const auto& [id, d] : root) {
    if (d > 0) worst = std::max(worst, std::fabs(sum[id] - d) / d * 100.0);
  }
  return worst;
}

bool WriteTrace(const std::string& path, const Options& o,
                const std::vector<std::pair<const char*, const SpanLog*>>& logs) {
  size_t slash = path.rfind('/');
  if (slash != std::string::npos) (void)env::MakeDirs(path.substr(0, slash));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
               WorkloadName(o.workload), static_cast<unsigned long long>(o.seed));
  bool first = true;
  for (const auto& [phase, log] : logs) {
    std::vector<double> self = SelfTimesNs(log->spans());
    for (size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      std::fprintf(f,
                   "%s{\"phase\": \"%s\", \"name\": \"%s\", \"request\": %lld, "
                   "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f, "
                   "\"self_us\": %.3f}",
                   first ? "" : ",\n", phase, s.name.c_str(),
                   static_cast<long long>(s.request), s.parent,
                   s.start_ns * 1e-3, s.end_ns * 1e-3, self[i] * 1e-3);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::string Commit() {
  std::string commit = env::EnvString("HQ_COMMIT", "");
  if (!commit.empty() || !env::FileExists(".git")) {
    return commit.empty() ? "unknown" : commit;
  }
  std::FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  char buf[128] = {0};
  if (std::fgets(buf, sizeof(buf), p) != nullptr) commit = buf;
  ::pclose(p);
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == ' ')) {
    commit.pop_back();
  }
  return commit.empty() ? "unknown" : commit;
}

/// Every digit of a value as measured. A failed statement enters the
/// percentiles as infinitely slow; JSON has no infinity, so such a
/// percentile prints as the largest double.
std::string Full(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int SelfCheck(const Options& o) {
  uint64_t a = RequestLogHash(o.workload, o.seed, o.sf, kHashRequests);
  uint64_t b = RequestLogHash(o.workload, o.seed, o.sf, kHashRequests);
  uint64_t c = RequestLogHash(o.workload, o.seed + 1, o.sf, kHashRequests);
  std::printf("request_log_hash %s seed=%llu: %016llx, again: %016llx, "
              "seed+1: %016llx\n",
              WorkloadName(o.workload), static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(a),
              static_cast<unsigned long long>(b),
              static_cast<unsigned long long>(c));
  bool ok = a == b && a != c;
  std::printf("self-check %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena and a fixed mmap threshold, set before any thread
  // starts, so peak_rss_mb follows what the engine allocates rather than
  // the allocator's history. By default every result stream's producer
  // thread may get an arena of its own, depending on whether the previous
  // producer has exited yet, and each freed large block raises the mmap
  // threshold; about one run in eight then kept 50 MB more resident.
  ::mallopt(M_ARENA_MAX, 1);
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  bench::Flags flags(argc, argv);
  Options o;
  std::string workload = flags.GetString("workload", "");
  if (!ParseWorkload(workload, &o.workload)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=tpch_warm|adhoc_cold|stream_wide|"
                 "refresh_mixed [--seed=N] [--duration-s=S] [--trace] "
                 "[--json=FILE] [--trace-out=FILE] [--work-dir=DIR] "
                 "[--self-check]\n");
    return 2;
  }
  o.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  o.seconds = flags.GetDouble("duration-s", 30);
  o.trace = flags.GetBool("trace", false);
  o.sf = ScaleFactor(o.workload);
  o.json_path = flags.GetString("json", "");
  o.work_dir = flags.GetString("work-dir", "");
  if (o.work_dir.empty()) o.work_dir = env::ProcessTempDir();
  o.work_dir += "/e2e_" + std::to_string(::getpid());
  o.trace_path = flags.GetString(
      "trace-out",
      std::string("bench_e2e/results/trace_") + WorkloadName(o.workload) + ".json");
  if (flags.GetBool("self-check", false)) return SelfCheck(o);

  const int conns = Connections(o.workload);
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string commit = Commit();
  const uint64_t log_hash = RequestLogHash(o.workload, o.seed, o.sf, kHashRequests);
  std::printf("bench_e2e workload=%s seed=%llu duration_s=%.1f trace=%d\n",
              WorkloadName(o.workload), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("nproc=%u commit=%s sf=%.3f engine_threads=%u connections=%d "
              "setups=%d request_log_hash=%016llx\n",
              nproc, commit.c_str(), o.sf, kEngineThreads, conns, kSetups,
              static_cast<unsigned long long>(log_hash));
  std::fflush(stdout);

  // ---- set-up: load once, then engine + server + warm-up, several times.
  Catalog catalog;
  tpch::TpchOptions topts;
  topts.scale_factor = o.sf;
  WallTimer load_timer;
  Status load = tpch::LoadTpch(&catalog, topts);
  if (!load.ok()) {
    std::fprintf(stderr, "load failed: %s\n", load.ToString().c_str());
    return 1;
  }
  const double load_s = load_timer.ElapsedSeconds();
  const double rss_after_load_mb = MaxRssMb();
  std::vector<double> setup_runs;
  std::unique_ptr<Served> served;
  for (int rep = 0; rep < kSetups; ++rep) {
    served.reset();  // the previous set-up is torn down untimed
    WallTimer t;
    auto s = SetUp(o, &catalog, rep);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.status().ToString().c_str());
      return 1;
    }
    setup_runs.push_back(t.ElapsedSeconds());
    served = std::move(s).value();
  }
  const double rss_after_setup_mb = MaxRssMb();
  HiqueEngine* engine = served->engine.get();
  const uint64_t base_rows =
      TableRowsOf(&catalog, "lineitem") + TableRowsOf(&catalog, "orders");
  const CacheStats cache_before = engine->CacheStats();
  const uint64_t compactions_before = engine->compactor()->compactions();

  // ---- timed phase.
  Phase phase = RunTimed(o, served.get());
  const CacheStats cache_after = engine->CacheStats();
  const uint64_t compactions_after = engine->compactor()->compactions();
  const double peak_rss_mb = MaxRssMb();

  // ---- end-to-end metrics, over the statements started after the warm-up.
  // Latency covers reads (every statement except refresh_mixed's DML); a
  // failed read counts as infinitely slow. Failures, rows affected and the
  // read count behind the cache ratio cover the warm-up too.
  const double elapsed_s = (phase.end_ns - phase.start_ns) * 1e-9;
  std::vector<double> read_ms, dml_ms, traced_ms, untraced_ms;
  std::vector<double> first_frame_ms, drain_ms, overhead_ms;
  std::map<std::string, std::vector<double>> read_ms_by_tmpl;
  int64_t attempted = 0, failed = 0, reads = 0;
  int64_t inserted = 0, deleted = 0, timed_refresh_rows = 0;
  uint64_t max_stream = 0;
  for (const Sample& s : phase.samples) {
    ++attempted;
    if (!s.ok) {
      ++failed;
      std::fprintf(stderr, "statement failed: %s\n", s.error.c_str());
    }
    double ms = s.ok ? s.latency_ms() : std::numeric_limits<double>::infinity();
    if (!s.is_read()) {
      (s.request.tmpl == "rf1" ? inserted : deleted) += s.rows_affected;
      max_stream = std::max(max_stream, s.request.rf_stream);
      if (s.timed) {
        dml_ms.push_back(ms);
        timed_refresh_rows += s.rows_affected;
      }
      continue;
    }
    ++reads;
    if (!s.timed) continue;
    read_ms.push_back(ms);
    read_ms_by_tmpl[s.request.tmpl].push_back(ms);
    (s.traced ? traced_ms : untraced_ms).push_back(ms);
    if (s.traced && s.ok) {
      first_frame_ms.push_back((s.first_ns - s.start_ns) * 1e-6);
      drain_ms.push_back((s.end_ns - s.first_ns) * 1e-6);
      overhead_ms.push_back(s.latency_ms() - s.server_execute_ms);
    }
  }
  const double setup_s = load_s + Median(setup_runs);
  // The server picks up a finished result at its next 2 ms event-loop
  // poll, so latencies cluster on steps one poll apart and a percentile
  // sits on one of the steps: a few percent of host speed can move it a
  // whole step. The mean moves with the share of statements that change
  // step, so it is the tracked latency and the percentiles are per-layer.
  Metrics e2e = {
      {"latency_mean_ms",
       read_ms.empty() ? 0
                       : std::accumulate(read_ms.begin(), read_ms.end(), 0.0) /
                             read_ms.size(),
       "ms"},
      {"throughput_qps", WindowedThroughput(phase), "1/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  // Per-layer metrics of BENCHMARK.json, reported in every run.
  Metrics percentiles = {
      {"latency_p50_ms", Quantile(read_ms, 0.50), "ms"},
      {"latency_p90_ms", Quantile(read_ms, 0.90), "ms"},
  };
  // Reported by this binary but not tracked by BENCHMARK.json: each
  // applies to only some workloads, or is zero whenever the run is valid.
  Metrics extra = {
      {"error_rate", attempted > 0 ? static_cast<double>(failed) / attempted : 0,
       "ratio"},
      {"load_s", load_s, "s"},
      {"rss_after_load_mb", rss_after_load_mb, "MB"},
      {"rss_after_setup_mb", rss_after_setup_mb, "MB"},
      {"samples.reads", static_cast<double>(read_ms.size()), "count"},
  };
  // A percentile is reported only with at least ten samples beyond it.
  if (read_ms.size() >= 1000) {
    extra.push_back({"latency_p99_ms", Quantile(read_ms, 0.99), "ms"});
  }
  for (const auto& [tmpl, v] : read_ms_by_tmpl) {
    extra.push_back({"latency_p50_ms." + tmpl, Median(v), "ms"});
  }
  if (o.workload == Workload::kRefreshMixed) {
    extra.push_back({"refresh_rows_per_s", timed_refresh_rows / elapsed_s,
                     "rows/s"});
    extra.push_back({"dml_p50_ms", Quantile(dml_ms, 0.50), "ms"});
    extra.push_back({"samples.dml", static_cast<double>(dml_ms.size()), "count"});
  }
  PrintMetrics("end-to-end:", e2e);
  PrintMetrics("read latency percentiles:", percentiles);
  PrintMetrics("also reported:", extra);

  // ---- correctness.
  bool correct = failed == 0;
  std::string why;
  if (o.workload == Workload::kRefreshMixed) {
    // Rows-affected conservation: after folding the deltas, lineitem+orders
    // must hold exactly the base rows plus inserts minus deletes.
    for (const char* t : {"orders", "lineitem"}) {
      Status c = engine->compactor()->CompactNow(t);
      if (!c.ok()) {
        correct = false;
        why = c.ToString();
      }
    }
    uint64_t final_rows =
        TableRowsOf(&catalog, "lineitem") + TableRowsOf(&catalog, "orders");
    if (final_rows != base_rows + inserted - deleted) {
      correct = false;
      why = "merged state lost rows: " + std::to_string(base_rows) + " + " +
            std::to_string(inserted) + " - " + std::to_string(deleted) +
            " != " + std::to_string(final_rows);
    }
  }
  int checked = 0;
  WallTimer check_timer;
  if (correct) {
    Status st = CheckResults(o, served.get(), &catalog, phase, &checked);
    if (!st.ok()) {
      correct = false;
      why = st.ToString();
    }
  }
  std::printf("correctness: %d distinct statements match the column engine%s "
              "(%.1f s)\n",
              checked,
              o.workload == Workload::kRefreshMixed
                  ? ", rows-affected conservation holds" : "",
              check_timer.ElapsedSeconds());
  if (!correct) std::printf("FAILED: %s\n", why.empty() ? "statements failed" : why.c_str());

  // ---- traced run: per-layer metrics.
  Metrics layers;
  Metrics details;
  if (o.trace) {
    std::vector<LoggedRequest> log;
    std::vector<size_t> taken(conns, 0);
    for (const Sample& s : phase.samples) {
      if (taken[s.conn] < kReplayPerConnection) {
        ++taken[s.conn];
        log.push_back({s.request, s.opt_level});
      }
    }
    ReplayOptions ro;
    ro.gen_dir = o.work_dir + "/replay";
    ro.threads = kEngineThreads;
    ro.sf = o.sf;
    ro.seed = o.seed;
    ro.dml_stream_offset = max_stream + 1;
    SpanLog replay_spans;
    auto replay = Replay(log, engine, ro, &replay_spans);
    if (!replay.ok()) {
      correct = false;
      std::printf("FAILED: replay: %s\n", replay.status().ToString().c_str());
    } else {
      layers = replay.value().layers;
      details = replay.value().details;
    }
    uint64_t hits = cache_after.hits - cache_before.hits;
    uint64_t misses = cache_after.misses - cache_before.misses;
    double p50_untraced = Median(untraced_ms);
    Metrics engine_layers = {
        // Share of reads served without a compile: 1 - misses / reads.
        {"exec.cache_hit_ratio",
         reads > 0 ? std::max(0.0, 1.0 - static_cast<double>(misses) / reads) : 0,
         "ratio"},
        {"exec.cache_hits", static_cast<double>(hits), "count"},
        {"exec.cache_misses", static_cast<double>(misses), "count"},
        {"exec.cache_evictions",
         static_cast<double>(cache_after.evictions - cache_before.evictions),
         "count"},
        {"exec.tier_upgrades",
         static_cast<double>(cache_after.tier_upgrades - cache_before.tier_upgrades),
         "count"},
        {"txn.compactions",
         static_cast<double>(compactions_after - compactions_before), "count"},
        {"net.first_frame_ms", Median(first_frame_ms), "ms"},
        {"net.drain_ms", Median(drain_ms), "ms"},
        {"net.overhead_ms", Median(overhead_ms), "ms"},
        {"trace.overhead_pct",
         p50_untraced > 0 ? (Median(traced_ms) - p50_untraced) / p50_untraced * 100
                          : 0,
         "%"},
    };
    layers.insert(layers.end(), engine_layers.begin(), engine_layers.end());
    PrintMetrics("per-layer:", layers);
    PrintMetrics("per-template and per-operator:", details);

    double self_err = std::max(SelfTimeErrorPct(phase.spans.spans()),
                               SelfTimeErrorPct(replay_spans.spans()));
    std::printf("self-time check: worst request off by %.4f%%\n", self_err);
    if (self_err > 1.0) {
      correct = false;
      std::printf("FAILED: span self times do not add up to their request\n");
    }
    if (WriteTrace(o.trace_path, o,
                   {{"timed", &phase.spans}, {"replay", &replay_spans}})) {
      std::printf("wrote %s\n", o.trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", o.trace_path.c_str());
    }
  }

  if (!o.json_path.empty()) {
    bench::JsonObj metrics;
    for (const Metrics* group : {&e2e, &percentiles, &extra, &layers, &details}) {
      for (const Metric& m : *group) {
        metrics.Add(m.name, bench::JsonObj().Num("value", m.value).Str("unit", m.unit).Render());
      }
    }
    std::string doc =
        bench::JsonObj()
            .Str("bench", "e2e")
            .Str("workload", WorkloadName(o.workload))
            .Int("seed", static_cast<int64_t>(o.seed))
            .Num("duration_s", o.seconds)
            .Int("trace", o.trace ? 1 : 0)
            .Int("nproc", nproc)
            .Str("commit", commit)
            .Num("scale_factor", o.sf)
            .Int("engine_threads", kEngineThreads)
            .Int("connections", conns)
            .Int("setups", kSetups)
            .Str("request_log_hash", [&] {
              char buf[24];
              std::snprintf(buf, sizeof(buf), "%016llx",
                            static_cast<unsigned long long>(log_hash));
              return std::string(buf);
            }())
            .Int("attempted", attempted)
            .Int("failed", failed)
            .Int("checked", checked)
            .Int("correct", correct ? 1 : 0)
            .Add("metrics", metrics.Render())
            .Render();
    if (!bench::WriteJsonFile(o.json_path, doc)) correct = false;
  }

  served.reset();
  (void)env::RemoveTree(o.work_dir);

  Metrics reported = e2e;
  if (o.trace) {
    reported = percentiles;
    reported.insert(reported.end(), layers.begin(), layers.end());
  }
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    line += (i ? ", " : "") + bench::JsonStr(reported[i].name) +
            ": {\"value\": " + Full(reported[i].value) +
            ", \"unit\": " + bench::JsonStr(reported[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
