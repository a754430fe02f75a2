// The session layer: Session / ResultSet / QueryHandle implementations plus
// the HiqueEngine client-facing wrappers built on them. Every statement
// passes one pipeline — classify, open, run — and the entry points differ
// only in the page sink Run feeds: a cursor runs it on a producer thread
// into a bounded StreamCore, a blocking call on the calling thread into a
// result table, and an async call is a blocking call on an admission slot.
// The materialized and streamed results are bit-identical by construction.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "exec/session_internal.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "util/macros.h"
#include "util/timer.h"

namespace hique {

// ---- StreamCore ------------------------------------------------------------

StreamCore::~StreamCore() {
  for (Page* p : queue) std::free(p);
  for (Page* p : free_pages) std::free(p);
}

Page* StreamCore::AcquirePage() {
  {
    std::lock_guard<std::mutex> lk(mu);
    if (!free_pages.empty()) {
      Page* page = free_pages.back();
      free_pages.pop_back();
      ++pages_recycled;
      return page;
    }
    ++pages_allocated;
  }
  void* mem = nullptr;
  if (posix_memalign(&mem, kPageSize, kPageSize) != 0 || mem == nullptr) {
    return nullptr;
  }
  return static_cast<Page*>(mem);
}

void StreamCore::Recycle(Page* page) {
  if (page == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(mu);
    // The free-list is bounded by the residency bound: the producer can
    // never have more pages in flight than that, so anything beyond it
    // would sit idle until the stream ends.
    if (free_pages.size() < capacity + 2) {
      free_pages.push_back(page);
      return;
    }
  }
  std::free(page);
}

std::function<void()> StreamCore::TakeReadyLocked() {
  if (!ready_armed) return nullptr;
  ready_armed = false;
  return ready;
}

bool StreamCore::Push(Page* page) {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return closed || queue.size() < capacity; });
  if (closed) {
    lk.unlock();
    std::free(page);
    return false;
  }
  queue.push_back(page);
  // Peak residency: buffered pages + the page the producer fills next +
  // the page the consumer holds.
  uint32_t resident = static_cast<uint32_t>(queue.size()) + 2;
  if (resident > peak_resident) peak_resident = resident;
  std::function<void()> wake = TakeReadyLocked();
  lk.unlock();
  cv.notify_all();
  if (wake) wake();
  return true;
}

void StreamCore::Finish(Status status, const exec::ExecStats& s,
                        StatementMeta m) {
  std::function<void()> wake;
  {
    std::lock_guard<std::mutex> lk(mu);
    final_status = std::move(status);
    stats = s;
    meta = std::move(m);
    finished = true;
    wake = TakeReadyLocked();
  }
  cv.notify_all();
  if (wake) wake();
}

Page* StreamCore::Pop() {
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return !queue.empty() || finished || closed; });
  if (!queue.empty()) {
    Page* page = queue.front();
    queue.pop_front();
    cv.notify_all();  // wake a producer blocked on the capacity bound
    return page;
  }
  return nullptr;
}

bool StreamCore::TryPop(Page** out, bool* ended) {
  std::unique_lock<std::mutex> lk(mu);
  if (!queue.empty()) {
    *out = queue.front();
    queue.pop_front();
    lk.unlock();
    cv.notify_all();
    return true;
  }
  if (finished || closed) {
    *out = nullptr;
    *ended = true;
    return true;
  }
  ready_armed = true;
  return false;
}

void StreamCore::CancelAndClose() {
  cancel.store(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(mu);
    closed = true;
  }
  cv.notify_all();
}

// ---- Statement metrics -----------------------------------------------------

namespace {

/// Folds a completed statement's execution stats into the session gauges
/// behind Session::Stats(): effective executor width (last statement wins)
/// and the lifetime-max per-barrier skew ratio.
void RecordExecGauges(Session::State* session, const exec::ExecStats& stats) {
  session->stat_threads_effective.store(stats.threads,
                                        std::memory_order_relaxed);
  auto skew_milli = static_cast<uint64_t>(stats.skew_ratio * 1000.0);
  uint64_t cur = session->stat_skew_milli.load(std::memory_order_relaxed);
  while (skew_milli > cur &&
         !session->stat_skew_milli.compare_exchange_weak(
             cur, skew_milli, std::memory_order_relaxed)) {
  }
  session->stat_bp_hits.fetch_add(stats.bp_hits, std::memory_order_relaxed);
  session->stat_bp_misses.fetch_add(stats.bp_misses,
                                    std::memory_order_relaxed);
  session->stat_bp_evictions.fetch_add(stats.bp_evictions,
                                       std::memory_order_relaxed);
}

/// Process-wide statement instruments, resolved once (the registry mutex is
/// touched only on first use; the hot path is lock-free shard updates).
struct StatementMetrics {
  obs::Counter* statements;
  obs::Counter* failed;
  obs::Counter* rows;
  obs::Counter* slow;
  obs::Counter* bp_hits;
  obs::Counter* bp_misses;
  obs::Counter* bp_evictions;
  obs::Counter* barriers;
  obs::Counter* tasks;
  obs::Histogram* execute_ms;
  obs::Histogram* total_ms;
  obs::Histogram* admission_wait_ms;
  static StatementMetrics& Get() {
    static StatementMetrics* m = [] {
      auto* r = &obs::Registry::Global();
      auto* it = new StatementMetrics();
      it->statements = r->GetCounter("hique_statements_total",
                                     "Statements completed successfully");
      it->failed = r->GetCounter("hique_statements_failed_total",
                                 "Statements that finished with an error");
      it->rows = r->GetCounter("hique_result_rows_total",
                               "Result rows produced by completed statements");
      it->slow = r->GetCounter("hique_slow_queries_total",
                               "Statements recorded in the slow-query log");
      it->bp_hits = r->GetCounter("hique_bufferpool_hits_total",
                                  "Buffer-pool page hits (statement deltas)");
      it->bp_misses =
          r->GetCounter("hique_bufferpool_misses_total",
                        "Buffer-pool page misses (statement deltas)");
      it->bp_evictions =
          r->GetCounter("hique_bufferpool_evictions_total",
                        "Buffer-pool evictions (statement deltas)");
      it->barriers = r->GetCounter("hique_exec_barriers_total",
                                   "Parallel-for barriers executed");
      it->tasks = r->GetCounter("hique_exec_tasks_total",
                                "Parallel-for tasks executed");
      it->execute_ms = r->GetHistogram(
          "hique_statement_execute_ms",
          "Execute-phase wall time per statement (milliseconds)",
          obs::LatencyBucketsMs());
      it->total_ms = r->GetHistogram(
          "hique_statement_total_ms",
          "End-to-end wall time per statement (milliseconds)",
          obs::LatencyBucketsMs());
      it->admission_wait_ms = r->GetHistogram(
          "hique_admission_wait_ms",
          "Admission-queue wait before dispatch (milliseconds)",
          obs::LatencyBucketsMs());
      return it;
    }();
    return *m;
  }
};

double TotalMs(const QueryTimings& t) {
  return t.parse_ms + t.optimize_ms + t.generate_ms + t.compile_ms +
         t.execute_ms;
}

/// Statement-completion fold: latency histograms, row counters, and the
/// engine's slow-query log.
void RecordStatementDone(const StatementRun& r, int64_t rows) {
  auto& m = StatementMetrics::Get();
  m.statements->Increment();
  if (rows > 0) m.rows->Add(static_cast<uint64_t>(rows));
  m.bp_hits->Add(r.stats.bp_hits);
  m.bp_misses->Add(r.stats.bp_misses);
  m.bp_evictions->Add(r.stats.bp_evictions);
  m.barriers->Add(r.stats.par_barriers);
  m.tasks->Add(r.stats.par_tasks);
  m.execute_ms->Observe(r.meta.timings.execute_ms);
  double total = TotalMs(r.meta.timings);
  m.total_ms->Observe(total);
  HiqueEngine* engine = r.session->engine;
  if (engine->slow_query_ms() > 0 && total >= engine->slow_query_ms()) {
    m.slow->Increment();
    obs::SlowQueryEntry entry;
    entry.sql = r.source.sql;
    entry.signature = r.meta.plan_signature;
    entry.total_ms = total;
    entry.span_summary = obs::SpanSummaryLine(r.meta.timings, r.stats);
    engine->slow_log()->Record(std::move(entry));
  }
}

Status SessionClosedError() {
  return Status::ExecError("session is closed");
}

Status CancelledError() { return Status::ExecError("query cancelled"); }

/// Registers a stream's handoff core with its session so Close() can cancel
/// it; fails when the session has been closed.
Status RegisterStream(Session::State* session,
                      const std::shared_ptr<StreamCore>& core) {
  std::lock_guard<std::mutex> lk(session->mu);
  if (session->closed) return SessionClosedError();
  auto& streams = session->streams;
  streams.erase(std::remove_if(streams.begin(), streams.end(),
                               [](const std::weak_ptr<StreamCore>& w) {
                                 return w.expired();
                               }),
                streams.end());
  streams.push_back(core);
  return Status::OK();
}

// ---- Stage 1: classify -----------------------------------------------------

enum class StatementKind { kSelect, kExplain, kExplainAnalyze, kDml };

/// Sorts SQL text by its leading keywords (lexically; the statement itself
/// may still fail to parse). For EXPLAIN, `*inner` receives the explained
/// statement.
StatementKind Classify(const std::string& sql, std::string* inner) {
  bool analyze = false;
  if (sql::ParseExplainPrefix(sql, &analyze, inner)) {
    return analyze ? StatementKind::kExplainAnalyze : StatementKind::kExplain;
  }
  return sql::IsDmlStatement(sql) ? StatementKind::kDml
                                  : StatementKind::kSelect;
}

StatementSource TextSource(const Session::State& session,
                           const std::string& sql) {
  StatementSource source;
  source.sql = sql;
  source.planner = session.planner;
  return source;
}

StatementSource PreparedSource(const PreparedStatement& stmt,
                               const std::vector<Value>& values) {
  StatementSource source;
  source.stmt = stmt;
  source.values = values;
  return source;
}

// ---- Stage 2 helpers: answers known at open --------------------------------

/// A one-CHAR-column table named "plan", one row per line, sized to the
/// longest line. CHAR(N) is the only variable-width type the engine has,
/// and a text report is the only result shape that flows through every
/// surface (rows, pages, wire) without a new protocol concept.
Result<std::unique_ptr<Table>> TextTable(
    const std::vector<std::string>& lines) {
  size_t width = 1;
  for (const auto& line : lines) width = std::max(width, line.size());
  // A tuple must fit one NSM page (and leave the 8-byte rounding room).
  constexpr size_t kMaxWidth = 1024;
  if (width > kMaxWidth) width = kMaxWidth;
  auto w = static_cast<uint16_t>(width);

  Schema schema;
  schema.AddColumn("plan", Type::Char(w));
  auto table = std::make_unique<Table>("explain", schema);
  for (const auto& line : lines) {
    std::string text = line.size() > width ? line.substr(0, width) : line;
    HQ_RETURN_IF_ERROR(table->AppendRow({Value::Char(std::move(text), w)}));
  }
  return table;
}

/// The one constructor for a stream answered at open (DML, EXPLAIN): the
/// answer's rows are copied into pages of a sealed core, so the row loop,
/// the page pump and the wire server serve it like any other result.
/// `table` is null for DML, which has no result relation.
Result<std::unique_ptr<ResultSet::Stream>> FinishedStream(
    const std::shared_ptr<Session::State>& session,
    std::unique_ptr<Table> table, StatementMeta meta,
    const exec::ExecStats& stats) {
  auto stream = std::make_unique<ResultSet::Stream>();
  stream->run.session = session;
  const int64_t rows =
      table != nullptr ? static_cast<int64_t>(table->NumTuples()) : 0;
  if (table != nullptr) stream->schema = table->schema();
  const uint32_t tuple_size = stream->schema.TupleSize();
  stream->tuple_size = tuple_size;
  const uint32_t per_page =
      table != nullptr ? Page::TuplesPerPage(tuple_size) : 1;
  // Capacity covers every page up front, so the sealed core is filled
  // without a consumer: Push only blocks once `capacity` pages queue up.
  auto pages_needed = static_cast<uint32_t>(
      (static_cast<uint64_t>(rows) + per_page - 1) / per_page);
  auto core = std::make_shared<StreamCore>(pages_needed < 1 ? 1 : pages_needed);

  Page* page = nullptr;
  uint32_t slot = 0;
  bool failed = false;
  auto flush = [&] {
    if (page == nullptr) return;
    page->num_tuples = slot;
    if (!core->Push(page)) failed = true;
    page = nullptr;
    slot = 0;
  };
  if (table != nullptr) {
    HQ_RETURN_IF_ERROR(table->ForEachTuple([&](const uint8_t* tuple) {
      if (failed) return;
      if (page == nullptr) {
        page = core->AcquirePage();
        if (page == nullptr) {
          failed = true;
          return;
        }
        std::memset(page, 0, kPageSize);
      }
      std::memcpy(page->TupleAt(slot, tuple_size), tuple, tuple_size);
      if (++slot == per_page) flush();
    }));
  }
  if (!failed) flush();
  if (failed) return Status::ExecError("out of memory materializing a result");
  stream->meta = meta;
  stream->stats = stats;
  core->Finish(Status::OK(), stats, std::move(meta));
  stream->core = std::move(core);
  return stream;
}

QueryResult AssembleResult(HiqueEngine* engine, const StatementMeta& meta,
                           const exec::ExecStats& stats,
                           std::unique_ptr<Table> table) {
  QueryResult result;
  if (table != nullptr) result.schema = table->schema();
  result.table = std::move(table);
  result.timings = meta.timings;
  result.source_bytes = meta.source_bytes;
  result.library_bytes = meta.library_bytes;
  result.generated_source = meta.generated_source;
  result.plan_text = meta.plan_text;
  result.plan_signature = meta.plan_signature;
  result.cache_hit = meta.cache_hit;
  result.library_opt_level = meta.opt_level;
  result.rows_affected = meta.rows_affected;
  result.exec_stats = stats;
  result.cache_stats = engine->CacheStats();
  return result;
}

/// The blocking sink: Run on the calling thread, with each result page
/// adopted straight into the result table — no thread, no handoff queue.
Result<std::unique_ptr<Table>> Drain(ResultSet::Stream* s,
                                     std::atomic<int32_t>* cancel) {
  auto table = std::make_unique<Table>("result", s->schema);
  Status adopted = Status::OK();
  auto on_page = [&](Page* page) {
    adopted = table->AdoptPage(page);
    if (adopted.ok()) return true;
    std::free(page);
    return false;
  };
  Status ran = SessionImpl::Run(&s->run, on_page, /*alloc_page=*/{}, cancel);
  HQ_RETURN_IF_ERROR(adopted);
  HQ_RETURN_IF_ERROR(ran);
  return table;
}

/// End of stream: joins the producer and applies what it published through
/// the core — the final status, stats and (possibly replanned) metadata.
void EndStream(ResultSet::Stream* s) {
  if (s->producer.joinable()) s->producer.join();
  std::lock_guard<std::mutex> lk(s->core->mu);
  s->end_status = s->core->final_status;
  s->stats = s->core->stats;
  s->meta = s->core->meta;
  s->done = true;
}

/// Next completed page (ownership to the caller), or null at end of stream.
Page* PullPage(ResultSet::Stream* s) {
  if (s->done) return nullptr;
  Page* page = s->core->Pop();
  if (page == nullptr) EndStream(s);
  return page;
}

}  // namespace

// ---- Stage 2: open ---------------------------------------------------------

Result<std::unique_ptr<ResultSet::Stream>> SessionImpl::Open(
    const std::shared_ptr<Session::State>& session, StatementSource source,
    std::atomic<int32_t>* cancel) {
  HiqueEngine* engine = session->engine;
  {
    std::lock_guard<std::mutex> lk(session->mu);
    if (session->closed) return SessionClosedError();
  }
  std::string inner;
  StatementKind kind;
  if (source.stmt.has_value()) {
    if (!source.stmt->valid()) {
      return Status::BindError(
          "invalid (default-constructed) PreparedStatement");
    }
    const PreparedStatement::State& prepared = *source.stmt->state_;
    source.sql = prepared.sql;
    source.planner = prepared.planner;
    kind = prepared.is_dml ? StatementKind::kDml : StatementKind::kSelect;
  } else {
    kind = Classify(source.sql, &inner);
  }

  switch (kind) {
    case StatementKind::kDml: {
      // Writes bypass the compiled-query machinery: the statement executes
      // before any cursor exists, and the answer is the affected-row count.
      if (!source.values.empty()) {
        return Status::BindError("DML statements take no parameter values");
      }
      WallTimer timer;
      HQ_ASSIGN_OR_RETURN(uint64_t affected, engine->ExecuteDml(source.sql));
      StatementMeta meta;
      meta.plan_text = "dml";
      meta.rows_affected = static_cast<int64_t>(affected);
      meta.timings.execute_ms = timer.ElapsedMillis();
      return FinishedStream(session, nullptr, std::move(meta), {});
    }
    case StatementKind::kExplain:
    case StatementKind::kExplainAnalyze: {
      std::string nested;
      if (Classify(inner, &nested) != StatementKind::kSelect) {
        return Status::PlanError("EXPLAIN supports SELECT statements only");
      }
      // Plan (and for ANALYZE, run with span collection forced) the inner
      // statement through the real pipeline — same restarts, same metrics
      // fold — then render the report.
      source.sql = std::move(inner);
      HQ_ASSIGN_OR_RETURN(auto planned,
                          Open(session, std::move(source), cancel));
      StatementRun& run = planned->run;
      std::vector<std::string> lines;
      if (kind == StatementKind::kExplain) {
        lines = obs::RenderExplainLines(run.meta.plan_text,
                                        run.meta.plan_signature,
                                        run.meta.cache_hit, run.meta.opt_level);
      } else {
        run.force_op_stats = true;
        HQ_RETURN_IF_ERROR(Drain(planned.get(), cancel).status());
        lines = obs::RenderAnalyzeLines(
            run.meta.plan_text, run.meta.plan_signature, run.meta.cache_hit,
            run.meta.opt_level, run.meta.timings, run.stats);
      }
      HQ_ASSIGN_OR_RETURN(auto report, TextTable(lines));
      return FinishedStream(session, std::move(report), run.meta, run.stats);
    }
    case StatementKind::kSelect:
      break;
  }

  std::shared_ptr<const PreparedStatement::State> state;
  if (source.stmt.has_value()) {
    // A previous execution already hit the map-overflow fallback (stale
    // statistics): start there, skipping the known-doomed map plan.
    const auto& prepared = source.stmt->state_;
    std::lock_guard<std::mutex> lk(prepared->fallback_mu);
    state = prepared->fallback != nullptr ? prepared->fallback : prepared;
  } else {
    HQ_ASSIGN_OR_RETURN(state, engine->PrepareState(
                                   source.sql, source.planner,
                                   /*force_hybrid_agg=*/false,
                                   /*allow_placeholders=*/false));
  }
  auto stream = std::make_unique<ResultSet::Stream>();
  StatementRun& run = stream->run;
  run.session = session;
  run.source = std::move(source);
  HQ_RETURN_IF_ERROR(Adopt(&run, std::move(state)));
  stream->schema = run.state->plan->output_schema;
  stream->tuple_size = stream->schema.TupleSize();
  stream->meta = run.meta;
  return stream;
}

Status SessionImpl::Adopt(
    StatementRun* run, std::shared_ptr<const PreparedStatement::State> state) {
  HiqueEngine* engine = run->session->engine;
  const bool prepared = run->source.stmt.has_value();
  run->state = std::move(state);
  run->library = run->state->library;
  if (prepared) {
    // Prefer the cache's current library for this signature: the background
    // worker may have swapped in the -O2 tier since Prepare. The statement's
    // pinned library is the eviction-proof fallback.
    auto current = engine->PeekLibrary(run->state->signature);
    if (current != nullptr) run->library = std::move(current);
  }
  StatementMeta& meta = run->meta;
  meta.plan_signature = run->state->signature;
  meta.plan_text = run->state->plan_text;
  meta.opt_level = run->library->opt_level();
  meta.source_bytes = run->library->compiled().source_bytes;
  meta.library_bytes = run->library->compiled().library_bytes;
  if (engine->options().keep_source) {
    meta.generated_source = run->library->source();
  }
  if (prepared) {
    meta.cache_hit = true;  // Execute never generates or compiles
    return exec::BindParamValues(run->state->plan->params, run->source.values,
                                 &run->bound);
  }
  meta.cache_hit = run->state->cache_hit;
  meta.timings = run->state->prepare_timings;
  exec::BindParams(run->state->plan->params, &run->bound);
  return Status::OK();
}

// ---- Stage 3: run ----------------------------------------------------------

/// Locks the writer mutexes of `tables` in address order, the one order
/// every reader uses, so two readers cannot deadlock.
static std::vector<std::unique_lock<std::mutex>> LockWriters(
    std::vector<Table*> tables) {
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  std::vector<std::unique_lock<std::mutex>> locks;
  for (Table* t : tables) locks.emplace_back(t->writer_mutex());
  return locks;
}

Status SessionImpl::Run(StatementRun* run, const exec::ResultPageFn& on_page,
                        const exec::PageAllocFn& alloc_page,
                        std::atomic<int32_t>* cancel) {
  HiqueEngine* engine = run->session->engine;
  const Session::State& session = *run->session;
  WallTimer timer;
  exec::ParallelRuntime par;
  par.pool = session.options.threads == 1 ? nullptr
                                          : engine->worker_pool_.get();
  par.arena_limit_bytes =
      session.options.arena_limit_bytes == SessionOptions::kInheritArenaLimit
          ? engine->options().arena_limit_bytes
          : session.options.arena_limit_bytes;
  par.cancel = cancel;
  par.priority = session.options.priority;
  par.collect_op_stats = run->force_op_stats || engine->trace_spans();
  par.collect_op_cycles = run->force_op_stats;

  // The last stale restart re-prepares and pins while holding the writer
  // mutex of every table the statement reads. DML and compaction move a
  // layout only under that mutex, so the pin matches the new plan: a
  // compaction storm delays a reader but cannot starve it. The mutexes go
  // at the first result page (the snapshot is pinned by then), so a slow
  // consumer never holds up writers.
  std::vector<std::unique_lock<std::mutex>> writers;
  uint64_t delivered = 0;
  const exec::ResultPageFn deliver = [&](Page* page) {
    writers.clear();
    ++delivered;
    return on_page(page);
  };
  exec::PageAllocFn alloc = alloc_page;
  if (alloc_page) {
    alloc = [&]() {
      writers.clear();
      return alloc_page();
    };
  }
  bool hybrid = false;
  uint32_t stale_replans = 0;
  std::string failed_signature;
  plan::ParamTable failed_params;
  for (;;) {
    exec::ExecStats stats;
    auto rows = exec::ExecuteEntryStreaming(
        run->state->plan->query->tables, run->state->plan->output_schema,
        run->library->entry(), &run->bound.abi, &stats, par, deliver, alloc,
        &run->state->table_layouts);
    writers.clear();
    // The restart policy. Stale statistics overflowed map aggregation's
    // directories: re-plan once with hybrid aggregation. A compaction or
    // compression rewrite moved a table's pages between preparation and
    // pinning: re-prepare against the new layout, at most three times, the
    // last under the writer mutexes (see `writers`). Either only while the
    // consumer has seen nothing.
    const bool overflow =
        !rows.ok() && !hybrid && exec::IsMapOverflow(rows.status());
    const bool stale =
        !rows.ok() && stale_replans < 3 && exec::IsStalePlan(rows.status());
    if ((overflow || stale) && delivered == 0) {
      if (overflow) {
        hybrid = true;
        failed_signature = run->state->signature;
        failed_params = run->state->plan->params;
      } else if (++stale_replans == 3) {
        writers = LockWriters(run->state->plan->query->tables);
      }
      Status replanned = Replan(run, overflow);
      if (replanned.ok()) continue;
      rows = std::move(replanned);
    }
    run->stats = stats;
    run->meta.timings.execute_ms = timer.ElapsedMillis();
    RecordExecGauges(run->session.get(), stats);
    if (!rows.ok()) {
      StatementMetrics::Get().failed->Increment();
      return rows.status();
    }
    RecordStatementDone(*run, rows.value());
    if (hybrid && !run->source.stmt.has_value()) {
      // Alias the working hybrid library under the overflowing plan's
      // signature so the next Query of this text skips the doomed plan.
      engine->InstallOverflowAlias(failed_signature, failed_params,
                                   *run->state);
    }
    return Status::OK();
  }
}

Status SessionImpl::Replan(StatementRun* run, bool hybrid) {
  HiqueEngine* engine = run->session->engine;
  const StatementSource& source = run->source;
  std::shared_ptr<const PreparedStatement::State> next;
  if (hybrid && source.stmt.has_value()) {
    const PreparedStatement::State& prepared = *source.stmt->state_;
    std::lock_guard<std::mutex> lk(prepared.fallback_mu);
    if (prepared.fallback == nullptr) {
      HQ_ASSIGN_OR_RETURN(prepared.fallback,
                          engine->PrepareState(source.sql, source.planner,
                                               /*force_hybrid_agg=*/true,
                                               /*allow_placeholders=*/true));
    }
    next = prepared.fallback;
  } else {
    const bool placeholders = source.stmt.has_value();
    HQ_ASSIGN_OR_RETURN(next, engine->PrepareState(source.sql, source.planner,
                                                   hybrid, placeholders));
  }
  return Adopt(run, std::move(next));
}

// ---- Entry points: which sink Run feeds ------------------------------------

Result<QueryResult> SessionImpl::Blocking(
    const std::shared_ptr<Session::State>& session, StatementSource source,
    std::atomic<int32_t>* cancel) {
  HQ_ASSIGN_OR_RETURN(auto stream, Open(session, std::move(source), cancel));
  if (stream->core != nullptr) {
    // Answered at open (DML, EXPLAIN): read the finished stream back.
    ResultSet answered;
    answered.stream_ = std::move(stream);
    return answered.Materialize();
  }
  HQ_ASSIGN_OR_RETURN(auto table, Drain(stream.get(), cancel));
  return AssembleResult(session->engine, stream->run.meta, stream->run.stats,
                        std::move(table));
}

Result<ResultSet> SessionImpl::Cursor(
    const std::shared_ptr<Session::State>& session, StatementSource source) {
  HQ_ASSIGN_OR_RETURN(auto stream, Open(session, std::move(source), nullptr));
  if (stream->core == nullptr) {
    stream->core = std::make_shared<StreamCore>(session->stream_buffer_pages);
    HQ_RETURN_IF_ERROR(RegisterStream(session.get(), stream->core));
    StatementRun* run = &stream->run;
    std::shared_ptr<StreamCore> core = stream->core;
    stream->producer = std::thread([run, core] {
      Status ran = Run(
          run, [&core](Page* page) { return core->Push(page); },
          [&core]() { return core->AcquirePage(); }, &core->cancel);
      core->Finish(std::move(ran), run->stats, run->meta);
    });
  }
  session->stat_streams_opened.fetch_add(1, std::memory_order_relaxed);
  ResultSet rs;
  rs.stream_ = std::move(stream);
  return rs;
}

// ---- Admission accounting --------------------------------------------------

/// Debits the session's queue-depth gauge exactly once per async job, no
/// matter which path settles it (dispatch, Cancel dequeue, session close,
/// controller shutdown).
static void DebitQueued(const std::shared_ptr<QueryHandle::AsyncState>& s) {
  bool expected = false;
  if (!s->dequeued.compare_exchange_strong(expected, true)) return;
  if (auto session = s->session.lock()) {
    session->stat_queued.fetch_sub(1, std::memory_order_relaxed);
  }
}

SessionImpl::AdmissionLease::AdmissionLease(
    const std::shared_ptr<Session::State>& session) {
  if (session == nullptr || session->engine == nullptr) return;
  controller_ = session->engine->admission();
  session->stat_submitted.fetch_add(1, std::memory_order_relaxed);
  session->stat_queued.fetch_add(1, std::memory_order_relaxed);
  WallTimer wait;
  leased_ = controller_->EnterBlocking(&session->client);
  session->stat_queued.fetch_sub(1, std::memory_order_relaxed);
  session->stat_dispatched.fetch_add(1, std::memory_order_relaxed);
  int64_t waited_micros = wait.ElapsedMicros();
  session->stat_wait_micros.fetch_add(waited_micros,
                                      std::memory_order_relaxed);
  StatementMetrics::Get().admission_wait_ms->Observe(
      static_cast<double>(waited_micros) / 1000.0);
  if (!leased_) controller_ = nullptr;  // shutting down: nothing to release
}

SessionImpl::AdmissionLease::~AdmissionLease() {
  if (controller_ != nullptr) controller_->ExitBlocking();
}

void SessionImpl::SettleCancelled(
    const std::shared_ptr<QueryHandle::AsyncState>& s) {
  {
    std::lock_guard<std::mutex> lk(s->mu);
    if (s->done) return;
    s->result = std::make_unique<Result<QueryResult>>(CancelledError());
    s->done = true;
  }
  s->cv.notify_all();
}

QueryHandle SessionImpl::Submit(const std::shared_ptr<Session::State>& session,
                                StatementSource source) {
  auto state = std::make_shared<QueryHandle::AsyncState>();
  state->controller = session->engine->admission();
  state->session = session;
  {
    std::lock_guard<std::mutex> lk(session->mu);
    auto& asyncs = session->asyncs;
    asyncs.erase(
        std::remove_if(asyncs.begin(), asyncs.end(),
                       [](const std::weak_ptr<QueryHandle::AsyncState>& w) {
                         return w.expired();
                       }),
        asyncs.end());
    asyncs.push_back(state);
    if (session->closed) {
      SettleCancelled(state);
      QueryHandle handle;
      handle.state_ = std::move(state);
      return handle;
    }
  }
  session->stat_submitted.fetch_add(1, std::memory_order_relaxed);
  session->stat_queued.fetch_add(1, std::memory_order_relaxed);
  WallTimer queue_wait;
  auto job = [state, session, queue_wait,
              source = std::move(source)](uint64_t seq, bool cancelled) {
    DebitQueued(state);
    if (cancelled || state->cancel.load(std::memory_order_acquire) != 0) {
      SettleCancelled(state);
      return;
    }
    session->stat_dispatched.fetch_add(1, std::memory_order_relaxed);
    int64_t waited_micros = queue_wait.ElapsedMicros();
    session->stat_wait_micros.fetch_add(waited_micros,
                                        std::memory_order_relaxed);
    StatementMetrics::Get().admission_wait_ms->Observe(
        static_cast<double>(waited_micros) / 1000.0);
    state->dispatch_seq.store(seq, std::memory_order_release);
    auto result = Blocking(session, source, &state->cancel);
    {
      std::lock_guard<std::mutex> lk(state->mu);
      if (!state->done) {
        state->result =
            std::make_unique<Result<QueryResult>>(std::move(result));
        state->done = true;
      }
    }
    state->cv.notify_all();
  };
  state->ticket = state->controller->Submit(&session->client, std::move(job));
  QueryHandle handle;
  handle.state_ = std::move(state);
  return handle;
}

Result<PreparedStatement> SessionImpl::Prepare(
    HiqueEngine* engine, const std::string& sql,
    const plan::PlannerOptions& planner) {
  std::string inner;
  switch (Classify(sql, &inner)) {
    case StatementKind::kExplain:
    case StatementKind::kExplainAnalyze:
      // EXPLAIN is a one-shot diagnostic: its output depends on transient
      // cache state, so a prepared handle would lie on re-execution.
      return Status::BindError(
          "EXPLAIN cannot be prepared; run it with Query()");
    case StatementKind::kDml: {
      // Validate now (typed parse/placeholder errors surface at Prepare, as
      // they do for reads) but execute per-Execute: DML compiles nothing, so
      // the prepared state is just the validated statement text.
      auto parsed = sql::ParseDml(sql);
      if (!parsed.ok()) return parsed.status();
      auto state = std::make_shared<PreparedStatement::State>();
      state->sql = sql;
      state->signature = "dml";
      state->plan_text = "dml";
      state->is_dml = true;
      PreparedStatement prepared;
      prepared.state_ = std::move(state);
      return prepared;
    }
    case StatementKind::kSelect:
      break;
  }
  HQ_ASSIGN_OR_RETURN(
      auto state,
      engine->PrepareState(sql, planner, /*force_hybrid_agg=*/false,
                           /*allow_placeholders=*/true));
  PreparedStatement prepared;
  prepared.state_ = std::move(state);
  return prepared;
}

// ---- ResultSet -------------------------------------------------------------

ResultSet::Stream::~Stream() {
  if (core != nullptr) {
    core->CancelAndClose();
    if (producer.joinable()) producer.join();
    std::lock_guard<std::mutex> lk(core->mu);
    for (Page* p : core->queue) std::free(p);
    core->queue.clear();
  }
  std::free(page);
  page = nullptr;
}

ResultSet::ResultSet() = default;
ResultSet::~ResultSet() = default;
ResultSet::ResultSet(ResultSet&& other) noexcept = default;
ResultSet& ResultSet::operator=(ResultSet&& other) noexcept = default;

const Schema& ResultSet::schema() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->schema;
}

bool ResultSet::Next() {
  if (!valid()) return false;
  Stream* s = stream_.get();
  HQ_CHECK_MSG(!s->page_mode, "row access on a page-mode cursor");
  s->iterating = true;
  for (;;) {
    if (s->page != nullptr) {
      if (s->row_valid && s->row_in_page + 1 < s->page->num_tuples) {
        ++s->row_in_page;
        ++s->rows_read;
        return true;
      }
      if (!s->row_valid && s->page->num_tuples > 0) {
        s->row_in_page = 0;
        s->row_valid = true;
        ++s->rows_read;
        return true;
      }
      // Page exhausted (or defensively empty): hand it back to the
      // producer's free-list so the next result page reuses its memory.
      s->core->Recycle(s->page);
      s->page = nullptr;
      s->row_valid = false;
    }
    s->page = PullPage(s);
    if (s->page == nullptr) return false;
  }
}

ResultSet::PagePoll ResultSet::TryTakePage(Page** page) {
  *page = nullptr;
  if (!valid()) return PagePoll::kEnd;
  Stream* s = stream_.get();
  HQ_CHECK_MSG(!s->iterating, "page access on a row-iterating cursor");
  s->page_mode = true;
  if (s->done) return PagePoll::kEnd;
  bool ended = false;
  if (!s->core->TryPop(page, &ended)) return PagePoll::kPending;
  if (*page == nullptr) {
    EndStream(s);
    return PagePoll::kEnd;
  }
  s->rows_read += (*page)->num_tuples;
  return PagePoll::kPage;
}

void ResultSet::SetReadyCallback(std::function<void()> ready) {
  if (!valid()) return;
  std::lock_guard<std::mutex> lk(stream_->core->mu);
  stream_->core->ready = std::move(ready);
}

void ResultSet::RecyclePage(Page* page) {
  if (page == nullptr) return;
  if (valid()) {
    stream_->core->Recycle(page);
  } else {
    std::free(page);
  }
}

uint64_t ResultSet::pages_allocated() const {
  if (!valid()) return 0;
  std::lock_guard<std::mutex> lk(stream_->core->mu);
  return stream_->core->pages_allocated;
}

uint64_t ResultSet::pages_recycled() const {
  if (!valid()) return 0;
  std::lock_guard<std::mutex> lk(stream_->core->mu);
  return stream_->core->pages_recycled;
}

const uint8_t* ResultSet::RowBytes() const {
  HQ_CHECK_MSG(valid() && stream_->row_valid, "no current row");
  return stream_->page->TupleAt(stream_->row_in_page, stream_->tuple_size);
}

Value ResultSet::Get(size_t column) const {
  return stream_->schema.GetValue(RowBytes(), column);
}

std::vector<Value> ResultSet::Row() const {
  const uint8_t* tuple = RowBytes();
  std::vector<Value> row;
  row.reserve(stream_->schema.NumColumns());
  for (size_t c = 0; c < stream_->schema.NumColumns(); ++c) {
    row.push_back(stream_->schema.GetValue(tuple, c));
  }
  return row;
}

Status ResultSet::status() const {
  if (!valid()) return Status::InvalidArgument("invalid ResultSet");
  return stream_->end_status;
}

void ResultSet::Close() {
  if (!valid()) return;
  Stream* s = stream_.get();
  s->core->CancelAndClose();
  if (!s->done) EndStream(s);
  {
    std::lock_guard<std::mutex> lk(s->core->mu);
    for (Page* p : s->core->queue) std::free(p);
    s->core->queue.clear();
  }
  std::free(s->page);
  s->page = nullptr;
  s->row_valid = false;
}

Result<QueryResult> ResultSet::Materialize() {
  if (!valid()) return Status::InvalidArgument("invalid ResultSet");
  Stream* s = stream_.get();
  std::unique_ptr<Table> table;
  // A DML statement has no result columns and no result relation; rows
  // consumed first lose nothing, so its affected-row count always surfaces.
  if (s->schema.NumColumns() > 0) {
    if (s->iterating) {
      return Status::InvalidArgument(
          "Materialize requires an unconsumed cursor (rows were already read "
          "through Next)");
    }
    table = std::make_unique<Table>("result", s->schema);
  }
  while (Page* page = PullPage(s)) {
    Status adopted = table->AdoptPage(page);
    if (!adopted.ok()) {
      std::free(page);
      Close();
      return adopted;
    }
  }
  if (!s->end_status.ok()) return s->end_status;
  return AssembleResult(s->run.session->engine, s->meta, s->stats,
                        std::move(table));
}

const std::string& ResultSet::plan_signature() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->meta.plan_signature;
}
const std::string& ResultSet::plan_text() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->meta.plan_text;
}
const QueryTimings& ResultSet::timings() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->meta.timings;
}
bool ResultSet::cache_hit() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->meta.cache_hit;
}
int ResultSet::library_opt_level() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->meta.opt_level;
}
int64_t ResultSet::rows_read() const {
  return valid() ? stream_->rows_read : 0;
}
int64_t ResultSet::rows_affected() const {
  return valid() ? stream_->meta.rows_affected : 0;
}
uint32_t ResultSet::peak_result_pages() const {
  if (!valid()) return 0;
  std::lock_guard<std::mutex> lk(stream_->core->mu);
  return stream_->core->peak_resident;
}
const exec::ExecStats& ResultSet::exec_stats() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid ResultSet");
  return stream_->stats;
}

// ---- QueryHandle -----------------------------------------------------------

Result<QueryResult> QueryHandle::Wait() {
  if (!valid()) return Status::InvalidArgument("invalid QueryHandle");
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [&] { return state_->done; });
  if (state_->taken) {
    return Status::InvalidArgument("query result was already taken");
  }
  state_->taken = true;
  Result<QueryResult> result = std::move(*state_->result);
  state_->result.reset();
  return result;
}

bool QueryHandle::TryPoll() const {
  if (!valid()) return false;
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->done;
}

void QueryHandle::Cancel() {
  if (!valid()) return;
  state_->cancel.store(1, std::memory_order_release);
  if (state_->controller != nullptr &&
      state_->controller->TryRemove(state_->ticket)) {
    // Dequeued before dispatch: settle the promise ourselves.
    DebitQueued(state_);
    SessionImpl::SettleCancelled(state_);
  }
  // Otherwise the job is running (the cancel flag interrupts it at the
  // next cancellation point) or already done.
}

uint64_t QueryHandle::dispatch_seq() const {
  return valid() ? state_->dispatch_seq.load(std::memory_order_acquire) : 0;
}

// ---- Session ---------------------------------------------------------------

Session::~Session() = default;

const SessionOptions& Session::options() const {
  HQ_CHECK_MSG(valid(), "accessor on an invalid Session");
  return state_->options;
}

HiqueEngine* Session::engine() const {
  return valid() ? state_->engine : nullptr;
}

Result<QueryResult> Session::Query(const std::string& sql) {
  if (!valid()) return Status::InvalidArgument("invalid Session");
  // Blocking submissions wait in the same stride queue as SubmitAsync jobs
  // (one shared slot pool), so a storm of blocking remote clients cannot
  // starve async slots — or the other way round.
  SessionImpl::AdmissionLease lease(state_);
  return SessionImpl::Blocking(state_, TextSource(*state_, sql), nullptr);
}

Result<QueryResult> Session::Execute(const PreparedStatement& stmt,
                                     const std::vector<Value>& values) {
  if (!valid()) return Status::InvalidArgument("invalid Session");
  SessionImpl::AdmissionLease lease(state_);
  return SessionImpl::Blocking(state_, PreparedSource(stmt, values), nullptr);
}

Result<PreparedStatement> Session::Prepare(const std::string& sql) {
  if (!valid()) return Status::InvalidArgument("invalid Session");
  return SessionImpl::Prepare(state_->engine, sql, state_->planner);
}

Result<ResultSet> Session::QueryStream(const std::string& sql) {
  if (!valid()) return Status::InvalidArgument("invalid Session");
  return SessionImpl::Cursor(state_, TextSource(*state_, sql));
}

Result<ResultSet> Session::ExecuteStream(const PreparedStatement& stmt,
                                         const std::vector<Value>& values) {
  if (!valid()) return Status::InvalidArgument("invalid Session");
  return SessionImpl::Cursor(state_, PreparedSource(stmt, values));
}

QueryHandle Session::SubmitAsync(const std::string& sql) {
  if (!valid()) return QueryHandle();
  return SessionImpl::Submit(state_, TextSource(*state_, sql));
}

QueryHandle Session::SubmitAsync(const PreparedStatement& stmt,
                                 const std::vector<Value>& values) {
  if (!valid()) return QueryHandle();
  return SessionImpl::Submit(state_, PreparedSource(stmt, values));
}

SessionStats Session::Stats() const {
  SessionStats st;
  if (!valid()) return st;
  st.submitted = state_->stat_submitted.load(std::memory_order_relaxed);
  st.dispatched = state_->stat_dispatched.load(std::memory_order_relaxed);
  st.queue_depth = state_->stat_queued.load(std::memory_order_relaxed);
  st.total_wait_ms =
      state_->stat_wait_micros.load(std::memory_order_relaxed) / 1000.0;
  st.streams_opened =
      state_->stat_streams_opened.load(std::memory_order_relaxed);
  st.threads_effective =
      state_->stat_threads_effective.load(std::memory_order_relaxed);
  st.max_skew_ratio =
      state_->stat_skew_milli.load(std::memory_order_relaxed) / 1000.0;
  st.bp_hits = state_->stat_bp_hits.load(std::memory_order_relaxed);
  st.bp_misses = state_->stat_bp_misses.load(std::memory_order_relaxed);
  st.bp_evictions =
      state_->stat_bp_evictions.load(std::memory_order_relaxed);
  return st;
}

void Session::Close() {
  if (!valid()) return;
  std::vector<std::shared_ptr<StreamCore>> cores;
  std::vector<std::shared_ptr<QueryHandle::AsyncState>> asyncs;
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    state_->closed = true;
    for (auto& w : state_->streams) {
      if (auto core = w.lock()) cores.push_back(std::move(core));
    }
    for (auto& w : state_->asyncs) {
      if (auto a = w.lock()) asyncs.push_back(std::move(a));
    }
    state_->streams.clear();
    state_->asyncs.clear();
  }
  // Cancel open cursors (their ResultSet owners observe "query cancelled"
  // and join their producers on Close/destruction).
  for (auto& core : cores) core->CancelAndClose();
  // Cancel async submissions and wait for them to settle: queued jobs are
  // dequeued, running ones are interrupted at their next cancellation
  // point.
  for (auto& a : asyncs) {
    a->cancel.store(1, std::memory_order_release);
    if (a->controller != nullptr && a->controller->TryRemove(a->ticket)) {
      DebitQueued(a);
      SessionImpl::SettleCancelled(a);
    }
  }
  for (auto& a : asyncs) {
    std::unique_lock<std::mutex> lk(a->mu);
    a->cv.wait(lk, [&] { return a->done; });
  }
}

// ---- HiqueEngine client-facing wrappers ------------------------------------

Session HiqueEngine::OpenSession(SessionOptions options) {
  if (options.priority < 1) options.priority = 1;
  if (options.priority > 64) options.priority = 64;
  auto state = std::make_shared<Session::State>();
  state->engine = this;
  state->options = options;
  state->planner = options.override_planner ? options.planner
                                            : options_.planner;
  state->stream_buffer_pages = options.stream_buffer_pages != 0
                                   ? options.stream_buffer_pages
                                   : options_.stream_buffer_pages;
  if (state->stream_buffer_pages < 1) state->stream_buffer_pages = 1;
  state->client.weight = static_cast<uint32_t>(options.priority);
  Session session;
  session.state_ = std::move(state);
  return session;
}

Result<QueryResult> HiqueEngine::Query(const std::string& sql) {
  return default_session_.Query(sql);
}

Result<PreparedStatement> HiqueEngine::Prepare(const std::string& sql) {
  return default_session_.Prepare(sql);
}

Result<QueryResult> HiqueEngine::Execute(const PreparedStatement& stmt,
                                         const std::vector<Value>& values) {
  return default_session_.Execute(stmt, values);
}

QueryHandle HiqueEngine::SubmitAsync(const std::string& sql) {
  return default_session_.SubmitAsync(sql);
}

}  // namespace hique
