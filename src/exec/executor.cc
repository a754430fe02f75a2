#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "codegen/runtime_abi.h"
#include "exec/arena.h"
#include "perf/perf_counters.h"
#include "sql/binder.h"
#include "storage/page.h"
#include "util/macros.h"
#include "util/timer.h"

namespace hique::exec {

static_assert(sizeof(HqPage) == sizeof(Page),
              "generated-code page layout must match the storage layer");

namespace {

constexpr const char* kMapOverflowMsg = "map aggregation directory overflow";
constexpr const char* kStalePlanMsg =
    "plan is stale: table layout changed since preparation";
constexpr const char* kCancelledMsg = "query cancelled";

/// The result sink behind the page protocol (ctx->result_alloc_pages /
/// result_emit_pages). Allocated pages stay owned by the sink until
/// EmitPages hands them to the consumer, so an error in between leaks
/// nothing.
struct StreamSink {
  const ResultPageFn* on_page = nullptr;
  const PageAllocFn* alloc_page = nullptr;  // null/empty => posix_memalign
  HqQueryCtx* ctx = nullptr;
  // The engine side reads the cancellation flag atomically; ctx->cancel is
  // the generated code's plain view of the same flag.
  const std::atomic<int32_t>* cancel = nullptr;
  std::vector<Page*> pending;  // allocated, not yet delivered

  Page* AllocOnePage() {
    Page* page = nullptr;
    if (alloc_page != nullptr && *alloc_page) {
      page = (*alloc_page)();
      if (page == nullptr) return nullptr;
    } else {
      void* mem = nullptr;
      if (posix_memalign(&mem, kPageSize, kPageSize) != 0 || mem == nullptr) {
        return nullptr;
      }
      page = static_cast<Page*>(mem);
    }
    assert((reinterpret_cast<uintptr_t>(page) & 63u) == 0);
    // Zero the whole page, not just the header: record padding bytes then
    // never carry heap garbage, so result pages are byte-deterministic
    // (parallel runs compare bit-identical to serial ones).
    std::memset(page, 0, kPageSize);
    return page;
  }

  /// ctx->result_alloc_pages: allocates `count` zeroed pages. The sink
  /// keeps ownership until EmitPages delivers them.
  static int32_t AllocPages(void* self, HqPage** pages, uint64_t count) {
    auto* sink = static_cast<StreamSink*>(self);
    sink->pending.reserve(sink->pending.size() + count);
    for (uint64_t i = 0; i < count; ++i) {
      Page* page = sink->AllocOnePage();
      if (page == nullptr) {
        if (sink->ctx->error == HQ_OK) sink->ctx->error = HQ_ERR_OOM;
        return -1;
      }
      sink->pending.push_back(page);
      pages[i] = reinterpret_cast<HqPage*>(page);
    }
    return 0;
  }

  /// ctx->result_emit_pages: seals tuple counts and delivers the first
  /// `count` pending pages in order, checking for cancellation before each
  /// and counting one helper call per page and `rows` tuples — the same
  /// counters whether a writer emits page by page or all at once.
  static int32_t EmitPages(void* self, uint64_t count, uint64_t rows) {
    auto* sink = static_cast<StreamSink*>(self);
    HqQueryCtx* ctx = sink->ctx;
    HQ_CHECK_MSG(count <= sink->pending.size(),
                 "emitting result pages that were never allocated");
    uint32_t tpp = ctx->result_tuples_per_page;
    HQ_CHECK_MSG(count == (rows + tpp - 1) / tpp,
                 "result page count disagrees with the emitted row count");
    uint64_t delivered = 0;
    int32_t rc = 0;
    for (uint64_t i = 0; i < count; ++i) {
      if (sink->cancel != nullptr &&
          sink->cancel->load(std::memory_order_acquire) != 0) {
        if (ctx->error == HQ_OK) ctx->error = HQ_ERR_CANCELLED;
        rc = -1;
        break;
      }
      Page* page = sink->pending[i];
      uint64_t remaining = rows - i * tpp;
      reinterpret_cast<HqPage*>(page)->num_tuples =
          static_cast<uint32_t>(remaining < tpp ? remaining : tpp);
      ++delivered;  // ownership passes regardless of the verdict
      if (!(*sink->on_page)(page)) {
        if (ctx->error == HQ_OK) ctx->error = HQ_ERR_CANCELLED;
        rc = -1;
        break;
      }
    }
    sink->pending.erase(
        sink->pending.begin(),
        sink->pending.begin() + static_cast<int64_t>(delivered));
    ctx->helper_calls += delivered;
    if (rc == 0) ctx->tuples_emitted += rows;
    return rc;
  }

  void DiscardPending() {
    for (Page* p : pending) std::free(p);
    pending.clear();
  }
};

/// Engine-side listener behind the operator-boundary marks the generated
/// code always emits (hq_op_mark). Every mark closes the span of the
/// operator that just finished: wall time is the steady-clock delta since
/// the previous mark, tuples is the operator's output cardinality the mark
/// carries, the other counter columns are deltas of the context counters
/// (which the barrier fold keeps current), and cycles come from an optional
/// perf_event counter. Marks run on the single orchestrating thread — the
/// same thread that folds worker counters — so no synchronization is
/// needed anywhere in here.
struct OpSpanRecorder {
  HqQueryCtx* ctx = nullptr;
  perf::PerfCounters* perf = nullptr;  // started by the caller; may be null
  std::vector<OpStat> spans;

  std::chrono::steady_clock::time_point last;
  uint64_t last_pages = 0, last_tuples = 0, last_helpers = 0;
  uint64_t last_cycles = 0;
  bool last_cycles_ok = false;
  bool open = false;
  int32_t open_op = -1;
  // Barrier shape of the open span, fed by ParallelService::Invoke.
  uint64_t open_barriers = 0, open_tasks = 0;
  double open_skew = 0;

  void Install(HqQueryCtx* query_ctx, perf::PerfCounters* counters) {
    ctx = query_ctx;
    perf = counters;
    ctx->obs = this;
    ctx->op_mark = &OpSpanRecorder::Mark;
    last = std::chrono::steady_clock::now();
    last_cycles_ok = perf != nullptr && perf->ReadCycles(&last_cycles);
  }

  static void Mark(void* obs, int32_t op_id, int64_t done_rows) {
    auto* r = static_cast<OpSpanRecorder*>(obs);
    auto now = std::chrono::steady_clock::now();
    uint64_t cycles = 0;
    bool cycles_ok = r->perf != nullptr && r->perf->ReadCycles(&cycles);
    if (r->open) {
      OpStat s;
      s.op_id = r->open_op;
      s.wall_seconds =
          std::chrono::duration<double>(now - r->last).count();
      // An operator that failed mid-way reports what it emitted.
      s.tuples = done_rows >= 0 ? static_cast<uint64_t>(done_rows)
                                : r->ctx->tuples_emitted - r->last_tuples;
      s.pages = r->ctx->pages_touched - r->last_pages;
      s.helper_calls = r->ctx->helper_calls - r->last_helpers;
      s.barriers = r->open_barriers;
      s.tasks = r->open_tasks;
      s.max_skew = r->open_skew;
      if (cycles_ok && r->last_cycles_ok) {
        s.cycles = cycles - r->last_cycles;
        s.cycles_valid = true;
      }
      r->spans.push_back(s);
    }
    r->open = op_id >= 0;
    r->open_op = op_id;
    r->open_barriers = 0;
    r->open_tasks = 0;
    r->open_skew = 0;
    r->last = now;
    r->last_pages = r->ctx->pages_touched;
    r->last_tuples = r->ctx->tuples_emitted;
    r->last_helpers = r->ctx->helper_calls;
    r->last_cycles = cycles;
    r->last_cycles_ok = cycles_ok;
  }

  /// Closes a span an error path left open (the terminal mark only runs on
  /// success), so a failed operator still shows up with its partial span.
  void Finalize() {
    if (open) Mark(this, -1, -1);
  }
};

/// The engine side of the hq_parallel_for service: dispatches tasks over
/// the shared WorkerPool (or serially on worker slot 0), then folds the
/// per-worker counters into the query context and promotes the first
/// worker error — the "counter blocks summed after the barrier" contract
/// that keeps metrics race-free by design.
struct ParallelService {
  WorkerPool* pool = nullptr;
  HqWorkerCtx* workers = nullptr;
  uint32_t num_workers = 1;
  const std::atomic<int32_t>* cancel = nullptr;
  int priority = 0;
  // Barrier/skew metrics, folded once per Invoke. The counts are as
  // deterministic as the task decomposition itself; only the skew ratio
  // (wall-time based) varies between runs.
  uint64_t barriers = 0;
  uint64_t tasks = 0;
  double max_skew = 0.0;
  // When tracing, barrier shape and skew are additionally attributed to
  // the operator currently running (ctx->current_op) via the recorder.
  OpSpanRecorder* recorder = nullptr;

  /// Task-granular cancellation: checked before each task runs, so a
  /// cancelled query abandons the rest of an in-flight barrier through the
  /// sticky-error path instead of finishing it.
  bool Cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_acquire) != 0;
  }

  /// Runs one task on worker `w`, charging its wall time to the worker's
  /// timing block (engine-side only — generated code never sees clocks).
  int32_t RunTimed(HqQueryCtx* ctx, HqWorkerCtx* w, uint32_t task, HqTaskFn fn,
                   void* arg) const {
    auto start = std::chrono::steady_clock::now();
    int32_t rc = fn(ctx, w, task, arg);
    auto ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    w->task_ns += ns;
    if (ns > w->max_task_ns) w->max_task_ns = ns;
    ++w->tasks_run;
    return rc;
  }

  static int32_t Invoke(void* self, HqQueryCtx* ctx, uint32_t num_tasks,
                        HqTaskFn fn, void* arg) {
    auto* s = static_cast<ParallelService*>(self);
    if (num_tasks == 0) return ctx->error;
    bool completed = true;
    if (s->pool == nullptr || s->num_workers <= 1 || num_tasks == 1) {
      HqWorkerCtx* w = &s->workers[0];
      for (uint32_t t = 0; t < num_tasks; ++t) {
        if (s->Cancelled()) {
          w->error = HQ_ERR_CANCELLED;
          completed = false;
          break;
        }
        if (s->RunTimed(ctx, w, t, fn, arg) != 0) {
          completed = false;
          break;
        }
      }
    } else {
      completed = s->pool->ParallelFor(
          num_tasks,
          [&](uint32_t slot, uint32_t task) -> int32_t {
            // One context per executor slot — aliasing two threads onto
            // one arena would be silent corruption, so fail loudly.
            HQ_CHECK_MSG(slot < s->num_workers,
                         "executor slot exceeds worker contexts");
            if (s->Cancelled()) {
              s->workers[slot].error = HQ_ERR_CANCELLED;
              return HQ_ERR_CANCELLED;
            }
            return s->RunTimed(ctx, &s->workers[slot], task, fn, arg);
          },
          s->priority);
    }
    int32_t err = HQ_OK;
    uint64_t sum_ns = 0, max_ns = 0, tasks_run = 0;
    for (uint32_t i = 0; i < s->num_workers; ++i) {
      HqWorkerCtx* w = &s->workers[i];
      ctx->pages_touched += w->pages_touched;
      ctx->tuples_emitted += w->tuples_emitted;
      ctx->helper_calls += w->helper_calls;
      sum_ns += w->task_ns;
      if (w->max_task_ns > max_ns) max_ns = w->max_task_ns;
      tasks_run += w->tasks_run;
      w->pages_touched = 0;
      w->tuples_emitted = 0;
      w->helper_calls = 0;
      w->task_ns = 0;
      w->max_task_ns = 0;
      w->tasks_run = 0;
      if (err == HQ_OK && w->error != HQ_OK) err = w->error;
    }
    // Per-barrier skew ratio: slowest task over mean task time. 1.0 means
    // a perfectly balanced barrier; ~num_tasks means one task carried the
    // whole barrier while the rest were trivial.
    ++s->barriers;
    s->tasks += num_tasks;
    double skew = 0;
    if (tasks_run > 0 && sum_ns > 0) {
      skew = static_cast<double>(max_ns) * tasks_run /
             static_cast<double>(sum_ns);
      if (skew > s->max_skew) s->max_skew = skew;
    }
    if (s->recorder != nullptr) {
      ++s->recorder->open_barriers;
      s->recorder->open_tasks += num_tasks;
      if (skew > s->recorder->open_skew) s->recorder->open_skew = skew;
    }
    // Fail-safe: a cancelled job must surface as an error even if the
    // failing task forgot to record a cause in its worker context —
    // otherwise the caller would read partially-initialized task state.
    if (err == HQ_OK && !completed) err = HQ_ERR_CANCELLED;
    if (err != HQ_OK && ctx->error == HQ_OK) ctx->error = err;
    return ctx->error;
  }
};

}  // namespace

bool IsMapOverflow(const Status& status) {
  return !status.ok() && status.message() == kMapOverflowMsg;
}

bool IsStalePlan(const Status& status) {
  return !status.ok() && status.message() == kStalePlanMsg;
}

bool IsCancelled(const Status& status) {
  return !status.ok() && status.message() == kCancelledMsg;
}

namespace {

/// Stores one (already type-coerced) value into the bank slot described by
/// `entry`. The single point of truth for bank layout semantics — both the
/// literal-binding and the placeholder-binding paths go through it.
void StoreEntry(const plan::ParamEntry& entry, const Value& v,
                BoundParams* out) {
  switch (entry.type.id) {
    case TypeId::kInt32:
    case TypeId::kDate:
      out->ints[entry.bank_index] = v.AsInt32();
      break;
    case TypeId::kInt64:
      out->ints[entry.bank_index] = v.AsInt64();
      break;
    case TypeId::kDouble:
      out->doubles[entry.bank_index] = v.AsDouble();
      break;
    case TypeId::kChar: {
      // Binder-coerced CHAR values are already space-padded to the column
      // width; copy exactly that many payload bytes.
      const std::string& s = v.AsString();
      HQ_CHECK(s.size() == entry.type.length);
      std::memcpy(out->chars.data() + entry.bank_index, s.data(), s.size());
      break;
    }
  }
}

}  // namespace

void BindParams(const plan::ParamTable& params, BoundParams* out) {
  out->ints.clear();
  out->doubles.clear();
  out->chars.clear();
  out->ints.resize(params.num_ints, 0);
  out->doubles.resize(params.num_doubles, 0);
  out->chars.resize(params.num_char_bytes, ' ');
  for (const plan::ParamEntry& e : params.entries) {
    StoreEntry(e, e.value, out);
  }
  out->abi.ints = out->ints.data();
  out->abi.doubles = out->doubles.data();
  out->abi.chars = out->chars.data();
  out->abi.num_ints = params.num_ints;
  out->abi.num_doubles = params.num_doubles;
  out->abi.num_char_bytes = params.num_char_bytes;
}

Status BindParamValues(const plan::ParamTable& params,
                       const std::vector<Value>& values, BoundParams* out) {
  if (values.size() != params.num_placeholders()) {
    return Status::BindError(
        "prepared statement expects " +
        std::to_string(params.num_placeholders()) + " parameter value(s), " +
        std::to_string(values.size()) + " given");
  }
  BindParams(params, out);
  for (size_t i = 0; i < values.size(); ++i) {
    int slot = params.placeholder_entries[i];
    HQ_CHECK_MSG(slot >= 0, "unassigned placeholder slot");
    const plan::ParamEntry& e = params.entries[slot];
    auto coerced = sql::CoerceValueToType(values[i], e.type);
    if (!coerced.ok()) {
      return Status::BindError("parameter " + std::to_string(i + 1) + ": " +
                               coerced.status().message());
    }
    StoreEntry(e, coerced.value(), out);
  }
  return Status::OK();
}

Result<int64_t> ExecuteEntryStreaming(const std::vector<Table*>& tables,
                                      const Schema& output_schema,
                                      HqEntryFn entry, const HqParams* params,
                                      ExecStats* stats,
                                      const ParallelRuntime& par,
                                      const ResultPageFn& on_page,
                                      const PageAllocFn& alloc_page,
                                      const std::vector<uint64_t>*
                                          expected_layouts) {
  // Snapshot buffer-pool counters of every distinct pool involved so the
  // stats block below can report this run's deltas (ExecStats::bp_*).
  std::vector<BufferManager*> pools;
  for (Table* table : tables) {
    BufferManager* bm = table->buffer_manager();
    if (bm != nullptr &&
        std::find(pools.begin(), pools.end(), bm) == pools.end()) {
      pools.push_back(bm);
    }
  }
  uint64_t bp_hits0 = 0, bp_misses0 = 0, bp_evictions0 = 0;
  for (BufferManager* bm : pools) {
    bp_hits0 += bm->hit_count();
    bp_misses0 += bm->miss_count();
    bp_evictions0 += bm->eviction_count();
  }

  // Pin every base table in memory (main-memory execution, paper §VI).
  std::vector<PinnedPages> pinned(tables.size());
  std::vector<std::vector<uint8_t*>> page_ptrs(tables.size());
  std::vector<std::vector<const uint8_t*>> dict_ptrs(tables.size());
  std::vector<HqTableRef> refs(tables.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    HQ_ASSIGN_OR_RETURN(pinned[t], tables[t]->Pin());
    if (expected_layouts != nullptr && t < expected_layouts->size() &&
        pinned[t].layout_version() != (*expected_layouts)[t]) {
      // The page encoding moved under the plan (a Compress/Decompress
      // rewrite raced the lookup). Fail before running any generated code;
      // the session re-prepares against the current layout and retries.
      return Status::ExecError(kStalePlanMsg);
    }
    page_ptrs[t].reserve(pinned[t].pages().size());
    for (Page* p : pinned[t].pages()) {
      page_ptrs[t].push_back(reinterpret_cast<uint8_t*>(p));
    }
    refs[t].pages = page_ptrs[t].data();
    refs[t].page_count = page_ptrs[t].size();
    refs[t].tuple_size = tables[t]->tuple_size();
    // Compressed tables pack more tuples per page; the generated code's
    // decode constants were baked from the same codec at plan time.
    refs[t].tuples_per_page = pinned[t].tuples_per_page();
    // The snapshot's count, not the table's current one: with a delta store
    // attached the two can differ, and generated pre-sizing (hash directory
    // widths, sort buffers) must match what the pinned pages contain.
    refs[t].tuple_count = pinned[t].tuple_count();
    refs[t].compressed = pinned[t].codec().enabled ? 1 : 0;
    if (refs[t].compressed != 0) {
      dict_ptrs[t].reserve(pinned[t].dicts().size());
      for (const auto& d : pinned[t].dicts()) {
        dict_ptrs[t].push_back(d.empty() ? nullptr : d.data());
      }
      refs[t].col_dicts = dict_ptrs[t].data();
    }
  }

  // Scratch memory: one shared arena for serial sections plus one arena per
  // executor slot for parallel tasks, all drawing on one optional budget.
  std::atomic<int64_t> budget{0};
  std::atomic<int64_t>* budget_ptr = nullptr;
  if (par.arena_limit_bytes > 0) {
    budget.store(static_cast<int64_t>(par.arena_limit_bytes));
    budget_ptr = &budget;
  }
  Arena arena(budget_ptr);
  uint32_t num_workers = par.pool != nullptr ? par.pool->num_executors() : 1;
  std::vector<std::unique_ptr<Arena>> worker_arenas;
  std::vector<HqWorkerCtx> workers(num_workers);
  worker_arenas.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    worker_arenas.push_back(std::make_unique<Arena>(budget_ptr));
    std::memset(&workers[i], 0, sizeof(HqWorkerCtx));
    workers[i].alloc = &Arena::AllocCallback;
    workers[i].arena = worker_arenas[i].get();
    workers[i].worker_id = i;
  }
  ParallelService par_service;
  par_service.pool = par.pool;
  par_service.workers = workers.data();
  par_service.num_workers = num_workers;
  par_service.cancel = par.cancel;
  par_service.priority = par.priority;

  const Schema& out_schema = output_schema;

  static const HqParams kNoParams = {nullptr, nullptr, nullptr, 0, 0, 0};
  HqQueryCtx ctx;
  std::memset(&ctx, 0, sizeof(ctx));
  ctx.params = params != nullptr ? params : &kNoParams;
  ctx.inputs = refs.data();
  ctx.num_inputs = static_cast<uint32_t>(refs.size());
  ctx.alloc = &Arena::AllocCallback;
  ctx.arena = &arena;
  ctx.result_tuple_size = out_schema.TupleSize();
  ctx.result_tuples_per_page = Page::TuplesPerPage(out_schema.TupleSize());
  ctx.parallel_for = &ParallelService::Invoke;
  ctx.num_workers = num_workers;
  // std::atomic<int32_t> is layout-compatible with the plain int32_t the
  // generated (uninstrumented) code polls; the engine side always accesses
  // it atomically.
  static_assert(sizeof(std::atomic<int32_t>) == sizeof(int32_t),
                "cancel flag must be readable as a plain int32");
  ctx.cancel =
      reinterpret_cast<const volatile int32_t*>(par.cancel);

  StreamSink sink;
  sink.on_page = &on_page;
  sink.alloc_page = &alloc_page;
  sink.ctx = &ctx;
  sink.cancel = par.cancel;
  ctx.result_alloc_pages = &StreamSink::AllocPages;
  ctx.result_emit_pages = &StreamSink::EmitPages;
  ctx.result_sink = &sink;
  ctx.scheduler = &par_service;
  ctx.current_op = -1;

  // Span recorder: only installed when the run asked for operator stats.
  // The generated code's marks fire either way (byte-identical source);
  // without a recorder each mark is a store and a not-taken branch.
  OpSpanRecorder recorder;
  std::unique_ptr<perf::PerfCounters> perf_counters;
  if (par.collect_op_stats) {
    if (par.collect_op_cycles) {
      perf_counters = std::make_unique<perf::PerfCounters>();
      if (perf_counters->available()) {
        perf_counters->Start();
      } else {
        perf_counters.reset();  // spans report cycles_valid = false
      }
    }
    recorder.Install(&ctx, perf_counters.get());
    par_service.recorder = &recorder;
  }

  WallTimer timer;
  int64_t rows = entry(&ctx, ctx.params);
  double elapsed = timer.ElapsedSeconds();

  if (rows < 0 || ctx.error != HQ_OK) {
    sink.DiscardPending();
    switch (ctx.error) {
      case HQ_ERR_MAP_OVERFLOW:
        return Status::ExecError(kMapOverflowMsg);
      case HQ_ERR_OOM:
        return Status::ExecError("generated code ran out of memory");
      case HQ_ERR_CANCELLED:
        if (par.cancel != nullptr &&
            par.cancel->load(std::memory_order_acquire) != 0) {
          return Status::ExecError(kCancelledMsg);
        }
        return Status::ExecError(
            "a parallel task failed; the query was cancelled");
      default:
        return Status::ExecError("generated code failed with error " +
                                 std::to_string(ctx.error));
    }
  }

  if (stats != nullptr) {
    stats->rows = rows;
    stats->execute_seconds = elapsed;
    stats->pages_touched = ctx.pages_touched;
    stats->tuples_emitted = ctx.tuples_emitted;
    stats->helper_calls = ctx.helper_calls;
    stats->arena_bytes = arena.total_allocated();
    for (const auto& wa : worker_arenas) {
      stats->arena_bytes += wa->total_allocated();
    }
    stats->threads = num_workers;
    stats->par_barriers = par_service.barriers;
    stats->par_tasks = par_service.tasks;
    stats->skew_ratio = par_service.max_skew;
    uint64_t bp_hits1 = 0, bp_misses1 = 0, bp_evictions1 = 0;
    for (BufferManager* bm : pools) {
      bp_hits1 += bm->hit_count();
      bp_misses1 += bm->miss_count();
      bp_evictions1 += bm->eviction_count();
    }
    stats->bp_hits = bp_hits1 - bp_hits0;
    stats->bp_misses = bp_misses1 - bp_misses0;
    stats->bp_evictions = bp_evictions1 - bp_evictions0;
    if (par.collect_op_stats) {
      recorder.Finalize();
      stats->ops = std::move(recorder.spans);
    }
  }
  return rows;
}

}  // namespace hique::exec
