// Runtime ABI shared between the HIQUE engine and generated query code.
//
// This header is compiled into the engine AND embedded verbatim at the top
// of every generated source file (see abi_embed.cc generated by CMake), so
// the two views of these structures can never diverge.
//
// It must therefore stay self-contained: only <stdint.h>/<string.h>
// dependencies, no engine headers. The ABI structs keep a C-compatible
// layout; the operator drivers at the bottom are C++ templates, which the
// generator instantiates once per operator (both sides compile as C++).

#ifndef HIQUE_CODEGEN_RUNTIME_ABI_H_
#define HIQUE_CODEGEN_RUNTIME_ABI_H_

#include <stdint.h>  // NOLINT
#include <string.h>  // NOLINT

// ---- page geometry (mirrors storage/page.h) -------------------------------

#define HQ_PAGE_SIZE 4096u
#define HQ_PAGE_HEADER 8u
#define HQ_PAGE_DATA (HQ_PAGE_SIZE - HQ_PAGE_HEADER)

typedef struct HqPage {
  uint32_t num_tuples;
  uint32_t reserved;
  uint8_t data[HQ_PAGE_DATA];
} HqPage;

// ---- error codes -----------------------------------------------------------

#define HQ_OK 0
#define HQ_ERR_OOM 1
#define HQ_ERR_MAP_OVERFLOW 2  // map-agg directory exceeded its capacity
#define HQ_ERR_CANCELLED 3     // parallel task failed without a cause code

// ---- intra-query parallelism ----------------------------------------------

// Task decomposition grains. Decomposition depends only on the data (page
// and record counts) and on these compile-time constants — never on the
// number of worker threads — so a query's task graph, and therefore its
// result bytes, are identical at every thread count. The scheduler only
// decides which thread runs which task.
#define HQ_PAR_PAGE_GRAIN 64u     // base-table pages per staging task
#define HQ_PAR_REC_GRAIN 65536u   // records per partition/scan task
#define HQ_PAR_MAX_TASKS 1024u    // cap on tasks per parallel_for
// Tighter caps where per-task state is O(partitions) or O(cells): the
// partition histogram matrix is nt*M counters, map aggregation keeps nt
// blocks of CELLS cells plus directories.
#define HQ_PAR_PART_TASKS 64u
#define HQ_PAR_MAP_TASKS 16u
// Morsel grains for the splitter-range stages (ORDER BY final merge,
// merge-join ranges): fine enough that a skewed range is shared by idle
// executors through the pool's chunked claim index, coarse enough that the
// per-task binary searches stay negligible.
#define HQ_PAR_OUT_GRAIN 4096u   // result rows per ORDER BY build/merge task
#define HQ_PAR_JOIN_GRAIN 8192u  // outer records per merge-join range task

// Per-worker execution context: a worker-local arena plus private metric
// counters and a sticky error slot, so parallel tasks never contend on the
// shared HqQueryCtx. The engine sums the counters into the query context
// and propagates the first error after each parallel_for barrier.
typedef struct HqWorkerCtx {
  void* (*alloc)(void* arena, uint64_t bytes);  // worker-local arena
  void* arena;
  int32_t error;       // HQ_OK or HQ_ERR_*, aggregated at the barrier
  uint32_t worker_id;
  uint64_t pages_touched;
  uint64_t tuples_emitted;
  uint64_t helper_calls;
  // Per-task wall time, maintained by the ENGINE around each task it runs
  // on this worker (generated code never writes these). The barrier fold
  // derives a skew ratio (max / mean task time) per parallel_for from
  // them; timing never feeds back into scheduling or results.
  uint64_t task_ns;      // total wall time inside tasks
  uint64_t max_task_ns;  // slowest single task
  uint64_t tasks_run;
} HqWorkerCtx;

struct HqQueryCtx;

// One partition/chunk of work. Returns 0 on success; a nonzero return
// cancels the remaining tasks of this parallel_for (the worker records the
// failure cause in w->error first).
typedef int32_t (*HqTaskFn)(struct HqQueryCtx* ctx, HqWorkerCtx* w,
                            uint32_t task, void* arg);

// ---- hoisted query parameters ---------------------------------------------

// Literal constants hoisted out of the generated code (plan-signature query
// cache): the engine re-binds these per execution, so one compiled library
// serves every literal variant of a query template. Bank slots and byte
// offsets are structural and baked into the generated source; only the
// values change between executions. Structural constants (record sizes,
// field offsets, partition counts, directory geometry) stay inlined so the
// compiler can still specialize layouts.
typedef struct HqParams {
  const int64_t* ints;   // int32/int64/date literals, widened to int64
  const double* doubles; // double literals
  const char* chars;     // concatenated fixed-length CHAR payloads
  uint32_t num_ints;
  uint32_t num_doubles;
  uint32_t num_char_bytes;
} HqParams;

// ---- query context ---------------------------------------------------------

// One base input table: an array of pinned page pointers.
//
// `compressed` marks pages that use the compressed columnar layout
// (column-major segments behind the 8-byte header; see
// src/storage/compress.h). Every layout *constant* — per-column encoding,
// bit widths, frame bases, tuples per compressed page — is baked into the
// generated code from the plan signature; only data-carried state crosses
// the ABI here: the per-column dictionary blobs for dictionary-encoded
// CHAR columns (`col_dicts[c]`, NULL for other columns). Plain NSM tables
// leave compressed == 0 and col_dicts == NULL.
typedef struct HqTableRef {
  uint8_t* const* pages;
  uint64_t page_count;
  uint32_t tuple_size;
  uint32_t tuples_per_page;
  uint64_t tuple_count;
  uint32_t compressed;
  uint32_t reserved_;
  const uint8_t* const* col_dicts;
} HqTableRef;

// Engine-provided services. Allocation is arena-based: the engine frees
// everything after the query; generated code never frees.
typedef struct HqQueryCtx {
  const HqTableRef* inputs;
  uint32_t num_inputs;

  // Hoisted literal bindings for this execution. Carried per-context (not
  // in a file-scope static) so concurrent executions of one dlopen'd
  // library never see each other's bindings.
  const HqParams* params;

  // Returns `bytes` of 64-byte-aligned scratch memory, or NULL on OOM.
  void* (*alloc)(void* arena, uint64_t bytes);
  void* arena;

  void* result_sink;
  uint32_t result_tuple_size;
  uint32_t result_tuples_per_page;

  // The result-page protocol, the only way generated code emits rows.
  // result_alloc_pages fills `pages[0..count)` with zeroed pages and
  // returns 0 (or -1 with ctx->error set on OOM); the writer fills fixed
  // slots (row r of a batch lives in pages[r / tuples_per_page]).
  // result_emit_pages sets num_tuples (tuples_per_page on all but the last
  // page, the remainder on the last), delivers the pages in order with a
  // cancellation check before each, and counts one helper call per page and
  // `rows` tuples; it returns -1 when the consumer cancelled. The sink owns
  // the pages until they are delivered, so an error in between leaks
  // nothing. Serial writers go one page at a time (allocate 1, fill, emit
  // 1), keeping one page in production; the parallel ORDER BY merge
  // allocates all of its pages up front. Both hooks are always set.
  int32_t (*result_alloc_pages)(void* result_sink, HqPage** pages,
                                uint64_t count);
  int32_t (*result_emit_pages)(void* result_sink, uint64_t count,
                               uint64_t rows);

  int32_t error;          // HQ_OK or HQ_ERR_*
  // Software metrics (deterministic profiling counters, see src/perf/).
  uint64_t pages_touched;
  uint64_t tuples_emitted;
  uint64_t helper_calls;  // page-granular helper invocations

  // Intra-query parallelism service (exec::WorkerPool behind the engine's
  // callback). Runs fn(ctx, &workers[slot], t, arg) for t in [0, num_tasks)
  // and blocks until all tasks finish (the barrier), then folds the
  // per-worker counters into this context and promotes the first worker
  // error into ctx->error. Returns HQ_OK or that error code. With
  // threads=1 the engine installs a serial implementation over workers[0],
  // so the same generated code runs single-threaded unchanged.
  int32_t (*parallel_for)(void* scheduler, struct HqQueryCtx* ctx,
                          uint32_t num_tasks, HqTaskFn fn, void* arg);
  void* scheduler;
  uint32_t num_workers;   // executor slots (1: staging runs one pass)

  // Cooperative cancellation. The host may point this at a flag it sets
  // nonzero to abort the query (client closed a streaming cursor, async
  // Cancel(), session teardown). Generated code polls it at cheap
  // boundaries — between operators, at result-page boundaries, and
  // periodically inside unbounded loops — and unwinds with
  // HQ_ERR_CANCELLED; the engine-side scheduler additionally checks it
  // before every parallel task, cancelling in-flight barriers through the
  // HqWorkerCtx sticky-error path. NULL means not cancellable.
  const volatile int32_t* cancel;

  // Observability hook (EXPLAIN ANALYZE / trace spans). Generated code
  // announces every operator boundary through hq_op_mark, together with
  // the output cardinality of the operator that just finished; the engine
  // may install a recorder behind `op_mark` to turn those marks into
  // per-operator spans. The emission is unconditional — whether the hook
  // is installed or not, the generated source is byte-identical, so
  // cached libraries serve traced and untraced executions alike. A null
  // hook (bare-metal harness, tracing off) degrades to one store per
  // operator. `current_op` is the id of the operator currently running
  // (-1 outside any operator); the engine-side parallel_for reads it to
  // attribute barrier timing and skew to the right operator.
  void (*op_mark)(void* obs, int32_t op_id, int64_t done_rows);
  void* obs;
  int32_t current_op;
  int32_t obs_reserved_;
} HqQueryCtx;

// True when the host has requested cancellation of this execution.
static inline int hq_cancelled(const HqQueryCtx* ctx) {
  return ctx->cancel != 0 && *ctx->cancel != 0;
}

// Operator-boundary mark. op_id is the physical-plan operator index about
// to run, or -1 when the pipeline finishes; done_rows is the number of
// records (result rows, for the output operator) the previous operator
// produced, or -1 at the first mark. Must stay cheap when no recorder is
// installed (one store + one predictable branch).
static inline void hq_op_mark(HqQueryCtx* ctx, int32_t op_id,
                              int64_t done_rows) {
  ctx->current_op = op_id;
  if (ctx->op_mark != 0) ctx->op_mark(ctx->obs, op_id, done_rows);
}

// Generated code calls the service through this helper. Hosts that leave
// the service unset (bare-metal harnesses) get a self-contained serial
// fallback over a stack worker context aliasing the query arena.
static inline int32_t hq_parallel_for(HqQueryCtx* ctx, uint32_t num_tasks,
                                      HqTaskFn fn, void* arg) {
  if (ctx->parallel_for != 0) {
    return ctx->parallel_for(ctx->scheduler, ctx, num_tasks, fn, arg);
  }
  HqWorkerCtx w;
  memset(&w, 0, sizeof(w));
  w.alloc = ctx->alloc;
  w.arena = ctx->arena;
  int failed = 0;
  for (uint32_t t = 0; t < num_tasks; ++t) {
    if (hq_cancelled(ctx)) {
      w.error = HQ_ERR_CANCELLED;
      failed = 1;
      break;
    }
    if (fn(ctx, &w, t, arg) != 0) {
      failed = 1;
      break;
    }
  }
  ctx->pages_touched += w.pages_touched;
  ctx->tuples_emitted += w.tuples_emitted;
  ctx->helper_calls += w.helper_calls;
  if (w.error != HQ_OK && ctx->error == HQ_OK) ctx->error = w.error;
  if (failed && ctx->error == HQ_OK) ctx->error = HQ_ERR_CANCELLED;
  return ctx->error;
}

// Fixed decomposition helpers: task count from a work-item count and grain
// (clamped to [1, cap]), and the contiguous item range a task covers.
static inline uint32_t hq_task_count(uint64_t items, uint64_t grain,
                                     uint32_t cap) {
  uint64_t t = grain ? (items + grain - 1) / grain : items;
  if (t < 1) t = 1;
  if (t > cap) t = cap;
  return (uint32_t)t;
}

static inline void hq_task_range(uint64_t items, uint32_t num_tasks,
                                 uint32_t task, uint64_t* begin,
                                 uint64_t* end) {
  uint64_t chunk = (items + num_tasks - 1) / num_tasks;
  uint64_t lo = (uint64_t)task * chunk;
  uint64_t hi = lo + chunk;
  *begin = lo < items ? lo : items;
  *end = hi < items ? hi : items;
}

// Every generated query exports:
//   extern "C" int64_t hique_query_main(HqQueryCtx* ctx,
//                                       const HqParams* params);
// returning the number of result rows, or -1 with ctx->error set. The entry
// stores `params` (which may be NULL) into ctx->params for the operator
// functions.
typedef int64_t (*HqEntryFn)(HqQueryCtx*, const HqParams*);

// ---- helpers used inside generated code ------------------------------------

// A materialized intermediate stream: contiguous fixed-length records with
// optional partition boundaries (part_begin[M+1] record indexes).
typedef struct HqStream {
  uint8_t* data;
  int64_t n;
  uint32_t rec_size;
  int64_t* part_begin;
  uint32_t num_parts;
} HqStream;

// Growable record buffer for outputs whose cardinality is unknown upfront.
// Carries its own allocator/error/metric bindings so one vec can live on
// the shared query arena (serial operators) or on a worker-local arena
// (per-task outputs inside a parallel_for) with identical code.
typedef struct HqVec {
  uint8_t* data;
  int64_t n;
  int64_t cap;
  uint32_t rec;
  void* (*alloc)(void* arena, uint64_t bytes);
  void* arena;
  int32_t* error;
  uint64_t* helper_calls;
} HqVec;

static inline int hq_vec_setup(HqVec* v, void* (*alloc)(void*, uint64_t),
                               void* arena, int32_t* error,
                               uint64_t* helper_calls, uint32_t rec,
                               int64_t initial_cap) {
  v->alloc = alloc;
  v->arena = arena;
  v->error = error;
  v->helper_calls = helper_calls;
  v->rec = rec;
  v->n = 0;
  v->cap = initial_cap < 64 ? 64 : initial_cap;
  v->data = (uint8_t*)alloc(arena, (uint64_t)v->cap * rec);
  if (!v->data) {
    *error = HQ_ERR_OOM;
    return -1;
  }
  return 0;
}

static inline int hq_vec_init(HqVec* v, HqQueryCtx* ctx, uint32_t rec,
                              int64_t initial_cap) {
  return hq_vec_setup(v, ctx->alloc, ctx->arena, &ctx->error,
                      &ctx->helper_calls, rec, initial_cap);
}

// Out-of-line growth path; the hot path in hq_vec_slot stays branch+add.
static int hq_vec_grow(HqVec* v) __attribute__((noinline, unused));
static int hq_vec_grow(HqVec* v) {
  int64_t new_cap = v->cap * 2;
  uint8_t* nd = (uint8_t*)v->alloc(v->arena, (uint64_t)new_cap * v->rec);
  if (!nd) {
    *v->error = HQ_ERR_OOM;
    return -1;
  }
  memcpy(nd, v->data, (size_t)v->n * v->rec);
  v->data = nd;
  v->cap = new_cap;
  ++*v->helper_calls;
  return 0;
}

static inline uint8_t* hq_vec_slot(HqVec* v) {
  if (v->n == v->cap) {
    if (hq_vec_grow(v) != 0) return 0;
  }
  return v->data + (uint64_t)v->n++ * v->rec;
}

// ---- compressed-page decode helpers -----------------------------------------

// [driver group decode]
// Round a compressed column segment up to its 8-byte alignment boundary.
#define HQ_ALIGN8(x) (((uint64_t)(x) + 7ull) & ~7ull)

// Reads packed value `idx` from an LSB-first bit-packed segment. `bits`
// must be <= 56 (the compressor never packs wider — the unaligned 8-byte
// window below must cover shift + width) and every segment carries 8 bytes
// of in-page slack past its last used byte (see storage/compress.cc
// capacity computation), so the memcpy never reads outside the page.
static inline uint64_t hq_unpack_bits(const uint8_t* seg, uint64_t idx,
                                      uint32_t bits, uint64_t mask) {
  uint64_t bo = idx * bits;
  uint64_t w;
  memcpy(&w, seg + (bo >> 3), 8);
  return (w >> (bo & 7u)) & mask;
}
// [end driver group decode]

// ---- SIMD kernel versions & software prefetch -------------------------------
//
// Generated hot-loop kernels (selection bitmaps, partition-id batches)
// come in two versions from ONE byte-identical source: an AVX2 version
// under a per-function avx2 target attribute, built from the GCC vector
// extensions below and compiled only on x86, and a portable body every
// host runs. Versioning never uses -m compiler flags, so the
// same source text compiles on any host and the plan cache stays
// host-independent. The engine resolves the active version ONCE per
// library, at dlopen time (CPUID in exec::CompiledLibrary::Load; HQ_SIMD=off
// selects the portable version on an AVX2 host), through the exported
// hique_set_simd symbol; execution never re-dispatches.

// AVX2 stays 2 so the simd_level recorded in benchmark JSON files keeps
// its meaning.
#define HQ_SIMD_SCALAR 0
#define HQ_SIMD_AVX2 2

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define HQ_SIMD_X86 1
#else
#define HQ_SIMD_X86 0
#endif

// Active kernel version of this translation unit (one slot per dlopen'd
// query library). Written exactly once, before the first execution, by
// hique_set_simd; all later reads are race-free by construction.
static int32_t hq_simd_level __attribute__((unused)) = HQ_SIMD_SCALAR;

// Tuples per batch-kernel block: one uint64_t selection bitmap per block.
#define HQ_SIMD_BLOCK 64u

#if HQ_SIMD_X86
// Four-lane vector types, one 256-bit register each inside the AVX2
// kernels. Comparisons yield lane masks of -1/0, so masks combine with &
// and reduce to selection bits through the lane sign bits.
typedef int64_t hq_i64x4 __attribute__((vector_size(32)));
typedef uint64_t hq_u64x4 __attribute__((vector_size(32)));
typedef double hq_f64x4 __attribute__((vector_size(32)));
#endif  // HQ_SIMD_X86

// Software prefetch for generated scatter/probe loops. Table I (§II-A,
// reproduced by bench/table1_memory_latency.cc) measures a random DRAM
// access at ~77+ cycles vs ~28 sequential: partition scatter writes to M
// random cursors, so generated loops compute a block of partition ids
// first and prefetch each destination line a fixed distance ahead of the
// store. Prefetching never changes results — only when lines arrive.
#if defined(__GNUC__) || defined(__clang__)
#define HQ_PREFETCH_W(p) __builtin_prefetch((const void*)(p), 1, 1)
#define HQ_PREFETCH_R(p) __builtin_prefetch((const void*)(p), 0, 1)
#else
#define HQ_PREFETCH_W(p) ((void)(p))
#define HQ_PREFETCH_R(p) ((void)(p))
#endif

// ---- operator drivers ------------------------------------------------------
//
// The type-independent halves of the operator templates (paper §V-B),
// written once. The generator emits the type-specific halves — record
// comparators, partition-id kernels, row builders — and instantiates a
// driver with them. Record sizes and kernels are template arguments
// (kernels as constant function pointers), so an instantiation is as
// specialized as open-coded source: at -O2 the comparators inline, at -O0
// the calls stay direct. The drivers keep the fixed task decomposition
// above, so results are identical at every thread count.
//
// g++ parses every template of a cold query's source, used or not, so the
// drivers come in groups, each between a "[driver group NAME]" and an
// "[end driver group NAME]" comment line: the generator embeds a group
// only in sources that use it (see codegen::Generator::EmbeddedAbi):
// decode, record_sort, stage, sort, partition, range, key_range (with
// sort), fold and map (with fold).

typedef int (*HqRecCmp)(const uint8_t* a, const uint8_t* b);  // <0, 0, >0

// [driver group record_sort]
// In-place quicksort of n REC-byte records: median-of-three pivot,
// insertion sort below 24 records, explicit stack with the larger side
// pushed so its depth stays logarithmic. Every sort in the engine (and in
// the per-style micro-benchmarks) is this one routine.
template <uint32_t REC, HqRecCmp CMP>
static void hq_record_sort(uint8_t* base, int64_t n) {
  if (n < 2) return;
  uint8_t tmp[REC]; uint8_t pivot[REC];
  int64_t stk[128][2]; int sp = 0;
  int64_t lo = 0, hi = n - 1;
  for (;;) {
    if (hi - lo < 24) {
      for (int64_t x = lo + 1; x <= hi; ++x) {
        memcpy(tmp, base + x * REC, REC);
        int64_t y = x - 1;
        while (y >= lo && CMP(base + y * REC, tmp) > 0) {
          memcpy(base + (y + 1) * REC, base + y * REC, REC);
          --y;
        }
        memcpy(base + (y + 1) * REC, tmp, REC);
      }
      if (sp == 0) break;
      --sp; lo = stk[sp][0]; hi = stk[sp][1];
      continue;
    }
    int64_t mid = lo + ((hi - lo) >> 1);
    if (CMP(base + mid * REC, base + lo * REC) < 0) {
      memcpy(tmp, base + mid * REC, REC);
      memcpy(base + mid * REC, base + lo * REC, REC);
      memcpy(base + lo * REC, tmp, REC);
    }
    if (CMP(base + hi * REC, base + mid * REC) < 0) {
      memcpy(tmp, base + hi * REC, REC);
      memcpy(base + hi * REC, base + mid * REC, REC);
      memcpy(base + mid * REC, tmp, REC);
      if (CMP(base + mid * REC, base + lo * REC) < 0) {
        memcpy(tmp, base + mid * REC, REC);
        memcpy(base + mid * REC, base + lo * REC, REC);
        memcpy(base + lo * REC, tmp, REC);
      }
    }
    memcpy(pivot, base + mid * REC, REC);
    int64_t i = lo, j = hi;
    while (i <= j) {
      while (CMP(base + i * REC, pivot) < 0) ++i;
      while (CMP(base + j * REC, pivot) > 0) --j;
      if (i <= j) {
        if (i != j) {
          memcpy(tmp, base + i * REC, REC);
          memcpy(base + i * REC, base + j * REC, REC);
          memcpy(base + j * REC, tmp, REC);
        }
        ++i; --j;
      }
    }
    if (j - lo < hi - i) {
      if (i < hi) { stk[sp][0] = i; stk[sp][1] = hi; ++sp; }
      hi = j;
    } else {
      if (lo < j) { stk[sp][0] = lo; stk[sp][1] = j; ++sp; }
      lo = i;
    }
    if (lo >= hi) {
      if (sp == 0) break;
      --sp; lo = stk[sp][0]; hi = stk[sp][1];
    }
  }
}

// [end driver group record_sort]

// Builds result row o from input record rec (ctx carries the literals).
typedef void (*HqRowFn)(HqQueryCtx* ctx, const uint8_t* rec, uint8_t* o);

// Output without ORDER BY, one page in production at a time: allocate,
// fill, emit (the sink's per-page cancellation window). Returns the rows
// emitted, or -1.
template <uint32_t IREC, uint32_t OREC, HqRowFn ROW>
static int64_t hq_emit_rows(HqQueryCtx* ctx, const HqStream* in,
                            int64_t limit) {
  int64_t emit_n = limit >= 0 && in->n > limit ? limit : in->n;
  const uint32_t tpp = ctx->result_tuples_per_page;
  for (int64_t i = 0; i < emit_n; ) {
    HqPage* pg;
    if (ctx->result_alloc_pages(ctx->result_sink, &pg, 1) != 0) return -1;
    uint64_t m = (uint64_t)(emit_n - i) < tpp ? (uint64_t)(emit_n - i) : tpp;
    for (uint64_t j = 0; j < m; ++j, ++i) {
      ROW(ctx, in->data + (uint64_t)i * IREC, pg->data + j * OREC);
    }
    if (ctx->result_emit_pages(ctx->result_sink, 1, m) != 0) return -1;
  }
  return (int64_t)ctx->tuples_emitted;
}

// [driver group concat]
// Task-ordered concatenation of per-task vecs (staging, range drivers).
typedef struct HqConcatArgs {
  const HqVec* vs; const int64_t* offs; uint8_t* out; uint32_t rec;
} HqConcatArgs;

static inline int32_t hq_concat_task(HqQueryCtx* ctx, HqWorkerCtx* wk,
                                     uint32_t t, void* argp) {
  HqConcatArgs* A = (HqConcatArgs*)argp; (void)ctx; (void)wk;
  memcpy(A->out + (uint64_t)A->offs[t] * A->rec, A->vs[t].data,
         (uint64_t)A->vs[t].n * A->rec);
  return 0;
}

// Concatenates vs[0..nt) of rec-byte records, in task order, into out. A
// lone vec becomes out as it is, without a copy.
static inline int hq_concat(HqQueryCtx* ctx, const HqVec* vs, uint32_t nt,
                            uint32_t rec, HqStream* out) {
  out->rec_size = rec; out->part_begin = 0; out->num_parts = 0;
  if (nt == 1) { out->data = vs[0].data; out->n = vs[0].n; return 0; }
  int64_t* offs = (int64_t*)ctx->alloc(ctx->arena, ((uint64_t)nt + 1) * 8);
  if (!offs) { ctx->error = HQ_ERR_OOM; return -1; }
  offs[0] = 0;
  for (uint32_t t = 0; t < nt; ++t) offs[t + 1] = offs[t] + vs[t].n;
  int64_t total = offs[nt];
  uint8_t* buf =
      (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)(total ? total : 1) * rec);
  if (!buf) { ctx->error = HQ_ERR_OOM; return -1; }
  HqConcatArgs A = {vs, offs, buf, rec};
  if (hq_parallel_for(ctx, nt, hq_concat_task, &A) != HQ_OK) return -1;
  out->data = buf; out->n = total;
  return 0;
}
// [end driver group concat]
// [driver group stage]
// Base-table staging (paper Listing 1). A scan copies the survivors of
// pages [pb, pe) of T to dst, in page order, and returns their count.
typedef int64_t (*HqScanFn)(HqQueryCtx* ctx, const HqTableRef* T,
                            uint64_t pb, uint64_t pe, uint8_t* dst,
                            uint64_t* pages);

typedef struct HqStageArgs {
  const HqTableRef* T; HqVec* vs; uint32_t nt;
} HqStageArgs;

// Task t scans its page range once into a buffer of its own. Every page of
// a snapshot holds at most tuples_per_page tuples (a compressed base never
// carries NSM delta pages), so the range's survivors fit the reservation.
template <uint32_t REC, HqScanFn SCAN>
static int32_t hq_stage_task(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t,
                             void* argp) {
  HqStageArgs* A = (HqStageArgs*)argp;
  const HqTableRef* T = A->T;
  uint64_t pb, pe;
  hq_task_range(T->page_count, A->nt, t, &pb, &pe);
  uint64_t cap = (pe - pb) * T->tuples_per_page;
  if (cap > T->tuple_count) cap = T->tuple_count;
  HqVec* v = &A->vs[t];
  v->data = (uint8_t*)wk->alloc(wk->arena, (cap ? cap : 1) * REC);
  if (!v->data) { wk->error = HQ_ERR_OOM; return -1; }
  v->n = SCAN(ctx, T, pb, pe, v->data, &wk->pages_touched);
  return 0;
}

// Stages T in scan order: one task for one executor, else one per fixed
// chunk of pages; the task buffers are joined in task order.
template <uint32_t REC, HqScanFn SCAN>
static int hq_stage_base(HqQueryCtx* ctx, const HqTableRef* T,
                         HqStream* out) {
  HqStageArgs A = {T, 0, 1};
  if (ctx->num_workers > 1) {
    A.nt = hq_task_count(T->page_count, HQ_PAR_PAGE_GRAIN, HQ_PAR_MAX_TASKS);
  }
  A.vs = (HqVec*)ctx->alloc(ctx->arena, A.nt * sizeof(HqVec));
  if (!A.vs) { ctx->error = HQ_ERR_OOM; return -1; }
  HqTaskFn task = hq_stage_task<REC, SCAN>;
  if (hq_parallel_for(ctx, A.nt, task, &A) != HQ_OK) return -1;
  return hq_concat(ctx, A.vs, A.nt, REC, out);
}
// [end driver group stage]
// [driver group key_filter]
// Join-key filters (a Bloom join with an exact filter: Mackert & Lohman
// 1986). After the build input of an inner equi-join is staged, one serial
// pass sets a bitmap over its keys' actual range [lo, lo + width); the
// probe side's base-table scan tests every 64-tuple block against it
// before it copies, counts or scatters a row, so staging, partitioning and
// the join's sort see only rows whose key occurs on the build side. A
// bitmap has no false positives, and keys outside the range fail. The
// range is the staged records', never the statistics', so stale
// statistics or delta-store rows cannot drop a row that matches.
typedef struct HqKeyFilter {
  const uint64_t* bits;  // bit d: key lo + d is a build key; 0: pass all
  int64_t lo;            // smallest build key
  uint64_t width;        // largest - lo + 1; 0 for an empty build side
  int64_t keys;          // build records
  uint64_t tested, passed;  // probe rows before and after the test
} HqKeyFilter;

// Width guard: no bitmap when the build keys span more than this many bits
// per build record (and more than a 4 KB floor), so a bitmap never costs
// more than half of the staged build side (records are 8 bytes or wider)
// plus one page; the probe then stages unfiltered.
#define HQ_KF_BITS_PER_KEY 32u
#define HQ_KF_MIN_BITS 32768u

// Builds kf from the KT key at byte KOFF of the REC-byte records of s.
template <typename KT, uint32_t REC, uint32_t KOFF>
static int hq_key_filter_build(HqQueryCtx* ctx, const HqStream* s,
                               HqKeyFilter* kf) {
  memset(kf, 0, sizeof(*kf));
  kf->keys = s->n;
  int64_t lo = 0, hi = 0;
  for (int64_t i = 0; i < s->n; ++i) {
    KT k;
    memcpy(&k, s->data + (uint64_t)i * REC + KOFF, sizeof(k));
    if (i == 0 || k < lo) lo = k;
    if (i == 0 || k > hi) hi = k;
  }
  // In unsigned arithmetic: int64 keys can span more than INT64_MAX.
  uint64_t span = (uint64_t)hi - (uint64_t)lo;
  uint64_t limit = (uint64_t)s->n * HQ_KF_BITS_PER_KEY;
  if (limit < HQ_KF_MIN_BITS) limit = HQ_KF_MIN_BITS;
  if (span >= limit) return 0;
  uint64_t width = s->n > 0 ? span + 1 : 0;
  uint64_t words = width ? (width + 63) / 64 : 1;  // the test reads word 0
  uint64_t* bits = (uint64_t*)ctx->alloc(ctx->arena, words * 8);
  if (!bits) { ctx->error = HQ_ERR_OOM; return -1; }
  memset(bits, 0, words * 8);
  for (int64_t i = 0; i < s->n; ++i) {
    KT k;
    memcpy(&k, s->data + (uint64_t)i * REC + KOFF, sizeof(k));
    uint64_t d = (uint64_t)(int64_t)k - (uint64_t)lo;
    bits[d >> 6] |= 1ull << (d & 63);
  }
  kf->bits = bits; kf->lo = lo; kf->width = width;
  return 0;
}

// Block mask bm of the bn tuples of TS bytes at blk, with the bits of the
// tuples whose KT key at byte KOFF is not a build key cleared. Branch-free
// per lane: an out-of-range key reads word 0 and is masked off.
template <typename KT, uint32_t TS, uint32_t KOFF>
static inline uint64_t hq_key_filter_test(const HqKeyFilter* kf,
                                          const uint8_t* blk, uint32_t bn,
                                          uint64_t bm) {
  if (!kf->bits || !bm) return bm;
  const uint64_t* bits = kf->bits;
  const uint64_t lo = (uint64_t)kf->lo, width = kf->width;
  uint64_t keep = 0;
  for (uint32_t i = 0; i < bn; ++i) {
    KT k;
    memcpy(&k, blk + (uint64_t)i * TS + KOFF, sizeof(k));
    uint64_t d = (uint64_t)(int64_t)k - lo;
    uint64_t in = d < width;
    keep |= (in & (bits[in ? d >> 6 : 0] >> (d & 63))) << i;
  }
  return bm & keep;
}

// A probe stage hands hq_stage_base this input, whose first member is the
// table reference the driver reads; its scan reads kf back from the same
// pointer. Each scan task adds its counts once.
typedef struct HqProbeInput { HqTableRef T; HqKeyFilter* kf; } HqProbeInput;

static inline void hq_key_filter_count(HqKeyFilter* kf, uint64_t tested,
                                       uint64_t passed) {
  __atomic_fetch_add(&kf->tested, tested, __ATOMIC_RELAXED);
  __atomic_fetch_add(&kf->passed, passed, __ATOMIC_RELAXED);
}

// EXPLAIN ANALYZE: an op_mark below -1 annotates the running operator
// instead of closing it; this one hands the recorder the probe's filter.
#define HQ_MARK_KEY_FILTER (-2)
static inline void hq_key_filter_note(HqQueryCtx* ctx, const HqKeyFilter* kf) {
  if (ctx->op_mark != 0) {
    ctx->op_mark(ctx->obs, HQ_MARK_KEY_FILTER, (int64_t)(intptr_t)kf);
  }
}
// [end driver group key_filter]
// [driver group sort]
// Sort cascade (paper §V-B "Input staging"): quicksort independent
// L2-sized runs, then merge adjacent run pairs level by level. Every run
// sort, and every pair merge of one level, is an independent task writing
// a disjoint range; a level ends at its hq_parallel_for barrier.
typedef struct HqSortArgs {
  uint8_t* src; uint8_t* dst;
  int64_t n, run, w;  // w: run width of the level being merged
  uint32_t nt;
} HqSortArgs;

template <uint32_t REC, HqRecCmp CMP>
static int32_t hq_sort_runs_task(HqQueryCtx* ctx, HqWorkerCtx* wk,
                                 uint32_t t, void* argp) {
  HqSortArgs* A = (HqSortArgs*)argp; (void)ctx; (void)wk;
  uint64_t runs = ((uint64_t)A->n + A->run - 1) / A->run;
  uint64_t rb, re;
  hq_task_range(runs, A->nt, t, &rb, &re);
  for (uint64_t r = rb; r < re; ++r) {
    int64_t i = (int64_t)r * A->run;
    int64_t e = i + A->run < A->n ? i + A->run : A->n;
    hq_record_sort<REC, CMP>(A->src + (uint64_t)i * REC, e - i);
  }
  return 0;
}

// Equal keys take the left run first: the cascade is stable across runs.
template <uint32_t REC, HqRecCmp CMP>
static int32_t hq_sort_merge_task(HqQueryCtx* ctx, HqWorkerCtx* wk,
                                  uint32_t t, void* argp) {
  HqSortArgs* A = (HqSortArgs*)argp; (void)ctx; (void)wk;
  int64_t n = A->n, w = A->w;
  const uint8_t* src = A->src; uint8_t* dst = A->dst;
  uint64_t pairs = ((uint64_t)n + 2 * w - 1) / (uint64_t)(2 * w);
  uint64_t jb, je;
  hq_task_range(pairs, A->nt, t, &jb, &je);
  for (uint64_t j = jb; j < je; ++j) {
    int64_t i = (int64_t)j * 2 * w;
    int64_t m = i + w < n ? i + w : n;
    int64_t e = i + 2 * w < n ? i + 2 * w : n;
    int64_t a = i, b = m, o = i;
    while (a < m && b < e) {
      if (CMP(src + (uint64_t)a * REC, src + (uint64_t)b * REC) <= 0) {
        memcpy(dst + (uint64_t)o * REC, src + (uint64_t)a * REC, REC); ++a;
      } else {
        memcpy(dst + (uint64_t)o * REC, src + (uint64_t)b * REC, REC); ++b;
      }
      ++o;
    }
    if (a < m) {
      memcpy(dst + (uint64_t)o * REC, src + (uint64_t)a * REC,
             (uint64_t)(m - a) * REC);
    } else if (b < e) {
      memcpy(dst + (uint64_t)o * REC, src + (uint64_t)b * REC,
             (uint64_t)(e - b) * REC);
    }
  }
  return 0;
}

// Sorts the n records at *data into at most max_runs sorted runs of width
// *width (the last may be shorter; width may be NULL): a full sort asks
// for 1, ORDER BY stops at 8 and finishes with its splitter merge. *data
// may move to the merge buffer. Returns 0, or -1 with ctx->error set.
template <uint32_t REC, HqRecCmp CMP>
static int hq_sort_cascade(HqQueryCtx* ctx, uint8_t** data, int64_t n,
                           int64_t run, int64_t max_runs, int64_t* width) {
  int64_t w = run;
  if (n >= 2) {
    HqSortArgs A;
    A.src = *data; A.dst = 0; A.n = n; A.run = run; A.w = 0;
    A.nt = hq_task_count(((uint64_t)n + run - 1) / run, 1, HQ_PAR_MAX_TASKS);
    HqTaskFn sort_runs = hq_sort_runs_task<REC, CMP>;
    if (hq_parallel_for(ctx, A.nt, sort_runs, &A) != HQ_OK) return -1;
    for (; (n + w - 1) / w > max_runs; w *= 2) {
      if (!A.dst) {
        A.dst = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)n * REC);
        if (!A.dst) { ctx->error = HQ_ERR_OOM; return -1; }
      }
      A.w = w;
      A.nt = hq_task_count(((uint64_t)n + 2 * w - 1) / (uint64_t)(2 * w), 1,
                           HQ_PAR_MAX_TASKS);
      HqTaskFn merge = hq_sort_merge_task<REC, CMP>;
      if (hq_parallel_for(ctx, A.nt, merge, &A) != HQ_OK) return -1;
      uint8_t* swap = A.src; A.src = A.dst; A.dst = swap;
    }
    *data = A.src;
  }
  if (width) *width = w;
  return 0;
}

// The first of the CMP-sorted rec-byte records [lo, hi) at d that is not
// below key: every splitter search (ORDER BY merge, key ranges) is this.
template <HqRecCmp CMP>
static int64_t hq_lower_bound(const uint8_t* d, uint64_t rec, int64_t lo,
                              int64_t hi, const uint8_t* key) {
  while (lo < hi) {
    int64_t mid = lo + ((hi - lo) >> 1);
    if (CMP(d + (uint64_t)mid * rec, key) < 0) lo = mid + 1; else hi = mid;
  }
  return lo;
}

// The parallel ORDER BY pipeline: build rows in parallel, sort cascade
// down to at most 8 runs, then a splitter-partitioned k-way merge writes
// disjoint ranges straight into pre-allocated result pages. Decomposition
// depends only on the data and plan constants, so the bytes (including the
// order of rows with equal keys) are identical at every thread count.
typedef struct HqOrderArgs {
  const uint8_t* d;  // input records
  uint8_t* rows;     // built result rows
  int64_t n, emit_n;
  int64_t rw;  // sorted-run width after the cascade
  uint32_t R;  // number of sorted runs (<= 8)
  uint32_t nt;
  HqPage** pgs;
} HqOrderArgs;

template <uint32_t IREC, uint32_t OREC, HqRowFn ROW>
static int32_t hq_order_build_task(HqQueryCtx* ctx, HqWorkerCtx* wk,
                                   uint32_t t, void* argp) {
  HqOrderArgs* A = (HqOrderArgs*)argp;
  uint64_t rb, re;
  hq_task_range((uint64_t)A->n, A->nt, t, &rb, &re);
  // Zero first: whole rows are copied into result pages, so padding must
  // not leak arena garbage.
  memset(A->rows + rb * OREC, 0, (re - rb) * OREC);
  for (uint64_t i = rb; i < re; ++i) {
    // No result-page boundary in this pass: poll cancellation every 64Ki.
    if ((i & 0xFFFF) == 0 && hq_cancelled(ctx)) {
      wk->error = HQ_ERR_CANCELLED;
      return -1;
    }
    ROW(ctx, A->d + i * IREC, A->rows + i * OREC);
  }
  return 0;
}

// Splitter boundary t: the record at rank t*|run0|/nt of run 0 is the
// splitter; its lower bound in every run (full comparator, so equal keys
// land in one task) fixes the per-run cursor ranges and, summed, the
// task's destination rank.
template <uint32_t REC, HqRecCmp CMP>
static void hq_order_bounds(const HqOrderArgs* A, uint32_t t, int64_t* b) {
  int64_t r0n = A->rw < A->n ? A->rw : A->n;
  const uint8_t* sp =
      A->rows + (uint64_t)((int64_t)t * r0n / (int64_t)A->nt) * REC;
  for (uint32_t r = 0; r < A->R; ++r) {
    int64_t lo = (int64_t)r * A->rw;
    int64_t hi = lo + A->rw < A->n ? lo + A->rw : A->n;
    b[r] = t == 0 ? lo
         : t >= A->nt ? hi
         : hq_lower_bound<CMP>(A->rows, REC, lo, hi, sp);
  }
}

template <uint32_t REC, HqRecCmp CMP>
static int32_t hq_order_merge_task(HqQueryCtx* ctx, HqWorkerCtx* wk,
                                   uint32_t t, void* argp) {
  HqOrderArgs* A = (HqOrderArgs*)argp; (void)wk;
  int64_t cur[8]; int64_t stop[8];
  hq_order_bounds<REC, CMP>(A, t, cur);
  hq_order_bounds<REC, CMP>(A, t + 1, stop);
  int64_t d = 0, de = 0;
  uint32_t r;
  for (r = 0; r < A->R; ++r) {
    d += cur[r] - (int64_t)r * A->rw;
    de += stop[r] - (int64_t)r * A->rw;
  }
  if (de > A->emit_n) de = A->emit_n;
  const uint32_t tpp = ctx->result_tuples_per_page;
  while (d < de) {
    // Lowest-run-index tie-break keeps the merge stable, like the cascade.
    int best = -1;
    for (r = 0; r < A->R; ++r) {
      if (cur[r] >= stop[r]) continue;
      if (best < 0 || CMP(A->rows + (uint64_t)cur[r] * REC,
                          A->rows + (uint64_t)cur[best] * REC) < 0) {
        best = (int)r;
      }
    }
    uint8_t* o = A->pgs[d / tpp]->data + (uint64_t)(d % tpp) * REC;
    memcpy(o, A->rows + (uint64_t)cur[best] * REC, REC);
    ++cur[best]; ++d;
  }
  return 0;
}

// ORDER BY [LIMIT] output of stream in; run is the quicksort run length,
// par_tasks the plan's cap on build and merge tasks. Returns the rows
// emitted, or -1.
template <uint32_t IREC, uint32_t OREC, HqRowFn ROW, HqRecCmp CMP>
static int64_t hq_order_by_output(HqQueryCtx* ctx, const HqStream* in,
                                  int64_t limit, int64_t run,
                                  uint32_t par_tasks) {
  const int64_t n = in->n;
  HqOrderArgs A;
  A.d = in->data; A.n = n;
  A.emit_n = limit >= 0 && n > limit ? limit : n;
  A.rows = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)(n ? n : 1) * OREC);
  if (!A.rows) { ctx->error = HQ_ERR_OOM; return -1; }
  A.nt = hq_task_count((uint64_t)n, HQ_PAR_OUT_GRAIN, par_tasks);
  HqTaskFn build = hq_order_build_task<IREC, OREC, ROW>;
  if (hq_parallel_for(ctx, A.nt, build, &A) != HQ_OK) return -1;
  if (hq_sort_cascade<OREC, CMP>(ctx, &A.rows, n, run, 8, &A.rw) != 0) {
    return -1;
  }
  A.R = n > 0 ? (uint32_t)((n + A.rw - 1) / A.rw) : 1;
  if (A.emit_n > 0) {
    const uint32_t tpp = ctx->result_tuples_per_page;
    uint64_t npg = ((uint64_t)A.emit_n + tpp - 1) / tpp;
    A.pgs = (HqPage**)ctx->alloc(ctx->arena, npg * sizeof(HqPage*));
    if (!A.pgs) { ctx->error = HQ_ERR_OOM; return -1; }
    if (ctx->result_alloc_pages(ctx->result_sink, A.pgs, npg) != 0) return -1;
    A.nt = hq_task_count((uint64_t)A.emit_n, HQ_PAR_OUT_GRAIN, par_tasks);
    HqTaskFn merge = hq_order_merge_task<OREC, CMP>;
    if (hq_parallel_for(ctx, A.nt, merge, &A) != HQ_OK) return -1;
    if (ctx->result_emit_pages(ctx->result_sink, npg, (uint64_t)A.emit_n)) {
      return -1;
    }
  }
  return (int64_t)ctx->tuples_emitted;
}
// [end driver group sort]

// [driver group partition]
// 64-bit hash (murmur3 fmix64) — must match util/hash.h HashMix64.
static inline uint64_t hq_hash64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDull;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ull;
  k ^= k >> 33;
  return k;
}

// FNV-1a over bytes folded through fmix64 — must match util/hash.h HashBytes.
static inline uint64_t hq_hash_bytes(const void* data, uint64_t len) {
  const uint8_t* p = (const uint8_t*)data;
  uint64_t h = 0xCBF29CE484222325ull;
  for (uint64_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return hq_hash64(h);
}

#if HQ_SIMD_X86
// -Wpsabi: passing/returning a 32-byte vector without AVX enabled "changes
// the ABI" — irrelevant here, the helper below is always inlined into a
// target-attributed kernel inside one translation unit.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

// Four-lane fmix64 — must stay value-identical to hq_hash64, lane by lane,
// so a vectorized partition pass scatters records exactly like the portable
// one (bit-identity across HQ_SIMD settings depends on it). always_inline
// is load-bearing, not an optimization: an out-of-line copy would be
// compiled WITHOUT avx2 while its callers pass the 32-byte argument per
// the AVX calling convention (ymm0 vs memory) — a real ABI mismatch at
// -O0, which is exactly the tier-0 JIT level. Inlining into the
// target-attributed caller (a superset of this function's ISA) is always
// legal, so the helper can never exist out of line.
static inline __attribute__((always_inline)) hq_u64x4 hq_hash64x4(
    hq_u64x4 k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDull;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ull;
  k ^= k >> 33;
  return k;
}

#pragma GCC diagnostic pop
#endif  // HQ_SIMD_X86

// Parallel two-pass scatter partitioning into M partitions: per-task
// histograms over record chunks, one (partition, task) prefix sum, then a
// scatter in which every task owns a private cursor row. Record order
// within a partition equals the serial scatter order at any thread count.
typedef struct HqPartArgs {
  const uint8_t* d; uint8_t* buf2;
  int64_t n;
  int64_t* cnts;  // nt x M: per-task histograms, then per-task cursors
  uint32_t nt;
} HqPartArgs;

// Partitions stream s in place: s->data moves to the scattered copy and
// s->part_begin[0..M] receives the partition boundaries.
static inline int hq_partition_run(HqQueryCtx* ctx, HqStream* s,
                                   uint32_t rec, uint32_t M, HqTaskFn count,
                                   HqTaskFn scatter) {
  HqPartArgs A;
  A.d = s->data; A.n = s->n; A.buf2 = 0;
  A.nt = hq_task_count((uint64_t)s->n, HQ_PAR_REC_GRAIN, HQ_PAR_PART_TASKS);
  int64_t* pb = (int64_t*)ctx->alloc(ctx->arena, (uint64_t)(M + 1) * 8);
  A.cnts = (int64_t*)ctx->alloc(ctx->arena, (uint64_t)A.nt * M * 8);
  if (!pb || !A.cnts) { ctx->error = HQ_ERR_OOM; return -1; }
  memset(A.cnts, 0, (uint64_t)A.nt * M * 8);
  if (hq_parallel_for(ctx, A.nt, count, &A) != HQ_OK) return -1;
  int64_t pos = 0;
  for (uint32_t m = 0; m < M; ++m) {
    pb[m] = pos;
    for (uint32_t t = 0; t < A.nt; ++t) {
      int64_t c = A.cnts[(uint64_t)t * M + m];
      A.cnts[(uint64_t)t * M + m] = pos;
      pos += c;
    }
  }
  pb[M] = pos;
  A.buf2 = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)(pos ? pos : 1) * rec);
  if (!A.buf2) { ctx->error = HQ_ERR_OOM; return -1; }
  if (hq_parallel_for(ctx, A.nt, scatter, &A) != HQ_OK) return -1;
  s->data = A.buf2; s->n = pos; s->part_begin = pb; s->num_parts = M;
  return 0;
}

// Coarse (hash) ids of bn consecutive records.
typedef void (*HqPidBlockFn)(const uint8_t* d, uint32_t bn, int32_t* pid);

// Scatter prefetch distance: the destination line must arrive before its
// store while staying inside one id block — wider records, fewer lines.
static constexpr uint32_t hq_scatter_prefetch(uint32_t rec) {
  return 512 / rec < 4 ? 4 : 512 / rec > 16 ? 16 : 512 / rec;
}

// Coarse pass: ids a block at a time, then a count or a prefetched
// scatter (the M cursors land in random frames: Table I's DRAM cost).
template <uint32_t REC, uint32_t M, HqPidBlockFn PIDS, bool SCATTER>
static int32_t hq_part_block_task(HqQueryCtx* ctx, HqWorkerCtx* wk,
                                  uint32_t t, void* argp) {
  HqPartArgs* A = (HqPartArgs*)argp; (void)ctx; (void)wk;
  const uint32_t pf = hq_scatter_prefetch(REC);
  uint64_t rb, re;
  hq_task_range((uint64_t)A->n, A->nt, t, &rb, &re);
  int64_t* cnt = A->cnts + (uint64_t)t * M;
  int32_t pid[HQ_SIMD_BLOCK];
  for (uint64_t i = rb; i < re; ) {
    uint32_t bn = re - i < HQ_SIMD_BLOCK ? (uint32_t)(re - i) : HQ_SIMD_BLOCK;
    PIDS(A->d + i * REC, bn, pid);
    if (SCATTER) {
      for (uint32_t j = 0; j < bn; ++j) {
        if (j + pf < bn) {
          HQ_PREFETCH_W(A->buf2 + (uint64_t)cnt[pid[j + pf]] * REC);
        }
        memcpy(A->buf2 + (uint64_t)cnt[pid[j]] * REC, A->d + (i + j) * REC,
               REC);
        ++cnt[pid[j]];
      }
    } else {
      for (uint32_t j = 0; j < bn; ++j) ++cnt[pid[j]];
    }
    i += bn;
  }
  return 0;
}

template <uint32_t REC, uint32_t M, HqPidBlockFn PIDS>
static int hq_partition_coarse(HqQueryCtx* ctx, HqStream* s) {
  return hq_partition_run(ctx, s, REC, M,
                          hq_part_block_task<REC, M, PIDS, false>,
                          hq_part_block_task<REC, M, PIDS, true>);
}

// Fine (value) id of one record, before the domain guard.
typedef int64_t (*HqPidFn)(const uint8_t* r);

// Fine pass: one id per record; out-of-domain ids are clamped into the
// edge partitions (CLAMP) or cannot match and are dropped.
template <uint32_t REC, uint32_t M, HqPidFn PID, bool CLAMP, bool SCATTER>
static int32_t hq_part_rec_task(HqQueryCtx* ctx, HqWorkerCtx* wk,
                                uint32_t t, void* argp) {
  HqPartArgs* A = (HqPartArgs*)argp; (void)ctx; (void)wk;
  uint64_t rb, re;
  hq_task_range((uint64_t)A->n, A->nt, t, &rb, &re);
  int64_t* cnt = A->cnts + (uint64_t)t * M;
  for (uint64_t i = rb; i < re; ++i) {
    const uint8_t* r = A->d + i * REC;
    int64_t p = PID(r);
    if (CLAMP) {
      if (p < 0) p = 0; else if (p >= (int64_t)M) p = M - 1;
    } else if ((uint64_t)p >= M) {
      continue;
    }
    if (SCATTER) memcpy(A->buf2 + (uint64_t)cnt[p] * REC, r, REC);
    ++cnt[p];
  }
  return 0;
}

template <uint32_t REC, uint32_t M, HqPidFn PID, bool CLAMP>
static int hq_partition_fine(HqQueryCtx* ctx, HqStream* s) {
  return hq_partition_run(ctx, s, REC, M,
                          hq_part_rec_task<REC, M, PID, CLAMP, false>,
                          hq_part_rec_task<REC, M, PID, CLAMP, true>);
}
// [end driver group partition]

// [driver group range]
// Range drivers (paper Listing 2, the sorted-group scan). Task t runs
// kernel K on records [b[i], e[i]) of each input i, at d[i], for each of
// its partitions or its key range, into its own out; OUT::close combines
// the outs in task order, which is the serial result.
typedef int (*HqRangeFn)(HqQueryCtx* ctx, uint8_t* const* d,
                         const int64_t* b, const int64_t* e, void* out);
typedef void (*HqSortFn)(uint8_t* base, int64_t n);

template <uint32_t N>
struct HqRangeArgs {
  const HqStream* const* in; uint8_t* d[N]; uint8_t* outs; uint32_t nt;
};

// OUT: a vec of OREC-byte records per task (EST in all), concatenated.
template <uint32_t OREC, int64_t EST>
struct hq_vecs {
  static constexpr uint64_t kSize = sizeof(HqVec);
  static void* open(uint8_t* outs, HqWorkerCtx* wk, uint32_t t, uint32_t nt) {
    HqVec* v = (HqVec*)outs + t;
    return hq_vec_setup(v, wk->alloc, wk->arena, &wk->error,
                        &wk->helper_calls, OREC, EST / nt + 16) ? 0 : v;
  }
  static int close(HqQueryCtx* ctx, uint8_t* outs, uint32_t nt,
                   HqStream* out) {
    return hq_concat(ctx, (HqVec*)outs, nt, OREC, out);
  }
};

// Partition ranges: task t takes its hq_task_range of the partitions,
// skips those empty in any input and sorts the others in every input
// (SORT: one per input, or none) before K joins or aggregates them.
template <uint32_t N, HqRangeFn K, class OUT, HqSortFn... SORT>
static int32_t hq_part_range_task(HqQueryCtx* ctx, HqWorkerCtx* wk,
                                  uint32_t t, void* argp) {
  HqRangeArgs<N>* A = (HqRangeArgs<N>*)argp;
  void* out = OUT::open(A->outs, wk, t, A->nt);
  uint64_t m, me;
  hq_task_range(A->in[0]->num_parts, A->nt, t, &m, &me);
  for (; out && m < me; ++m) {
    int64_t b[N], e[N];
    uint32_t i, skip = 0;
    for (i = 0; i < N; ++i) {
      const HqStream* s = A->in[i];
      // The next partition lies in random frames: start its lines (Table I).
      if (m + 1 < me) {
        HQ_PREFETCH_R(s->data + s->part_begin[m + 1] * s->rec_size);
      }
      b[i] = s->part_begin[m]; e[i] = s->part_begin[m + 1];
      skip |= b[i] >= e[i];
    }
    if (skip) continue;
    i = 0;
    ((SORT(A->d[i] + b[i] * A->in[i]->rec_size, e[i] - b[i]), ++i), ...);
    if (K(ctx, A->d, b, e, out) != 0) return -1;
  }
  return out ? 0 : -1;
}

template <uint32_t N, HqRangeFn K, class OUT, HqSortFn... SORT>
static int hq_part_ranges(HqQueryCtx* ctx, const HqStream* const* in,
                          HqStream* out) {
  HqRangeArgs<N> A;
  A.in = in;
  for (uint32_t i = 0; i < N; ++i) A.d[i] = in[i]->data;
  A.nt = hq_task_count(in[0]->num_parts, 1, HQ_PAR_MAX_TASKS);
  A.outs = (uint8_t*)ctx->alloc(ctx->arena, A.nt * OUT::kSize);
  if (!A.outs) { ctx->error = HQ_ERR_OOM; return -1; }
  memset(A.outs, 0, A.nt * OUT::kSize);
  HqTaskFn task = hq_part_range_task<N, K, OUT, SORT...>;
  if (hq_parallel_for(ctx, A.nt, task, &A) != HQ_OK) return -1;
  return OUT::close(ctx, A.outs, A.nt, out);
}
// [end driver group range]
// [driver group key_range]
// Key ranges over N sorted inputs: the record at rank t*n0/nt of input 0
// is splitter t, and its lower bound in input i under CMP[i] (input i's
// key against input 0's) ends range t-1 there and starts range t, so
// equal keys share a range. The ranges run as partitions, one per task.
// par_tasks is the plan's cap on nt. Needs the sort group (hq_lower_bound).
template <uint32_t N, HqRangeFn K, class OUT, HqRecCmp... CMP>
static int hq_key_ranges(HqQueryCtx* ctx, const HqStream* const* in,
                         uint32_t par_tasks, HqStream* out) {
  const HqStream* s0 = in[0];
  uint32_t i, nt = hq_task_count(s0->n, HQ_PAR_JOIN_GRAIN, par_tasks);
  int64_t* pb = (int64_t*)ctx->alloc(ctx->arena, N * (nt + 1ull) * 8);
  if (!pb) { ctx->error = HQ_ERR_OOM; return -1; }
  HqStream r[N]; const HqStream* rp[N];
  for (i = 0; i < N; ++i) {
    r[i] = *in[i]; rp[i] = &r[i];
    r[i].part_begin = pb + i * (nt + 1ull); r[i].num_parts = nt;
  }
  for (uint32_t t = 0; t <= nt; ++t) {
    const uint8_t* sp = s0->data + t * s0->n / nt * s0->rec_size;
    i = 0;
    ((r[i].part_begin[t] = t == 0 ? 0 : t == nt ? r[i].n
        : hq_lower_bound<CMP>(r[i].data, r[i].rec_size, 0, r[i].n, sp),
      ++i), ...);
  }
  return hq_part_ranges<N, K, OUT>(ctx, rp, out);
}
// [end driver group key_range]
// [driver group fold]
// OUT of map and fused scalar aggregation: a zeroed, line-padded block per
// task. close folds blocks 1.. into block 0 in task order (MERGE fails if
// a cell does not fit) and EMITs block 0's rows. No partial sum is -0.0,
// so this equals folding into a zeroed block.
typedef int (*HqAccMergeFn)(uint8_t* g, const uint8_t* s);
typedef int (*HqAccEmitFn)(const uint8_t* g, HqVec* v);

template <uint64_t ACC, uint32_t OREC, HqAccMergeFn MERGE, HqAccEmitFn EMIT>
struct hq_accs {
  static constexpr uint64_t kSize = (ACC + 63) / 64 * 64;
  static void* open(uint8_t* outs, HqWorkerCtx* wk, uint32_t t, uint32_t nt) {
    (void)wk; (void)nt;
    return outs + t * kSize;
  }
  static int close(HqQueryCtx* ctx, uint8_t* outs, uint32_t nt,
                   HqStream* out) {
    for (uint32_t t = 1; t < nt; ++t) {
      if (MERGE(outs, outs + t * kSize)) {
        ctx->error = HQ_ERR_MAP_OVERFLOW;
        return -1;
      }
    }
    HqVec v;
    if (hq_vec_init(&v, ctx, OREC, 1) || EMIT(outs, &v)) return -1;
    *out = {v.data, v.n, OREC, 0, 0};
    return 0;
  }
};
// [end driver group fold]
// [driver group map]
// A sparse group key's directory (Fig. 4): k sorted, v[id] = key.
template <uint32_t CAP>
struct hq_dir { int64_t k[CAP], v[CAP]; int32_t id[CAP], n; };

// The id of key in d, inserted if new; -1 when d is full.
template <uint32_t CAP>
static inline int32_t hq_dir_id(hq_dir<CAP>* d, int64_t key) {
  int32_t lo = 0, hi = d->n, n = d->n;
  while (lo < hi) {
    int32_t mid = (lo + hi) >> 1;
    if (d->k[mid] < key) lo = mid + 1; else hi = mid;
  }
  if (lo < n && d->k[lo] == key) return d->id[lo];
  if (n == (int32_t)CAP) return -1;
  memmove(d->k + lo + 1, d->k + lo, (n - lo) * 8ull);
  memmove(d->id + lo + 1, d->id + lo, (n - lo) * 4ull);
  d->k[lo] = key; d->id[lo] = n; d->v[n] = key;
  return d->n++;
}

// Aggregates items [b, e) (pages or records of in) into acc; nonzero,
// with wk->error set, when a key does not fit.
typedef int (*HqMapScanFn)(HqQueryCtx* ctx, HqWorkerCtx* wk,
                           const HqStream* in, uint64_t b, uint64_t e,
                           void* acc);

typedef struct HqMapArgs {
  const HqStream* in; uint64_t n; uint8_t* outs; uint32_t nt;
} HqMapArgs;

template <class OUT, HqMapScanFn SCAN>
static int32_t hq_map_task(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t,
                           void* argp) {
  HqMapArgs* A = (HqMapArgs*)argp;
  uint64_t b, e;
  hq_task_range(A->n, A->nt, t, &b, &e);
  return SCAN(ctx, wk, A->in, b, e, OUT::open(A->outs, wk, t, A->nt));
}

// Map aggregation: task t scans its range of the n items into its block.
template <class OUT, HqMapScanFn SCAN>
static int hq_map_agg(HqQueryCtx* ctx, const HqStream* in, uint64_t n,
                      uint64_t grain, HqStream* out) {
  HqMapArgs A = {in, n, 0, hq_task_count(n, grain, HQ_PAR_MAP_TASKS)};
  A.outs = (uint8_t*)ctx->alloc(ctx->arena, A.nt * OUT::kSize);
  if (!A.outs) { ctx->error = HQ_ERR_OOM; return -1; }
  memset(A.outs, 0, A.nt * OUT::kSize);
  HqTaskFn task = hq_map_task<OUT, SCAN>;
  if (hq_parallel_for(ctx, A.nt, task, &A) != HQ_OK) return -1;
  return OUT::close(ctx, A.outs, A.nt, out);
}
// [end driver group map]

#endif  // HIQUE_CODEGEN_RUNTIME_ABI_H_
