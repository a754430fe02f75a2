// Runtime ABI shared between the HIQUE engine and generated query code.
//
// This header is compiled into the engine AND embedded verbatim at the top
// of every generated source file (see abi_embed.cc generated by CMake), so
// the two views of these structures can never diverge.
//
// It must therefore stay self-contained: C-compatible layout, only
// <stdint.h>/<string.h> dependencies, no engine headers.

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
// partition histogram matrix is nt*M counters, map-agg slices are
// nt*CELLS cells plus nt directories.
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
  uint32_t num_workers;   // executor slots (1 = serial fast paths apply)

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
  // announces every operator boundary through hq_op_mark; the engine may
  // install a recorder behind `op_mark` to turn those marks into
  // per-operator spans. The emission is unconditional — whether the hook
  // is installed or not, the generated source is byte-identical, so
  // cached libraries serve traced and untraced executions alike. A null
  // hook (bare-metal harness, tracing off) degrades to one store per
  // operator. `current_op` is the id of the operator currently running
  // (-1 outside any operator); the engine-side parallel_for reads it to
  // attribute barrier timing and skew to the right operator.
  void (*op_mark)(void* obs, int32_t op_id);
  void* obs;
  int32_t current_op;
  int32_t obs_reserved_;
} HqQueryCtx;

// True when the host has requested cancellation of this execution.
static inline int hq_cancelled(const HqQueryCtx* ctx) {
  return ctx->cancel != 0 && *ctx->cancel != 0;
}

// Operator-boundary mark. op_id is the physical-plan operator index about
// to run, or -1 when the pipeline finishes. Must stay cheap when no
// recorder is installed (one store + one predictable branch).
static inline void hq_op_mark(HqQueryCtx* ctx, int32_t op_id) {
  ctx->current_op = op_id;
  if (ctx->op_mark != 0) ctx->op_mark(ctx->obs, op_id);
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

static inline int hq_vec_init_w(HqVec* v, HqWorkerCtx* w, uint32_t rec,
                                int64_t initial_cap) {
  return hq_vec_setup(v, w->alloc, w->arena, &w->error, &w->helper_calls,
                      rec, initial_cap);
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

// ---- compressed-page decode helpers -----------------------------------------

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

#endif  // HIQUE_CODEGEN_RUNTIME_ABI_H_
