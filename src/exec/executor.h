#ifndef HIQUE_EXEC_EXECUTOR_H_
#define HIQUE_EXEC_EXECUTOR_H_

#include <atomic>
#include <functional>
#include <vector>

#include "codegen/runtime_abi.h"
#include "exec/arena.h"
#include "exec/worker_pool.h"
#include "plan/physical.h"
#include "storage/table.h"
#include "util/status.h"

namespace hique::exec {

/// Execution statistics for one query run, including the deterministic
/// software counters the generated code maintains (see DESIGN.md §2 on the
/// OProfile substitution).
/// Per-operator span of one execution, recorded engine-side at the operator
/// boundary marks the generated code always emits (hq_op_mark). Wall time is
/// the span between consecutive marks on the orchestrating thread; counter
/// columns are deltas of the context counters folded at parallel barriers,
/// so they are exact per operator and deterministic across thread counts.
/// Timing columns (wall_seconds, max_skew, cycles) are not deterministic.
/// The join-key filter a probe stage tested (HqKeyFilter), reported by
/// the generated code's HQ_MARK_KEY_FILTER annotation. Deterministic
/// across thread counts.
struct KeyFilterStat {
  bool present = false;
  int64_t keys = 0;     // build-side records
  uint64_t bytes = 0;   // bitmap bytes; 0 when the width guard fired
  uint64_t tested = 0;  // probe rows that reached the test
  uint64_t passed = 0;  // probe rows that passed it
};

struct OpStat {
  int32_t op_id = -1;          // index into the physical plan's op list
  double wall_seconds = 0;
  uint64_t tuples = 0;         // its output cardinality (records/rows)
  uint64_t pages = 0;          // pages it touched
  uint64_t helper_calls = 0;
  uint64_t barriers = 0;       // hq_parallel_for barriers it ran
  uint64_t tasks = 0;          // tasks across those barriers
  double max_skew = 0;         // worst barrier skew within this operator
  uint64_t cycles = 0;         // hardware cycles (perf_event), if available
  bool cycles_valid = false;   // false => render cycles as "n/a"
  KeyFilterStat key_filter;    // a probe stage's join-key filter
};

struct ExecStats {
  int64_t rows = 0;
  double execute_seconds = 0;
  uint64_t pages_touched = 0;
  uint64_t tuples_emitted = 0;
  uint64_t helper_calls = 0;
  uint64_t arena_bytes = 0;    // query arena + all worker arenas
  uint64_t arena_fresh_bytes = 0;  // of which taken from the OS, not a pool
  uint32_t threads = 1;        // executor slots the run could schedule on
  // Parallel-stage shape. Barrier and task counts follow from the plan and
  // the data alone, so they compare equal across thread settings above
  // one (with one executor, base-table staging runs one task and skips
  // the concatenation barrier); the skew ratio is the
  // worst barrier's slowest-task / mean-task wall time (0 = no barriers
  // ran, 1.0 = perfectly balanced) and, being timing, is NOT deterministic.
  uint64_t par_barriers = 0;
  uint64_t par_tasks = 0;
  double skew_ratio = 0;
  // Per-operator spans, in pipeline order. Empty unless the run asked for
  // op stats (ParallelRuntime::collect_op_stats — EXPLAIN ANALYZE, the
  // engine's trace_spans option, or the benches).
  std::vector<OpStat> ops;
};

/// Intra-query parallelism wiring for one execution. Defaults describe the
/// serial regime: no pool, one worker context, unbounded scratch. The
/// engine shares one WorkerPool across all concurrent executions; each
/// execution gets its own per-worker arenas and counter blocks, so the
/// pool threads never share mutable state between queries.
struct ParallelRuntime {
  WorkerPool* pool = nullptr;      // null => hq_parallel_for runs serially
  uint64_t arena_limit_bytes = 0;  // shared scratch budget (0 = unlimited)
  // Where the execution's arenas take their blocks from: the engine's
  // pool; null => ArenaPool::Shared(), the pool of callers without one.
  ArenaPool* arena_pool = nullptr;
  // Cooperative cancellation flag: when set nonzero by the client, the
  // execution unwinds with a "query cancelled" error — the scheduler checks
  // it before every parallel task (remaining tasks cancel through the
  // HqWorkerCtx sticky-error path) and generated code polls it at operator
  // and result-page boundaries. Null = not cancellable.
  const std::atomic<int32_t>* cancel = nullptr;
  // Observability: when set, the executor installs a span recorder behind
  // the operator-boundary marks and fills ExecStats::ops. Never changes the
  // generated source or the result bytes — the marks are always compiled
  // in; this only decides whether anything listens to them.
  bool collect_op_stats = false;
  // Additionally sample hardware cycle counts per operator via
  // perf_event_open (EXPLAIN ANALYZE). Spans report cycles_valid = false
  // when the kernel denies the counters — callers render "n/a".
  bool collect_op_cycles = false;
};

/// Returns true when the failure is the map-aggregation directory overflow
/// signal (stale statistics); the engine reacts by re-planning with hybrid
/// aggregation.
bool IsMapOverflow(const Status& status);

/// Returns true when the failure is a client-requested cancellation
/// (ParallelRuntime::cancel flag, closed cursor or closed session).
bool IsCancelled(const Status& status);

/// Returns true when the failure is the stale-plan signal: a table's page
/// layout changed (compaction / compression rewrite) between plan lookup
/// and pinning. The session reacts by re-preparing against the new layout
/// and retrying — safe because staleness is detected before any result
/// page is delivered.
bool IsStalePlan(const Status& status);

/// What a plan assumed about one input table when it was prepared. A
/// pinned snapshot that breaks an assumption fails the execution with the
/// stale-plan signal (see IsStalePlan) before any generated code runs.
struct TableExpectation {
  // The physical-layout version the plan was generated for.
  uint64_t layout_version = 0;
  // A fine-partitioned join drops keys outside the statistics' range, so
  // it needs the statistics to cover every row: no delta-store inserts.
  bool stats_cover_rows = false;
};

/// The runtime materialization of a plan's ParamTable: owning storage for
/// the banks plus the ABI view handed to generated code. The abi pointers
/// alias the vectors, so a BoundParams must outlive the execution and must
/// not be copied/moved after `abi` is read.
struct BoundParams {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<char> chars;
  HqParams abi = {nullptr, nullptr, nullptr, 0, 0, 0};
};

/// Binds the current literal values of `params` into bank arrays laid out
/// exactly as the generated code expects (plan::ParameterizePlan assigned
/// the bank indexes).
void BindParams(const plan::ParamTable& params, BoundParams* out);

/// BindParams plus prepared-statement values: every `?` placeholder slot is
/// overwritten with the corresponding entry of `values` (coerced to the
/// slot's type with the binder's rules). Errors on arity mismatch or an
/// uncoercible value. Thread-safe: `params` is read-only and `out` is local
/// to the execution.
Status BindParamValues(const plan::ParamTable& params,
                       const std::vector<Value>& values, BoundParams* out);

/// Receives ownership of one completed, zeroed, page-aligned result page,
/// allocated with malloc (free it with std::free, or hand it to
/// Table::AdoptPage, which copies it into a table page and frees it on
/// success). Invoked on the executing thread, in emission order. Return
/// false to cancel the query: the executor records HQ_ERR_CANCELLED and the
/// generated code unwinds.
using ResultPageFn = std::function<bool(Page*)>;

/// Supplies 4096-aligned result-page memory to the streaming executor
/// (contents may be garbage — the sink zeroes every page before the
/// generated code sees it). Null function => posix_memalign per page;
/// returning null signals allocation failure. The session layer plugs the
/// StreamCore free-list in here so drained cursor pages are reused.
using PageAllocFn = std::function<Page*()>;

/// The one way to run a compiled entry (see exec::CompiledLibrary): pins
/// the base tables, runs the entry with the given parameter block (may be
/// null), and hands each result page to `on_page` as soon as the generated
/// code emits it — the full result is never materialized inside the
/// executor, so outside ORDER BY peak result memory is the pages the
/// consumer holds plus the single page being filled. Returns the row count.
/// `par` selects the worker pool and thread budget; `{}` runs serially.
///
/// `expected`, when non-null, carries what the plan assumed about each
/// table (same order as `tables`); a pinned snapshot that reports another
/// layout version, or inserts the statistics may not cover where the plan
/// needs them covered, fails the call with the stale-plan signal (see
/// IsStalePlan) before executing any generated code. Layout-preserving
/// compactions do not bump the version (generated NSM scan loops are still
/// valid over the freshly folded pages).
Result<int64_t> ExecuteEntryStreaming(const std::vector<Table*>& tables,
                                      const Schema& output_schema,
                                      HqEntryFn entry, const HqParams* params,
                                      ExecStats* stats,
                                      const ParallelRuntime& par,
                                      const ResultPageFn& on_page,
                                      const PageAllocFn& alloc_page = {},
                                      const std::vector<TableExpectation>*
                                          expected = nullptr);

}  // namespace hique::exec

#endif  // HIQUE_EXEC_EXECUTOR_H_
