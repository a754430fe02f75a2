#ifndef HIQUE_EXEC_SESSION_INTERNAL_H_
#define HIQUE_EXEC_SESSION_INTERNAL_H_

// Internal definitions shared by engine.cc and session.cc: the pimpl state
// behind PreparedStatement / Session / ResultSet and the
// privileged SessionImpl facade. Not part of the public API — include only
// from src/exec implementation files.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "exec/executor.h"

namespace hique {

/// Immutable after Prepare, so concurrent Execute calls share it freely. The
/// one exception is the lazily created map-overflow fallback (stale
/// statistics re-plan), which is guarded by its own mutex.
struct PreparedStatement::State {
  std::string sql;
  std::string signature;
  std::string plan_text;
  std::unique_ptr<plan::PhysicalPlan> plan;
  std::shared_ptr<exec::CompiledLibrary> library;  // pinned: eviction-proof
  QueryTimings prepare_timings;
  bool cache_hit = false;
  // How this statement was planned — the map-overflow fallback re-plans
  // with the same settings.
  plan::PlannerOptions planner;
  // Prepared DML: no plan/library — Execute routes `sql` to the DML
  // executor and returns rows-affected through the result.
  bool is_dml = false;
  // Per-table assumptions (same order as plan->query->tables): the
  // physical-layout versions captured right after binding, and whether a
  // fine-partitioned join needs the statistics to cover every row. The
  // executor validates the pinned snapshots against these: a
  // Compress/Decompress rewrite or a delta-store insert that lands between
  // preparation and pinning fails the execution with the stale-plan signal
  // instead of running generated code that would misread or drop rows.
  // Layout-preserving compactions do not bump the version, so a compaction
  // storm never starves in-flight queries.
  std::vector<exec::TableExpectation> tables;

  mutable std::mutex fallback_mu;
  mutable std::shared_ptr<const State> fallback;
};

/// What a statement reports besides its rows. Open fills it in; a restart
/// replan rewrites it, and Run stamps timings.execute_ms.
struct StatementMeta {
  std::string plan_signature;
  std::string plan_text;
  std::string generated_source;  // kept when EngineOptions::keep_source
  QueryTimings timings;
  bool cache_hit = false;
  int opt_level = 0;
  int64_t source_bytes = 0;
  int64_t library_bytes = 0;
  int64_t rows_affected = 0;  // DML
};

/// The bounded producer→consumer handoff behind a ResultSet: completed
/// result pages queue here until the consumer pulls them. The producer
/// blocks once `capacity` pages are buffered — that bound (plus the page
/// being filled and the page the reader holds) is the cursor's peak
/// result-page residency, independent of result cardinality.
///
/// An event-loop consumer is woken instead of re-polling: TryPop arms the
/// `ready` callback when it finds nothing, and the next Push or Finish
/// disarms it and calls it once, outside `mu`. Both run on the producer
/// thread (or before the cursor exists, for a sealed core), and the
/// ResultSet joins the producer in Close and on destruction, so `ready`
/// never runs after either returns.
struct StreamCore {
  explicit StreamCore(uint32_t cap) : capacity(cap < 1 ? 1 : cap) {}
  ~StreamCore();

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Page*> queue;
  const uint32_t capacity;
  bool closed = false;    // consumer cancelled / went away
  bool finished = false;  // producer done; final_status/stats/meta valid
  Status final_status = Status::OK();
  exec::ExecStats stats;
  // The producer's final metadata: a restart replan on the producer thread
  // rewrites it, and the consumer applies it at end of stream.
  StatementMeta meta;
  uint32_t peak_resident = 0;

  // Backpressure-aware page recycling: pages the consumer drained return
  // here and the producer's next result page is carved from this free-list
  // instead of a fresh posix_memalign — in steady state a bounded stream
  // allocates only O(capacity) pages no matter how large the result is.
  // Bounded at capacity + 2 (the residency bound); overflow is freed.
  std::vector<Page*> free_pages;
  uint64_t pages_allocated = 0;  // fresh posix_memalign calls
  uint64_t pages_recycled = 0;   // free-list reuses

  // The flag the producer's executor polls.
  std::atomic<int32_t> cancel{0};

  // Consumer wake-up (ResultSet::SetReadyCallback), guarded by `mu`.
  std::function<void()> ready;
  bool ready_armed = false;  // a TryPop found nothing since the last fire

  /// Producer side: enqueue a completed page (takes ownership). Blocks
  /// while the buffer is full; false once the consumer closed (the page is
  /// freed and the query unwinds with HQ_ERR_CANCELLED).
  bool Push(Page* page);

  /// Producer side: a 4096-aligned page from the free-list, or a fresh
  /// allocation (null on allocation failure). Contents are undefined —
  /// the executor's sink zeroes every page it hands to generated code.
  Page* AcquirePage();

  /// Consumer side: hands a drained page back to the free-list (or frees
  /// it when the list is full). Accepts null.
  void Recycle(Page* page);

  /// Producer side: final outcome of the execution.
  void Finish(Status status, const exec::ExecStats& s, StatementMeta m);

  /// Consumer side: next page (ownership transfers to the caller), or
  /// null once the producer finished and the buffer drained.
  Page* Pop();

  /// Non-blocking Pop for event-loop consumers: true with *out set when a
  /// page (or the end of stream, *out == null with `ended` true) is
  /// available right now; false when the producer is still computing, in
  /// which case the next Push or Finish calls `ready`.
  bool TryPop(Page** out, bool* ended);

  /// Consumer/session side: request cancellation and wake both ends.
  void CancelAndClose();

  /// Disarms the consumer wake-up and returns the callback to run once
  /// `mu` is released (empty when nothing was armed). Caller holds `mu`.
  std::function<void()> TakeReadyLocked();
};

struct Session::State {
  HiqueEngine* engine = nullptr;
  SessionOptions options;           // as resolved by OpenSession
  plan::PlannerOptions planner;     // effective planner for this session

  // Metrics behind Session::Stats(): maintained with atomics so concurrent
  // statements and a remote Stats probe never contend.
  std::atomic<uint64_t> stat_streams_opened{0};
  // Parallel-execution gauges (SessionStats::threads_effective /
  // max_skew_ratio): last completed statement's executor width, and the
  // session-lifetime maximum of the per-statement skew ratio in millis
  // (fixed-point so it fits a lock-free max update).
  std::atomic<uint32_t> stat_threads_effective{0};
  std::atomic<uint64_t> stat_skew_milli{0};

  std::mutex mu;
  std::vector<std::weak_ptr<StreamCore>> streams;
  bool closed = false;
};

/// Where a statement comes from: SQL text planned with `planner`, or a
/// prepared statement executed with `values`.
struct StatementSource {
  std::string sql;
  plan::PlannerOptions planner;
  std::optional<PreparedStatement> stmt;
  std::vector<Value> values;
};

/// One statement between Open and the end of Run: what to (re)plan from,
/// the resolved plan state and library, and the bound parameter block. On a
/// cursor, only the producer thread touches it once Open has returned.
struct StatementRun {
  std::shared_ptr<Session::State> session;
  // For a prepared statement, sql/planner are the statement's.
  StatementSource source;
  // EXPLAIN ANALYZE forces per-operator span collection (and cycle
  // counters) regardless of EngineOptions::trace_spans. Neither changes the
  // generated source or the result bytes.
  bool force_op_stats = false;

  // The prepared state owns the plan; the library shared_ptr keeps the
  // dlopen'd code loaded through cache evictions.
  std::shared_ptr<const PreparedStatement::State> state;
  std::shared_ptr<exec::CompiledLibrary> library;
  exec::BoundParams bound;
  StatementMeta meta;
  exec::ExecStats stats;
};

/// A statement opened for reading. A SELECT cursor runs its StatementRun on
/// the producer thread into `core`; DML and EXPLAIN are answered at open
/// and arrive with a sealed `core`. Destroyed only after the producer
/// joined.
struct ResultSet::Stream {
  StatementRun run;
  std::shared_ptr<StreamCore> core;
  std::thread producer;

  // Metadata the consumer reads: set at open, replaced from the core at end
  // of stream.
  Schema schema;
  uint32_t tuple_size = 0;
  StatementMeta meta;
  exec::ExecStats stats;

  // Consumer cursor.
  Page* page = nullptr;       // held page (owned)
  uint32_t row_in_page = 0;
  bool row_valid = false;     // row_in_page addresses a consumed row
  int64_t rows_read = 0;
  bool iterating = false;     // a row was consumed (Materialize forbidden)
  bool page_mode = false;     // TryTakePage used (row access forbidden)
  bool done = false;
  Status end_status = Status::OK();

  ~Stream();
};

/// The privileged implementation of the session layer: a friend of
/// HiqueEngine / Session / ResultSet / PreparedStatement, so
/// the pipeline can reach the cache, the worker pool and the prepared-state
/// internals without widening any public surface. Every statement passes
/// Classify (session.cc), Open and, unless Open answered it, Run.
struct SessionImpl {
  /// Stage 2: resolves the state and library and fills in the metadata.
  /// DML and EXPLAIN are answered here and come back as a finished stream
  /// (sealed core, no producer); a SELECT comes back ready for Run.
  static Result<std::unique_ptr<ResultSet::Stream>> Open(
      const std::shared_ptr<Session::State>& session, StatementSource source);

  /// Stage 3: executes `run` into the page sink, applies the restart policy
  /// (at most one map-overflow replan to hybrid aggregation and three
  /// stale-plan replans, only while no page has been delivered), stamps
  /// timings.execute_ms and folds the statement metrics.
  static Status Run(StatementRun* run, const exec::ResultPageFn& on_page,
                    const exec::PageAllocFn& alloc_page,
                    std::atomic<int32_t>* cancel);

  /// Open, then Run on the calling thread into a result table.
  static Result<QueryResult> Blocking(
      const std::shared_ptr<Session::State>& session, StatementSource source);

  /// Open, then Run on a producer thread into a bounded StreamCore.
  static Result<ResultSet> Cursor(
      const std::shared_ptr<Session::State>& session, StatementSource source);

  static Result<PreparedStatement> Prepare(
      HiqueEngine* engine, const std::string& sql,
      const plan::PlannerOptions& planner);

  /// Points `run` at `state`: resolves its library, fills in the metadata
  /// and binds the parameters.
  static Status Adopt(StatementRun* run,
                      std::shared_ptr<const PreparedStatement::State> state);

  /// Re-plans after a restartable failure: onto hybrid aggregation after a
  /// map overflow (a prepared statement shares one lazily built fallback
  /// across its executions), or from scratch against the current table
  /// layouts after a stale plan.
  static Status Replan(StatementRun* run, bool hybrid);
};

}  // namespace hique

#endif  // HIQUE_EXEC_SESSION_INTERNAL_H_
