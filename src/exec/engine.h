#ifndef HIQUE_EXEC_ENGINE_H_
#define HIQUE_EXEC_ENGINE_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/compiled_library.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "obs/slow_log.h"
#include "plan/optimizer.h"
#include "storage/catalog.h"
#include "txn/compactor.h"
#include "util/status.h"

namespace hique {

/// Per-phase preparation cost (Table III in the paper) plus execution time.
/// On a compiled-query cache hit, generate_ms and compile_ms are zero; on a
/// prepared-statement Execute, parse_ms and optimize_ms are zero as well —
/// re-execution pays only parameter binding + execution.
struct QueryTimings {
  double parse_ms = 0;
  double optimize_ms = 0;
  double generate_ms = 0;
  double compile_ms = 0;
  double execute_ms = 0;
};

/// Snapshot of the compiled-query cache counters. `entries` is the current
/// cache population; the event counters are cumulative over the engine's
/// lifetime. tier_upgrades counts background -O0 -> -O2 recompilations that
/// were atomically swapped in under an existing signature.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t tier_upgrades = 0;
  uint64_t entries = 0;
};

/// A fully evaluated query: result rows plus everything the paper reports
/// about the run (preparation costs, generated artefact sizes, software
/// counters).
struct QueryResult {
  Schema schema;
  std::unique_ptr<Table> table;
  QueryTimings timings;
  int64_t source_bytes = 0;
  int64_t library_bytes = 0;
  std::string generated_source;  // kept when EngineOptions::keep_source
  std::string plan_text;
  std::string plan_signature;    // canonical structural cache key
  bool cache_hit = false;        // compiled library reused; no gen/compile
  int library_opt_level = 0;     // -O tier of the library that executed
  CacheStats cache_stats;        // engine cache snapshot after this query
  exec::ExecStats exec_stats;
  // DML statements (INSERT/UPDATE/DELETE): rows inserted/updated/deleted.
  // `table` is null for DML — there is no result relation.
  int64_t rows_affected = 0;

  int64_t NumRows() const { return table ? static_cast<int64_t>(table->NumTuples()) : 0; }

  /// Materializes all rows as boxed values (client-boundary convenience).
  std::vector<std::vector<Value>> Rows() const;

  /// Tab-separated rendering of up to `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;
};

class HiqueEngine;

struct EngineOptions {
  plan::PlannerOptions planner;
  exec::CompileOptions compile;
  bool keep_source = false;      // retain generated source text in results
                                 // AND on-disk artefacts after library unload
  // LRU bound on distinct compiled plans; 0 turns the cache off, and every
  // statement then compiles a private library at compile.opt_level that is
  // deleted after execution. With the cache on, a miss compiles at -O0 for
  // low first-execution latency (paper Table II: -O0 compiles ~3x faster).
  // When compile.opt_level > 0, the entry's first reuse (a cache hit, a
  // Prepare of the same plan, or a prepared Execute) has a background
  // worker recompile it at compile.opt_level and atomically swap the
  // library under the same signature; a statement that never repeats
  // never pays for that compile.
  size_t max_cached_queries = 64;
  std::string gen_dir;           // defaults to a process temp dir
  // Intra-query parallelism: partition-parallel staging/joins/aggregation
  // over a shared exec::WorkerPool. 0 resolves to the HQ_THREADS
  // environment variable, defaulting to 1 (serial). The generated code is
  // identical at every thread count (the knob is pure runtime scheduling),
  // so one cached library serves all settings and parallel results are
  // bit-identical to serial ones.
  uint32_t threads = 0;
  // Per-execution scratch-memory budget shared by the query arena and all
  // worker arenas (0 = unlimited). Exhaustion fails the query with a clean
  // OOM error; in a parallel run the failing worker cancels the remaining
  // tasks at the next barrier.
  uint64_t arena_limit_bytes = 0;
  // Compressed columnar storage: when enabled (or HQ_COMPRESS=1/on in the
  // environment), the constructor compresses every catalogue table whose
  // statistics justify an encoding (storage::ChooseTableCodec) and the
  // code generator fuses the per-column decode kernels into its scan
  // loops. Results are bit-identical to uncompressed execution; tables the
  // codec chooser declines (high-entropy / double-heavy) stay NSM and
  // their plans and generated source are byte-identical to a
  // compression-off engine. Appending to a compressed table transparently
  // decompresses it first (like dropping an index on write).
  bool compression = false;
  // Observability. trace_spans records a per-operator span breakdown
  // (ExecStats::ops) for every statement, not just EXPLAIN ANALYZE ones —
  // false resolves through HQ_TRACE_SPANS. Purely an engine-side listener
  // behind the operator marks the generated code always carries: flipping
  // it changes neither the generated source nor any result byte, and
  // cached libraries keep serving.
  bool trace_spans = false;
  // Statements whose end-to-end wall time crosses this threshold are
  // recorded in the engine's slow-query log (statement, plan signature,
  // span summary) and echoed to stderr. 0 disables and resolves through
  // HQ_SLOW_QUERY_MS.
  double slow_query_ms = 0;
};

/// Per-session activity metrics (Session::Stats). The wire protocol
/// reports these in the Close summary frame.
struct SessionStats {
  uint64_t streams_opened = 0;  // cursors opened (QueryStream/ExecuteStream)
  // Parallel-execution gauges: the executor-slot count of the most recent
  // completed statement (after engine/session clamping — the width queries
  // actually ran at) and the worst per-barrier skew ratio (slowest task /
  // mean task wall time; 0 until a statement completes) seen so far.
  uint32_t threads_effective = 0;
  double max_skew_ratio = 0;
};

/// Per-session execution settings: every statement a Session runs inherits
/// these. Everything else (scratch budget, compilation, tracing) is the
/// engine's EngineOptions.
struct SessionOptions {
  /// When set, replaces the engine's planner options for every statement
  /// this session plans (Query, Prepare and the streaming variants).
  /// Benchmarks pin algorithms this way, as the paper's §VI-B sweeps do;
  /// the pinned plan is cached under its own signature.
  bool override_planner = false;
  plan::PlannerOptions planner;
  /// Intra-query parallelism: 0 inherits the engine setting; 1 forces
  /// serial execution for this session's queries; values above 1 use the
  /// engine's shared worker pool at its configured width (the pool is
  /// sized once, engine-wide).
  uint32_t threads = 0;
  /// Completed result pages a ResultSet buffers ahead of the consumer (at
  /// least 1). The producer blocks once the bound is reached, so a
  /// cursor's peak result-page residency is stream_buffer_pages + 2
  /// (buffered + one being filled + one held by the reader) regardless of
  /// result cardinality.
  uint32_t stream_buffer_pages = 4;
};

/// A prepared statement: the fully planned, compiled form of one SQL string
/// whose `?` placeholders are bound per execution. Value-semantic handle
/// over immutable shared state — cheap to copy, safe to Execute from many
/// threads concurrently. The statement pins its compiled library, so cache
/// eviction can never invalidate it.
class PreparedStatement {
 public:
  PreparedStatement() = default;

  bool valid() const { return state_ != nullptr; }
  const std::string& sql() const;
  const std::string& plan_signature() const;
  const std::string& plan_text() const;
  size_t num_placeholders() const;
  /// Preparation cost: parse/optimize/generate/compile paid once at Prepare.
  const QueryTimings& prepare_timings() const;
  bool cache_hit() const;  // library was reused from the cache at Prepare

 public:
  /// Opaque shared state (defined in the engine implementation).
  struct State;

 private:
  friend class HiqueEngine;
  friend struct SessionImpl;
  std::shared_ptr<const State> state_;
};

/// A pull-based streaming cursor over one query execution. The compiled
/// library, plan and parameter block stay pinned for the cursor's lifetime;
/// the executor produces result pages on a private thread and hands them
/// over through a bounded queue, so peak result-page residency is
/// O(stream_buffer_pages) — independent of the result cardinality — and
/// rows stream in exactly the order (and bytes) the materializing Query()
/// path would produce.
///
/// Closing (or destroying) the cursor before the end cancels the rest of
/// the query: the producer observes the cancellation flag at operator,
/// task and result-page boundaries and unwinds through the worker-context
/// sticky-error path, so parallel barriers abandon their remaining tasks.
///
/// Not thread-safe: one consumer at a time (the producer side is internal).
class ResultSet {
 public:
  ResultSet();  // invalid until assigned from a *Stream call
  ~ResultSet();
  ResultSet(ResultSet&& other) noexcept;
  ResultSet& operator=(ResultSet&& other) noexcept;
  ResultSet(const ResultSet&) = delete;
  ResultSet& operator=(const ResultSet&) = delete;

  bool valid() const { return stream_ != nullptr; }
  const Schema& schema() const;

  /// Advances to the next row. False at end-of-result or on error —
  /// check status() to tell the two apart. Blocks while the producer is
  /// still computing the next page.
  bool Next();

  /// Current row accessors; valid after a true Next() until the next
  /// Next()/Close(). RowBytes points at the raw fixed-length tuple
  /// (schema().TupleSize() bytes) inside the pinned page.
  const uint8_t* RowBytes() const;
  Value Get(size_t column) const;
  std::vector<Value> Row() const;

  /// OK while rows are flowing and after a clean end; the execution error
  /// (including "query cancelled" after an early Close) otherwise.
  Status status() const;

  /// Early close: cancels the remaining execution, joins the producer and
  /// releases all pages. Idempotent; the destructor calls it.
  void Close();

  /// Drains the remaining rows into a materialized QueryResult, the same
  /// one the blocking Query/Execute APIs return. Rows already consumed
  /// through Next() are not replayed.
  Result<QueryResult> Materialize();

  /// Metadata known at open time.
  const std::string& plan_signature() const;
  const std::string& plan_text() const;
  const QueryTimings& timings() const;  // execute_ms filled at end of stream
  bool cache_hit() const;
  int library_opt_level() const;

  int64_t rows_read() const;
  /// Rows inserted/updated/deleted when the cursor wraps a DML statement
  /// (such a cursor yields no rows: the write completed before it opened).
  /// Zero for SELECT cursors.
  int64_t rows_affected() const;
  /// High-water mark of simultaneously resident result pages (buffered +
  /// in-production + held by the reader). Bounded by stream_buffer_pages+2.
  uint32_t peak_result_pages() const;
  /// Execution counters; complete once the stream has ended.
  const exec::ExecStats& exec_stats() const;

  /// ---- Page-granular transport hooks (the hiqued wire server) ----------
  /// A cursor can be drained page-at-a-time instead of row-at-a-time: the
  /// sealed result page travels from the generated code to the socket
  /// serializer without any per-row boxing or re-materialization. Page
  /// access and row access (Next) must not be mixed on one cursor.
  enum class PagePoll {
    kPage,     // *page holds the next completed page (ownership transfers)
    kPending,  // producer still computing; try again
    kEnd,      // stream over — status() tells success from failure
  };

  /// Non-blocking page pull for event-loop servers: never waits on the
  /// producer. On kPage the caller owns the page — hand it back through
  /// RecyclePage, or std::free it. After kPending the ready callback runs
  /// once the next page or the end of stream arrives; call again then.
  PagePoll TryTakePage(Page** page);

  /// Sets the wake-up an event-loop consumer sleeps on. It runs at most
  /// once per kPending answer, on the producer thread, when that answer
  /// goes stale (a page was queued or the stream ended); it must be cheap
  /// and must not call back into this cursor. It never runs after Close()
  /// or the destructor returns, because both join the producer first.
  /// Set it before the first TryTakePage.
  void SetReadyCallback(std::function<void()> ready);

  /// Returns a drained page to the stream's free-list so the producer
  /// reuses it instead of malloc'ing a fresh one (bounded; overflow frees).
  /// Safe for any 4096-aligned page the cursor handed out.
  void RecyclePage(Page* page);

  /// Page-allocation telemetry: fresh allocations vs. free-list reuses
  /// over the cursor's lifetime. In steady state a bounded stream allocates
  /// only O(stream_buffer_pages) fresh pages regardless of result size.
  uint64_t pages_allocated() const;
  uint64_t pages_recycled() const;

 public:
  /// Opaque stream state (defined in the session implementation).
  struct Stream;

 private:
  friend struct SessionImpl;
  std::unique_ptr<Stream> stream_;
};

/// A client session: the unit of connection state in the client-server
/// model. Carries per-session defaults (planner overrides, parallelism,
/// cursor buffer bound), owns the lifecycle of its open cursors, and is
/// the only way to reach the streaming API. Value-semantic handle over
/// shared state; cheap to copy. All methods are thread-safe (the
/// underlying engine is). Sessions must not outlive their engine.
class Session {
 public:
  Session() = default;  // invalid until assigned from OpenSession
  ~Session();
  Session(const Session&) = default;
  Session& operator=(const Session&) = default;
  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;

  bool valid() const { return state_ != nullptr; }
  const SessionOptions& options() const;
  HiqueEngine* engine() const;

  /// Blocking evaluation: the cursor's pipeline, run on the calling thread
  /// with result pages adopted straight into a materialized QueryResult.
  Result<QueryResult> Query(const std::string& sql);
  Result<QueryResult> Execute(const PreparedStatement& stmt,
                              const std::vector<Value>& values = {});

  /// Prepares with this session's planner options; the statement shares
  /// the engine-wide compiled-plan cache.
  Result<PreparedStatement> Prepare(const std::string& sql);

  /// Streaming evaluation: returns a cursor after parse/optimize/compile;
  /// execution runs concurrently with consumption under a bounded
  /// result-page buffer.
  Result<ResultSet> QueryStream(const std::string& sql);
  Result<ResultSet> ExecuteStream(const PreparedStatement& stmt,
                                  const std::vector<Value>& values = {});

  /// Activity metrics for this session: cursors opened and the last
  /// statement's parallel shape. Cheap (atomic reads); callable
  /// concurrently with running statements.
  SessionStats Stats() const;

  /// Cancels this session's open cursors (their ResultSet objects stay
  /// owned by the caller and report "query cancelled") and refuses every
  /// later statement. A blocking Query/Execute already running on another
  /// thread finishes. Idempotent.
  void Close();

 public:
  /// Opaque session state (defined in the session implementation).
  struct State;

 private:
  friend class HiqueEngine;
  friend struct SessionImpl;
  std::shared_ptr<State> state_;
};

/// HIQUE: the holistic integrated query engine (paper §IV, Fig. 2).
/// SQL -> parse -> optimize -> signature -> generate C++ -> compile ->
/// dlopen -> bind params -> run. The compiled-query cache is keyed on the
/// canonical plan signature, so `... WHERE l_quantity < 24` and `... < 25`
/// share one compiled library and only the parameter block differs.
///
/// Thread-safe: Query / Prepare / Execute may be called concurrently. The
/// cache holds shared_ptr<CompiledLibrary> entries, so an eviction or tier
/// swap never unloads a library mid-execution; concurrent misses on one
/// signature may compile twice (both results are valid, the later insert
/// wins). Bulk loads must not run during queries; DML goes through each
/// table's delta store, which concurrent executions snapshot safely.
class HiqueEngine {
 public:
  explicit HiqueEngine(Catalog* catalog, EngineOptions options = {});
  ~HiqueEngine();
  HiqueEngine(const HiqueEngine&) = delete;
  HiqueEngine& operator=(const HiqueEngine&) = delete;

  Catalog* catalog() const { return catalog_; }
  const EngineOptions& options() const { return options_; }

  /// Resolved intra-query parallelism (EngineOptions::threads or
  /// HQ_THREADS); 1 means serial execution.
  uint32_t threads() const { return threads_; }

  /// Resolved kernel version (HQ_SIMD_* constant, exec::ResolveSimdLevel):
  /// HQ_SIMD_AVX2 on an AVX2 host unless HQ_SIMD=off, else HQ_SIMD_SCALAR.
  /// Every library this engine loads is pinned to this level.
  int32_t simd_level() const { return simd_level_; }

  /// Clamps a requested worker count to what the host can actually run —
  /// the constructor applies this to EngineOptions::threads / HQ_THREADS,
  /// and benchmarks use it so their column labels match the engine. The
  /// ceiling is hardware_concurrency with bounded (2x) oversubscription,
  /// never below 16: executor counts past that only add barrier overhead
  /// and idle pool threads, while a floor of 16 keeps deliberately
  /// oversubscribed runs (sanitizer jobs, small CI hosts) meaningful.
  /// Results are unaffected either way — task decomposition is data-only.
  static uint32_t ClampThreads(int64_t threads) {
    if (threads < 1) return 1;
    uint32_t hw = std::thread::hardware_concurrency();
    uint32_t cap = 2 * (hw > 0 ? hw : 1);
    if (cap < 16) cap = 16;
    if (threads > static_cast<int64_t>(cap)) return cap;
    return static_cast<uint32_t>(threads);
  }

  /// Opens a client session with per-session defaults/overrides. Sessions
  /// are the full client API (blocking and streaming); the engine-level
  /// Query/Execute below are conveniences that run on an internal default
  /// session. Sessions must be closed (or dropped) before the engine is
  /// destroyed.
  Session OpenSession(SessionOptions options = {});

  /// Evaluates one SELECT statement end to end. SQL containing `?`
  /// placeholders must go through Prepare/Execute instead. Runs as a
  /// blocking Session::Query on the default session; results are
  /// bit-identical to the streaming path.
  Result<QueryResult> Query(const std::string& sql);

  /// Executes one DML statement (INSERT INTO ... VALUES / UPDATE ... SET /
  /// DELETE FROM) through the interpreted write path: the row lands in (or
  /// is masked out of) the target table's delta store, concurrent compiled
  /// scans keep reading the snapshots they pinned, and the background
  /// compactor is nudged afterwards. Returns rows affected. Session::Query
  /// and the streaming paths route DML here automatically.
  Result<uint64_t> ExecuteDml(const std::string& sql);

  /// The background delta compactor (lazily started on first use). Folds
  /// write-heavy tables' deltas into fresh base pages, re-runs the codec
  /// chooser when compression is on, and bumps statistics versions so
  /// cached plans over the old layout invalidate.
  txn::Compactor* compactor();

  /// Parses, optimizes and compiles `sql` once, binding `?` placeholders to
  /// parameter-table slots (types inferred from their comparison/arithmetic
  /// context). The returned statement shares the signature-keyed cache with
  /// Query(): preparing a template another query already compiled is a hit.
  Result<PreparedStatement> Prepare(const std::string& sql);

  /// Executes a prepared statement with one value per `?` placeholder
  /// (lexical order). Skips parse/optimize/signature entirely — timings
  /// report zero for every phase but execution — and runs through the
  /// statement's pinned entry point: no dlopen/dlsym. Counts as a reuse of
  /// the cached plan (scheduling its -O2 tier), and picks up the
  /// tier-upgraded library when the background worker has swapped one in.
  Result<QueryResult> Execute(const PreparedStatement& stmt,
                              const std::vector<Value>& values = {});

  /// Cache counters (hits / misses / evictions / tier-upgrades / entries).
  hique::CacheStats CacheStats() const;

  /// Number of distinct compiled queries currently cached.
  size_t CompiledCacheSize() const;

  /// Blocks until every scheduled background tier recompilation has been
  /// processed (swapped in or abandoned). A recompilation is scheduled by
  /// a plan's first reuse, not by its miss, so benchmarks time the -O2 tier
  /// after two untimed runs of a statement (the miss and the reuse) and
  /// this call; tests use it to observe the tier deterministically.
  void WaitForTierUpgrades();

  /// The engine's slow-query log (EngineOptions::slow_query_ms /
  /// HQ_SLOW_QUERY_MS; empty while the threshold is 0).
  obs::SlowQueryLog* slow_log() { return &slow_log_; }

  /// Resolved slow-query threshold in milliseconds (0 = disabled).
  double slow_query_ms() const { return options_.slow_query_ms; }

  /// Resolved trace default: when true, every statement collects per-
  /// operator spans (EXPLAIN ANALYZE forces collection regardless).
  bool trace_spans() const { return options_.trace_spans; }

  /// Synchronizes scrape-time gauges (background compactions, the
  /// configured worker threads) into the global metrics registry and
  /// renders the Prometheus text dump. Hot paths feed their instruments
  /// live; subsystems that already keep exact internal counters under
  /// their own locks are folded in here, at scrape frequency, instead of
  /// taking a second atomic on every event. Serves the protocol-v5
  /// ServerStats frame, the SIGUSR1 dump, and `remote_client
  /// --server-stats`.
  std::string RenderStats();

 private:
  friend struct SessionImpl;

  struct CacheEntry {
    std::shared_ptr<exec::CompiledLibrary> library;
    std::list<std::string>::iterator lru_pos;  // into lru_ (front = hottest)
    // An upgrade of `library` has been queued; reset when a replacement
    // installs another library.
    bool tier_scheduled = false;
  };
  struct TierJob {
    std::string signature;
    // The library this job upgrades. The swap only happens while the cache
    // entry still holds exactly this library — if something else replaced
    // it meanwhile (e.g. the map-overflow alias installing the hybrid
    // fallback under this signature), upgrading would resurrect a stale
    // plan, so the job is discarded instead.
    std::weak_ptr<exec::CompiledLibrary> origin;
  };

  /// Parses/optimizes/parameterizes/compiles into a prepared state — the
  /// one front half shared by every evaluation path (blocking, streaming,
  /// prepared). `force_hybrid_agg` is the stale-statistics fallback
  /// used when map aggregation overflowed; `allow_placeholders` is false
  /// for direct Query paths (`?` requires Prepare/Execute). The plan
  /// signature is prefixed with the catalog statistics version, so a stats
  /// refresh re-keys the cache and stale compiled libraries age out by LRU
  /// instead of being served.
  Result<std::shared_ptr<const PreparedStatement::State>> PrepareState(
      const std::string& sql, const plan::PlannerOptions& planner,
      bool force_hybrid_agg, bool allow_placeholders);

  /// Stale-statistics repair: after a map-overflow restart succeeded, alias
  /// the working hybrid-aggregation library under the overflowing plan's
  /// signature so repeats skip the doomed execution (requires identical
  /// parameter-bank layouts).
  void InstallOverflowAlias(const std::string& failed_signature,
                            const plan::ParamTable& failed_params,
                            const PreparedStatement::State& fallback);

  /// Generates + compiles `plan` at `opt_level` and loads the library.
  Result<std::shared_ptr<exec::CompiledLibrary>> CompilePlan(
      const plan::PhysicalPlan& plan, int opt_level, QueryTimings* timings);

  /// Cache lookup / compile-on-miss. On a hit the entry moves to the LRU
  /// front and `cache_hit` is set (and the lookup may schedule the entry's
  /// tier upgrade, see LookupCacheLocked); on a miss the plan is compiled
  /// at -O0 and inserted. With max_cached_queries 0, compiles a private
  /// library at compile.opt_level without touching the cache.
  Result<std::shared_ptr<exec::CompiledLibrary>> GetOrCompile(
      const std::string& signature, const plan::PhysicalPlan& plan,
      QueryTimings* timings, bool* cache_hit);

  /// Returns the cached library for `signature` (moving it to the LRU
  /// front), or null. Does not count a hit/miss, but is a reuse: a prepared
  /// Execute tiers its plan up like a cache hit does.
  std::shared_ptr<exec::CompiledLibrary> PeekLibrary(
      const std::string& signature);

  // All require mu_ held. A lookup that finds an entry below
  // compile.opt_level schedules its upgrade, once per installed library.
  std::shared_ptr<exec::CompiledLibrary> LookupCacheLocked(
      const std::string& signature);
  void InsertCacheLocked(const std::string& signature,
                         std::shared_ptr<exec::CompiledLibrary> library);
  void ScheduleTierUpgradeLocked(
      const std::string& signature,
      const std::shared_ptr<exec::CompiledLibrary>& library);
  void TierWorkerLoop();
  hique::CacheStats StatsSnapshotLocked() const;

  Catalog* catalog_;
  EngineOptions options_;
  uint32_t threads_ = 1;
  int32_t simd_level_ = 0;  // resolved once in the constructor
  // Shared across all concurrent executions; created once at construction
  // when threads_ > 1 (pool size threads_ - 1: the query thread itself is
  // the last executor slot of every ParallelFor barrier).
  std::unique_ptr<exec::WorkerPool> worker_pool_;
  // Arena blocks every execution of this engine takes and gives back; its
  // blocks are freed with the engine.
  exec::ArenaPool arena_pool_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;
  hique::CacheStats stats_;   // entries field maintained lazily in snapshots

  // Background tier-upgrade worker: lazily started, joined in ~HiqueEngine.
  // Pending jobs are dropped at shutdown (the -O0 library keeps serving).
  std::thread tier_worker_;
  std::condition_variable tier_cv_;
  std::condition_variable tier_idle_cv_;
  std::deque<TierJob> tier_queue_;
  uint64_t tier_jobs_pending_ = 0;
  bool shutdown_ = false;

  // Background delta compactor (lazily created on first DML; stopped and
  // joined early in ~HiqueEngine, while the catalog is still valid).
  std::mutex compactor_mu_;
  std::unique_ptr<txn::Compactor> compactor_;

  // The session behind the engine-level Query/Execute conveniences.
  Session default_session_;

  // Bounded slow-statement ring (see EngineOptions::slow_query_ms).
  obs::SlowQueryLog slow_log_;
};

}  // namespace hique

#endif  // HIQUE_EXEC_ENGINE_H_
