#include "exec/engine.h"

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "codegen/generator.h"
#include "exec/session_internal.h"
#include "obs/metrics.h"
#include "plan/params.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "txn/dml.h"
#include "util/env.h"
#include "util/macros.h"
#include "util/timer.h"

namespace hique {

namespace {

/// Process-wide plan-cache instruments. Looked up once; bumping is
/// lock-free afterwards. These aggregate over every engine in the process
/// (hiqued runs one), alongside the per-engine CacheStats counters.
struct PlanCacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* tier_upgrades;
  obs::Gauge* entries;

  static PlanCacheMetrics& Get() {
    static PlanCacheMetrics m = [] {
      obs::Registry& r = obs::Registry::Global();
      PlanCacheMetrics out;
      out.hits = r.GetCounter("hique_plan_cache_hits_total",
                              "Compiled-query cache hits");
      out.misses = r.GetCounter("hique_plan_cache_misses_total",
                                "Compiled-query cache misses (compiles)");
      out.evictions = r.GetCounter("hique_plan_cache_evictions_total",
                                   "Compiled-query cache LRU evictions");
      out.tier_upgrades =
          r.GetCounter("hique_plan_cache_tier_upgrades_total",
                       "Background -O2 recompilations swapped in");
      out.entries = r.GetGauge("hique_plan_cache_entries",
                               "Distinct compiled plans currently cached");
      return out;
    }();
    return m;
  }
};

/// Artefact base name, unique across every engine in the process: engines
/// share the default gen dir, and dlopen of a path that is already loaded
/// returns the existing handle, so a per-engine counter would let one
/// engine run another's library.
std::string NextArtefactName() {
  static std::atomic<uint64_t> next_id{0};
  return "q" + std::to_string(next_id++);
}

}  // namespace

std::vector<std::vector<Value>> QueryResult::Rows() const {
  std::vector<std::vector<Value>> rows;
  if (!table) return rows;
  rows.reserve(table->NumTuples());
  const Schema& s = table->schema();
  (void)table->ForEachTuple([&](const uint8_t* tuple) {
    std::vector<Value> row;
    row.reserve(s.NumColumns());
    for (size_t c = 0; c < s.NumColumns(); ++c) {
      row.push_back(s.GetValue(tuple, c));
    }
    rows.push_back(std::move(row));
  });
  return rows;
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::ostringstream out;
  for (size_t c = 0; c < schema.NumColumns(); ++c) {
    if (c) out << "\t";
    out << schema.ColumnAt(c).name;
  }
  out << "\n";
  size_t shown = 0;
  for (const auto& row : Rows()) {
    if (shown++ >= max_rows) {
      out << "... (" << NumRows() << " rows total)\n";
      break;
    }
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) out << "\t";
      out << row[c].ToString();
    }
    out << "\n";
  }
  return out.str();
}

// ---- PreparedStatement -----------------------------------------------------
// (State lives in session_internal.h — shared with the session layer.)

const std::string& PreparedStatement::sql() const {
  HQ_CHECK_MSG(valid(), "accessor on an unprepared statement");
  return state_->sql;
}
const std::string& PreparedStatement::plan_signature() const {
  HQ_CHECK_MSG(valid(), "accessor on an unprepared statement");
  return state_->signature;
}
const std::string& PreparedStatement::plan_text() const {
  HQ_CHECK_MSG(valid(), "accessor on an unprepared statement");
  return state_->plan_text;
}
size_t PreparedStatement::num_placeholders() const {
  HQ_CHECK_MSG(valid(), "accessor on an unprepared statement");
  // DML statements carry no plan (they reject placeholders at Prepare).
  if (state_->plan == nullptr) return 0;
  return state_->plan->params.num_placeholders();
}
const QueryTimings& PreparedStatement::prepare_timings() const {
  HQ_CHECK_MSG(valid(), "accessor on an unprepared statement");
  return state_->prepare_timings;
}
bool PreparedStatement::cache_hit() const {
  HQ_CHECK_MSG(valid(), "accessor on an unprepared statement");
  return state_->cache_hit;
}

// ---- HiqueEngine -----------------------------------------------------------

HiqueEngine::HiqueEngine(Catalog* catalog, EngineOptions options)
    : catalog_(catalog), options_(std::move(options)) {
  if (options_.gen_dir.empty()) {
    options_.gen_dir = env::ProcessTempDir() + "/gen";
  }
  threads_ = ClampThreads(options_.threads != 0
                              ? static_cast<int64_t>(options_.threads)
                              : env::EnvInt("HQ_THREADS", 1));
  simd_level_ = exec::ResolveSimdLevel();
  if (threads_ > 1) {
    worker_pool_ = std::make_unique<exec::WorkerPool>(threads_ - 1);
  }
  if (!options_.compression) {
    std::string env = env::EnvString("HQ_COMPRESS", "");
    options_.compression = (env == "1" || env == "on");
  }
  if (!options_.trace_spans) {
    std::string env = env::EnvString("HQ_TRACE_SPANS", "");
    options_.trace_spans = (env == "1" || env == "on");
  }
  if (options_.slow_query_ms <= 0) {
    // Fractional thresholds are meaningful (sub-ms statements), so parse
    // as a double rather than EnvInt.
    std::string env = env::EnvString("HQ_SLOW_QUERY_MS", "");
    if (!env.empty()) options_.slow_query_ms = std::strtod(env.c_str(), nullptr);
  }
  if (options_.compression && catalog_ != nullptr) {
    // Compress every eligible table before any plan can be cached: the plan
    // signature embeds the codec, and Table::Compress bumps the statistics
    // version, so doing this once up front keeps cache keys stable for the
    // engine's lifetime. Best-effort — a table whose statistics are stale
    // or whose data rejects its codec simply stays uncompressed.
    for (const std::string& name : catalog_->TableNames()) {
      auto t = catalog_->GetTable(name);
      if (t.ok()) (void)t.value()->Compress();
    }
  }
  default_session_ = OpenSession({});
}

HiqueEngine::~HiqueEngine() {
  // Wind down client work first: cancel the default session's open cursors
  // while the worker pool and compiled libraries are still alive.
  default_session_.Close();
  {
    // Stop the compactor before anything else: its worker dereferences the
    // catalog, which must outlive it.
    std::lock_guard<std::mutex> lk(compactor_mu_);
    compactor_.reset();
  }
  std::thread worker;
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
    // Drop queued upgrades (the -O0 libraries keep serving); an in-flight
    // compile finishes before the worker observes shutdown.
    tier_jobs_pending_ -= tier_queue_.size();
    tier_queue_.clear();
    worker = std::move(tier_worker_);
  }
  tier_cv_.notify_all();
  tier_idle_cv_.notify_all();
  if (worker.joinable()) worker.join();
}

txn::Compactor* HiqueEngine::compactor() {
  std::lock_guard<std::mutex> lk(compactor_mu_);
  if (compactor_ == nullptr) {
    compactor_ =
        std::make_unique<txn::Compactor>(catalog_, options_.compression);
  }
  return compactor_.get();
}

Result<uint64_t> HiqueEngine::ExecuteDml(const std::string& sql) {
  // Delta-store write feed: DML volume is the signal behind compaction
  // pressure, so it is worth two lock-free bumps per statement.
  struct DmlMetrics {
    obs::Counter* statements;
    obs::Counter* rows;
    static DmlMetrics& Get() {
      static DmlMetrics* m = [] {
        auto* r = &obs::Registry::Global();
        auto* it = new DmlMetrics();
        it->statements = r->GetCounter(
            "hique_dml_statements_total",
            "DML statements executed against the delta store");
        it->rows = r->GetCounter("hique_dml_rows_total",
                                 "Rows inserted, updated or deleted");
        return it;
      }();
      return *m;
    }
  };
  HQ_ASSIGN_OR_RETURN(std::unique_ptr<sql::DmlStmt> stmt, sql::ParseDml(sql));
  HQ_ASSIGN_OR_RETURN(uint64_t affected, txn::ExecuteDml(*stmt, catalog_));
  DmlMetrics::Get().statements->Increment();
  DmlMetrics::Get().rows->Add(affected);
  if (affected > 0) compactor()->NotifyWrite(stmt->table);
  return affected;
}

std::string HiqueEngine::RenderStats() {
  // The background compactor keeps an exact counter behind its own lock;
  // it is folded in at scrape frequency, so its hot path stays untouched.
  // Everything else streams in live.
  struct ScrapeGauges {
    obs::Gauge* compactions;
    obs::Gauge* threads;
    static ScrapeGauges& Get() {
      static ScrapeGauges* g = [] {
        auto* r = &obs::Registry::Global();
        auto* it = new ScrapeGauges();
        it->compactions = r->GetGauge("hique_compactions",
                                      "Background delta compactions run");
        it->threads =
            r->GetGauge("hique_engine_threads", "Configured worker threads");
        return it;
      }();
      return *g;
    }
  };
  auto& g = ScrapeGauges::Get();
  {
    std::lock_guard<std::mutex> lk(compactor_mu_);
    if (compactor_ != nullptr) {
      g.compactions->Set(static_cast<int64_t>(compactor_->compactions()));
    }
  }
  g.threads->Set(threads_);
  return obs::Registry::Global().RenderPrometheus();
}

Result<std::shared_ptr<exec::CompiledLibrary>> HiqueEngine::CompilePlan(
    const plan::PhysicalPlan& plan, int opt_level, QueryTimings* timings) {
  WallTimer timer;
  HQ_ASSIGN_OR_RETURN(auto generated, codegen::Generate(plan));
  timings->generate_ms = timer.ElapsedMillis();

  std::string name = NextArtefactName();
  exec::CompileOptions copts = options_.compile;
  copts.opt_level = opt_level;
  HQ_ASSIGN_OR_RETURN(auto compiled,
                      exec::CompileToSharedLibrary(generated.source,
                                                   options_.gen_dir, name,
                                                   copts));
  timings->compile_ms = compiled.compile_seconds * 1e3;
  // The source text rides along for background tier recompilation, the
  // plan text for what a statement running this library reports; artefact
  // files are removed when the last owner unloads unless keep_source asks
  // for them (gen-dir hygiene under sustained traffic).
  return exec::CompiledLibrary::Load(std::move(compiled),
                                     generated.entry_symbol,
                                     std::move(generated.source), opt_level,
                                     /*unlink_on_unload=*/!options_.keep_source,
                                     simd_level_, plan.ToString());
}

std::shared_ptr<exec::CompiledLibrary> HiqueEngine::LookupCacheLocked(
    const std::string& signature) {
  auto it = cache_.find(signature);
  if (it == cache_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  CacheEntry& entry = it->second;
  // A plan earns the compile.opt_level tier on its first reuse: one-shot
  // statements never pay for a background compile nothing would run.
  if (!entry.tier_scheduled &&
      entry.library->opt_level() < options_.compile.opt_level) {
    entry.tier_scheduled = true;
    ScheduleTierUpgradeLocked(signature, entry.library);
  }
  return entry.library;
}

void HiqueEngine::InsertCacheLocked(
    const std::string& signature,
    std::shared_ptr<exec::CompiledLibrary> library) {
  auto it = cache_.find(signature);
  if (it != cache_.end()) {
    // Replacement (duplicate concurrent compile, overflow alias refresh):
    // keep the LRU node, swap the payload. In-flight executions and
    // prepared statements keep the old library alive through their refs.
    // The new library tiers up on its own first reuse.
    it->second.library = std::move(library);
    it->second.tier_scheduled = false;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  lru_.push_front(signature);
  cache_.emplace(signature, CacheEntry{std::move(library), lru_.begin()});
  while (cache_.size() > options_.max_cached_queries) {
    // Evict the coldest entry (never the one just inserted — it is at the
    // LRU front). Shared ownership keeps the library loaded for anyone
    // still executing it; the last owner dlcloses and removes the files.
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
    PlanCacheMetrics::Get().evictions->Increment();
  }
  PlanCacheMetrics::Get().entries->Set(static_cast<int64_t>(cache_.size()));
}

std::shared_ptr<exec::CompiledLibrary> HiqueEngine::PeekLibrary(
    const std::string& signature) {
  std::lock_guard<std::mutex> lk(mu_);
  return LookupCacheLocked(signature);
}

Result<std::shared_ptr<exec::CompiledLibrary>> HiqueEngine::GetOrCompile(
    const std::string& signature, const plan::PhysicalPlan& plan,
    QueryTimings* timings, bool* cache_hit) {
  *cache_hit = false;
  const bool cached = options_.max_cached_queries > 0;
  if (cached) {
    std::lock_guard<std::mutex> lk(mu_);
    if (auto lib = LookupCacheLocked(signature)) {
      ++stats_.hits;
      PlanCacheMetrics::Get().hits->Increment();
      *cache_hit = true;
      return lib;
    }
    ++stats_.misses;
    PlanCacheMetrics::Get().misses->Increment();
  }

  // A cached miss starts at -O0 and tiers up on its first reuse (see
  // LookupCacheLocked); an uncached statement runs once, so it compiles at
  // the final level.
  const int opt_level = cached ? 0 : options_.compile.opt_level;
  HQ_ASSIGN_OR_RETURN(auto library, CompilePlan(plan, opt_level, timings));
  if (cached) {
    std::lock_guard<std::mutex> lk(mu_);
    InsertCacheLocked(signature, library);
  }
  return library;
}

void HiqueEngine::ScheduleTierUpgradeLocked(
    const std::string& signature,
    const std::shared_ptr<exec::CompiledLibrary>& library) {
  if (shutdown_) return;
  tier_queue_.push_back({signature, library});
  ++tier_jobs_pending_;
  if (!tier_worker_.joinable()) {
    tier_worker_ = std::thread(&HiqueEngine::TierWorkerLoop, this);
  }
  tier_cv_.notify_one();
}

void HiqueEngine::TierWorkerLoop() {
  for (;;) {
    TierJob job;
    std::shared_ptr<exec::CompiledLibrary> origin;  // released unlocked
    {
      std::unique_lock<std::mutex> lk(mu_);
      tier_cv_.wait(lk, [&] { return shutdown_ || !tier_queue_.empty(); });
      if (shutdown_) return;
      job = std::move(tier_queue_.front());
      tier_queue_.pop_front();
      origin = job.origin.lock();
      // The entry was evicted or replaced while the job queued: the swap
      // below would be refused, so skip the compile.
      auto it = cache_.find(job.signature);
      if (it == cache_.end() || it->second.library != origin) {
        if (--tier_jobs_pending_ == 0) tier_idle_cv_.notify_all();
        continue;
      }
    }

    // Compile at the final tier outside the lock — queries keep flowing
    // through the -O0 library meanwhile.
    std::string name = NextArtefactName() + "_tier";
    auto compiled = exec::CompileToSharedLibrary(
        origin->source(), options_.gen_dir, name, options_.compile);
    std::shared_ptr<exec::CompiledLibrary> fresh;
    if (compiled.ok()) {
      auto loaded = exec::CompiledLibrary::Load(
          std::move(compiled).value(), origin->entry_symbol(),
          origin->source(), options_.compile.opt_level, !options_.keep_source,
          simd_level_, origin->plan_text());
      if (loaded.ok()) fresh = std::move(loaded).value();
      // A failed load falls through: the -O0 tier keeps serving.
    }

    {
      std::lock_guard<std::mutex> lk(mu_);
      // Swap only over the exact library this job was scheduled for: if
      // the entry was evicted or replaced meanwhile (overflow alias,
      // concurrent recompile), upgrading by opt level alone could
      // resurrect a superseded plan under this signature. Otherwise the
      // fresh library is dropped after the unlock; its destructor unlinks
      // its files. `origin` keeps a swapped-out library alive until then.
      auto it = cache_.find(job.signature);
      if (fresh && it != cache_.end() && it->second.library == origin) {
        // The atomic tier swap: every later lookup sees the -O2 library;
        // executions inside the old one finish on their own reference.
        it->second.library = std::move(fresh);
        ++stats_.tier_upgrades;
        PlanCacheMetrics::Get().tier_upgrades->Increment();
      }
      --tier_jobs_pending_;
      if (tier_jobs_pending_ == 0) tier_idle_cv_.notify_all();
    }
  }
}

void HiqueEngine::WaitForTierUpgrades() {
  std::unique_lock<std::mutex> lk(mu_);
  tier_idle_cv_.wait(lk, [&] { return shutdown_ || tier_jobs_pending_ == 0; });
}

hique::CacheStats HiqueEngine::StatsSnapshotLocked() const {
  hique::CacheStats snapshot = stats_;
  snapshot.entries = cache_.size();
  return snapshot;
}

hique::CacheStats HiqueEngine::CacheStats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return StatsSnapshotLocked();
}

size_t HiqueEngine::CompiledCacheSize() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cache_.size();
}

namespace {

/// True when two parameter tables lay out their banks identically (same
/// slot types and indexes). Both walks are deterministic in plan structure,
/// so layout equality today implies equality for every future literal
/// binding of either plan.
bool SameParamLayout(const plan::ParamTable& a, const plan::ParamTable& b) {
  if (a.entries.size() != b.entries.size() || a.num_ints != b.num_ints ||
      a.num_doubles != b.num_doubles ||
      a.num_char_bytes != b.num_char_bytes) {
    return false;
  }
  for (size_t i = 0; i < a.entries.size(); ++i) {
    if (!(a.entries[i].type == b.entries[i].type) ||
        a.entries[i].bank_index != b.entries[i].bank_index) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<std::shared_ptr<const PreparedStatement::State>>
HiqueEngine::PrepareState(const std::string& sql,
                          const plan::PlannerOptions& planner,
                          bool force_hybrid_agg, bool allow_placeholders) {
  auto state = std::make_shared<PreparedStatement::State>();
  state->sql = sql;
  state->planner = planner;

  WallTimer timer;
  HQ_ASSIGN_OR_RETURN(auto stmt, sql::Parse(sql));
  state->prepare_timings.parse_ms = timer.ElapsedMillis();

  timer.Restart();
  HQ_ASSIGN_OR_RETURN(auto bound, sql::Bind(*stmt, *catalog_));
  // Capture the per-table layout versions before the optimizer reads any
  // codec state: a Compress/Decompress rewrite that lands after this point
  // produces a version mismatch at pin time (the stale-plan signal) instead
  // of executing against an encoding the plan was not generated for.
  state->tables.reserve(bound->tables.size());
  for (Table* t : bound->tables) {
    state->tables.push_back({t->layout_version(), false});
  }
  if (!allow_placeholders && bound->num_placeholders > 0) {
    return Status::BindError(
        "query contains ? placeholders; use Prepare/Execute to bind values");
  }
  plan::PlannerOptions effective = planner;
  if (force_hybrid_agg) {
    effective.force_agg_algo = plan::AggAlgo::kHybridHashSort;
  }
  HQ_ASSIGN_OR_RETURN(auto plan, plan::Optimize(std::move(bound), effective));
  for (const plan::Op& op : plan->ops) {
    const auto* stage = std::get_if<plan::StageOp>(&op);
    if (stage != nullptr && stage->action == plan::StageAction::kPartitionFine &&
        !stage->fine_clamp) {
      const int table =
          stage->output.fields[stage->key_fields[0]].source.table;
      state->tables[table].stats_cover_rows = true;
    }
  }
  // Hoist literal constants into the plan's parameter table, then key the
  // compiled-query cache on the literal-free structural signature.
  plan::ParameterizePlan(plan.get());
  // The catalog statistics version prefixes the structural signature: a
  // stats refresh re-keys every plan, so stale compiled libraries (whose
  // partition counts / directory geometry baked in the old stats) stop
  // being served and age out of the LRU instead of lingering.
  state->signature = "sv" + std::to_string(catalog_->StatsVersion()) + "|" +
                     plan::PlanSignature(*plan);
  state->prepare_timings.optimize_ms = timer.ElapsedMillis();

  const auto& slots = plan->params.placeholder_entries;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] < 0) {
      return Status::BindError(
          "placeholder ?" + std::to_string(i + 1) +
          " sits in a position the plan cannot parameterize");
    }
  }

  bool hit = false;
  HQ_ASSIGN_OR_RETURN(state->library,
                      GetOrCompile(state->signature, *plan,
                                   &state->prepare_timings, &hit));
  state->cache_hit = hit;
  // The plan the library was generated from: an overflow alias serves
  // another plan's library under this signature.
  state->plan_text = state->library->plan_text();
  state->plan = std::move(plan);
  return std::shared_ptr<const PreparedStatement::State>(std::move(state));
}

void HiqueEngine::InstallOverflowAlias(
    const std::string& failed_signature,
    const plan::ParamTable& failed_params,
    const PreparedStatement::State& fallback) {
  // Future repeats re-plan to the overflowing map plan (stats are still
  // stale), so alias the working fallback library under that plan's
  // signature too — they then skip the failing execution entirely. Safe
  // only when both plans bind identical parameter banks, which the layout
  // check guarantees for every future literal variant.
  if (options_.max_cached_queries == 0 || failed_signature.empty() ||
      !SameParamLayout(failed_params, fallback.plan->params)) {
    return;
  }
  // Prefer the hybrid signature's current entry (the tier worker may
  // already have swapped -O2 in). A plain find, not a lookup: installing
  // the alias is no reuse of the hybrid plan. An alias still below the
  // final tier upgrades on its own first reuse, like any other entry.
  std::lock_guard<std::mutex> lk(mu_);
  auto it = cache_.find(fallback.signature);
  InsertCacheLocked(failed_signature, it != cache_.end()
                                          ? it->second.library
                                          : fallback.library);
}

}  // namespace hique
