#include "replay.h"

#include <cstdlib>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "codegen/generator.h"
#include "exec/compiled_library.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "exec/worker_pool.h"
#include "net/protocol.h"
#include "plan/optimizer.h"
#include "plan/params.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "util/env.h"
#include "util/macros.h"

namespace hique::e2e {

namespace {

constexpr size_t kMaxTemplates = 8;    // per-template metrics
constexpr size_t kMaxOpMetrics = 40;   // per-operator metrics
constexpr int kO2Compiles = 4;         // -O2 compiles timed (first misses)

/// A planned, compiled statement: what the engine's prepared state holds.
struct Planned {
  std::unique_ptr<plan::PhysicalPlan> plan;
  std::shared_ptr<exec::CompiledLibrary> library;
};

class Replayer {
 public:
  Replayer(HiqueEngine* engine, const ReplayOptions& options, SpanLog* spans)
      : engine_(engine),
        catalog_(engine->catalog()),
        options_(options),
        spans_(spans),
        pool_(options.threads > 1 ? options.threads - 1 : 0) {
    par_.pool = options.threads > 1 ? &pool_ : nullptr;
  }

  Status Run(const std::vector<LoggedRequest>& log) {
    HQ_RETURN_IF_ERROR(env::MakeDirs(options_.gen_dir));
    for (size_t i = 0; i < log.size(); ++i) {
      HQ_RETURN_IF_ERROR(One(log[i].request, log[i].opt_level,
                             static_cast<int64_t>(i)));
    }
    return Status::OK();
  }

  Status Profile(Metrics* details) {
    // Operator spans are on only here, never in the timed replay above.
    exec::ParallelRuntime par = par_;
    par.collect_op_stats = true;
    size_t op_metrics = 0;
    for (const auto& [tmpl, first] : profile_) {
      exec::BoundParams bound;
      if (first.request.kind == Request::Kind::kExecute) {
        HQ_RETURN_IF_ERROR(exec::BindParamValues(first.planned->plan->params,
                                                 first.request.params, &bound));
      } else {
        exec::BindParams(first.planned->plan->params, &bound);
      }
      exec::ExecStats stats;
      const plan::PhysicalPlan& plan = *first.planned->plan;
      HQ_RETURN_IF_ERROR(
          exec::ExecuteEntryStreaming(plan.query->tables, plan.output_schema,
                                      first.planned->library->entry(),
                                      &bound.abi, &stats, par,
                                      [](Page* page) {
                                        std::free(page);
                                        return true;
                                      })
              .status());
      details->push_back({"storage.pages_touched." + tmpl,
                          static_cast<double>(stats.pages_touched), "count"});
      for (const exec::OpStat& op : stats.ops) {
        if (op.op_id < 0 || op_metrics == kMaxOpMetrics) continue;
        ++op_metrics;
        details->push_back({"exec.op_ms." + tmpl + "." + std::to_string(op.op_id),
                            op.wall_seconds * 1e3, "ms"});
      }
    }
    return Status::OK();
  }

  /// Per-call medians. Times are self times: a span's duration minus the
  /// part its child spans cover (only exec.execute has children: the
  /// encode/decode spans of its result pages).
  void Summarize(Metrics* layers, Metrics* details) const {
    const std::vector<Span>& mine = spans_->spans();
    std::vector<double> self = SelfTimesNs(mine);
    std::map<std::string, std::vector<double>> by_name;
    std::map<std::string, std::vector<double>> execute_by_tmpl;
    for (size_t i = 0; i < mine.size(); ++i) {
      by_name[mine[i].name].push_back(self[i]);
      const std::string& tmpl = tmpl_of_request_.at(mine[i].request);
      if (mine[i].name == "exec.execute" && profile_.count(tmpl) != 0) {
        execute_by_tmpl[tmpl].push_back(self[i]);
      }
    }
    auto med = [&](const std::string& name, double scale) {
      auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : Median(it->second) * scale;
    };
    const double us = 1e-3, ms = 1e-6;
    *layers = {
        {"sql.parse_us", med("sql.parse", us), "us"},
        {"sql.bind_us", med("sql.bind", us), "us"},
        {"plan.optimize_us", med("plan.optimize", us), "us"},
        {"plan.signature_us", med("plan.signature", us), "us"},
        {"codegen.generate_ms", med("codegen.generate", ms), "ms"},
        {"codegen.source_bytes", Median(source_bytes_), "bytes"},
        {"exec.compile_ms", med("exec.compile", ms), "ms"},
        {"exec.compile_o2_ms", med("exec.compile_o2", ms), "ms"},
        {"exec.load_ms", med("exec.load", ms), "ms"},
        {"exec.library_bytes", Median(library_bytes_), "bytes"},
        {"exec.bind_params_us", med("exec.bind_params", us), "us"},
        {"exec.execute_ms", med("exec.execute", ms), "ms"},
        {"storage.pages_touched", Median(pages_touched_), "count"},
        {"net.encode_us_per_page", med("net.encode", us), "us"},
        {"net.decode_us_per_page", med("net.decode", us), "us"},
        {"net.bytes_per_row",
         rows_ > 0 ? static_cast<double>(wire_bytes_) / rows_ : 0, "bytes"},
        {"net.frames_per_result", Median(frames_), "count"},
    };
    for (const auto& [tmpl, v] : execute_by_tmpl) {
      details->push_back({"exec.execute_ms." + tmpl, Median(v) * ms, "ms"});
    }
    if (by_name.count("txn.dml") != 0) {
      details->push_back({"txn.dml_ms", med("txn.dml", ms), "ms"});
    }
  }

 private:
  struct FirstOfTemplate {
    Request request;
    const Planned* planned = nullptr;
  };

  Status One(const Request& r, int opt_level, int64_t id) {
    tmpl_of_request_[id] = r.tmpl;
    int root = spans_->Begin("request", -1, id);
    if (r.kind == Request::Kind::kDml) {
      std::string fresh = RefreshStatement(
          options_.sf, options_.seed, r.rf_stream + options_.dml_stream_offset,
          r);
      int s = spans_->Begin("txn.dml", root, id);
      Result<uint64_t> affected = engine_->ExecuteDml(fresh);
      spans_->End(s);
      spans_->End(root);
      return affected.status();
    }

    // Execute requests of one prepared SQL text plan once (at "Prepare");
    // Query requests pay the whole front end every time.
    const Planned* planned = nullptr;
    std::unique_ptr<Planned> owned;
    auto prepared = prepared_.find(r.sql);
    bool hybrid = overflowed_.count(r.sql) != 0;
    if (r.kind == Request::Kind::kExecute && prepared != prepared_.end()) {
      planned = prepared->second.get();
    } else {
      HQ_ASSIGN_OR_RETURN(owned, FrontEnd(r.sql, opt_level, root, id, hybrid));
      planned = owned.get();
      if (r.kind == Request::Kind::kExecute) {
        prepared_[r.sql] = std::move(owned);
      }
    }
    Status executed = Execute(r, *planned, root, id);
    if (exec::IsMapOverflow(executed) && r.kind == Request::Kind::kQuery &&
        !hybrid) {
      // As the engine does: replan once with hybrid hash-sort aggregation,
      // and plan this statement that way from then on.
      overflowed_.insert(r.sql);
      HQ_ASSIGN_OR_RETURN(owned, FrontEnd(r.sql, opt_level, root, id,
                                          /*hybrid=*/true));
      planned = owned.get();
      executed = Execute(r, *planned, root, id);
    }
    HQ_RETURN_IF_ERROR(executed);
    spans_->End(root);

    if (profile_.size() < kMaxTemplates && profile_.count(r.tmpl) == 0) {
      if (owned != nullptr) {
        kept_.push_back(std::move(owned));
        planned = kept_.back().get();
      }
      profile_[r.tmpl] = {r, planned};
    }
    return Status::OK();
  }

  Result<std::unique_ptr<Planned>> FrontEnd(const std::string& sql,
                                            int opt_level, int root,
                                            int64_t id, bool hybrid) {
    auto out = std::make_unique<Planned>();
    int s = spans_->Begin("sql.parse", root, id);
    auto stmt = sql::Parse(sql);
    spans_->End(s);
    HQ_RETURN_IF_ERROR(stmt.status());

    s = spans_->Begin("sql.bind", root, id);
    auto bound = sql::Bind(*stmt.value(), *catalog_);
    spans_->End(s);
    HQ_RETURN_IF_ERROR(bound.status());

    plan::PlannerOptions planner;
    if (hybrid) planner.force_agg_algo = plan::AggAlgo::kHybridHashSort;
    s = spans_->Begin("plan.optimize", root, id);
    auto plan = plan::Optimize(std::move(bound).value(), planner);
    spans_->End(s);
    HQ_RETURN_IF_ERROR(plan.status());
    out->plan = std::move(plan).value();

    // The engine keys its cache on the statistics version plus the
    // literal-free structural signature; so does the replay.
    s = spans_->Begin("plan.signature", root, id);
    plan::ParameterizePlan(out->plan.get());
    std::string signature = "sv" + std::to_string(catalog_->StatsVersion()) +
                            "|" + plan::PlanSignature(*out->plan);
    spans_->End(s);

    s = spans_->Begin("exec.cache_lookup", root, id);
    auto hit = cache_.find(signature);
    spans_->End(s);
    if (hit != cache_.end()) {
      out->library = hit->second;
      return out;
    }

    s = spans_->Begin("codegen.generate", root, id);
    auto generated = codegen::Generate(*out->plan);
    spans_->End(s);
    HQ_RETURN_IF_ERROR(generated.status());
    source_bytes_.push_back(static_cast<double>(generated.value().source.size()));

    std::string name = "r" + std::to_string(compiles_++);
    exec::CompileOptions tier0;
    tier0.opt_level = 0;
    s = spans_->Begin("exec.compile", root, id);
    auto compiled = exec::CompileToSharedLibrary(generated.value().source,
                                                 options_.gen_dir, name, tier0);
    spans_->End(s);
    HQ_RETURN_IF_ERROR(compiled.status());
    library_bytes_.push_back(static_cast<double>(compiled.value().library_bytes));
    exec::CompileResult run = std::move(compiled).value();

    // The served engine recompiles each cached library at -O2 in the
    // background. The replay times that compile for its first misses, and
    // runs the -O2 library wherever the served request ran one.
    exec::CompileOptions o2;
    o2.keep_source = false;
    const bool run_o2 = opt_level >= o2.opt_level;
    if (run_o2 || compiles_ <= kO2Compiles) {
      s = spans_->Begin("exec.compile_o2", root, id);
      auto upgraded = exec::CompileToSharedLibrary(
          generated.value().source, options_.gen_dir, name + "_o2", o2);
      spans_->End(s);
      HQ_RETURN_IF_ERROR(upgraded.status());
      if (run_o2) std::swap(run, upgraded.value());
      (void)env::RemoveFile(upgraded.value().library_path);
    }

    s = spans_->Begin("exec.load", root, id);
    auto library = exec::CompiledLibrary::Load(
        std::move(run), generated.value().entry_symbol,
        std::move(generated).value().source,
        run_o2 ? o2.opt_level : tier0.opt_level, /*unlink_on_unload=*/true);
    spans_->End(s);
    HQ_RETURN_IF_ERROR(library.status());
    out->library = std::move(library).value();
    cache_[signature] = out->library;
    return out;
  }

  Status Execute(const Request& r, const Planned& planned, int root,
                 int64_t id) {
    const plan::PhysicalPlan& plan = *planned.plan;
    exec::BoundParams bound;
    int s = spans_->Begin("exec.bind_params", root, id);
    Status bind = Status::OK();
    if (r.kind == Request::Kind::kExecute) {
      bind = exec::BindParamValues(plan.params, r.params, &bound);
    } else {
      exec::BindParams(plan.params, &bound);
    }
    spans_->End(s);
    HQ_RETURN_IF_ERROR(bind);

    const uint32_t tuple_size = plan.output_schema.TupleSize();
    int64_t frames = 0;
    std::vector<uint8_t> wire;
    Status wire_status = Status::OK();
    exec::ExecStats stats;
    int exec_span = spans_->Begin("exec.execute", root, id);
    auto rows = exec::ExecuteEntryStreaming(
        plan.query->tables, plan.output_schema, planned.library->entry(),
        &bound.abi, &stats, par_, [&](Page* page) {
          // One RowPage frame per result page, as the server sends it.
          int e = spans_->Begin("net.encode", exec_span, id);
          net::WireWriter w;
          w.U32(page->num_tuples);
          w.U32(tuple_size);
          w.Bytes(page->data, static_cast<size_t>(page->num_tuples) * tuple_size);
          wire.clear();
          net::EncodeFrame(net::MsgType::kRowPage, w.buffer(), &wire);
          spans_->End(e);
          std::free(page);

          int d = spans_->Begin("net.decode", exec_span, id);
          net::Frame frame;
          auto consumed = net::DecodeFrame(wire.data(), wire.size(), &frame);
          uint32_t page_rows = 0, page_tuple = 0;
          const uint8_t* bytes = nullptr;
          net::WireReader reader(frame.payload);
          Status st = consumed.status();
          if (st.ok()) st = reader.U32(&page_rows);
          if (st.ok()) st = reader.U32(&page_tuple);
          if (st.ok()) st = reader.Bytes(static_cast<size_t>(page_rows) * page_tuple, &bytes);
          spans_->End(d);
          if (!st.ok()) {
            wire_status = st;
            return false;
          }
          ++frames;
          wire_bytes_ += static_cast<int64_t>(wire.size());
          return true;
        });
    spans_->End(exec_span);
    HQ_RETURN_IF_ERROR(wire_status);
    HQ_RETURN_IF_ERROR(rows.status());
    rows_ += rows.value();
    frames_.push_back(static_cast<double>(frames));
    pages_touched_.push_back(static_cast<double>(stats.pages_touched));
    return Status::OK();
  }

  HiqueEngine* engine_;
  Catalog* catalog_;
  const ReplayOptions& options_;
  SpanLog* spans_;
  exec::WorkerPool pool_;
  exec::ParallelRuntime par_;

  std::unordered_map<std::string, std::shared_ptr<exec::CompiledLibrary>> cache_;
  std::unordered_map<std::string, std::unique_ptr<Planned>> prepared_;
  std::unordered_set<std::string> overflowed_;  // SQL the map overflowed on
  std::vector<std::unique_ptr<Planned>> kept_;  // plans the profile reruns
  std::map<std::string, FirstOfTemplate> profile_;
  std::unordered_map<int64_t, std::string> tmpl_of_request_;
  int compiles_ = 0;

  std::vector<double> source_bytes_, library_bytes_, pages_touched_, frames_;
  int64_t wire_bytes_ = 0;
  int64_t rows_ = 0;
};

}  // namespace

Result<ReplayResult> Replay(const std::vector<LoggedRequest>& log,
                            HiqueEngine* engine, const ReplayOptions& options,
                            SpanLog* spans) {
  Replayer replayer(engine, options, spans);
  HQ_RETURN_IF_ERROR(replayer.Run(log));
  ReplayResult out;
  replayer.Summarize(&out.layers, &out.details);
  HQ_RETURN_IF_ERROR(replayer.Profile(&out.details));
  return out;
}

}  // namespace hique::e2e
