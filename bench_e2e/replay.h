#ifndef HIQUE_BENCH_E2E_REPLAY_H_
#define HIQUE_BENCH_E2E_REPLAY_H_

#include <string>
#include <vector>

#include "e2e_util.h"
#include "exec/engine.h"
#include "util/status.h"
#include "workloads.h"

namespace hique::e2e {

struct ReplayOptions {
  std::string gen_dir;        // where the replay compiles its libraries
  uint32_t threads = 2;       // executor slots, as the served engine has
  double sf = 0.1;
  uint64_t seed = 0;
  // DML statements are replayed from this many streams further on: the
  // same statement shapes and sizes, over keys the timed run left alone.
  uint64_t dml_stream_offset = 0;
};

/// A request of the timed phase and the -O level of the library the server
/// ran it with.
struct LoggedRequest {
  Request request;
  int opt_level = 0;
};

struct ReplayResult {
  Metrics layers;   // reported on every workload (BENCHMARK.json per_layer)
  Metrics details;  // per-template, per-operator and DML breakdowns
};

/// Replays `log` through the layers' public functions, one span per call:
/// sql::Parse, sql::Bind, plan::Optimize, plan::ParameterizePlan +
/// PlanSignature, a signature cache local to the replay, codegen::Generate,
/// exec::CompileToSharedLibrary (tier 0, and -O2 for the first misses and
/// wherever the server ran -O2 code), exec::CompiledLibrary::Load,
/// exec::BindParams, exec::ExecuteEntryStreaming with
/// net::EncodeFrame/DecodeFrame on every result page, and
/// HiqueEngine::ExecuteDml for DML. Execute requests of one prepared SQL
/// text pay the front end once, as the prepared path does; a statement that
/// overflows its aggregation map is replanned with hybrid aggregation, as
/// the engine does. Per-operator times come from a separate untimed
/// execution per template with operator spans on.
Result<ReplayResult> Replay(const std::vector<LoggedRequest>& log,
                            HiqueEngine* engine, const ReplayOptions& options,
                            SpanLog* spans);  // empty on entry

}  // namespace hique::e2e

#endif  // HIQUE_BENCH_E2E_REPLAY_H_
