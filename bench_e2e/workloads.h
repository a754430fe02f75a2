#ifndef HIQUE_BENCH_E2E_WORKLOADS_H_
#define HIQUE_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/value.h"
#include "tpch/tpch.h"
#include "util/rng.h"

namespace hique::e2e {

/// The four traffic mixes of bench_e2e. Each stresses a different layer;
/// README.md records why each was chosen.
enum class Workload { kTpchWarm, kAdhocCold, kStreamWide, kRefreshMixed };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Client connections the workload drives (closed loop, one thread each).
int Connections(Workload w);

/// The TPC-H scale factor the workload loads.
double ScaleFactor(Workload w);

/// One statement a client sends. The engine sees only `sql` and `params`.
struct Request {
  enum class Kind { kQuery, kExecute, kDml };
  Kind kind = Kind::kQuery;
  std::string sql;            // statement text; kExecute: the prepared SQL
  std::vector<Value> params;  // kExecute: one value per `?`
  std::string tmpl;           // template label: q1, q3, q6, q10, range, ...
  // kDml: the refresh stream and the statement's index inside its RF1 or
  // RF2 batch, so the per-layer replay can issue the same statement of a
  // fresh stream.
  uint64_t rf_stream = 0;
  uint32_t rf_index = 0;
};

/// The prepared range projection stream_wide executes.
std::string StreamWideSql();

/// Deterministic request source for one connection: the sequence of
/// Next() results is a pure function of (workload, seed, connection, sf).
class RequestStream {
 public:
  RequestStream(Workload w, uint64_t seed, int conn, double sf);
  Request Next();

 private:
  Request NextAdhoc();
  Request NextRefresh();

  Workload workload_;
  uint64_t seed_;
  int conn_;
  double sf_;
  Rng rng_;
  uint64_t issued_ = 0;
  int round_[5] = {0, 0, 1, 2, 3};  // tpch_warm: this round's query order
  // refresh_mixed writer: current RF1+RF2 statement list.
  std::vector<Request> batch_;
  size_t batch_pos_ = 0;
  uint64_t stream_ = 0;
  // adhoc_cold: seeded permutation of the statement-shape space, shared
  // by every connection of one seed so no shape repeats within a run.
  std::shared_ptr<const std::vector<uint32_t>> shapes_;
};

/// The distinct statements of the workload whose results are checked
/// against the column engine: the literal-variant pools of tpch_warm and
/// the refresh_mixed reader, and the bound pairs of stream_wide. Empty for
/// adhoc_cold, whose statements are checked as they are issued.
std::vector<Request> CheckPool(Workload w, uint64_t seed, double sf);

/// The statement of refresh stream `stream` in the same position as `like`
/// holds in its own stream: the same RF function and statement index,
/// wrapped where this stream's batch has fewer statements (RF1's chunk
/// count varies from stream to stream).
std::string RefreshStatement(double sf, uint64_t seed, uint64_t stream,
                             const Request& like);

/// FNV-1a over the first `n` requests of every connection.
uint64_t RequestLogHash(Workload w, uint64_t seed, double sf, int n);

}  // namespace hique::e2e

#endif  // HIQUE_BENCH_E2E_WORKLOADS_H_
