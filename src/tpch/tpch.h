#ifndef HIQUE_TPCH_TPCH_H_
#define HIQUE_TPCH_TPCH_H_

#include <string>
#include <vector>

#include "storage/catalog.h"
#include "util/status.h"

namespace hique::tpch {

/// TPC-H dbgen work-alike (paper §VI-C uses the official generator at
/// scale factor 1). Cardinalities, key relationships, value domains and the
/// selectivity-relevant distributions (dates, segments, return flags,
/// discounts) follow the TPC-H specification; free-text columns are filled
/// from a small word list. All randomness is seeded, so datasets are
/// reproducible.
struct TpchOptions {
  double scale_factor = 0.1;
  uint64_t seed = 19920101;
  bool compute_stats = true;  // ANALYZE after load (needed by the optimizer)
};

/// Creates and populates all eight TPC-H tables in `catalog`:
/// region, nation, supplier, customer, part, partsupp, orders, lineitem.
Status LoadTpch(Catalog* catalog, const TpchOptions& options);

/// Cardinality of each table at a given scale factor.
uint64_t TableCardinality(const std::string& table, double scale_factor);

/// The evaluation queries of the paper (§VI-C), expressed in the engine's
/// SQL dialect (date arithmetic pre-folded, as the paper's prototype does).
std::string Query1Sql();
std::string Query3Sql();
std::string Query10Sql();

/// TPC-H Q6 (forecasting revenue change): not part of the paper's
/// evaluation, but it fits the prototype grammar exactly — a pure
/// scan + conjunctive selection + scalar aggregation — and exercises the
/// single-pass filter-aggregate path.
std::string Query6Sql();

/// One TPC-H refresh batch (spec §2.27/§2.28) expressed as DML statements
/// in the engine's dialect, executable through Session::Query or
/// net::Client::Query. All randomness is derived from (seed, stream), so a
/// stream replays identically — the property the bit-identity tests rely
/// on when they run the same batch against the engine and the reference
/// executor.
struct RefreshBatch {
  std::vector<std::string> statements;
  uint64_t orders = 0;     // orders inserted (RF1) / targeted (RF2)
  uint64_t lineitems = 0;  // lineitems inserted (RF1 only)
};

/// RF1 (new sales): sf*1500 new orders, each with 1–7 lineitems, emitted
/// as chunked multi-row INSERTs. Order keys are allocated above the loaded
/// key domain and disjoint across streams, so interleaved streams never
/// collide.
RefreshBatch MakeRf1(double scale_factor, uint64_t seed, uint64_t stream);

/// RF2 (old sales): range-deletes sf*1500 orders and their lineitems from
/// the loaded key domain; stream `stream` claims keys
/// [stream*batch+1, (stream+1)*batch], disjoint from every RF1 stream and
/// from other RF2 streams.
RefreshBatch MakeRf2(double scale_factor, uint64_t seed, uint64_t stream);

}  // namespace hique::tpch

#endif  // HIQUE_TPCH_TPCH_H_
