#ifndef HIQUE_PLAN_PHYSICAL_H_
#define HIQUE_PLAN_PHYSICAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "sql/bound.h"
#include "storage/compress.h"
#include "storage/schema.h"

namespace hique::plan {

/// Synthetic table index marking a field that carries an aggregate result
/// (column = index into the AggOp's agg list).
inline constexpr int kAggSource = -2;

/// A field of an intermediate record: where it came from and its type.
struct FieldRef {
  sql::ColRef source;
  Type type;
  std::string name;
};

/// Layout of the fixed-length records flowing between operators. Staging
/// drops unneeded fields (paper §IV step 1: "any unnecessary fields are
/// dropped from the input to reduce tuple size and increase cache locality").
struct RecordLayout {
  std::vector<FieldRef> fields;
  std::vector<uint32_t> offsets;
  uint32_t end = 0;          // unpadded end of the last field
  uint32_t record_size = 0;  // padded to 8 bytes

  void AddField(FieldRef f);

  /// Appends another layout as a whole-record concatenation: the other
  /// record's bytes start at this record's padded size and keep their
  /// internal offsets. Join outputs use this so generated code can emit
  /// them with per-input memcpys.
  void AppendConcat(const RecordLayout& other);

  int FindField(sql::ColRef source) const;
  uint32_t OffsetOf(int field_index) const { return offsets[field_index]; }
};

/// How a staging operator pre-processes its input (paper §V-B).
enum class StageAction {
  kNone,          // scan + filter + project only
  kSort,          // quicksort L2-sized runs + merge
  kPartition,     // coarse: hash & modulo
  kPartitionFine  // fine: dense value -> partition map
};

/// Stage one input: scan (base table or intermediate stream), apply filters,
/// keep only needed fields, then sort or partition. Output is a materialized
/// stream.
struct StageOp {
  int input_stream = -1;   // stream id (base tables occupy ids [0, #tables))
  std::vector<sql::Filter> filters;
  // Combined estimated selectivity of `filters` (1.0 when there are none).
  // Codegen skips the batched bitmap-select path for non-selective
  // predicates, where a separate predicate pass is pure overhead over the
  // fused scan loop.
  double filter_selectivity = 1.0;
  RecordLayout output;
  StageAction action = StageAction::kNone;
  std::vector<int> key_fields;   // sort keys / single partition key
  uint32_t num_partitions = 0;   // for partition actions
  int64_t fine_min = 0;          // dense domain base for kPartitionFine
  // Out-of-domain keys under fine partitioning: joins drop them (they can
  // never match), aggregation staging clamps them into the edge partitions
  // (every row must aggregate; stale statistics must not lose groups).
  bool fine_clamp = false;
  int out_stream = -1;

  /// Compression codec of the base-table input (enabled == false when the
  /// input is uncompressed or an intermediate stream). Serialized into the
  /// plan signature, so codegen can bake the decode layout as constants
  /// while generated source stays host-independent.
  TableCodec input_codec;
};

enum class JoinAlgo {
  kMerge,               // inputs staged sorted; linear merge with groups
  kHybridHashSortMerge  // inputs staged partitioned; JIT sort + merge/part.
};

/// Binary or team join. All inputs must be staged consistently (sorted for
/// merge, identically partitioned for hybrid). A team join (>2 inputs) uses
/// one deeply nested loop without intermediate materialization (paper §V-B).
struct JoinOp {
  JoinAlgo algo = JoinAlgo::kHybridHashSortMerge;
  std::vector<int> input_streams;
  std::vector<int> key_fields;  // per input: key index in its layout
  uint32_t num_partitions = 0;  // hybrid only (must match the staging)
  RecordLayout output;          // concatenation of needed input fields
  int out_stream = -1;

  /// Scalar-aggregation fusion: when the query aggregates the join result
  /// without grouping, the accumulators are updated inside the join's
  /// innermost loops and the join emits a single aggregate record instead of
  /// materializing its output (the paper never materializes benchmark
  /// output, §VI "Metrics and methodology"). `output` stays the concatenated
  /// layout (aggregate arguments resolve against it); the out stream carries
  /// `fused_output`.
  bool fuse_scalar_agg = false;
  RecordLayout fused_output;
  const sql::BoundQuery* query = nullptr;  // for aggregate specs when fused

  /// Upper bound on merge-range tasks for a kMerge join, chosen by the
  /// optimizer from catalogue cardinality statistics (≈4× the nominal
  /// executor count for skew headroom; 1 keeps tiny inputs serial). The
  /// generated code derives the actual task count from this cap and the
  /// run-time input size only — never from the thread count — so the
  /// decomposition, and with it the result, is identical at every width.
  uint32_t par_tasks = 1;
};

enum class AggAlgo {
  kSort,          // input already sorted on group keys: single scan
  kHybridHashSort,// partition on first key, sort partitions, scan
  kMap            // value directories + aggregate arrays, single scan
};

struct AggOp {
  AggAlgo algo = AggAlgo::kSort;
  int input_stream = -1;
  std::vector<int> group_fields;           // field indexes in input layout
  const sql::BoundQuery* query = nullptr;  // for agg specs (arg expressions)
  // Estimated selectivity of the base-table filters map aggregation
  // applies inline (1.0 when none); same batched-select gate as StageOp.
  double filter_selectivity = 1.0;
  uint32_t num_partitions = 0;             // hybrid
  // Map aggregation directories (paper Fig. 4). Per grouping attribute:
  // |M_i| cells; dense directories map value -> (value - dense_min) with no
  // lookup structure (chosen when catalogue statistics show a dense int
  // domain), sparse ones use a sorted value array with binary search.
  std::vector<uint64_t> directory_capacity;
  std::vector<uint8_t> directory_dense;    // 1 = dense identity directory
  std::vector<int64_t> directory_min;      // dense base value
  RecordLayout output;  // group key fields then one field per aggregate
  int out_stream = -1;

  /// Task-count cap for the kSort grouped scan (see JoinOp::par_tasks).
  /// Group boundaries are found by binary search so no group straddles two
  /// tasks. kSort always groups: a scalar aggregate plans kMap.
  uint32_t par_tasks = 1;

  /// kMap only: codec of the base table the fused scan reads (see
  /// StageOp::input_codec).
  TableCodec input_codec;
};

/// Final projection, optional order-by over the projected record, limit, and
/// emission into the result buffer.
struct OutputOp {
  int input_stream = -1;
  // For each output column: either a field index in the input layout (>= 0)
  // or -1 with `expr` set (scalar expression over input fields).
  struct Item {
    int field_index = -1;
    const sql::ScalarExpr* expr = nullptr;
    std::string name;
    Type type;
  };
  std::vector<Item> items;
  std::vector<sql::OrderSpec> order_by;  // indexes into items
  bool already_sorted = false;  // interesting order made the sort a no-op
  int64_t limit = -1;

  /// Task-count cap for the parallel row build and the splitter-partitioned
  /// k-way final merge when the query has an ORDER BY (see
  /// JoinOp::par_tasks for the determinism contract).
  uint32_t par_tasks = 1;
};

using Op = std::variant<StageOp, JoinOp, AggOp, OutputOp>;

/// One hoisted literal constant: its (coerced) type, the value bound by the
/// current query, and where generated code reads it at run time.
struct ParamEntry {
  Type type;
  Value value;
  uint32_t bank_index = 0;  // index into ints/doubles; byte offset into chars
  int placeholder = -1;     // `?` ordinal when user-supplied; -1 for literals
};

/// The ordered parameter table built by plan::ParameterizePlan. Entries are
/// assigned in canonical plan-structure order, so two structurally identical
/// plans agree on every slot id and only the bound values differ. Execution
/// materializes the table into an HqParams block (exec::BindParams).
struct ParamTable {
  std::vector<ParamEntry> entries;
  uint32_t num_ints = 0;        // int32/int64/date bank width
  uint32_t num_doubles = 0;     // double bank width
  uint32_t num_char_bytes = 0;  // concatenated CHAR payload bytes

  /// Placeholder ordinal -> index into `entries` (filled by ParameterizePlan
  /// from BoundQuery::num_placeholders). -1 marks a placeholder the walk
  /// never reached — the engine rejects such plans at Prepare time, since
  /// generated code would otherwise read no value for it.
  std::vector<int> placeholder_entries;

  bool empty() const { return entries.empty(); }
  size_t num_placeholders() const { return placeholder_entries.size(); }
};

/// Physical property: the stream is globally sorted on these fields (asc).
struct StreamInfo {
  RecordLayout layout;
  std::vector<sql::ColRef> sorted_on;
  uint64_t est_rows = 0;
  bool is_base_table = false;
  int base_table_index = -1;
};

/// The optimizer's output: the paper's topologically sorted operator list.
struct PhysicalPlan {
  std::unique_ptr<sql::BoundQuery> query;
  std::vector<StreamInfo> streams;
  std::vector<Op> ops;
  Schema output_schema;

  /// Hoisted literal constants (populated by plan::ParameterizePlan; empty
  /// until then, in which case codegen inlines every literal).
  ParamTable params;

  /// Human-readable plan rendering for EXPLAIN-style diagnostics.
  std::string ToString() const;
};

}  // namespace hique::plan

#endif  // HIQUE_PLAN_PHYSICAL_H_
