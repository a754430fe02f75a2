#include "plan/optimizer.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/cache_info.h"
#include "util/macros.h"

namespace hique::plan {
namespace {

using sql::ColRef;
using sql::CmpOp;
using sql::Filter;

uint32_t NextPow2(uint64_t v) {
  uint32_t p = 1;
  while (p < v && p < (1u << 20)) p <<= 1;
  return p;
}

bool IsIntFamily(TypeId id) {
  return id == TypeId::kInt32 || id == TypeId::kInt64 || id == TypeId::kDate;
}

/// Union-find over join columns: equivalence classes of transitively joined
/// attributes drive both join teams and interesting-order reasoning
/// (paper §IV cites hash teams [12] and interesting orders [5]).
class JoinClasses {
 public:
  explicit JoinClasses(const sql::BoundQuery& q) {
    for (const auto& j : q.joins) {
      Union(Id(j.left), Id(j.right));
    }
  }

  bool SameClass(ColRef a, ColRef b) {
    auto ia = ids_.find(Key(a));
    auto ib = ids_.find(Key(b));
    if (ia == ids_.end() || ib == ids_.end()) return false;
    return Find(ia->second) == Find(ib->second);
  }

  /// Returns the single class id if every join predicate falls in one
  /// equivalence class, else -1.
  int SingleClassRoot() {
    int root = -1;
    for (size_t i = 0; i < parent_.size(); ++i) {
      int r = Find(static_cast<int>(i));
      if (root == -1) {
        root = r;
      } else if (r != root) {
        return -1;
      }
    }
    return root;
  }

 private:
  static int64_t Key(ColRef c) {
    return (static_cast<int64_t>(c.table) << 32) | static_cast<uint32_t>(c.column);
  }
  int Id(ColRef c) {
    auto [it, inserted] = ids_.try_emplace(Key(c), static_cast<int>(parent_.size()));
    if (inserted) parent_.push_back(it->second);
    return it->second;
  }
  int Find(int x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

  std::map<int64_t, int> ids_;
  std::vector<int> parent_;
};

class Planner {
 public:
  Planner(std::unique_ptr<sql::BoundQuery> query, const PlannerOptions& opts)
      : opts_(opts) {
    plan_ = std::make_unique<PhysicalPlan>();
    plan_->query = std::move(query);
    q_ = plan_->query.get();
  }

  Result<std::unique_ptr<PhysicalPlan>> Run() {
    InitDerivedOptions();
    ComputeNeededColumns();
    HQ_RETURN_IF_ERROR(InitBaseStreams());
    int final_stream = -1;
    if (q_->tables.size() > 1) {
      HQ_ASSIGN_OR_RETURN(final_stream, PlanJoins());
    } else {
      final_stream = 0;
    }
    bool fused = false;
    if (q_->tables.size() > 1 && q_->HasAggregation() &&
        q_->group_by.empty() && !q_->aggs.empty()) {
      // Scalar aggregation over a join: fuse the accumulators into the last
      // join's inner loops so the join result is never materialized.
      fused = FuseScalarAggIntoLastJoin(final_stream);
    }
    if (q_->HasAggregation() && !fused) {
      HQ_ASSIGN_OR_RETURN(final_stream, PlanAggregation(final_stream));
    } else if (!q_->HasAggregation() &&
               plan_->streams[final_stream].is_base_table) {
      // Pure scan-select query: stage to apply filters and projection.
      final_stream = AddScanStage(final_stream);
    }
    HQ_RETURN_IF_ERROR(PlanOutput(final_stream));
    plan_->output_schema = q_->OutputSchema();
    return std::move(plan_);
  }

 private:
  void InitDerivedOptions() {
    const CacheInfo& cache = HostCacheInfo();
    partition_target_ = opts_.partition_target_bytes != 0
                            ? opts_.partition_target_bytes
                            : cache.l2_bytes / 2;
    map_agg_max_cells_ = opts_.map_agg_max_cells != 0
                             ? opts_.map_agg_max_cells
                             : cache.l2_bytes / 16;
  }

  // ---- needed columns ------------------------------------------------

  void ComputeNeededColumns() {
    auto add = [&](ColRef c) { needed_[c.table].insert(c.column); };
    std::vector<ColRef> refs;
    for (const auto& j : q_->joins) {
      add(j.left);
      add(j.right);
    }
    for (const auto& g : q_->group_by) add(g);
    for (const auto& a : q_->aggs) {
      if (a.arg) a.arg->CollectColumns(&refs);
    }
    for (const auto& o : q_->outputs) {
      if (o.scalar) o.scalar->CollectColumns(&refs);
    }
    for (ColRef c : refs) add(c);
    // A column used only in a filter is consumed during staging and not
    // carried further, unless it also appears above.
  }

  Status InitBaseStreams() {
    for (size_t t = 0; t < q_->tables.size(); ++t) {
      Table* table = q_->tables[t];
      StreamInfo info;
      info.is_base_table = true;
      info.base_table_index = static_cast<int>(t);
      // Base layouts mirror the table schema byte-for-byte.
      const Schema& schema = table->schema();
      for (size_t c = 0; c < schema.NumColumns(); ++c) {
        info.layout.fields.push_back(
            {ColRef{static_cast<int>(t), static_cast<int>(c)},
             schema.ColumnAt(c).type, schema.ColumnAt(c).name});
        info.layout.offsets.push_back(schema.OffsetAt(c));
      }
      info.layout.record_size = schema.TupleSize();
      info.est_rows = EstimateFilteredRows(static_cast<int>(t));
      plan_->streams.push_back(std::move(info));
    }
    return Status::OK();
  }

  // ---- statistics ----------------------------------------------------

  double FilterSelectivity(const Filter& f) const {
    const Table* table = q_->tables[f.column.table];
    const TableStats stats = table->stats();  // one snapshot; see Table::stats()
    if (!stats.valid || f.rhs_is_column) return 0.3;
    const ColumnStats& cs = stats.columns[f.column.column];
    if (!cs.valid || stats.rows == 0) return 0.3;
    switch (f.op) {
      case CmpOp::kEq:
        return cs.distinct > 0 ? 1.0 / static_cast<double>(cs.distinct) : 1.0;
      case CmpOp::kNe:
        return cs.distinct > 0
                   ? 1.0 - 1.0 / static_cast<double>(cs.distinct)
                   : 1.0;
      default:
        break;
    }
    // Range predicate: assume uniform over [min, max]. A `?` placeholder
    // carries a zero stand-in value at plan time — estimating from it would
    // shape the plan (directory capacities, partition counts) for `col < 0`;
    // the plan must serve every future binding, so use the neutral default.
    // (Equality above is fine: 1/distinct is value-independent.)
    if (f.placeholder >= 0) return 0.3;
    double lo = cs.min.AsDouble(), hi = cs.max.AsDouble();
    if (cs.min.type_id() == TypeId::kChar || hi <= lo) return 0.3;
    double v = f.literal.AsDouble();
    double frac = (v - lo) / (hi - lo);
    frac = std::clamp(frac, 0.0, 1.0);
    if (f.op == CmpOp::kLt || f.op == CmpOp::kLe) return frac;
    return 1.0 - frac;
  }

  uint64_t EstimateFilteredRows(int table_idx) const {
    const Table* table = q_->tables[table_idx];
    const TableStats stats = table->stats();
    double rows =
        static_cast<double>(stats.valid ? stats.rows : table->NumTuples());
    for (const auto& f : q_->filters) {
      if (f.column.table == table_idx) rows *= FilterSelectivity(f);
    }
    return static_cast<uint64_t>(std::max(1.0, rows));
  }

  uint64_t ColumnDistinct(ColRef c, uint64_t cap) const {
    const Table* table = q_->tables[c.table];
    uint64_t d = 1;
    const TableStats stats = table->stats();
    if (stats.valid && stats.columns[c.column].valid) {
      d = std::max<uint64_t>(1, stats.columns[c.column].distinct);
    } else {
      d = std::max<uint64_t>(1, table->NumTuples());
    }
    return std::min(d, std::max<uint64_t>(1, cap));
  }

  uint32_t ChoosePartitions(uint64_t est_bytes) const {
    if (opts_.force_partitions != 0) return opts_.force_partitions;
    uint64_t parts = est_bytes / std::max<uint64_t>(1, partition_target_) + 1;
    return std::max<uint32_t>(2, NextPow2(parts));
  }

  /// Task-count cap for splitter-partitioned parallel stages, from catalogue
  /// cardinality only (never the thread count, which would leak into the
  /// generated source). Target ≈4× a nominal 8-executor pool so skewed task
  /// durations still fill every worker; clamp so tiny inputs stay serial —
  /// below ~2 grains the splitter bookkeeping costs more than it buys.
  static uint32_t ChooseParTasks(uint64_t est_rows) {
    constexpr uint64_t kMinRowsPerTask = 8192;
    constexpr uint32_t kTargetTasks = 32;
    if (est_rows < 2 * kMinRowsPerTask) return 1;
    uint64_t tasks = est_rows / kMinRowsPerTask;
    return tasks >= kTargetTasks ? kTargetTasks
                                 : static_cast<uint32_t>(tasks);
  }

  // ---- staging helpers -------------------------------------------------

  RecordLayout ProjectLayout(const StreamInfo& in, int table_for_base) const {
    RecordLayout out;
    if (table_for_base >= 0) {
      const Schema& schema = q_->tables[table_for_base]->schema();
      for (int c : needed_.count(table_for_base)
                       ? std::vector<int>(needed_.at(table_for_base).begin(),
                                          needed_.at(table_for_base).end())
                       : std::vector<int>{}) {
        out.AddField({ColRef{table_for_base, c}, schema.ColumnAt(c).type,
                      schema.ColumnAt(c).name});
      }
      return out;
    }
    // Intermediate streams keep their layout byte-for-byte: staging them
    // only reorders records (sort / partition), never reshapes them.
    return in.layout;
  }

  int NewStream(RecordLayout layout, uint64_t est_rows,
                std::vector<ColRef> sorted_on) {
    StreamInfo info;
    info.layout = std::move(layout);
    info.est_rows = est_rows;
    info.sorted_on = std::move(sorted_on);
    plan_->streams.push_back(std::move(info));
    return static_cast<int>(plan_->streams.size() - 1);
  }

  std::vector<Filter> TakeFilters(int table_idx) {
    std::vector<Filter> result;
    for (const auto& f : q_->filters) {
      if (f.column.table == table_idx) result.push_back(CloneFilter(f));
    }
    return result;
  }
  static Filter CloneFilter(const Filter& f) {
    Filter c;
    c.column = f.column;
    c.op = f.op;
    c.rhs_is_column = f.rhs_is_column;
    c.rhs_column = f.rhs_column;
    c.literal = f.literal;
    c.param = f.param;
    c.placeholder = f.placeholder;
    return c;
  }

  /// Stages `stream` for use as a join/agg input: scan+filter+project and
  /// sort or partition on `key`. Returns the staged stream id.
  int AddStage(int stream, StageAction action, std::vector<ColRef> keys,
               uint32_t num_partitions, int64_t fine_min,
               bool fine_clamp = false) {
    const StreamInfo& in = plan_->streams[stream];
    StageOp op;
    op.input_stream = stream;
    if (in.is_base_table) {
      op.filters = TakeFilters(in.base_table_index);
      for (const auto& f : op.filters) {
        op.filter_selectivity *= FilterSelectivity(f);
      }
      op.output = ProjectLayout(in, in.base_table_index);
      // Bake the table's compression codec into the plan: codegen emits
      // fused decode kernels from it and the signature carries it.
      op.input_codec = q_->tables[in.base_table_index]->codec();
    } else {
      op.output = ProjectLayout(in, -1);
    }
    op.action = action;
    for (ColRef k : keys) {
      int idx = op.output.FindField(k);
      HQ_CHECK_MSG(idx >= 0, "stage key not in projected layout");
      op.key_fields.push_back(idx);
    }
    op.num_partitions = num_partitions;
    op.fine_min = fine_min;
    op.fine_clamp = fine_clamp;
    std::vector<ColRef> sorted_on;
    if (action == StageAction::kSort) sorted_on = keys;
    op.out_stream = NewStream(op.output, in.est_rows, std::move(sorted_on));
    int out = op.out_stream;
    plan_->ops.push_back(std::move(op));
    return out;
  }

  int AddScanStage(int stream) {
    return AddStage(stream, StageAction::kNone, {}, 0, 0);
  }

  // ---- joins -----------------------------------------------------------

  struct PendingPred {
    ColRef left, right;
    bool used = false;
  };

  Result<int> PlanJoins() {
    if (q_->joins.empty()) {
      return Status::NotImplemented(
          "cross products without join predicates are not supported");
    }
    JoinClasses classes(*q_);

    // Join team: every predicate in one equivalence class and >= 3 tables.
    if (opts_.enable_join_teams && q_->tables.size() >= 3 &&
        classes.SingleClassRoot() != -1) {
      std::set<int> tables;
      for (const auto& j : q_->joins) {
        tables.insert(j.left.table);
        tables.insert(j.right.table);
      }
      if (tables.size() == q_->tables.size()) {
        return PlanTeamJoin(classes);
      }
    }
    return PlanBinaryJoins(classes);
  }

  /// Key column of table `t` within the single join class.
  static std::map<int, ColRef> TeamKeys(const sql::BoundQuery& q) {
    std::map<int, ColRef> keys;
    for (const auto& j : q.joins) {
      keys.emplace(j.left.table, j.left);
      keys.emplace(j.right.table, j.right);
    }
    return keys;
  }

  Result<int> PlanTeamJoin(JoinClasses& classes) {
    std::map<int, ColRef> keys = TeamKeys(*q_);
    JoinAlgo algo = opts_.force_join_algo.value_or(JoinAlgo::kMerge);

    JoinOp op;
    op.algo = algo;
    uint64_t est_bytes_max = 0;
    std::vector<std::pair<int, ColRef>> ordered(keys.begin(), keys.end());
    // Largest table first: its pages drive the outer loop.
    std::sort(ordered.begin(), ordered.end(),
              [&](const auto& a, const auto& b) {
                return plan_->streams[a.first].est_rows >
                       plan_->streams[b.first].est_rows;
              });
    for (const auto& [t, key] : ordered) {
      const StreamInfo& s = plan_->streams[t];
      est_bytes_max =
          std::max(est_bytes_max, s.est_rows * s.layout.record_size);
    }
    uint32_t parts = algo == JoinAlgo::kHybridHashSortMerge
                         ? ChoosePartitions(est_bytes_max)
                         : 0;
    for (const auto& [t, key] : ordered) {
      int staged;
      if (algo == JoinAlgo::kMerge) {
        staged = AddStage(t, StageAction::kSort, {key}, 0, 0);
      } else {
        staged = AddStage(t, StageAction::kPartition, {key}, parts, 0);
      }
      op.input_streams.push_back(staged);
      int key_idx = plan_->streams[staged].layout.FindField(key);
      op.key_fields.push_back(key_idx);
    }
    op.num_partitions = parts;

    // Output: whole-record concatenation of all staged inputs.
    uint64_t est_rows = 1;
    for (int s : op.input_streams) {
      op.output.AppendConcat(plan_->streams[s].layout);
    }
    // |T1 .. Tk| estimate: product / max-distinct^(k-1).
    uint64_t max_d = 1;
    double est = 1;
    for (size_t i = 0; i < op.input_streams.size(); ++i) {
      const StreamInfo& s = plan_->streams[op.input_streams[i]];
      est *= static_cast<double>(s.est_rows);
      max_d = std::max(max_d,
                       ColumnDistinct(ordered[i].second, s.est_rows));
    }
    for (size_t i = 1; i < op.input_streams.size(); ++i) {
      est /= static_cast<double>(max_d);
    }
    est_rows = static_cast<uint64_t>(std::max(1.0, est));
    // Ranges split the outer (largest) input; its cardinality sets the cap.
    op.par_tasks = ChooseParTasks(plan_->streams[ordered[0].first].est_rows);
    std::vector<ColRef> sorted_on;
    if (algo == JoinAlgo::kMerge) sorted_on.push_back(ordered[0].second);
    op.out_stream = NewStream(op.output, est_rows, std::move(sorted_on));
    int out = op.out_stream;
    plan_->ops.push_back(std::move(op));
    return out;
  }

  Result<int> PlanBinaryJoins(JoinClasses& classes) {
    std::vector<PendingPred> preds;
    for (const auto& j : q_->joins) preds.push_back({j.left, j.right});

    // Reject composite-key joins between the same table pair (unsupported).
    for (size_t i = 0; i < preds.size(); ++i) {
      for (size_t j = i + 1; j < preds.size(); ++j) {
        auto pair_of = [](const PendingPred& p) {
          return std::minmax(p.left.table, p.right.table);
        };
        if (pair_of(preds[i]) == pair_of(preds[j]) &&
            !(preds[i].left == preds[j].left &&
              preds[i].right == preds[j].right)) {
          return Status::NotImplemented(
              "composite-key joins between one table pair");
        }
      }
    }

    // Greedy: start from the predicate with the smallest estimated result,
    // then repeatedly absorb the connected table minimising the new result.
    std::set<int> joined_tables;
    int current = -1;
    uint64_t current_rows = 0;
    // Map: which original table indexes are inside `current`.

    auto join_est = [&](uint64_t lr, uint64_t rr, ColRef lk, ColRef rk) {
      uint64_t d = std::max(ColumnDistinct(lk, lr), ColumnDistinct(rk, rr));
      double est = static_cast<double>(lr) * static_cast<double>(rr) /
                   static_cast<double>(std::max<uint64_t>(1, d));
      return static_cast<uint64_t>(std::max(1.0, est));
    };

    // Pick the cheapest starting pair.
    size_t best = 0;
    uint64_t best_est = UINT64_MAX;
    for (size_t i = 0; i < preds.size(); ++i) {
      uint64_t est = join_est(plan_->streams[preds[i].left.table].est_rows,
                              plan_->streams[preds[i].right.table].est_rows,
                              preds[i].left, preds[i].right);
      if (est < best_est) {
        best_est = est;
        best = i;
      }
    }
    {
      PendingPred& p = preds[best];
      p.used = true;
      HQ_ASSIGN_OR_RETURN(
          current,
          EmitBinaryJoin(p.left.table, p.right.table, p.left, p.right,
                         plan_->streams[p.left.table].est_rows,
                         plan_->streams[p.right.table].est_rows, best_est,
                         classes));
      current_rows = best_est;
      joined_tables.insert(p.left.table);
      joined_tables.insert(p.right.table);
    }

    while (joined_tables.size() < q_->tables.size()) {
      int pick = -1;
      uint64_t pick_est = UINT64_MAX;
      for (size_t i = 0; i < preds.size(); ++i) {
        if (preds[i].used) continue;
        const PendingPred& p = preds[i];
        bool l_in = joined_tables.count(p.left.table);
        bool r_in = joined_tables.count(p.right.table);
        if (l_in == r_in) continue;  // both inside (redundant) or both out
        int new_table = l_in ? p.right.table : p.left.table;
        uint64_t est =
            join_est(current_rows, plan_->streams[new_table].est_rows,
                     l_in ? p.left : p.right, l_in ? p.right : p.left);
        if (est < pick_est) {
          pick_est = est;
          pick = static_cast<int>(i);
        }
      }
      if (pick < 0) {
        return Status::NotImplemented(
            "disconnected join graph (cross product required)");
      }
      PendingPred& p = preds[pick];
      p.used = true;
      bool l_in = joined_tables.count(p.left.table);
      ColRef stream_key = l_in ? p.left : p.right;
      ColRef table_key = l_in ? p.right : p.left;
      int new_table = table_key.table;
      HQ_ASSIGN_OR_RETURN(
          current,
          EmitBinaryJoin(current, new_table, stream_key, table_key,
                         current_rows, plan_->streams[new_table].est_rows,
                         pick_est, classes));
      current_rows = pick_est;
      joined_tables.insert(new_table);
      // Mark now-redundant predicates (both sides joined) as used; they are
      // implied by the equivalence class.
      for (auto& other : preds) {
        if (!other.used && joined_tables.count(other.left.table) &&
            joined_tables.count(other.right.table)) {
          if (classes.SameClass(other.left, other.right)) {
            other.used = true;
          } else {
            return Status::NotImplemented(
                "cyclic join graph with independent predicates");
          }
        }
      }
    }
    return current;
  }

  /// Emits staging for both inputs plus the join op. `left`/`right` are
  /// stream ids; keys are in ColRef coordinates.
  Result<int> EmitBinaryJoin(int left, int right, ColRef lkey, ColRef rkey,
                             uint64_t lrows, uint64_t rrows,
                             uint64_t est_rows, JoinClasses& classes) {
    JoinAlgo algo;
    if (opts_.force_join_algo.has_value()) {
      algo = *opts_.force_join_algo;
    } else {
      bool l_sorted = StreamSortedOnKey(left, lkey, classes);
      bool r_sorted = StreamSortedOnKey(right, rkey, classes);
      algo = (l_sorted && r_sorted) ? JoinAlgo::kMerge
                                    : JoinAlgo::kHybridHashSortMerge;
      // A pre-sorted input makes merge cheaper than repartitioning both.
      if (l_sorted || r_sorted) algo = JoinAlgo::kMerge;
    }

    JoinOp op;
    op.algo = algo;
    uint64_t lbytes = lrows * plan_->streams[left].layout.record_size;
    uint64_t rbytes = rrows * plan_->streams[right].layout.record_size;
    uint32_t parts = 0;
    int64_t fine_min = 0;
    StageAction part_action = StageAction::kPartition;
    if (algo == JoinAlgo::kHybridHashSortMerge) {
      parts = ChoosePartitions(std::max(lbytes, rbytes));
      // Fine partitioning: dense int domain intersection small enough.
      auto fine = FinePartitionDomain(lkey, rkey);
      if (fine.has_value()) {
        part_action = StageAction::kPartitionFine;
        fine_min = fine->first;
        parts = static_cast<uint32_t>(fine->second);
      }
    }

    auto stage_input = [&](int stream, ColRef key) -> int {
      switch (algo) {
        case JoinAlgo::kMerge:
          if (StreamSortedOnKey(stream, key, classes) &&
              !plan_->streams[stream].is_base_table) {
            return stream;  // interesting order: reuse as-is
          }
          return AddStage(stream, StageAction::kSort, {key}, 0, 0);
        case JoinAlgo::kHybridHashSortMerge:
          return AddStage(stream, part_action, {key}, parts, fine_min);
      }
      return -1;
    };

    int lstaged = stage_input(left, lkey);
    int rstaged = stage_input(right, rkey);
    op.input_streams = {lstaged, rstaged};
    op.key_fields = {plan_->streams[lstaged].layout.FindField(lkey),
                     plan_->streams[rstaged].layout.FindField(rkey)};
    HQ_CHECK_MSG(op.key_fields[0] >= 0 && op.key_fields[1] >= 0,
                 "join key missing from staged layout");
    op.num_partitions = parts;
    for (int s : op.input_streams) {
      op.output.AppendConcat(plan_->streams[s].layout);
    }
    // Merge ranges split input 0; its estimated cardinality sets the cap.
    op.par_tasks = ChooseParTasks(lrows);
    std::vector<ColRef> sorted_on;
    if (algo == JoinAlgo::kMerge) sorted_on.push_back(lkey);
    op.out_stream = NewStream(op.output, est_rows, std::move(sorted_on));
    int out = op.out_stream;
    plan_->ops.push_back(std::move(op));
    return out;
  }

  bool StreamSortedOnKey(int stream, ColRef key, JoinClasses& classes) {
    const StreamInfo& s = plan_->streams[stream];
    if (s.sorted_on.empty()) return false;
    ColRef head = s.sorted_on[0];
    return head == key || classes.SameClass(head, key);
  }

  /// Dense-domain fine partitioning: both keys int-family with valid stats
  /// and a small intersection range. Returns (min, width).
  std::optional<std::pair<int64_t, int64_t>> FinePartitionDomain(
      ColRef lkey, ColRef rkey) const {
    auto range = [&](ColRef c) -> std::optional<std::pair<int64_t, int64_t>> {
      const Table* t = q_->tables[c.table];
      const TableStats stats = t->stats();
      if (!stats.valid) return std::nullopt;
      const ColumnStats& cs = stats.columns[c.column];
      if (!cs.valid || !IsIntFamily(cs.min.type_id())) return std::nullopt;
      return std::make_pair(cs.min.AsInt64(), cs.max.AsInt64());
    };
    auto lr = range(lkey);
    auto rr = range(rkey);
    if (!lr || !rr) return std::nullopt;
    int64_t lo = std::max(lr->first, rr->first);
    int64_t hi = std::min(lr->second, rr->second);
    if (hi < lo) return std::nullopt;
    int64_t width = hi - lo + 1;
    if (width > opts_.fine_partition_max_domain) return std::nullopt;
    return std::make_pair(lo, width);
  }

  // ---- aggregation -----------------------------------------------------

  Result<int> PlanAggregation(int stream) {
    const StreamInfo* in = &plan_->streams[stream];
    AggAlgo algo;
    bool sorted_on_keys = InputSortedOnGroupKeys(stream);
    std::vector<uint64_t> capacities;
    std::vector<uint8_t> dense;
    std::vector<int64_t> dense_min;
    bool map_ok = MapAggApplicable(&capacities, &dense, &dense_min);

    if (opts_.force_agg_algo.has_value()) {
      algo = *opts_.force_agg_algo;
      if (algo == AggAlgo::kMap && !map_ok) {
        return Status::PlanError(
            "map aggregation forced but directories do not fit / stats "
            "missing");
      }
      if (algo != AggAlgo::kMap && q_->group_by.empty()) {
        return Status::PlanError(
            "sort or hybrid aggregation forced without GROUP BY: no key to "
            "sort or partition on");
      }
    } else if (sorted_on_keys) {
      algo = AggAlgo::kSort;
    } else if (map_ok) {
      algo = AggAlgo::kMap;
    } else {
      algo = AggAlgo::kHybridHashSort;
    }

    AggOp op;
    op.algo = algo;
    op.query = q_;

    uint64_t groups_est = 1;
    for (ColRef g : q_->group_by) {
      groups_est = std::min<uint64_t>(
          groups_est * ColumnDistinct(g, in->est_rows), in->est_rows);
    }

    switch (algo) {
      case AggAlgo::kSort: {
        if (!sorted_on_keys) {
          stream = AddStage(stream, StageAction::kSort, q_->group_by, 0, 0);
        } else if (plan_->streams[stream].is_base_table) {
          stream = AddScanStage(stream);
        }
        break;
      }
      case AggAlgo::kHybridHashSort: {
        const StreamInfo& s = plan_->streams[stream];
        uint64_t bytes = s.est_rows * s.layout.record_size;
        uint32_t parts = ChoosePartitions(bytes);
        ColRef first = q_->group_by[0];
        StageAction action = StageAction::kPartition;
        int64_t fine_min = 0;
        auto fine = FineAggDomain(first);
        if (fine.has_value()) {
          action = StageAction::kPartitionFine;
          fine_min = fine->first;
          parts = static_cast<uint32_t>(fine->second);
        }
        stream = AddStage(stream, action, {first}, parts, fine_min,
                          /*fine_clamp=*/true);
        op.num_partitions = parts;
        break;
      }
      case AggAlgo::kMap: {
        // Single pass, no staging. Filters are applied inline when the
        // input is an unstaged base table.
        op.directory_capacity = capacities;
        op.directory_dense = dense;
        op.directory_min = dense_min;
        break;
      }
    }

    in = &plan_->streams[stream];
    op.input_stream = stream;
    if (in->is_base_table) {
      for (const auto& f : q_->filters) {
        if (f.column.table == in->base_table_index) {
          op.filter_selectivity *= FilterSelectivity(f);
        }
      }
      op.input_codec = q_->tables[in->base_table_index]->codec();
    }
    // Group fields & output layout.
    for (ColRef g : q_->group_by) {
      int idx = in->layout.FindField(g);
      HQ_CHECK_MSG(idx >= 0, "group key missing from agg input layout");
      op.group_fields.push_back(idx);
      op.output.AddField(in->layout.fields[idx]);
    }
    for (size_t a = 0; a < q_->aggs.size(); ++a) {
      op.output.AddField({ColRef{kAggSource, static_cast<int>(a)},
                          q_->aggs[a].out_type,
                          "agg" + std::to_string(a)});
    }
    if (algo == AggAlgo::kSort) op.par_tasks = ChooseParTasks(in->est_rows);
    std::vector<ColRef> sorted_out;
    if (algo == AggAlgo::kSort) sorted_out = q_->group_by;
    op.out_stream = NewStream(op.output, groups_est, std::move(sorted_out));
    int out = op.out_stream;
    plan_->ops.push_back(std::move(op));
    return out;
  }

  /// Marks the join producing `final_stream` for scalar-aggregation fusion.
  /// Returns false when the stream was not produced by a join.
  bool FuseScalarAggIntoLastJoin(int final_stream) {
    for (auto it = plan_->ops.rbegin(); it != plan_->ops.rend(); ++it) {
      auto* join = std::get_if<JoinOp>(&*it);
      if (join == nullptr || join->out_stream != final_stream) continue;
      join->fuse_scalar_agg = true;
      join->query = q_;
      RecordLayout fused;
      for (size_t a = 0; a < q_->aggs.size(); ++a) {
        fused.AddField({ColRef{kAggSource, static_cast<int>(a)},
                        q_->aggs[a].out_type, "agg" + std::to_string(a)});
      }
      join->fused_output = fused;
      StreamInfo& info = plan_->streams[final_stream];
      info.layout = std::move(fused);
      info.est_rows = 1;
      info.sorted_on.clear();
      return true;
    }
    return false;
  }

  bool InputSortedOnGroupKeys(int stream) const {
    const StreamInfo& s = plan_->streams[stream];
    if (q_->group_by.empty() || s.sorted_on.empty()) return false;
    // Sufficient condition: sorted on a prefix == the first group key and
    // grouping on exactly one key (multi-key grouping would need the full
    // composite order).
    if (q_->group_by.size() <= s.sorted_on.size()) {
      for (size_t i = 0; i < q_->group_by.size(); ++i) {
        if (!(s.sorted_on[i] == q_->group_by[i])) return false;
      }
      return true;
    }
    return false;
  }

  std::optional<std::pair<int64_t, int64_t>> FineAggDomain(ColRef key) const {
    const Table* t = q_->tables[key.table];
    const TableStats stats = t->stats();
    if (!stats.valid) return std::nullopt;
    const ColumnStats& cs = stats.columns[key.column];
    if (!cs.valid || !IsIntFamily(cs.min.type_id())) return std::nullopt;
    int64_t width = cs.max.AsInt64() - cs.min.AsInt64() + 1;
    if (width <= 0 || width > opts_.fine_partition_max_domain) {
      return std::nullopt;
    }
    return std::make_pair(cs.min.AsInt64(), width);
  }

  /// Map aggregation applies when every group key is a fixed scalar (or a
  /// CHAR short enough to embed in 8 bytes) with exact distinct statistics
  /// and the product of directory capacities fits the cache-derived budget
  /// (paper §V-B / Fig. 4). Dense int domains get identity directories
  /// (value - min); sparse domains use sorted-array directories, which are
  /// only worthwhile while small (insertion shifts the array).
  bool MapAggApplicable(std::vector<uint64_t>* capacities,
                        std::vector<uint8_t>* dense,
                        std::vector<int64_t>* dense_min) const {
    constexpr uint64_t kSortedDirMax = 4096;
    // No GROUP BY: one cell, the running registers of a scalar aggregate.
    if (q_->group_by.empty()) return true;
    uint64_t cells = 1;
    for (ColRef g : q_->group_by) {
      const Table* t = q_->tables[g.table];
      const Column& col = t->schema().ColumnAt(g.column);
      if (col.type.id == TypeId::kChar && col.type.length > 8) return false;
      const TableStats stats = t->stats();
      if (!stats.valid) return false;
      const ColumnStats& cs = stats.columns[g.column];
      if (!cs.valid || !cs.distinct_exact) return false;
      uint64_t cap = std::max<uint64_t>(1, cs.distinct);
      bool is_dense = false;
      int64_t min_v = 0;
      if (IsIntFamily(col.type.id)) {
        int64_t width = cs.max.AsInt64() - cs.min.AsInt64() + 1;
        if (width > 0 && static_cast<uint64_t>(width) <= 2 * cap) {
          is_dense = true;
          min_v = cs.min.AsInt64();
          cap = static_cast<uint64_t>(width);
        }
      }
      if (!is_dense && cap > kSortedDirMax) return false;
      capacities->push_back(cap);
      dense->push_back(is_dense ? 1 : 0);
      dense_min->push_back(min_v);
      if (cells > map_agg_max_cells_ / cap) return false;  // overflow guard
      cells *= cap;
    }
    return cells <= map_agg_max_cells_;
  }

  // ---- output ------------------------------------------------------------

  Status PlanOutput(int stream) {
    const StreamInfo& in = plan_->streams[stream];
    OutputOp op;
    op.input_stream = stream;
    for (const auto& out : q_->outputs) {
      OutputOp::Item item;
      item.name = out.name;
      item.type = out.type;
      switch (out.kind) {
        case sql::OutputCol::Kind::kGroupKey:
          item.field_index = out.index;
          break;
        case sql::OutputCol::Kind::kAggregate:
          item.field_index =
              static_cast<int>(q_->group_by.size()) + out.index;
          break;
        case sql::OutputCol::Kind::kScalar:
          if (out.scalar->kind == sql::ScalarKind::kColumn) {
            item.field_index = in.layout.FindField(out.scalar->column);
            if (item.field_index < 0) {
              return Status::PlanError("output column missing from stream");
            }
          } else {
            item.expr = out.scalar.get();
          }
          break;
      }
      op.items.push_back(std::move(item));
    }
    op.order_by = q_->order_by;
    op.limit = q_->limit;
    op.par_tasks = ChooseParTasks(in.est_rows);

    // Interesting order: the final sort is a no-op when the input stream is
    // already sorted on the order-by columns (ascending).
    if (!op.order_by.empty() && !in.sorted_on.empty()) {
      bool covered = op.order_by.size() <= in.sorted_on.size();
      for (size_t i = 0; covered && i < op.order_by.size(); ++i) {
        const auto& spec = op.order_by[i];
        if (spec.desc) {
          covered = false;
          break;
        }
        const auto& item = op.items[spec.output_index];
        if (item.field_index < 0 ||
            !(in.layout.fields[item.field_index].source == in.sorted_on[i])) {
          covered = false;
        }
      }
      op.already_sorted = covered;
    }
    plan_->ops.push_back(std::move(op));
    return Status::OK();
  }

  PlannerOptions opts_;
  std::unique_ptr<PhysicalPlan> plan_;
  sql::BoundQuery* q_ = nullptr;
  std::map<int, std::set<int>> needed_;
  uint64_t partition_target_ = 0;
  uint64_t map_agg_max_cells_ = 0;
};

}  // namespace

Result<std::unique_ptr<PhysicalPlan>> Optimize(
    std::unique_ptr<sql::BoundQuery> query, const PlannerOptions& options) {
  Planner planner(std::move(query), options);
  return planner.Run();
}

}  // namespace hique::plan
