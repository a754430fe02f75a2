#include <gtest/gtest.h>

#include "plan/optimizer.h"
#include "plan/params.h"
#include "sql/binder.h"
#include "tests/test_util.h"

namespace hique::plan {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // big: 20k rows over 100 keys; mid: 5k rows; small: 500 rows.
    testing::MakeIntTable(&catalog_, "big", 20000, 100, 1);
    testing::MakeIntTable(&catalog_, "mid", 5000, 100, 2);
    testing::MakeIntTable(&catalog_, "small", 500, 100, 3);
  }

  Result<std::unique_ptr<PhysicalPlan>> Plan(
      const std::string& sql, const PlannerOptions& opts = {}) {
    auto bound = sql::ParseAndBind(sql, catalog_);
    if (!bound.ok()) return bound.status();
    return Optimize(std::move(bound).value(), opts);
  }

  template <typename T>
  static std::vector<const T*> OpsOf(const PhysicalPlan& plan) {
    std::vector<const T*> out;
    for (const auto& op : plan.ops) {
      if (const T* p = std::get_if<T>(&op)) out.push_back(p);
    }
    return out;
  }

  Catalog catalog_;
};

TEST_F(OptimizerTest, ScanSelectPlanShape) {
  auto plan = Plan("select big_k from big where big_v < 100");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto stages = OpsOf<StageOp>(*plan.value());
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0]->action, StageAction::kNone);
  EXPECT_EQ(stages[0]->filters.size(), 1u);
  // Projection keeps only the needed column.
  EXPECT_EQ(stages[0]->output.fields.size(), 1u);
}

TEST_F(OptimizerTest, DefaultJoinIsHybridWithStagedInputs) {
  auto plan = Plan(
      "select big_k, mid_v from big, mid where big_k = mid_k",
      [] {
        PlannerOptions o;
        o.fine_partition_max_domain = 0;  // force coarse for this check
        return o;
      }());
  ASSERT_TRUE(plan.ok());
  auto joins = OpsOf<JoinOp>(*plan.value());
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0]->algo, JoinAlgo::kHybridHashSortMerge);
  auto stages = OpsOf<StageOp>(*plan.value());
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0]->action, StageAction::kPartition);
  EXPECT_EQ(stages[0]->num_partitions, stages[1]->num_partitions);
  EXPECT_GT(joins[0]->num_partitions, 0u);
}

TEST_F(OptimizerTest, FinePartitioningOnDenseDomain) {
  // Key domain is 0..99 with valid stats: dense fine partitioning applies.
  auto plan =
      Plan("select big_k, mid_v from big, mid where big_k = mid_k");
  ASSERT_TRUE(plan.ok());
  auto stages = OpsOf<StageOp>(*plan.value());
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0]->action, StageAction::kPartitionFine);
  EXPECT_EQ(stages[0]->num_partitions, 100u);
}

TEST_F(OptimizerTest, ForcedMergeJoinSortsBothInputs) {
  PlannerOptions opts;
  opts.force_join_algo = JoinAlgo::kMerge;
  auto plan = Plan(
      "select big_k, mid_v from big, mid where big_k = mid_k", opts);
  ASSERT_TRUE(plan.ok());
  auto stages = OpsOf<StageOp>(*plan.value());
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0]->action, StageAction::kSort);
  EXPECT_EQ(stages[1]->action, StageAction::kSort);
  auto joins = OpsOf<JoinOp>(*plan.value());
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_EQ(joins[0]->algo, JoinAlgo::kMerge);
  // Merge output carries an interesting order.
  EXPECT_FALSE(
      plan.value()->streams[joins[0]->out_stream].sorted_on.empty());
}

TEST_F(OptimizerTest, JoinTeamDetected) {
  auto plan = Plan(
      "select big_v, mid_v, small_v from big, mid, small "
      "where big_k = mid_k and mid_k = small_k");
  ASSERT_TRUE(plan.ok());
  auto joins = OpsOf<JoinOp>(*plan.value());
  ASSERT_EQ(joins.size(), 1u);  // one team join, not two binary joins
  EXPECT_EQ(joins[0]->input_streams.size(), 3u);
}

TEST_F(OptimizerTest, JoinTeamDisabledFallsBackToBinary) {
  PlannerOptions opts;
  opts.enable_join_teams = false;
  auto plan = Plan(
      "select big_v, mid_v, small_v from big, mid, small "
      "where big_k = mid_k and mid_k = small_k",
      opts);
  ASSERT_TRUE(plan.ok());
  auto joins = OpsOf<JoinOp>(*plan.value());
  EXPECT_EQ(joins.size(), 2u);
}

TEST_F(OptimizerTest, GreedyOrderStartsWithSmallestResult) {
  PlannerOptions opts;
  opts.enable_join_teams = false;
  auto plan = Plan(
      "select big_v, mid_v, small_v from big, mid, small "
      "where big_k = mid_k and mid_k = small_k",
      opts);
  ASSERT_TRUE(plan.ok());
  // First join must involve the two smaller tables (mid, small), not big.
  auto joins = OpsOf<JoinOp>(*plan.value());
  ASSERT_EQ(joins.size(), 2u);
  const auto& streams = plan.value()->streams;
  for (int s : joins[0]->input_streams) {
    // Walk back to the staged base table.
    const StageOp* producer = nullptr;
    for (const auto& op : plan.value()->ops) {
      if (const auto* st = std::get_if<StageOp>(&op)) {
        if (st->out_stream == s) producer = st;
      }
    }
    ASSERT_NE(producer, nullptr);
    int base = streams[producer->input_stream].base_table_index;
    EXPECT_NE(plan.value()->query->tables[base]->name(), "big");
  }
}

TEST_F(OptimizerTest, MapAggregationChosenForSmallDomain) {
  auto plan = Plan("select big_k, sum(big_v) from big group by big_k");
  ASSERT_TRUE(plan.ok());
  auto aggs = OpsOf<AggOp>(*plan.value());
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0]->algo, AggAlgo::kMap);
  ASSERT_EQ(aggs[0]->directory_capacity.size(), 1u);
  // Dense int domain 0..99: identity directory.
  EXPECT_EQ(aggs[0]->directory_dense[0], 1);
  // Map aggregation over a base table needs no staging op at all.
  EXPECT_TRUE(OpsOf<StageOp>(*plan.value()).empty());
}

TEST_F(OptimizerTest, HybridAggregationWhenMapDoesNotFit) {
  PlannerOptions opts;
  opts.map_agg_max_cells = 10;  // make the 100-value domain "too large"
  auto plan =
      Plan("select big_k, sum(big_v) from big group by big_k", opts);
  ASSERT_TRUE(plan.ok());
  auto aggs = OpsOf<AggOp>(*plan.value());
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0]->algo, AggAlgo::kHybridHashSort);
  auto stages = OpsOf<StageOp>(*plan.value());
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_TRUE(stages[0]->action == StageAction::kPartition ||
              stages[0]->action == StageAction::kPartitionFine);
}

TEST_F(OptimizerTest, SortAggAfterMergeJoinUsesInterestingOrder) {
  PlannerOptions opts;
  opts.force_join_algo = JoinAlgo::kMerge;
  auto plan = Plan(
      "select big_k, count(*) from big, mid where big_k = mid_k "
      "group by big_k",
      opts);
  ASSERT_TRUE(plan.ok());
  auto aggs = OpsOf<AggOp>(*plan.value());
  ASSERT_EQ(aggs.size(), 1u);
  // Join output is sorted on the group key: sort aggregation, no re-sort.
  EXPECT_EQ(aggs[0]->algo, AggAlgo::kSort);
}

TEST_F(OptimizerTest, ScalarAggOverJoinFuses) {
  auto plan = Plan(
      "select count(*), sum(mid_v) from big, mid where big_k = mid_k");
  ASSERT_TRUE(plan.ok());
  auto joins = OpsOf<JoinOp>(*plan.value());
  ASSERT_EQ(joins.size(), 1u);
  EXPECT_TRUE(joins[0]->fuse_scalar_agg);
  EXPECT_TRUE(OpsOf<AggOp>(*plan.value()).empty());
  EXPECT_EQ(joins[0]->fused_output.fields.size(), 2u);
}

TEST_F(OptimizerTest, FinalSortSkippedWhenPreSorted) {
  // Sort aggregation emits groups in key order; ORDER BY the same key asc
  // makes the final sort a no-op (interesting orders, paper §IV).
  PlannerOptions opts;
  opts.force_agg_algo = AggAlgo::kSort;
  auto plan = Plan(
      "select big_k, count(*) from big group by big_k order by big_k",
      opts);
  ASSERT_TRUE(plan.ok());
  const OutputOp* out = nullptr;
  for (const auto& op : plan.value()->ops) {
    if (const auto* o = std::get_if<OutputOp>(&op)) out = o;
  }
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->already_sorted);
}

TEST_F(OptimizerTest, ForcedMapWithoutStatsFails) {
  Schema s;
  s.AddColumn("x", Type::Int32());
  Table* t = catalog_.CreateTable("nostats", s).value();
  ASSERT_TRUE(t->AppendRow({Value::Int32(1)}).ok());
  PlannerOptions opts;
  opts.force_agg_algo = AggAlgo::kMap;
  auto plan = Plan("select x, count(*) from nostats group by x", opts);
  EXPECT_FALSE(plan.ok());
}

TEST_F(OptimizerTest, ForcedHybridWithoutGroupByFails) {
  PlannerOptions opts;
  opts.force_agg_algo = AggAlgo::kHybridHashSort;
  auto plan = Plan("select sum(big_v) from big", opts);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kPlanError)
      << plan.status().ToString();
  // With a key to partition on, the same forcing plans.
  EXPECT_TRUE(
      Plan("select big_k, sum(big_v) from big group by big_k", opts).ok());
}

TEST_F(OptimizerTest, ForcedSortWithoutGroupByFails) {
  PlannerOptions opts;
  opts.force_agg_algo = AggAlgo::kSort;
  auto plan = Plan("select sum(big_v) from big", opts);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kPlanError)
      << plan.status().ToString();
  EXPECT_TRUE(
      Plan("select big_k, sum(big_v) from big group by big_k", opts).ok());
}

TEST_F(OptimizerTest, ForcedMapWithoutGroupByPlansRunningRegisters) {
  // A scalar aggregate has one cell and needs no statistics: forcing map
  // aggregation plans exactly the default plan.
  PlannerOptions opts;
  opts.force_agg_algo = AggAlgo::kMap;
  auto forced = Plan("select count(*), sum(big_v) from big", opts);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  auto plain = Plan("select count(*), sum(big_v) from big");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plan::PlanSignature(*forced.value()),
            plan::PlanSignature(*plain.value()));
}

TEST_F(OptimizerTest, RejectsCartesianProduct) {
  EXPECT_FALSE(Plan("select big_k from big, mid").ok());
}

}  // namespace
}  // namespace hique::plan
