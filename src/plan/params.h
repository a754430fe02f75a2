#ifndef HIQUE_PLAN_PARAMS_H_
#define HIQUE_PLAN_PARAMS_H_

#include <string>

#include "plan/physical.h"

namespace hique::plan {

/// Hoists literal constants out of the plan: walks the operator list in
/// canonical order, assigns every eligible literal a slot in the plan's
/// ParamTable (mutating Filter::param / ScalarExpr::param), and records the
/// current query's values as the slot bindings. Generated code then loads
/// these constants from the runtime parameter block instead of inlining
/// them, so one compiled library serves every literal binding.
///
/// Also fills ParamTable::placeholder_entries (ordinal -> slot) from
/// BoundQuery::num_placeholders so the engine can bind user values per
/// execution.
///
/// Structural constants — record sizes, field offsets, partition counts,
/// directory capacities, LIMIT — stay inlined so the compiler can still
/// specialize layouts. Idempotent: slots already assigned are kept.
void ParameterizePlan(PhysicalPlan* plan);

/// Canonical structural signature of a plan: a string that is identical for
/// two plans that differ only in hoisted literal values, and different
/// whenever the generated source could differ in anything other than those
/// literals (tables, layouts, operators, algorithms, partition counts,
/// directory geometry, projections, ordering, limit). Pure capacity hints
/// (StreamInfo::est_rows) are deliberately excluded: they only seed initial
/// buffer sizes. The engine keys its compiled-query cache on this signature.
std::string PlanSignature(const PhysicalPlan& plan);

}  // namespace hique::plan

#endif  // HIQUE_PLAN_PARAMS_H_
