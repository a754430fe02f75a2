#ifndef HIQUE_SQL_BOUND_H_
#define HIQUE_SQL_BOUND_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/schema.h"
#include "storage/table.h"

namespace hique::sql {

/// A column of one of the FROM tables: (table index in FROM order, column
/// index in that table's schema). All post-binding structures use these
/// coordinates; execution engines map them to physical offsets as tuples
/// flow through staging and joins.
struct ColRef {
  int table = -1;
  int column = -1;
  bool operator==(const ColRef& o) const {
    return table == o.table && column == o.column;
  }
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Renders the C operator ("==", "!=", ...) for code generation.
const char* CmpOpToC(CmpOp op);

/// A typed scalar expression over FROM columns. Appears in select lists and
/// aggregate arguments. (Predicates are restricted to the simpler Filter /
/// JoinPred forms below, matching the paper's conjunctive grammar.)
struct ScalarExpr;
using ScalarExprPtr = std::unique_ptr<ScalarExpr>;

enum class ScalarKind { kColumn, kLiteral, kArith };

struct ScalarExpr {
  ScalarKind kind = ScalarKind::kColumn;
  Type type;

  ColRef column;          // kColumn
  Value literal;          // kLiteral
  char op = '+';          // kArith: + - * /
  ScalarExprPtr left;
  ScalarExprPtr right;

  /// Hoisted-constant slot (index into the plan's ParamTable) assigned by
  /// plan::ParameterizePlan, or -1 when the literal stays inlined. Generated
  /// code reads slotted literals from the runtime parameter block so one
  /// compiled query serves every literal binding.
  int param = -1;

  /// `?` placeholder ordinal when this literal stands for a user-supplied
  /// value (prepared statements); -1 for ordinary literals. The binder infers
  /// the type from the arithmetic context and stores a zero value of that
  /// type in `literal`; ParameterizePlan hoists it into the parameter block,
  /// where each execution binds the user's value.
  int placeholder = -1;

  static ScalarExprPtr Column(ColRef ref, Type t) {
    auto e = std::make_unique<ScalarExpr>();
    e->kind = ScalarKind::kColumn;
    e->column = ref;
    e->type = t;
    return e;
  }
  static ScalarExprPtr Literal(Value v) {
    auto e = std::make_unique<ScalarExpr>();
    e->kind = ScalarKind::kLiteral;
    e->type = v.type();
    e->literal = std::move(v);
    return e;
  }
  static ScalarExprPtr Arith(char op, ScalarExprPtr l, ScalarExprPtr r,
                             Type t) {
    auto e = std::make_unique<ScalarExpr>();
    e->kind = ScalarKind::kArith;
    e->op = op;
    e->left = std::move(l);
    e->right = std::move(r);
    e->type = t;
    return e;
  }

  ScalarExprPtr Clone() const {
    auto e = std::make_unique<ScalarExpr>();
    e->kind = kind;
    e->type = type;
    e->column = column;
    e->literal = literal;
    e->op = op;
    e->param = param;
    e->placeholder = placeholder;
    if (left) e->left = left->Clone();
    if (right) e->right = right->Clone();
    return e;
  }

  /// All column references in this expression (appended to `out`).
  void CollectColumns(std::vector<ColRef>* out) const {
    if (kind == ScalarKind::kColumn) out->push_back(column);
    if (left) left->CollectColumns(out);
    if (right) right->CollectColumns(out);
  }
};

/// Selection predicate on a single table: `col op literal` or
/// `col op other_col_of_same_table`.
struct Filter {
  ColRef column;
  CmpOp op = CmpOp::kEq;
  bool rhs_is_column = false;
  ColRef rhs_column;  // same table as `column`
  Value literal;

  /// Hoisted-constant slot for `literal` (see ScalarExpr::param); -1 inlines.
  int param = -1;

  /// `?` placeholder ordinal (see ScalarExpr::placeholder); -1 for literals.
  /// The binder types placeholders from the filtered column and stores a zero
  /// value of that type in `literal`.
  int placeholder = -1;
};

/// Equi-join predicate between two different FROM tables.
struct JoinPred {
  ColRef left;
  ColRef right;
};

enum class AggFunc { kSum, kCount, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc f);

struct AggSpec {
  AggFunc func = AggFunc::kCount;
  ScalarExprPtr arg;  // null for COUNT(*)
  Type out_type;
};

/// One output column of the query.
struct OutputCol {
  enum class Kind { kGroupKey, kAggregate, kScalar } kind = Kind::kScalar;
  int index = -1;        // into group_by / aggs for the first two kinds
  ScalarExprPtr scalar;  // kScalar (non-aggregated queries only)
  std::string name;
  Type type;
};

struct OrderSpec {
  int output_index = -1;
  bool desc = false;
};

/// The fully bound query: what the optimizer consumes.
struct BoundQuery {
  std::vector<Table*> tables;          // FROM order
  std::vector<std::string> aliases;
  std::vector<Filter> filters;
  std::vector<JoinPred> joins;
  std::vector<ColRef> group_by;
  std::vector<AggSpec> aggs;
  std::vector<OutputCol> outputs;
  std::vector<OrderSpec> order_by;
  int64_t limit = -1;

  /// Number of `?` placeholders bound into filters / scalar expressions.
  /// Queries with placeholders can only run through Prepare/Execute; the
  /// interpreting engines (reference, Volcano, column) reject them.
  int num_placeholders = 0;

  bool HasAggregation() const { return !aggs.empty() || !group_by.empty(); }

  /// Schema of the result set.
  Schema OutputSchema() const {
    Schema s;
    for (const auto& out : outputs) s.AddColumn(out.name, out.type);
    return s;
  }
};

}  // namespace hique::sql

#endif  // HIQUE_SQL_BOUND_H_
