#include "txn/dml.h"

#include <mutex>
#include <vector>

#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/schema.h"
#include "util/macros.h"

namespace hique::txn {
namespace {

/// Interprets an unbound sql::Expr over one row of boxed values.
/// Comparison semantics match the binder's coercion rules: int family
/// compares as int64, any double operand promotes both sides, CHAR compares
/// right-trimmed (literals are not padded to the column width here).
class RowEvaluator {
 public:
  RowEvaluator(const Schema* schema, const uint8_t* tuple)
      : schema_(schema), tuple_(tuple) {}

  Result<Value> Eval(const sql::Expr& e) const {
    switch (e.kind) {
      case sql::ExprKind::kIntLit:
        return Value::Int64(e.int_value);
      case sql::ExprKind::kFloatLit:
        return Value::Double(e.float_value);
      case sql::ExprKind::kDateLit:
        return Value::Date(e.date_value);
      case sql::ExprKind::kStringLit:
        return Value::Char(e.string_value,
                           static_cast<uint16_t>(e.string_value.size()));
      case sql::ExprKind::kColumnRef: {
        if (schema_ == nullptr) {
          return Status::BindError("column '" + e.column +
                                   "' not allowed in INSERT values");
        }
        int idx = schema_->FindColumn(e.column);
        if (idx < 0) {
          return Status::BindError("unknown column '" + e.column + "'");
        }
        return schema_->GetValue(tuple_, static_cast<size_t>(idx));
      }
      case sql::ExprKind::kBinary:
        return EvalBinary(e);
      default:
        return Status::BindError(
            "aggregates / placeholders are not allowed in DML expressions");
    }
  }

 private:
  static bool IsIntFamily(TypeId id) {
    return id == TypeId::kInt32 || id == TypeId::kInt64 || id == TypeId::kDate;
  }

  static std::string Trimmed(const Value& v) {
    std::string s = v.AsString();
    while (!s.empty() && s.back() == ' ') s.pop_back();
    return s;
  }

  static Result<int> Compare(const Value& l, const Value& r) {
    const bool lc = l.type_id() == TypeId::kChar;
    const bool rc = r.type_id() == TypeId::kChar;
    if (lc != rc) {
      return Status::BindError("cannot compare CHAR with a numeric value");
    }
    if (lc) {
      const std::string a = Trimmed(l), b = Trimmed(r);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    if (l.type_id() == TypeId::kDouble || r.type_id() == TypeId::kDouble) {
      const double a = l.AsDouble(), b = r.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const int64_t a = l.AsInt64(), b = r.AsInt64();
    return a < b ? -1 : (a > b ? 1 : 0);
  }

  Result<Value> EvalBinary(const sql::Expr& e) const {
    if (e.op == sql::BinaryOp::kAnd) {
      HQ_ASSIGN_OR_RETURN(Value l, Eval(*e.left));
      if (l.type_id() == TypeId::kChar) {
        return Status::BindError("AND expects boolean operands");
      }
      if (l.AsInt64() == 0 && l.AsDouble() == 0) return Value::Int32(0);
      HQ_ASSIGN_OR_RETURN(Value r, Eval(*e.right));
      if (r.type_id() == TypeId::kChar) {
        return Status::BindError("AND expects boolean operands");
      }
      return Value::Int32((r.AsInt64() != 0 || r.AsDouble() != 0) ? 1 : 0);
    }
    HQ_ASSIGN_OR_RETURN(Value l, Eval(*e.left));
    HQ_ASSIGN_OR_RETURN(Value r, Eval(*e.right));
    switch (e.op) {
      case sql::BinaryOp::kEq:
      case sql::BinaryOp::kNe:
      case sql::BinaryOp::kLt:
      case sql::BinaryOp::kLe:
      case sql::BinaryOp::kGt:
      case sql::BinaryOp::kGe: {
        HQ_ASSIGN_OR_RETURN(int c, Compare(l, r));
        bool res = false;
        switch (e.op) {
          case sql::BinaryOp::kEq: res = c == 0; break;
          case sql::BinaryOp::kNe: res = c != 0; break;
          case sql::BinaryOp::kLt: res = c < 0; break;
          case sql::BinaryOp::kLe: res = c <= 0; break;
          case sql::BinaryOp::kGt: res = c > 0; break;
          default: res = c >= 0; break;
        }
        return Value::Int32(res ? 1 : 0);
      }
      case sql::BinaryOp::kAdd:
      case sql::BinaryOp::kSub:
      case sql::BinaryOp::kMul:
      case sql::BinaryOp::kDiv: {
        if (l.type_id() == TypeId::kChar || r.type_id() == TypeId::kChar) {
          return Status::BindError("arithmetic on CHAR values");
        }
        if (l.type_id() == TypeId::kDouble ||
            r.type_id() == TypeId::kDouble ||
            e.op == sql::BinaryOp::kDiv) {
          const double a = l.AsDouble(), b = r.AsDouble();
          switch (e.op) {
            case sql::BinaryOp::kAdd: return Value::Double(a + b);
            case sql::BinaryOp::kSub: return Value::Double(a - b);
            case sql::BinaryOp::kMul: return Value::Double(a * b);
            default:
              if (b == 0) return Status::BindError("division by zero");
              return Value::Double(a / b);
          }
        }
        const int64_t a = l.AsInt64(), b = r.AsInt64();
        switch (e.op) {
          case sql::BinaryOp::kAdd: return Value::Int64(a + b);
          case sql::BinaryOp::kSub: return Value::Int64(a - b);
          default: return Value::Int64(a * b);
        }
      }
      default:
        return Status::BindError("unsupported operator in DML expression");
    }
  }

  const Schema* schema_;
  const uint8_t* tuple_;
};

Result<bool> Matches(const sql::Expr* where, const Schema& schema,
                     const uint8_t* tuple) {
  if (where == nullptr) return true;
  RowEvaluator ev(&schema, tuple);
  HQ_ASSIGN_OR_RETURN(Value v, ev.Eval(*where));
  if (v.type_id() == TypeId::kChar) {
    return Status::BindError("WHERE clause must be boolean");
  }
  return v.AsInt64() != 0 || v.AsDouble() != 0;
}

Result<uint64_t> ExecuteInsert(const sql::DmlStmt& stmt, Table* table) {
  const Schema& schema = table->schema();
  std::vector<std::vector<Value>> rows;
  rows.reserve(stmt.rows.size());
  RowEvaluator literal_eval(nullptr, nullptr);
  for (const auto& row : stmt.rows) {
    if (row.size() != schema.NumColumns()) {
      return Status::BindError(
          "INSERT row has " + std::to_string(row.size()) + " values, table " +
          table->name() + " has " + std::to_string(schema.NumColumns()) +
          " columns");
    }
    std::vector<Value> values;
    values.reserve(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      HQ_ASSIGN_OR_RETURN(Value raw, literal_eval.Eval(*row[i]));
      auto coerced = sql::CoerceValueToType(raw, schema.ColumnAt(i).type);
      if (!coerced.ok()) {
        return Status::BindError("INSERT value for column " +
                                 schema.ColumnAt(i).name + ": " +
                                 coerced.status().message());
      }
      values.push_back(std::move(coerced).value());
    }
    rows.push_back(std::move(values));
  }
  // All rows validated before any lands: a mid-statement type error must
  // not leave a partial insert behind.
  for (const auto& values : rows) {
    HQ_RETURN_IF_ERROR(table->AppendRow(values));
  }
  return rows.size();
}

Result<uint64_t> ExecuteDelete(const sql::DmlStmt& stmt, Table* table) {
  const Schema& schema = table->schema();
  std::vector<uint64_t> ids;
  Status eval_err = Status::OK();
  HQ_RETURN_IF_ERROR(
      table->ForEachLiveRow([&](uint64_t id, const uint8_t* tuple) {
        if (!eval_err.ok()) return;
        auto m = Matches(stmt.where.get(), schema, tuple);
        if (!m.ok()) {
          eval_err = m.status();
          return;
        }
        if (m.value()) ids.push_back(id);
      }));
  HQ_RETURN_IF_ERROR(eval_err);
  if (ids.empty()) return 0;
  return table->DeleteRows(ids);
}

Result<uint64_t> ExecuteUpdate(const sql::DmlStmt& stmt, Table* table) {
  const Schema& schema = table->schema();
  // Resolve SET targets up front.
  std::vector<size_t> targets;
  targets.reserve(stmt.sets.size());
  for (const auto& set : stmt.sets) {
    int idx = schema.FindColumn(set.column);
    if (idx < 0) {
      return Status::BindError("unknown column '" + set.column +
                               "' in UPDATE " + table->name());
    }
    targets.push_back(static_cast<size_t>(idx));
  }
  // Enumerate matches and build replacement rows against the OLD tuple
  // images (SET v = v + 1 reads the pre-statement value even when another
  // SET clause also touches v's row).
  std::vector<uint64_t> ids;
  std::vector<std::vector<Value>> replacements;
  Status eval_err = Status::OK();
  HQ_RETURN_IF_ERROR(
      table->ForEachLiveRow([&](uint64_t id, const uint8_t* tuple) {
        if (!eval_err.ok()) return;
        auto m = Matches(stmt.where.get(), schema, tuple);
        if (!m.ok()) {
          eval_err = m.status();
          return;
        }
        if (!m.value()) return;
        std::vector<Value> values;
        values.reserve(schema.NumColumns());
        for (size_t c = 0; c < schema.NumColumns(); ++c) {
          values.push_back(schema.GetValue(tuple, c));
        }
        RowEvaluator ev(&schema, tuple);
        for (size_t s = 0; s < stmt.sets.size(); ++s) {
          auto v = ev.Eval(*stmt.sets[s].value);
          if (!v.ok()) {
            eval_err = v.status();
            return;
          }
          auto coerced = sql::CoerceValueToType(
              v.value(), schema.ColumnAt(targets[s]).type);
          if (!coerced.ok()) {
            eval_err = Status::BindError(
                "UPDATE value for column " + schema.ColumnAt(targets[s]).name +
                ": " + coerced.status().message());
            return;
          }
          values[targets[s]] = std::move(coerced).value();
        }
        ids.push_back(id);
        replacements.push_back(std::move(values));
      }));
  HQ_RETURN_IF_ERROR(eval_err);
  if (ids.empty()) return 0;
  // Update = delete old images + insert new ones; both sides live in the
  // delta store, so a concurrent snapshot sees either none or all of it
  // only if it was admitted after the statement — mid-statement admission
  // may observe the delete without the re-insert, which is the documented
  // statement-level (not transactional) isolation unit.
  HQ_ASSIGN_OR_RETURN(uint64_t deleted, table->DeleteRows(ids));
  (void)deleted;
  for (const auto& values : replacements) {
    HQ_RETURN_IF_ERROR(table->AppendRow(values));
  }
  return ids.size();
}

}  // namespace

Result<uint64_t> ExecuteDml(const sql::DmlStmt& stmt, Catalog* catalog) {
  HQ_ASSIGN_OR_RETURN(Table * table, catalog->GetTable(stmt.table));
  // Serialize against other DML and compaction first, then attach the
  // delta store (typed failure on read-only tables) — the attach itself
  // may decompress the base and must not race another writer.
  std::lock_guard<std::mutex> wl(table->writer_mutex());
  HQ_RETURN_IF_ERROR(table->EnableWrites());
  switch (stmt.kind) {
    case sql::DmlKind::kInsert:
      return ExecuteInsert(stmt, table);
    case sql::DmlKind::kDelete:
      return ExecuteDelete(stmt, table);
    case sql::DmlKind::kUpdate:
      return ExecuteUpdate(stmt, table);
  }
  return Status::Internal("unreachable DML kind");
}

Result<uint64_t> ExecuteDmlSql(const std::string& sql, Catalog* catalog) {
  HQ_ASSIGN_OR_RETURN(std::unique_ptr<sql::DmlStmt> stmt, sql::ParseDml(sql));
  return ExecuteDml(*stmt, catalog);
}

}  // namespace hique::txn
