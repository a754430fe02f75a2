#include "plan/params.h"

#include <cstdio>
#include <sstream>
#include <variant>

#include "util/macros.h"

namespace hique::plan {
namespace {

using sql::Filter;
using sql::ScalarExpr;
using sql::ScalarKind;

/// Assigns ParamTable slots in canonical plan order. The walk must visit
/// exactly the literals the code generator renders, in a fixed order that
/// depends only on plan structure, so that structurally identical plans
/// agree on every slot id.
class Parameterizer {
 public:
  explicit Parameterizer(PhysicalPlan* plan) : plan_(plan) {}

  void Run() {
    for (auto& op : plan_->ops) {
      if (auto* stage = std::get_if<StageOp>(&op)) {
        for (Filter& f : stage->filters) AssignFilter(&f);
      } else if (auto* join = std::get_if<JoinOp>(&op)) {
        if (join->fuse_scalar_agg) AssignAggArgs();
      } else if (auto* agg = std::get_if<AggOp>(&op)) {
        // Map aggregation over an unstaged base table inlines the query's
        // filters on that table directly into its scan.
        const StreamInfo& in = plan_->streams[agg->input_stream];
        if (in.is_base_table) {
          for (Filter& f : plan_->query->filters) {
            if (f.column.table == in.base_table_index) AssignFilter(&f);
          }
        }
        AssignAggArgs();
      } else if (auto* output = std::get_if<OutputOp>(&op)) {
        // Output items are built one-to-one from the query's output columns;
        // expression items alias the bound scalars owned by the query.
        for (size_t i = 0; i < output->items.size(); ++i) {
          if (output->items[i].expr == nullptr) continue;
          ScalarExpr* scalar = plan_->query->outputs[i].scalar.get();
          HQ_CHECK_MSG(scalar == output->items[i].expr,
                       "output item expr must alias the bound output scalar");
          AssignExpr(scalar);
        }
      }
    }
    // Placeholder ordinal -> slot map. A -1 survivor means a placeholder sat
    // in a position the canonical walk never visits; the engine rejects the
    // plan rather than execute with an unbound value.
    ParamTable& t = plan_->params;
    t.placeholder_entries.assign(plan_->query->num_placeholders, -1);
    for (size_t i = 0; i < t.entries.size(); ++i) {
      int ph = t.entries[i].placeholder;
      if (ph >= 0 && ph < static_cast<int>(t.placeholder_entries.size())) {
        t.placeholder_entries[ph] = static_cast<int>(i);
      }
    }
  }

 private:
  void AssignAggArgs() {
    for (auto& spec : plan_->query->aggs) {
      if (spec.arg) AssignExpr(spec.arg.get());
    }
  }

  void AssignFilter(Filter* f) {
    if (f->rhs_is_column || f->param >= 0) return;
    f->param = AddEntry(f->literal, f->placeholder);
  }

  /// Hoists numeric literals only: CHAR literals inside scalar expressions
  /// have no runtime representation in arithmetic and stay inlined (CHAR
  /// *filter* literals are hoisted through AssignFilter into the byte bank).
  void AssignExpr(ScalarExpr* e) {
    if (e->kind == ScalarKind::kLiteral && e->param < 0 &&
        e->type.id != TypeId::kChar) {
      e->param = AddEntry(e->literal, e->placeholder);
    }
    if (e->left) AssignExpr(e->left.get());
    if (e->right) AssignExpr(e->right.get());
  }

  int AddEntry(const Value& v, int placeholder) {
    ParamTable& t = plan_->params;
    ParamEntry entry;
    entry.type = v.type();
    entry.value = v;
    entry.placeholder = placeholder;
    switch (v.type_id()) {
      case TypeId::kInt32:
      case TypeId::kInt64:
      case TypeId::kDate:
        entry.bank_index = t.num_ints++;
        break;
      case TypeId::kDouble:
        entry.bank_index = t.num_doubles++;
        break;
      case TypeId::kChar:
        entry.bank_index = t.num_char_bytes;
        t.num_char_bytes += v.type().length;
        break;
    }
    t.entries.push_back(std::move(entry));
    return static_cast<int>(t.entries.size() - 1);
  }

  PhysicalPlan* plan_;
};

// ---- signature serialization ----------------------------------------------

void SigType(std::ostream& out, Type t) {
  out << static_cast<int>(t.id);
  if (t.id == TypeId::kChar) out << "." << t.length;
}

void SigValue(std::ostream& out, const Value& v) {
  SigType(out, v.type());
  out << "=";
  switch (v.type_id()) {
    case TypeId::kDouble: {
      // Full precision: codegen inlines %.17g, so the signature must
      // distinguish every double the generated source distinguishes
      // (Value::ToString rounds for display and would collide).
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
      out << buf;
      break;
    }
    case TypeId::kChar:
      out << v.AsString();  // padded to the column width: injective
      break;
    default:
      out << v.AsInt64();
      break;
  }
}

/// A literal position: `?N` once parameterized (N is canonical), otherwise
/// the inline value so unparameterized plans still key correctly.
void SigLiteral(std::ostream& out, int param, const Value& v) {
  if (param >= 0) {
    out << "?" << param << ":";
    SigType(out, v.type());
  } else {
    SigValue(out, v);
  }
}

void SigScalar(std::ostream& out, const ScalarExpr& e) {
  switch (e.kind) {
    case ScalarKind::kColumn:
      out << "c(" << e.column.table << "." << e.column.column << ":";
      SigType(out, e.type);
      out << ")";
      return;
    case ScalarKind::kLiteral:
      out << "l(";
      SigLiteral(out, e.param, e.literal);
      out << ")";
      return;
    case ScalarKind::kArith:
      out << "(";
      SigScalar(out, *e.left);
      out << e.op;
      SigScalar(out, *e.right);
      out << ":";
      SigType(out, e.type);
      out << ")";
      return;
  }
}

void SigFilter(std::ostream& out, const Filter& f) {
  out << "f(" << f.column.table << "." << f.column.column
      << sql::CmpOpToC(f.op);
  if (f.rhs_is_column) {
    out << f.rhs_column.table << "." << f.rhs_column.column;
  } else {
    SigLiteral(out, f.param, f.literal);
  }
  out << ")";
}

void SigLayout(std::ostream& out, const RecordLayout& layout) {
  out << "[";
  for (size_t i = 0; i < layout.fields.size(); ++i) {
    if (i) out << ",";
    const FieldRef& f = layout.fields[i];
    out << f.source.table << "." << f.source.column << ":";
    SigType(out, f.type);
    out << "@" << layout.offsets[i];
  }
  out << "|" << layout.record_size << "]";
}

void SigAggSpecs(std::ostream& out, const sql::BoundQuery& q) {
  out << "aggs{";
  for (size_t i = 0; i < q.aggs.size(); ++i) {
    if (i) out << ";";
    const sql::AggSpec& spec = q.aggs[i];
    out << sql::AggFuncName(spec.func) << ":";
    SigType(out, spec.out_type);
    if (spec.arg) {
      out << "<-";
      SigScalar(out, *spec.arg);
    }
  }
  out << "}";
}

template <typename T>
void SigIntList(std::ostream& out, const std::vector<T>& v) {
  out << "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out << ",";
    out << static_cast<int64_t>(v[i]);
  }
  out << "]";
}

/// Base-table compression codec: every constant codegen bakes into the
/// fused decode kernels must key the cached library. Omitted entirely for
/// uncompressed inputs, keeping pre-compression signatures (and cached
/// libraries) byte-stable.
void SigCodec(std::ostream& out, const TableCodec& tc) {
  if (!tc.enabled) return;
  out << ",enc=tpc" << tc.tuples_per_cpage << "[";
  for (size_t c = 0; c < tc.cols.size(); ++c) {
    if (c) out << ";";
    const ColumnCodec& cc = tc.cols[c];
    switch (cc.enc) {
      case ColEncoding::kRaw:
        out << "r";
        break;
      case ColEncoding::kFOR:
        out << "f:" << cc.bits << ":" << cc.base;
        break;
      case ColEncoding::kDelta:
        out << "d:" << cc.bits;
        break;
      case ColEncoding::kDict:
        out << "c:" << cc.bits << ":" << cc.dict_entries;
        break;
    }
  }
  out << "]";
}

}  // namespace

void ParameterizePlan(PhysicalPlan* plan) {
  Parameterizer(plan).Run();
}

std::string PlanSignature(const PhysicalPlan& plan) {
  std::ostringstream out;
  out << "hique-sig-v1\n";

  const sql::BoundQuery& q = *plan.query;
  out << "tables:";
  for (const Table* t : q.tables) {
    out << t->name() << "{" << t->schema().ToString() << "}";
  }
  out << "\n";

  out << "streams:";
  for (const StreamInfo& s : plan.streams) {
    // est_rows is intentionally omitted: it only seeds initial buffer
    // capacities in generated code, so sharing a library compiled with a
    // different estimate is safe.
    out << "{b=" << (s.is_base_table ? s.base_table_index : -1);
    SigLayout(out, s.layout);
    out << "}";
  }
  out << "\n";

  for (size_t k = 0; k < plan.ops.size(); ++k) {
    out << "op" << k << ":";
    if (const auto* stage = std::get_if<StageOp>(&plan.ops[k])) {
      out << "stage{in=" << stage->input_stream
          << ",out=" << stage->out_stream
          << ",act=" << static_cast<int>(stage->action) << ",keys=";
      SigIntList(out, stage->key_fields);
      out << ",M=" << stage->num_partitions << ",fmin=" << stage->fine_min
          << ",fclamp=" << stage->fine_clamp;
      // Only filtered stages print it: other signatures stay as they were.
      if (stage->key_filter_op >= 0) {
        out << ",kf=" << stage->key_filter_op << ":"
            << stage->key_filter_field;
      }
      SigCodec(out, stage->input_codec);
      SigLayout(out, stage->output);
      for (const auto& f : stage->filters) SigFilter(out, f);
      out << "}";
    } else if (const auto* join = std::get_if<JoinOp>(&plan.ops[k])) {
      out << "join{algo=" << static_cast<int>(join->algo) << ",in=";
      SigIntList(out, join->input_streams);
      out << ",out=" << join->out_stream << ",keys=";
      SigIntList(out, join->key_fields);
      out << ",M=" << join->num_partitions << ",pt=" << join->par_tasks;
      SigLayout(out, join->output);
      if (join->fuse_scalar_agg) {
        out << ",fused";
        SigLayout(out, join->fused_output);
        SigAggSpecs(out, q);
      }
      out << "}";
    } else if (const auto* agg = std::get_if<AggOp>(&plan.ops[k])) {
      out << "agg{algo=" << static_cast<int>(agg->algo)
          << ",in=" << agg->input_stream << ",out=" << agg->out_stream
          << ",keys=";
      SigIntList(out, agg->group_fields);
      out << ",M=" << agg->num_partitions << ",pt=" << agg->par_tasks
          << ",caps=";
      SigIntList(out, agg->directory_capacity);
      out << ",dense=";
      SigIntList(out, agg->directory_dense);
      out << ",dmin=";
      SigIntList(out, agg->directory_min);
      SigCodec(out, agg->input_codec);
      SigLayout(out, agg->output);
      const StreamInfo& in = plan.streams[agg->input_stream];
      if (in.is_base_table) {
        // These query filters are inlined into the map-aggregation scan.
        for (const auto& f : q.filters) {
          if (f.column.table == in.base_table_index) SigFilter(out, f);
        }
      }
      SigAggSpecs(out, q);
      out << "}";
    } else if (const auto* output = std::get_if<OutputOp>(&plan.ops[k])) {
      out << "output{in=" << output->input_stream << ",items=";
      for (size_t i = 0; i < output->items.size(); ++i) {
        if (i) out << ";";
        const auto& item = output->items[i];
        out << item.name << ":";
        SigType(out, item.type);
        if (item.field_index >= 0) {
          out << "#" << item.field_index;
        } else {
          out << "<-";
          SigScalar(out, *item.expr);
        }
      }
      out << ",order=";
      for (const auto& spec : output->order_by) {
        out << spec.output_index << (spec.desc ? "d" : "a") << ",";
      }
      out << "sorted=" << output->already_sorted
          << ",limit=" << output->limit << ",pt=" << output->par_tasks << "}";
    }
    out << "\n";
  }

  out << "result:{" << plan.output_schema.ToString() << "}\n";
  return out.str();
}

}  // namespace hique::plan
