#include "codegen/expr_gen.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <utility>

#include "util/macros.h"

namespace hique::codegen {

std::string LiteralToC(const Value& v) {
  switch (v.type_id()) {
    case TypeId::kInt32:
    case TypeId::kDate:
      return std::to_string(v.AsInt32());
    case TypeId::kInt64:
      return std::to_string(v.AsInt64()) + "LL";
    case TypeId::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
      std::string s = buf;
      // Ensure a floating token ("1" -> "1.0").
      if (s.find_first_of(".eE") == std::string::npos) s += ".0";
      return s;
    }
    case TypeId::kChar:
      return CStringLiteral(v.AsString());
  }
  return "0";
}

std::string CStringLiteral(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20 ||
            static_cast<unsigned char>(c) > 0x7E) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\%03o",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string FieldAccess(const std::string& rec, uint32_t offset, Type type) {
  std::string addr =
      offset == 0 ? rec : "(" + rec + " + " + std::to_string(offset) + ")";
  if (type.id == TypeId::kChar) {
    return "((const char*)" + addr + ")";
  }
  return std::string("(*(const ") + type.CType() + "*)" + addr + ")";
}

std::string ParamRef(const plan::ParamTable& params, int slot) {
  HQ_CHECK_MSG(slot >= 0 && slot < static_cast<int>(params.entries.size()),
               "param slot out of range");
  const plan::ParamEntry& e = params.entries[slot];
  std::string idx = std::to_string(e.bank_index);
  switch (e.type.id) {
    case TypeId::kInt32:
    case TypeId::kDate:
      // Cast back down so comparisons and arithmetic keep the exact types an
      // inlined int literal would have produced.
      return "((int32_t)ctx->params->ints[" + idx + "])";
    case TypeId::kInt64:
      return "ctx->params->ints[" + idx + "]";
    case TypeId::kDouble:
      return "ctx->params->doubles[" + idx + "]";
    case TypeId::kChar:
      return "(ctx->params->chars + " + idx + ")";
  }
  return "0";
}

std::string FilterCondition(const std::string& rec, const Schema& schema,
                            const sql::Filter& filter,
                            const plan::ParamTable* params) {
  Type type = schema.ColumnAt(filter.column.column).type;
  uint32_t offset = schema.OffsetAt(filter.column.column);
  std::string lhs = FieldAccess(rec, offset, type);
  if (filter.rhs_is_column) {
    Type rtype = schema.ColumnAt(filter.rhs_column.column).type;
    uint32_t roffset = schema.OffsetAt(filter.rhs_column.column);
    std::string rhs = FieldAccess(rec, roffset, rtype);
    if (type.id == TypeId::kChar) {
      uint16_t len = std::min(type.length, rtype.length);
      return "(memcmp(" + lhs + ", " + rhs + ", " + std::to_string(len) +
             ") " + sql::CmpOpToC(filter.op) + " 0)";
    }
    return "(" + lhs + " " + sql::CmpOpToC(filter.op) + " " + rhs + ")";
  }
  bool hoisted = params != nullptr && filter.param >= 0;
  if (type.id == TypeId::kChar) {
    std::string rhs = hoisted
                          ? ParamRef(*params, filter.param)
                          : CStringLiteral(filter.literal.AsString());
    return "(memcmp(" + lhs + ", " + rhs + ", " +
           std::to_string(type.length) + ") " + sql::CmpOpToC(filter.op) +
           " 0)";
  }
  std::string rhs =
      hoisted ? ParamRef(*params, filter.param) : LiteralToC(filter.literal);
  return "(" + lhs + " " + sql::CmpOpToC(filter.op) + " " + rhs + ")";
}

std::string ScalarToC(const std::string& rec, const plan::RecordLayout& layout,
                      const sql::ScalarExpr& expr,
                      const plan::ParamTable* params) {
  switch (expr.kind) {
    case sql::ScalarKind::kColumn: {
      int idx = layout.FindField(expr.column);
      HQ_CHECK_MSG(idx >= 0, "scalar column not found in layout");
      return FieldAccess(rec, layout.OffsetOf(idx), expr.type);
    }
    case sql::ScalarKind::kLiteral:
      if (params != nullptr && expr.param >= 0) {
        return ParamRef(*params, expr.param);
      }
      return LiteralToC(expr.literal);
    case sql::ScalarKind::kArith: {
      std::string l = ScalarToC(rec, layout, *expr.left, params);
      std::string r = ScalarToC(rec, layout, *expr.right, params);
      if (expr.type.id == TypeId::kDouble) {
        l = "(double)" + l;
      }
      return "(" + l + " " + std::string(1, expr.op) + " " + r + ")";
    }
  }
  return "0";
}

void AppendFieldCompare(std::string* out, const std::string& a,
                        const std::string& b, uint32_t offset, Type type,
                        bool desc, const std::string& indent) {
  const char* lt = desc ? "1" : "-1";
  const char* gt = desc ? "-1" : "1";
  if (type.id == TypeId::kChar) {
    std::string off = std::to_string(offset);
    std::string len = std::to_string(type.length);
    *out += indent + "{ int c = memcmp(" + a + " + " + off + ", " + b +
            " + " + off + ", " + len + ");\n";
    *out += indent + "  if (c < 0) return " + lt + "; if (c > 0) return " +
            gt + "; }\n";
    return;
  }
  std::string fa = FieldAccess(a, offset, type);
  std::string fb = FieldAccess(b, offset, type);
  *out += indent + "if (" + fa + " < " + fb + ") return " + lt + ";\n";
  *out += indent + "if (" + fa + " > " + fb + ") return " + gt + ";\n";
}

std::string FieldEquals(const std::string& a, const std::string& b,
                        uint32_t offset, Type type) {
  if (type.id == TypeId::kChar) {
    std::string off = std::to_string(offset);
    return "(memcmp(" + a + " + " + off + ", " + b + " + " + off + ", " +
           std::to_string(type.length) + ") == 0)";
  }
  return "(" + FieldAccess(a, offset, type) +
         " == " + FieldAccess(b, offset, type) + ")";
}

namespace {

bool IsIntLane(TypeId id) {
  return id == TypeId::kInt32 || id == TypeId::kDate || id == TypeId::kInt64;
}

/// How a conjunct lowers to 64-bit lanes: kI64 when its C arithmetic
/// conversions can be replicated exactly by int64 lanes (int-vs-int
/// comparisons promote both sides to int64; sign-extension is order- and
/// value-preserving), kF64 when anything involves a double (both sides
/// promote to double, precisely what the scalar expression does), kNone
/// for CHAR memcmp and column-vs-column conjuncts.
enum class Lane { kNone, kI64, kF64 };

Lane LaneOf(const Schema& schema, const sql::Filter& f,
            const plan::ParamTable* params) {
  if (f.rhs_is_column) return Lane::kNone;
  const TypeId lid = schema.ColumnAt(f.column.column).type.id;
  const bool hoisted = params != nullptr && f.param >= 0;
  const TypeId rid =
      hoisted ? params->entries[f.param].type.id : f.literal.type_id();
  if (IsIntLane(lid) && IsIntLane(rid)) return Lane::kI64;
  if (lid != TypeId::kChar && rid != TypeId::kChar) return Lane::kF64;
  return Lane::kNone;
}

/// `{f(t0), f(t1), f(t2), f(t3)}` — a four-lane gather initializer.
std::string Lanes4(const std::function<std::string(const std::string&)>& f) {
  return "{" + f("t0") + ", " + f("t1") + ", " + f("t2") + ", " + f("t3") +
         "}";
}

}  // namespace

bool BatchedScan(const Schema& schema, const std::vector<sql::Filter>& filters,
                 double filter_selectivity, const plan::ParamTable* params) {
  return !filters.empty() &&
         filter_selectivity <= kBatchedSelectMaxSelectivity &&
         LaneOf(schema, filters[0], params) != Lane::kNone;
}

void EmitPredicateKernel(std::string* out, const std::string& name,
                         const Schema& schema,
                         const std::vector<sql::Filter>& filters,
                         const plan::ParamTable* params) {
  const std::string R = std::to_string(schema.TupleSize());

  // Split the conjunction into a *vectorized prefix* and a *scalar
  // refinement suffix*. The prefix is the maximal leading run of conjuncts
  // that lower to 64-bit lanes; the rest run scalar on surviving bits
  // only, in the original order. Lane evaluation is branchless — no
  // data-dependent branch to mispredict — and each distinct column is
  // gathered once no matter how many comparisons read it, so evaluating
  // the whole lane-compatible run eagerly beats scalar short-circuit even
  // when the leading conjuncts are selective.
  size_t prefix = 0;
  std::vector<Lane> lane;
  for (const sql::Filter& f : filters) {
    lane.push_back(LaneOf(schema, f, params));
    if (lane.back() == Lane::kNone) break;
    prefix = lane.size();
  }
  HQ_CHECK_MSG(prefix >= 1, "predicate kernel needs a lane-mappable lead");

  // The exact scalar conjunction of filters [b, e): the portable body, the
  // vector tail and the refinement suffix all reuse this text, which is
  // what guarantees both versions compute the same predicate.
  auto conj = [&](size_t b, size_t e) {
    std::string c;
    for (size_t j = b; j < e; ++j) {
      if (j != b) c += " && ";
      c += FilterCondition("r", schema, filters[j], params);
    }
    return c;
  };

  std::string splats;
  std::string gathers;
  std::string lanes;
  // One gather per (column, lane kind): conjuncts over the same column
  // share the strided loads — the expensive part of a vectorized NSM
  // predicate.
  std::vector<std::pair<uint32_t, Lane>> gathered;
  for (size_t j = 0; j < prefix; ++j) {
    const sql::Filter& f = filters[j];
    const bool hoisted = params != nullptr && f.param >= 0;
    const std::string rhs =
        hoisted ? ParamRef(*params, f.param) : LiteralToC(f.literal);
    const std::string js = std::to_string(j);
    const uint32_t col = f.column.column;
    const Type lt = schema.ColumnAt(col).type;
    const uint32_t loff = schema.OffsetAt(col);
    const bool i64 = lane[j] == Lane::kI64;
    const std::string vt = i64 ? "hq_i64x4" : "hq_f64x4";
    const std::string st = i64 ? "(int64_t)" : "(double)";
    const std::string g = (i64 ? "gi" : "gf") + std::to_string(col);
    if (std::find(gathered.begin(), gathered.end(),
                  std::make_pair(col, lane[j])) == gathered.end()) {
      gathered.emplace_back(col, lane[j]);
      gathers += "    " + vt + " " + g + " = " +
                 Lanes4([&](const std::string& t) {
                   return st + FieldAccess(t, loff, lt);
                 }) +
                 ";\n";
    }
    splats += "  const " + vt + " c" + js + " = (" + vt + "){0, 0, 0, 0} + " +
              st + rhs + ";\n";
    lanes += "    m &= (hq_i64x4)(" + g + " " +
             std::string(sql::CmpOpToC(f.op)) + " c" + js + ");\n";
  }

  std::string vec_body;
  vec_body += "  (void)ctx;\n";
  vec_body += "  uint64_t bm = 0;\n";
  vec_body += splats;
  vec_body += "  const uint8_t* t0 = tup;\n";
  vec_body += "  uint32_t i = 0;\n";
  vec_body += "  for (; i + 4 <= n; i += 4, t0 += 4u * " + R + ") {\n";
  vec_body += "    const uint8_t* t1 = t0 + " + R + ";\n";
  vec_body += "    const uint8_t* t2 = t0 + 2u * " + R + ";\n";
  vec_body += "    const uint8_t* t3 = t0 + 3u * " + R + ";\n";
  vec_body += gathers;
  vec_body += "    hq_i64x4 m = {-1LL, -1LL, -1LL, -1LL};\n";
  vec_body += lanes;
  // AVX extracts the four lane sign bits in a single instruction.
  vec_body +=
      "    bm |= (uint64_t)__builtin_ia32_movmskpd256((hq_f64x4)m) << i;\n";
  vec_body += "  }\n";
  vec_body += "  for (; i < n; ++i, t0 += " + R + ") {\n";
  vec_body += "    const uint8_t* r = t0;\n";
  vec_body += "    if (" + conj(0, prefix) + ") bm |= 1ull << i;\n";
  vec_body += "  }\n";
  if (prefix < filters.size()) {
    vec_body += "  uint64_t scan = bm;\n";
    vec_body += "  while (scan) {\n";
    vec_body += "    uint32_t bi = (uint32_t)__builtin_ctzll(scan);\n";
    vec_body += "    scan &= scan - 1;\n";
    vec_body += "    const uint8_t* r = tup + (uint64_t)bi * " + R + ";\n";
    vec_body += "    if (!(" + conj(prefix, filters.size()) +
                ")) bm &= ~(1ull << bi);\n";
    vec_body += "  }\n";
  }
  vec_body += "  return bm;\n";

  const std::string sig = "(HqQueryCtx* ctx, const uint8_t* tup, uint32_t n)";
  *out += "// Selection bitmap over <= HQ_SIMD_BLOCK tuples (stride " + R +
          "): bit i set iff tuple i passes.\n";
  *out += "#if HQ_SIMD_X86\n";
  *out += "__attribute__((target(\"avx2\"))) static uint64_t " + name +
          "_avx2" + sig + " {\n" + vec_body + "}\n";
  *out += "#endif  // HQ_SIMD_X86\n";
  *out += "static uint64_t " + name + sig + " {\n";
  *out += "#if HQ_SIMD_X86\n";
  *out += "  if (hq_simd_level == HQ_SIMD_AVX2) return " + name +
          "_avx2(ctx, tup, n);\n";
  *out += "#endif  // HQ_SIMD_X86\n";
  *out += "  (void)ctx;\n";
  *out += "  uint64_t bm = 0;\n";
  *out += "  for (uint32_t i = 0; i < n; ++i, tup += " + R + ") {\n";
  *out += "    const uint8_t* r = tup;\n";
  *out += "    if (" + conj(0, filters.size()) + ") bm |= 1ull << i;\n";
  *out += "  }\n";
  *out += "  return bm;\n";
  *out += "}\n\n";
}

}  // namespace hique::codegen
