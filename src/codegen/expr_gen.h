#ifndef HIQUE_CODEGEN_EXPR_GEN_H_
#define HIQUE_CODEGEN_EXPR_GEN_H_

#include <string>
#include <vector>

#include "plan/physical.h"
#include "sql/bound.h"

namespace hique::codegen {

/// C rendering of a literal (e.g. "42", "42LL", "1.5e0"; CHAR literals
/// render as escaped C string literals for memcmp).
std::string LiteralToC(const Value& v);

/// C string literal with escapes, e.g. "BUILDING  " -> "\"BUILDING  \"".
std::string CStringLiteral(const std::string& s);

/// Typed field access on a record pointer: `(*(const int32_t*)(rec + 16))`.
/// CHAR fields render as `((const char*)(rec + 16))`.
std::string FieldAccess(const std::string& rec, uint32_t offset, Type type);

/// Runtime load of hoisted-constant slot `slot` from the execution context's
/// parameter block, e.g. `(int32_t)ctx->params->ints[2]` or
/// `(ctx->params->chars + 16)` for CHAR payloads. Only valid inside
/// generated functions whose `ctx` names the HqQueryCtx pointer (every
/// operator function).
std::string ParamRef(const plan::ParamTable& params, int slot);

/// Condition text for a filter applied to a base-table tuple `rec` whose
/// layout is the table schema. When `params` is non-null and the filter's
/// literal carries a param slot, the literal is loaded from the runtime
/// parameter block instead of being inlined.
std::string FilterCondition(const std::string& rec, const Schema& schema,
                            const sql::Filter& filter,
                            const plan::ParamTable* params = nullptr);

/// C expression computing a bound scalar over a record with the given
/// layout. All referenced columns must resolve in `layout`. Literals with
/// param slots load from the runtime parameter block when `params` is set.
std::string ScalarToC(const std::string& rec, const plan::RecordLayout& layout,
                      const sql::ScalarExpr& expr,
                      const plan::ParamTable* params = nullptr);

/// Three-way comparison text between two same-typed fields of two records:
/// appends statements to `out` that compare and `return -1/1` on inequality.
/// Used to build record comparators.
void AppendFieldCompare(std::string* out, const std::string& a,
                        const std::string& b, uint32_t offset, Type type,
                        bool desc, const std::string& indent);

/// Equality condition between same-typed fields of two records.
std::string FieldEquals(const std::string& a, const std::string& b,
                        uint32_t offset, Type type);

/// Batched bitmap selection costs a separate predicate pass plus a set-bit
/// walk per block; when nearly every tuple survives the filters, that is
/// pure overhead over the fused tuple-at-a-time loop. Above this estimated
/// combined selectivity a scan keeps the fused loop.
constexpr double kBatchedSelectMaxSelectivity = 0.7;

/// The one batching rule: true iff a base-table scan with `filters` runs
/// the bitmap-block loop over an EmitPredicateKernel kernel instead of the
/// paper's Listing-1 tuple-at-a-time loop. That holds when there are
/// filters, `filter_selectivity <= kBatchedSelectMaxSelectivity`, and the
/// leading conjunct lowers to 64-bit lanes — a CHAR-led conjunction gains
/// nothing from a bitmap but an extra pass. The inputs are catalogue
/// statistics and the plan, never runtime data, so generated source stays
/// identical across hosts and HQ_SIMD settings.
bool BatchedScan(const Schema& schema, const std::vector<sql::Filter>& filters,
                 double filter_selectivity,
                 const plan::ParamTable* params = nullptr);

/// Emits a selection-bitmap kernel for a conjunction of filters over
/// base-table tuples, for scans where BatchedScan holds:
///
///   static uint64_t <name>(HqQueryCtx* ctx, const uint8_t* tup, uint32_t n)
///
/// returns bit i set iff tuple `tup + i*TupleSize()` (i < n <=
/// HQ_SIMD_BLOCK) passes every filter. Two versions are emitted:
/// `<name>_avx2`, a vector-extension body under a per-function target
/// attribute, guarded by HQ_SIMD_X86 so the SAME source compiles on any
/// host, and `<name>` itself, which calls `_avx2` when the load-time
/// `hq_simd_level` is HQ_SIMD_AVX2 and otherwise runs a portable
/// tuple-at-a-time body. The leading run of lane-mappable conjuncts
/// evaluates four tuples per step through 64-bit lanes whose C arithmetic
/// conversions match the scalar condition exactly (int lanes sign-extend;
/// double lanes apply the same promotions), so the bitmap is bit-identical
/// across versions. The remaining conjuncts (CHAR memcmp, column-vs-column)
/// refine the surviving bits with the exact scalar condition.
void EmitPredicateKernel(std::string* out, const std::string& name,
                         const Schema& schema,
                         const std::vector<sql::Filter>& filters,
                         const plan::ParamTable* params = nullptr);

}  // namespace hique::codegen

#endif  // HIQUE_CODEGEN_EXPR_GEN_H_
