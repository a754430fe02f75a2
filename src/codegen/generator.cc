#include "codegen/generator.h"

#include <algorithm>
#include <sstream>

#include "codegen/abi_embed.h"
#include "codegen/expr_gen.h"
#include "util/cache_info.h"
#include "util/macros.h"

namespace hique::codegen {
namespace {

using plan::AggAlgo;
using plan::AggOp;
using plan::JoinAlgo;
using plan::JoinOp;
using plan::OutputOp;
using plan::RecordLayout;
using plan::StageAction;
using plan::StageOp;
using plan::StreamInfo;
using sql::AggFunc;

std::string S(int64_t v) { return std::to_string(v); }
std::string S(uint64_t v) { return std::to_string(v); }
std::string S(uint32_t v) { return std::to_string(v); }
std::string S(int v) { return std::to_string(v); }

bool IsPow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Generates the query-specific source file by instantiating the holistic
/// templates for each operator descriptor (paper Fig. 3).
class Generator {
 public:
  explicit Generator(const plan::PhysicalPlan& plan) : plan_(plan) {}

  Result<GeneratedQuery> Run() {
    Emit("// Generated by HIQUE, the Holistic Integrated Query Engine.");
    Emit("// One function per staged input / operator; composed by");
    Emit("// hique_query_main at the bottom (paper ICDE'10, Fig. 3).");
    Emit(kAbiHeaderSource);
    Emit("");

    for (size_t k = 0; k < plan_.ops.size(); ++k) {
      const plan::Op& op = plan_.ops[k];
      if (const auto* stage = std::get_if<StageOp>(&op)) {
        HQ_RETURN_IF_ERROR(EmitStage(static_cast<int>(k), *stage));
      } else if (const auto* join = std::get_if<JoinOp>(&op)) {
        HQ_RETURN_IF_ERROR(EmitJoin(static_cast<int>(k), *join));
      } else if (const auto* agg = std::get_if<AggOp>(&op)) {
        HQ_RETURN_IF_ERROR(EmitAgg(static_cast<int>(k), *agg));
      } else if (const auto* output = std::get_if<OutputOp>(&op)) {
        HQ_RETURN_IF_ERROR(EmitOutput(static_cast<int>(k), *output));
      }
    }
    EmitMain();
    GeneratedQuery result;
    result.source = std::move(out_);
    return result;
  }

 private:
  // ---- low-level emission helpers -------------------------------------

  void Emit(const std::string& line) {
    out_ += line;
    out_ += '\n';
  }

  const StreamInfo& Stream(int id) const { return plan_.streams[id]; }
  std::string StreamVar(int id) const { return "s" + S(id); }

  static std::string RecAt(const std::string& data, const std::string& idx,
                           uint32_t rec_size) {
    return data + " + (uint64_t)(" + idx + ") * " + S(rec_size);
  }

  /// Emits `static inline int NAME(const uint8_t* a, const uint8_t* b)`
  /// comparing the given (offset, type, desc) keys.
  void EmitComparator(const std::string& name, const RecordLayout& layout,
                      const std::vector<int>& key_fields,
                      const std::vector<bool>& desc) {
    Emit("static inline int " + name +
         "(const uint8_t* a, const uint8_t* b) {");
    for (size_t i = 0; i < key_fields.size(); ++i) {
      int f = key_fields[i];
      AppendFieldCompare(&out_, "a", "b", layout.OffsetOf(f),
                         layout.fields[f].type,
                         i < desc.size() ? desc[i] : false, "  ");
    }
    Emit("  return 0;");
    Emit("}");
    Emit("");
  }

  /// Emits an in-place record quicksort `static void NAME(uint8_t*, int64_t)`
  /// (median-of-three, insertion sort below 24, explicit stack with the
  /// larger side pushed so depth stays logarithmic).
  void EmitRecordSort(const std::string& name, uint32_t rec,
                      const std::string& cmp) {
    std::string R = S(rec);
    auto at = [&](const std::string& i) { return "base + (" + i + ") * " + R; };
    Emit("static void " + name + "(uint8_t* base, int64_t n) {");
    Emit("  if (n < 2) return;");
    Emit("  uint8_t tmp[" + R + "]; uint8_t pivot[" + R + "];");
    Emit("  int64_t stk[128][2]; int sp = 0;");
    Emit("  int64_t lo = 0, hi = n - 1;");
    Emit("  for (;;) {");
    Emit("    if (hi - lo < 24) {");
    Emit("      for (int64_t x = lo + 1; x <= hi; ++x) {");
    Emit("        memcpy(tmp, " + at("x") + ", " + R + ");");
    Emit("        int64_t y = x - 1;");
    Emit("        while (y >= lo && " + cmp + "(" + at("y") + ", tmp) > 0) {");
    Emit("          memcpy(" + at("y + 1") + ", " + at("y") + ", " + R + ");");
    Emit("          --y;");
    Emit("        }");
    Emit("        memcpy(" + at("y + 1") + ", tmp, " + R + ");");
    Emit("      }");
    Emit("      if (sp == 0) break;");
    Emit("      --sp; lo = stk[sp][0]; hi = stk[sp][1];");
    Emit("      continue;");
    Emit("    }");
    Emit("    int64_t mid = lo + ((hi - lo) >> 1);");
    // Median-of-three: order lo, mid, hi and leave the median at mid.
    auto swap = [&](const std::string& x, const std::string& y) {
      Emit("      memcpy(tmp, " + at(x) + ", " + R + ");");
      Emit("      memcpy(" + at(x) + ", " + at(y) + ", " + R + ");");
      Emit("      memcpy(" + at(y) + ", tmp, " + R + ");");
    };
    Emit("    if (" + cmp + "(" + at("mid") + ", " + at("lo") + ") < 0) {");
    swap("mid", "lo");
    Emit("    }");
    Emit("    if (" + cmp + "(" + at("hi") + ", " + at("mid") + ") < 0) {");
    swap("hi", "mid");
    Emit("      if (" + cmp + "(" + at("mid") + ", " + at("lo") + ") < 0) {");
    swap("mid", "lo");
    Emit("      }");
    Emit("    }");
    Emit("    memcpy(pivot, " + at("mid") + ", " + R + ");");
    Emit("    int64_t i = lo, j = hi;");
    Emit("    while (i <= j) {");
    Emit("      while (" + cmp + "(" + at("i") + ", pivot) < 0) ++i;");
    Emit("      while (" + cmp + "(" + at("j") + ", pivot) > 0) --j;");
    Emit("      if (i <= j) {");
    Emit("        if (i != j) {");
    Emit("          memcpy(tmp, " + at("i") + ", " + R + ");");
    Emit("          memcpy(" + at("i") + ", " + at("j") + ", " + R + ");");
    Emit("          memcpy(" + at("j") + ", tmp, " + R + ");");
    Emit("        }");
    Emit("        ++i; --j;");
    Emit("      }");
    Emit("    }");
    Emit("    if (j - lo < hi - i) {");
    Emit("      if (i < hi) { stk[sp][0] = i; stk[sp][1] = hi; ++sp; }");
    Emit("      hi = j;");
    Emit("    } else {");
    Emit("      if (lo < j) { stk[sp][0] = lo; stk[sp][1] = j; ++sp; }");
    Emit("      lo = i;");
    Emit("    }");
    Emit("    if (lo >= hi) {");
    Emit("      if (sp == 0) break;");
    Emit("      --sp; lo = stk[sp][0]; hi = stk[sp][1];");
    Emit("    }");
    Emit("  }");
    Emit("}");
    Emit("");
  }

  /// L2-sized quicksort run length for `rec`-byte records (paper §V-B).
  static int64_t SortRunLen(uint32_t rec) {
    uint64_t l2 = HostCacheInfo().l2_bytes;
    return std::max<int64_t>(64, static_cast<int64_t>(l2 / 2 / rec));
  }

  /// Emits the reusable sort-phase task functions: `name_runs` quicksorts
  /// independent L2-sized runs, `name_merge` merges adjacent run pairs of
  /// width `w` into disjoint destination ranges. Both full sorts and the
  /// ORDER BY output pipeline (which stops the cascade early and finishes
  /// with a splitter-partitioned k-way merge) orchestrate these.
  void EmitSortTasks(const std::string& name, const std::string& sort_fn,
                     const std::string& cmp, uint32_t rec, int64_t run) {
    std::string R = S(rec);
    std::string RUN = S(run);
    std::string A = name + "_args";
    Emit("typedef struct {");
    Emit("  uint8_t* src;");
    Emit("  uint8_t* dst;");
    Emit("  int64_t n;");
    Emit("  int64_t w;");
    Emit("  uint32_t nt;");
    Emit("} " + A + ";");
    Emit("");
    Emit("static int32_t " + name +
         "_runs(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, void* argp) {");
    Emit("  " + A + "* A = (" + A + "*)argp; (void)ctx; (void)wk;");
    Emit("  uint64_t runs = ((uint64_t)A->n + " + RUN + " - 1) / " + RUN +
         ";");
    Emit("  uint64_t rb, re;");
    Emit("  hq_task_range(runs, A->nt, t, &rb, &re);");
    Emit("  for (uint64_t r = rb; r < re; ++r) {");
    Emit("    int64_t i = (int64_t)r * " + RUN + ";");
    Emit("    int64_t e = i + " + RUN + " < A->n ? i + " + RUN + " : A->n;");
    Emit("    " + sort_fn + "(A->src + (uint64_t)i * " + R + ", e - i);");
    Emit("  }");
    Emit("  return 0;");
    Emit("}");
    Emit("");
    Emit("static int32_t " + name +
         "_merge(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, void* argp) {");
    Emit("  " + A + "* A = (" + A + "*)argp; (void)ctx; (void)wk;");
    Emit("  int64_t n = A->n, w = A->w;");
    Emit("  uint8_t* src = A->src; uint8_t* dst = A->dst;");
    Emit("  uint64_t pairs = ((uint64_t)n + 2 * w - 1) / (uint64_t)(2 * w);");
    Emit("  uint64_t jb, je;");
    Emit("  hq_task_range(pairs, A->nt, t, &jb, &je);");
    Emit("  for (uint64_t j = jb; j < je; ++j) {");
    Emit("    int64_t i = (int64_t)j * 2 * w;");
    Emit("    int64_t m = i + w < n ? i + w : n;");
    Emit("    int64_t e = i + 2 * w < n ? i + 2 * w : n;");
    Emit("    int64_t a = i, b = m, o = i;");
    Emit("    while (a < m && b < e) {");
    Emit("      if (" + cmp + "(src + (uint64_t)a * " + R +
         ", src + (uint64_t)b * " + R + ") <= 0) {");
    Emit("        memcpy(dst + (uint64_t)o * " + R +
         ", src + (uint64_t)a * " + R + ", " + R + "); ++a;");
    Emit("      } else {");
    Emit("        memcpy(dst + (uint64_t)o * " + R +
         ", src + (uint64_t)b * " + R + ", " + R + "); ++b;");
    Emit("      }");
    Emit("      ++o;");
    Emit("    }");
    Emit("    if (a < m) memcpy(dst + (uint64_t)o * " + R +
         ", src + (uint64_t)a * " + R + ", (uint64_t)(m - a) * " + R + ");");
    Emit("    else if (b < e) memcpy(dst + (uint64_t)o * " + R +
         ", src + (uint64_t)b * " + R + ", (uint64_t)(e - b) * " + R + ");");
    Emit("  }");
    Emit("  return 0;");
    Emit("}");
    Emit("");
  }

  /// Full sort: quicksort L2/2-sized runs, then bottom-up two-way merging
  /// (paper §V-B "Input staging": quicksort over L2-cache-fitting partitions
  /// and then merging them). Both phases are partition-parallel: every run
  /// sort is independent, and within one merge level every pair merge
  /// writes a disjoint destination range. The level barrier between merge
  /// rounds is a hq_parallel_for join.
  void EmitFullSort(const std::string& name, const std::string& sort_fn,
                    const std::string& cmp, uint32_t rec) {
    int64_t run = SortRunLen(rec);
    std::string R = S(rec);
    std::string RUN = S(run);
    std::string A = name + "_args";
    EmitSortTasks(name, sort_fn, cmp, rec, run);
    Emit("static int " + name + "(HqQueryCtx* ctx, HqStream* s) {");
    Emit("  const int64_t run = " + RUN + ";");
    Emit("  int64_t n = s->n;");
    Emit("  if (n < 2) return 0;");
    Emit("  " + A + " A;");
    Emit("  A.src = s->data; A.dst = 0; A.n = n; A.w = 0;");
    Emit("  A.nt = hq_task_count(((uint64_t)n + run - 1) / run, 1, "
         "HQ_PAR_MAX_TASKS);");
    Emit("  if (hq_parallel_for(ctx, A.nt, " + name +
         "_runs, &A) != HQ_OK) return -1;");
    Emit("  if (n <= run) return 0;");
    Emit("  uint8_t* buf = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)n * " +
         R + ");");
    Emit("  if (!buf) { ctx->error = HQ_ERR_OOM; return -1; }");
    Emit("  A.dst = buf;");
    Emit("  for (int64_t w = run; w < n; w *= 2) {");
    Emit("    A.w = w;");
    Emit("    A.nt = hq_task_count(((uint64_t)n + 2 * w - 1) / "
         "(uint64_t)(2 * w), 1, HQ_PAR_MAX_TASKS);");
    Emit("    if (hq_parallel_for(ctx, A.nt, " + name +
         "_merge, &A) != HQ_OK) return -1;");
    Emit("    uint8_t* tmpp = A.src; A.src = A.dst; A.dst = tmpp;");
    Emit("  }");
    Emit("  s->data = A.src;");
    Emit("  return 0;");
    Emit("}");
    Emit("");
  }

  // ---- staging (paper Listing 1 + §V-B "Input staging") ----------------

  /// Base-table staging tasks: a count pass sizes the output exactly, a
  /// fill pass scatters each page range to its prefix-summed offset. Both
  /// run partition-parallel over fixed page chunks; the record order of
  /// the staged buffer is the serial scan order regardless of threads.
  void EmitBaseStageTasks(int k, const StageOp& op, uint32_t rec) {
    int t = Stream(op.input_stream).base_table_index;
    const Schema& schema = plan_.query->tables[t]->schema();
    std::string A = "op" + S(k) + "_stage_args";
    std::string R = S(rec);
    Emit("typedef struct {");
    Emit("  const HqTableRef* T;");
    Emit("  uint8_t* buf;");
    Emit("  int64_t* counts;");
    Emit("  int64_t* offs;");
    Emit("  uint32_t nt;");
    Emit("} " + A + ";");
    Emit("");
    Emit("static int32_t op" + S(k) +
         "_stage_count(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
         "void* argp) {");
    Emit("  " + A + "* A = (" + A + "*)argp; (void)ctx; (void)wk;");
    Emit("  uint64_t pb, pe;");
    Emit("  hq_task_range(A->T->page_count, A->nt, t, &pb, &pe);");
    Emit("  int64_t n = 0;");
    const bool batched = BatchedScan(schema, op.filters, op.filter_selectivity,
                                     &plan_.params);
    const std::string TS = S(schema.TupleSize());
    if (op.input_codec.enabled && !op.filters.empty()) {
      // Compressed input: the count pass must decode the filter columns.
      // Without filters the page header alone counts, handled below.
      Emit("  const HqTableRef* T = A->T;");
      EmitCompressedScan(k, schema.TupleSize(), "pb", "pe", "",
                         /*prefetch=*/batched, [&] {
        if (batched) {
          Emit("      n += __builtin_popcountll(op" + S(k) +
               "_pred(ctx, dbuf, bn));");
          return;
        }
        Emit("      for (uint32_t bi = 0; bi < bn; ++bi) {");
        Emit("        const uint8_t* tup = dbuf + (uint64_t)bi * " + TS +
             ";");
        for (const auto& f : op.filters) {
          Emit("        if (!" +
               FilterCondition("tup", schema, f, &plan_.params) +
               ") continue;");
        }
        Emit("        ++n;");
        Emit("      }");
      });
    } else {
    Emit("  for (uint64_t p = pb; p < pe; ++p) {");
    Emit("    const uint8_t* page = A->T->pages[p];");
    Emit("    uint32_t nt = *(const uint32_t*)page;");
    if (op.filters.empty()) {
      Emit("    n += nt;");
    } else if (batched) {
      Emit("    const uint8_t* tup = page + HQ_PAGE_HEADER;");
      Emit("    // one popcount per selection-bitmap block");
      EmitNextPagePrefetch("A->T->pages", "p", "pe", "    ");
      Emit("    for (uint32_t ti = 0; ti < nt; ) {");
      Emit("      uint32_t bn = nt - ti < HQ_SIMD_BLOCK ? nt - ti : "
           "HQ_SIMD_BLOCK;");
      Emit("      n += __builtin_popcountll(op" + S(k) +
           "_pred(ctx, tup, bn));");
      Emit("      ti += bn; tup += (uint64_t)bn * " + TS + ";");
      Emit("    }");
    } else {
      Emit("    const uint8_t* tup = page + HQ_PAGE_HEADER;");
      Emit("    for (uint32_t ti = 0; ti < nt; ++ti, tup += " + TS + ") {");
      for (const auto& f : op.filters) {
        Emit("      if (!" + FilterCondition("tup", schema, f, &plan_.params) +
             ") continue;");
      }
      Emit("      ++n;");
      Emit("    }");
    }
    Emit("  }");
    }
    Emit("  A->counts[t] = n;");
    Emit("  return 0;");
    Emit("}");
    Emit("");
    Emit("static int32_t op" + S(k) +
         "_stage_fill(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
         "void* argp) {");
    Emit("  " + A + "* A = (" + A + "*)argp; (void)ctx;");
    Emit("  const HqTableRef* T = A->T;");
    Emit("  uint64_t pb, pe;");
    Emit("  hq_task_range(T->page_count, A->nt, t, &pb, &pe);");
    Emit("  uint8_t* dst = A->buf + (uint64_t)A->offs[t] * " + R + ";");
    EmitScanSelectLoop(k, op, "wk->pages_touched");
    Emit("  return 0;");
    Emit("}");
    Emit("");
  }

  /// Prefetches a page two iterations ahead of the batched scan loops.
  /// Table pages are separate 4 KB allocations, so the hardware stream
  /// prefetcher resets at every page boundary; touching the first 1 KB of
  /// page p+2 (one line per 256 B — the adjacent-line prefetcher pairs
  /// them) re-trains the stream early without flooding the load ports
  /// (prefetching the whole page measurably hurts). Only batched loops do
  /// this — unbatched scans keep the paper's plain loop.
  void EmitNextPagePrefetch(const std::string& pages, const std::string& p,
                            const std::string& pe, const std::string& ind) {
    Emit(ind + "if (" + p + " + 2 < " + pe + ") {");
    Emit(ind + "  const uint8_t* np_ = " + pages + "[" + p + " + 2];");
    Emit(ind + "  for (uint32_t pf_ = 0; pf_ < 1024u; pf_ += 256) "
               "HQ_PREFETCH_R(np_ + pf_);");
    Emit(ind + "}");
  }

  // ---- compressed-page fused decode (storage/compress.h) ---------------

  /// Segment byte count of one column in a page of `nt` tuples, as a C
  /// expression over the runtime `nt`. Must mirror SegmentBytes in
  /// storage/compress.cc exactly — the encoder and these generated decoders
  /// are the two views of the same layout.
  static std::string SegBytesExpr(const ColumnCodec& cc, uint32_t width) {
    switch (cc.enc) {
      case ColEncoding::kRaw:
        return "(uint64_t)nt * " + S(width);
      case ColEncoding::kFOR:
      case ColEncoding::kDict:
        if (cc.bits == 0) return "0";
        return "((uint64_t)nt * " + S(cc.bits) + " + 7) / 8";
      case ColEncoding::kDelta:
        if (cc.bits == 0) return "8";
        return "8 + (nt > 1 ? ((uint64_t)(nt - 1) * " + S(cc.bits) +
               " + 7) / 8 : 0)";
    }
    return "0";
  }

  static uint64_t BitsMask(uint32_t bits) {
    return bits == 0 ? 0 : (~0ull >> (64 - bits));
  }

  /// Emits op<k>_decst / op<k>_dec_init / op<k>_dec: the fused decode
  /// kernels for a compressed base-table scan. Every layout parameter is a
  /// compile-time constant baked from the plan's codec (which the plan
  /// signature carries), so generated source stays host-independent. Only
  /// `needed` columns are decoded — untouched columns' segments are never
  /// read, which is the point of the columnar page layout. The decoders
  /// have one version: every HQ_SIMD setting runs the identical decode
  /// into the block buffer, so compressed results are bit-identical across
  /// settings by construction.
  void EmitDecodeHelpers(int k, const TableCodec& tc, const Schema& schema,
                         const std::vector<char>& needed) {
    const std::string ST = "op" + S(k) + "_decst";
    const std::string TS = S(schema.TupleSize());
    Emit("// fused decode state for op" + S(k) +
         "'s compressed base input: per-column segment");
    Emit("// pointers plus the running value of each delta column (blocks "
         "are decoded");
    Emit("// in ascending order within a page, so the carry makes delta "
         "decode O(n))");
    Emit("typedef struct {");
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      if (!needed[c]) continue;
      Emit("  const uint8_t* seg" + S(c) + ";");
      if (tc.cols[c].enc == ColEncoding::kDict) {
        Emit("  const uint8_t* dict" + S(c) + ";");
      }
      if (tc.cols[c].enc == ColEncoding::kDelta) {
        Emit("  int64_t carry" + S(c) + ";");
      }
    }
    Emit("} " + ST + ";");
    Emit("");
    Emit("static void op" + S(k) + "_dec_init(" + ST +
         "* st, const uint8_t* page, const HqTableRef* T) {");
    Emit("  uint32_t nt = *(const uint32_t*)page;");
    Emit("  uint64_t off = 0; (void)nt; (void)off; (void)T;");
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      const ColumnCodec& cc = tc.cols[c];
      if (needed[c]) {
        Emit("  st->seg" + S(c) + " = page + HQ_PAGE_HEADER + off;");
        if (cc.enc == ColEncoding::kDict) {
          Emit("  st->dict" + S(c) + " = T->col_dicts[" + S(c) + "];");
        }
        if (cc.enc == ColEncoding::kDelta) {
          Emit("  st->carry" + S(c) + " = 0;");
        }
      }
      if (c + 1 < schema.NumColumns()) {
        Emit("  off += HQ_ALIGN8(" +
             SegBytesExpr(cc, schema.ColumnAt(c).type.ByteSize()) + ");");
      }
    }
    Emit("}");
    Emit("");
    Emit("// decode the needed columns of tuples [ti, ti+bn) into the NSM "
         "block buffer");
    Emit("static void op" + S(k) + "_dec(" + ST +
         "* st, uint32_t ti, uint32_t bn, uint8_t* out) {");
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      if (!needed[c]) continue;
      const ColumnCodec& cc = tc.cols[c];
      const Type& t = schema.ColumnAt(c).type;
      const uint32_t w = t.ByteSize();
      const std::string off = S(schema.OffsetAt(c));
      const std::string seg = "st->seg" + S(c);
      const std::string bits = S(cc.bits);
      const std::string mask = S(BitsMask(cc.bits)) + "ull";
      const std::string ct = w == 8 ? "int64_t" : "int32_t";
      Emit("  { uint8_t* o = out + " + off + ";");
      switch (cc.enc) {
        case ColEncoding::kRaw:
          Emit("    const uint8_t* s = " + seg + " + (uint64_t)ti * " + S(w) +
               ";");
          Emit("    for (uint32_t i = 0; i < bn; ++i, o += " + TS +
               ", s += " + S(w) + ") memcpy(o, s, " + S(w) + "); }");
          break;
        case ColEncoding::kFOR:
          if (cc.bits == 0) {
            Emit("    for (uint32_t i = 0; i < bn; ++i, o += " + TS +
                 ") *(" + ct + "*)o = (" + ct + ")(" + S(cc.base) + "LL); }");
          } else {
            Emit("    for (uint32_t i = 0; i < bn; ++i, o += " + TS + ") {");
            Emit("      uint64_t u = hq_unpack_bits(" + seg +
                 ", (uint64_t)ti + i, " + bits + ", " + mask + ");");
            Emit("      *(" + ct + "*)o = (" + ct + ")(" + S(cc.base) +
                 "LL + (int64_t)u);");
            Emit("    } }");
          }
          break;
        case ColEncoding::kDelta:
          Emit("    int64_t v = st->carry" + S(c) + ";");
          Emit("    for (uint32_t i = 0; i < bn; ++i, o += " + TS + ") {");
          Emit("      uint32_t gi = ti + i;");
          Emit("      if (gi == 0) memcpy(&v, " + seg + ", 8);");
          if (cc.bits != 0) {
            Emit("      else v += (int64_t)hq_unpack_bits(" + seg +
                 " + 8, gi - 1, " + bits + ", " + mask + ");");
          }
          Emit("      *(" + ct + "*)o = (" + ct + ")v;");
          Emit("    }");
          Emit("    st->carry" + S(c) + " = v; }");
          break;
        case ColEncoding::kDict: {
          const std::string len = S(static_cast<uint32_t>(t.length));
          if (cc.bits == 0) {
            Emit("    for (uint32_t i = 0; i < bn; ++i, o += " + TS +
                 ") memcpy(o, st->dict" + S(c) + ", " + len + "); }");
          } else {
            Emit("    for (uint32_t i = 0; i < bn; ++i, o += " + TS + ") {");
            Emit("      uint64_t u = hq_unpack_bits(" + seg +
                 ", (uint64_t)ti + i, " + bits + ", " + mask + ");");
            Emit("      memcpy(o, st->dict" + S(c) + " + u * " + len + ", " +
                 len + ");");
            Emit("    } }");
          }
          break;
        }
      }
    }
    Emit("}");
    Emit("");
  }

  /// Emits the compressed-scan skeleton over pages [pb, pe) of local
  /// variable `T`: per page the decode state is initialized, then 64-tuple
  /// blocks are decoded into a 64-aligned stack buffer (`dbuf`) and
  /// `block_body` is emitted to consume [dbuf, dbuf + bn * tuple_size).
  /// The existing predicate kernels and projection code run over dbuf
  /// unchanged — decode replaces only the "where tuples live" part of the
  /// scan, keeping kernel dispatch and selection-order semantics untouched.
  void EmitCompressedScan(int k, uint32_t tuple_size, const std::string& pb,
                          const std::string& pe,
                          const std::string& pages_counter, bool prefetch,
                          const std::function<void()>& block_body) {
    Emit("  uint8_t dbuf[HQ_SIMD_BLOCK * " + S(tuple_size) +
         "] __attribute__((aligned(64)));");
    Emit("  // loop over pages (compressed: fused block decode)");
    Emit("  for (uint64_t p = " + pb + "; p < " + pe + "; ++p) {");
    Emit("    const uint8_t* page = T->pages[p];");
    if (prefetch) EmitNextPagePrefetch("T->pages", "p", pe, "    ");
    Emit("    uint32_t nt = *(const uint32_t*)page;");
    if (!pages_counter.empty()) Emit("    ++" + pages_counter + ";");
    Emit("    op" + S(k) + "_decst ds; op" + S(k) +
         "_dec_init(&ds, page, T);");
    Emit("    for (uint32_t ti = 0; ti < nt; ) {");
    Emit("      uint32_t bn = nt - ti < HQ_SIMD_BLOCK ? nt - ti : "
         "HQ_SIMD_BLOCK;");
    Emit("      op" + S(k) + "_dec(&ds, ti, bn, dbuf);");
    block_body();
    Emit("      ti += bn;");
    Emit("    }");
    Emit("  }");
  }

  /// Compressed scan over the *tuple* range [ts, te) (locals the caller
  /// emitted): walks the compressed pages covering the range and trims the
  /// first/last decode block to it. `block_body` sees `lo`/`hi` — the
  /// in-range lane bounds of the current block ([0, bn) for interior
  /// blocks). Map aggregation uses this so its task boundaries — and with
  /// them the double-accumulation fold order — are the uncompressed plan's
  /// tuple boundaries, not the (denser) compressed page boundaries:
  /// results stay bit-identical to NSM execution at every task count.
  void EmitCompressedScanTupleRange(int k, uint32_t tuple_size,
                                    const TableCodec& tc,
                                    const std::string& pages_counter,
                                    bool prefetch,
                                    const std::function<void()>& block_body) {
    const std::string CTPP = S(tc.tuples_per_cpage);
    Emit("  uint8_t dbuf[HQ_SIMD_BLOCK * " + S(tuple_size) +
         "] __attribute__((aligned(64)));");
    Emit("  uint64_t cpb = ts / " + CTPP + ";");
    Emit("  uint64_t cpe = (te + " + CTPP + " - 1) / " + CTPP + ";");
    Emit("  // loop over pages (compressed: fused block decode)");
    Emit("  for (uint64_t p = cpb; ts < te && p < cpe; ++p) {");
    Emit("    const uint8_t* page = T->pages[p];");
    if (prefetch) EmitNextPagePrefetch("T->pages", "p", "cpe", "    ");
    Emit("    uint32_t nt = *(const uint32_t*)page;");
    if (!pages_counter.empty()) Emit("    ++" + pages_counter + ";");
    Emit("    uint64_t pbase = p * " + CTPP + ";");
    Emit("    uint32_t ls = ts > pbase ? (uint32_t)(ts - pbase) : 0;");
    Emit("    uint32_t le = te - pbase < nt ? (uint32_t)(te - pbase) : nt;");
    Emit("    op" + S(k) + "_decst ds; op" + S(k) +
         "_dec_init(&ds, page, T);");
    Emit("    uint32_t ti = 0;");
    // Delta decoding is a running prefix sum: blocks before the range must
    // still be decoded (into the scratch buffer) to advance the carries.
    Emit("    for (; ti + HQ_SIMD_BLOCK <= ls; ti += HQ_SIMD_BLOCK)");
    Emit("      op" + S(k) + "_dec(&ds, ti, HQ_SIMD_BLOCK, dbuf);");
    Emit("    for (; ti < le; ) {");
    Emit("      uint32_t bn = nt - ti < HQ_SIMD_BLOCK ? nt - ti : "
         "HQ_SIMD_BLOCK;");
    Emit("      op" + S(k) + "_dec(&ds, ti, bn, dbuf);");
    Emit("      uint32_t lo = ls > ti ? ls - ti : 0;");
    Emit("      uint32_t hi = le - ti < bn ? le - ti : bn;");
    block_body();
    Emit("      ti += bn;");
    Emit("    }");
    Emit("  }");
  }

  /// EmitScanSelectLoop for a compressed base input: the same batching rule
  /// and the same projection code, but the loop walks decoded 64-tuple
  /// blocks instead of raw page bytes.
  void EmitScanSelectLoopCompressed(int k, const StageOp& op,
                                    const std::string& pages_counter) {
    int t = Stream(op.input_stream).base_table_index;
    const Schema& schema = plan_.query->tables[t]->schema();
    std::string R = S(op.output.record_size);
    std::string TS = S(schema.TupleSize());
    auto emit_project = [&](const std::string& rec, const std::string& ind) {
      const RecordLayout& out_layout = op.output;
      for (size_t i = 0; i < out_layout.fields.size(); ++i) {
        const auto& f = out_layout.fields[i];
        uint32_t src_off = schema.OffsetAt(f.source.column);
        uint32_t dst_off = out_layout.OffsetOf(static_cast<int>(i));
        Emit(ind + "memcpy(dst + " + S(dst_off) + ", " + rec + " + " +
             S(src_off) + ", " + S(f.type.ByteSize()) + ");");
      }
      Emit(ind + "dst += " + R + ";");
    };
    const bool batched = BatchedScan(schema, op.filters, op.filter_selectivity,
                                     &plan_.params);
    if (batched) {
      Emit("  // batched select over fused-decoded blocks");
      EmitCompressedScan(k, schema.TupleSize(), "pb", "pe", pages_counter,
                         /*prefetch=*/true, [&] {
        Emit("      uint64_t bm = op" + S(k) + "_pred(ctx, dbuf, bn);");
        Emit("      while (bm) {");
        Emit("        uint32_t bi = (uint32_t)__builtin_ctzll(bm);");
        Emit("        bm &= bm - 1;");
        Emit("        const uint8_t* rtup = dbuf + (uint64_t)bi * " + TS +
             ";");
        emit_project("rtup", "        ");
        Emit("      }");
      });
      return;
    }
    Emit("  // loop over fused-decoded blocks");
    EmitCompressedScan(k, schema.TupleSize(), "pb", "pe", pages_counter,
                       /*prefetch=*/false, [&] {
      Emit("      for (uint32_t bi = 0; bi < bn; ++bi) {");
      Emit("        const uint8_t* tup = dbuf + (uint64_t)bi * " + TS + ";");
      for (const auto& f : op.filters) {
        Emit("        if (!" +
             FilterCondition("tup", schema, f, &plan_.params) +
             ") continue;");
      }
      emit_project("tup", "        ");
      Emit("      }");
    });
  }

  /// The Listing-1 scan-select-project loop over pages [pb, pe) of `T`,
  /// writing staged records at the (pre-positioned) `dst` cursor. Shared
  /// by the parallel fill task and the serial single-pass fast path. A
  /// batched scan (BatchedScan) evaluates the predicate kernel per block
  /// and projects survivors by iterating set bits; any other scan is the
  /// paper's tuple-at-a-time loop. A compressed base input swaps in the
  /// fused-decode block loop.
  void EmitScanSelectLoop(int k, const StageOp& op,
                          const std::string& pages_counter) {
    if (op.input_codec.enabled) {
      EmitScanSelectLoopCompressed(k, op, pages_counter);
      return;
    }
    int t = Stream(op.input_stream).base_table_index;
    const Schema& schema = plan_.query->tables[t]->schema();
    std::string R = S(op.output.record_size);
    std::string TS = S(schema.TupleSize());
    // Project: copy each kept field from the schema offset to the staged
    // offset.
    auto emit_project = [&](const std::string& rec, const std::string& ind) {
      const RecordLayout& out_layout = op.output;
      for (size_t i = 0; i < out_layout.fields.size(); ++i) {
        const auto& f = out_layout.fields[i];
        uint32_t src_off = schema.OffsetAt(f.source.column);
        uint32_t dst_off = out_layout.OffsetOf(static_cast<int>(i));
        Emit(ind + "memcpy(dst + " + S(dst_off) + ", " + rec + " + " +
             S(src_off) + ", " + S(f.type.ByteSize()) + ");");
      }
      Emit(ind + "dst += " + R + ";");
    };
    const bool batched = BatchedScan(schema, op.filters, op.filter_selectivity,
                                     &plan_.params);
    if (batched) {
      Emit("  // loop over pages: bitmap per block, then project survivors");
      Emit("  for (uint64_t p = pb; p < pe; ++p) {");
      Emit("    const uint8_t* page = T->pages[p];");
      EmitNextPagePrefetch("T->pages", "p", "pe", "    ");
      Emit("    uint32_t nt = *(const uint32_t*)page;");
      Emit("    const uint8_t* tup = page + HQ_PAGE_HEADER;");
      Emit("    ++" + pages_counter + ";");
      Emit("    for (uint32_t ti = 0; ti < nt; ) {");
      Emit("      uint32_t bn = nt - ti < HQ_SIMD_BLOCK ? nt - ti : "
           "HQ_SIMD_BLOCK;");
      Emit("      uint64_t bm = op" + S(k) + "_pred(ctx, tup, bn);");
      Emit("      while (bm) {");
      Emit("        uint32_t bi = (uint32_t)__builtin_ctzll(bm);");
      Emit("        bm &= bm - 1;");
      Emit("        const uint8_t* rtup = tup + (uint64_t)bi * " + TS + ";");
      emit_project("rtup", "        ");
      Emit("      }");
      Emit("      ti += bn; tup += (uint64_t)bn * " + TS + ";");
      Emit("    }");
      Emit("  }");
      return;
    }
    Emit("  // loop over pages");
    Emit("  for (uint64_t p = pb; p < pe; ++p) {");
    Emit("    const uint8_t* page = T->pages[p];");
    Emit("    uint32_t nt = *(const uint32_t*)page;");
    Emit("    const uint8_t* tup = page + HQ_PAGE_HEADER;");
    Emit("    ++" + pages_counter + ";");
    Emit("    // loop over tuples");
    Emit("    for (uint32_t ti = 0; ti < nt; ++ti, tup += " + TS + ") {");
    for (const auto& f : op.filters) {
      Emit("      if (!" + FilterCondition("tup", schema, f, &plan_.params) +
           ") continue;");
    }
    emit_project("tup", "      ");
    Emit("    }");
    Emit("  }");
  }

  Status EmitStage(int k, const StageOp& op) {
    const StreamInfo& in = Stream(op.input_stream);
    const RecordLayout& out_layout = op.output;
    uint32_t rec = out_layout.record_size;
    std::string fn = "op" + S(k) + "_stage";

    // Comparator + sorters as needed.
    if (op.action == StageAction::kSort) {
      EmitComparator("cmp_op" + S(k), out_layout, op.key_fields, {});
      EmitRecordSort("sortrec_op" + S(k), rec, "cmp_op" + S(k));
      EmitFullSort("fullsort_op" + S(k), "sortrec_op" + S(k), "cmp_op" + S(k),
                   rec);
    }
    if (op.action == StageAction::kPartition ||
        op.action == StageAction::kPartitionFine) {
      EmitPartitionTasks(k, op, out_layout);
    }

    bool base = in.is_base_table;
    if (base && op.input_codec.enabled) {
      // Needed columns: filter inputs plus projected fields. Everything
      // else stays encoded on the page.
      const Schema& schema = plan_.query->tables[in.base_table_index]->schema();
      std::vector<char> needed(schema.NumColumns(), 0);
      for (const auto& f : op.filters) {
        needed[f.column.column] = 1;
        if (f.rhs_is_column) needed[f.rhs_column.column] = 1;
      }
      for (const auto& f : op.output.fields) needed[f.source.column] = 1;
      EmitDecodeHelpers(k, op.input_codec, schema, needed);
    }
    if (base) {
      const Schema& schema = plan_.query->tables[in.base_table_index]->schema();
      if (BatchedScan(schema, op.filters, op.filter_selectivity,
                      &plan_.params)) {
        EmitPredicateKernel(&out_, "op" + S(k) + "_pred", schema, op.filters,
                            &plan_.params);
      }
    }
    if (base) EmitBaseStageTasks(k, op, rec);
    Emit("// op" + S(k) + ": stage stream " + S(op.input_stream) +
         (base ? " (base table scan-select, Listing 1)" : " (intermediate)"));
    if (base) {
      int t = in.base_table_index;
      std::string A = "op" + S(k) + "_stage_args";
      Emit("static int " + fn + "(HqQueryCtx* ctx, HqStream* out) {");
      Emit("  " + A + " A;");
      Emit("  A.T = &ctx->inputs[" + S(t) + "];");
      Emit("  if (ctx->num_workers <= 1) {");
      Emit("  // serial fast path: the seed's single scan-select pass over");
      Emit("  // a tuple_count-bound buffer — no count pass, filters run");
      Emit("  // once. Staged bytes and counters match the parallel plan.");
      Emit("  const HqTableRef* T = A.T;");
      Emit("  uint8_t* buf = (uint8_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)(T->tuple_count ? T->tuple_count : 1) * " + S(rec) +
           ");");
      Emit("  if (!buf) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("  uint64_t pb = 0, pe = T->page_count;");
      Emit("  uint8_t* dst = buf;");
      EmitScanSelectLoop(k, op, "ctx->pages_touched");
      Emit("  out->data = buf; out->n = (int64_t)((dst - buf) / " + S(rec) +
           "); out->rec_size = " + S(rec) + ";");
      Emit("  out->part_begin = 0; out->num_parts = 0;");
      Emit("  } else {");
      Emit("  A.nt = hq_task_count(A.T->page_count, HQ_PAR_PAGE_GRAIN, "
           "HQ_PAR_MAX_TASKS);");
      Emit("  A.counts = (int64_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)A.nt * 8);");
      Emit("  A.offs = (int64_t*)ctx->alloc(ctx->arena, "
           "((uint64_t)A.nt + 1) * 8);");
      Emit("  if (!A.counts || !A.offs) { ctx->error = HQ_ERR_OOM; "
           "return -1; }");
      Emit("  A.buf = 0;");
      Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
           "_stage_count, &A) != HQ_OK) return -1;");
      Emit("  A.offs[0] = 0;");
      Emit("  for (uint32_t t2 = 0; t2 < A.nt; ++t2) "
           "A.offs[t2 + 1] = A.offs[t2] + A.counts[t2];");
      Emit("  int64_t n = A.offs[A.nt];");
      Emit("  A.buf = (uint8_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)(n ? n : 1) * " + S(rec) + ");");
      Emit("  if (!A.buf) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
           "_stage_fill, &A) != HQ_OK) return -1;");
      Emit("  out->data = A.buf; out->n = n; out->rec_size = " + S(rec) +
           ";");
      Emit("  out->part_begin = 0; out->num_parts = 0;");
      Emit("  }");
    } else {
      // Intermediate streams carry identical layouts: alias, then act.
      HQ_CHECK(SameLayout(in.layout, out_layout));
      Emit("static int " + fn +
           "(HqQueryCtx* ctx, const HqStream* in, HqStream* out) {");
      Emit("  *out = *in;");
      Emit("  out->part_begin = 0; out->num_parts = 0;");
    }

    switch (op.action) {
      case StageAction::kNone:
        break;
      case StageAction::kSort:
        Emit("  if (fullsort_op" + S(k) + "(ctx, out) != 0) return -1;");
        break;
      case StageAction::kPartition:
      case StageAction::kPartitionFine:
        EmitPartitionBody(k, op, out_layout);
        break;
    }
    Emit("  return 0;");
    Emit("}");
    Emit("");
    return Status::OK();
  }

  /// Partition-id expression over record pointer `r`, plus the
  /// out-of-domain policy for fine partitioning.
  struct PartitionKey {
    std::string pid;
    bool may_drop = false;
    bool clamp = false;
  };

  PartitionKey PartitionPid(const StageOp& op, const RecordLayout& layout) {
    uint32_t M = op.num_partitions;
    int key = op.key_fields[0];
    Type kt = layout.fields[key].type;
    uint32_t koff = layout.OffsetOf(key);
    PartitionKey pk;
    if (op.action == StageAction::kPartitionFine) {
      // Fine: dense value -> partition map (paper: value-partition map).
      pk.pid = "(int64_t)" + FieldAccess("r", koff, kt) + " - (" +
               S(op.fine_min) + ")";
      pk.may_drop = !op.fine_clamp;
      pk.clamp = op.fine_clamp;
    } else if (kt.id == TypeId::kChar) {
      pk.pid = "(int64_t)(hq_hash_bytes(r + " + S(koff) + ", " +
               S(kt.length) + ") " +
               (IsPow2(M) ? "& " + S(M - 1) : "% " + S(M)) + ")";
    } else {
      pk.pid = "(int64_t)(hq_hash64((uint64_t)" + FieldAccess("r", koff, kt) +
               ") " + (IsPow2(M) ? "& " + S(M - 1) : "% " + S(M)) + ")";
    }
    return pk;
  }

  void EmitPartitionGuard(const PartitionKey& pk, const std::string& ind) {
    if (pk.may_drop) {
      Emit(ind + "if ((uint64_t)p >= M) continue;  // cannot match: drop");
    } else if (pk.clamp) {
      Emit(ind + "if (p < 0) p = 0; else if (p >= (int64_t)M) p = M - 1;");
    }
  }

  /// Partition-id batch kernel for coarse (hash) partitioning:
  /// `op<k>_pids(d, bn, pid)` computes the partition of `bn` consecutive
  /// records. Numeric keys get an `_avx2` version that hashes four records
  /// per step through hq_hash64x4 (lane-identical to hq_hash64, so the
  /// scatter order is bit-identical to the portable body); CHAR keys keep
  /// the byte hash scalar — the batching alone is what enables the
  /// prefetched scatter.
  void EmitPartitionPidKernel(int k, const StageOp& op,
                              const RecordLayout& layout) {
    uint32_t M = op.num_partitions;
    Type kt = layout.fields[op.key_fields[0]].type;
    uint32_t koff = layout.OffsetOf(op.key_fields[0]);
    std::string R = S(layout.record_size);
    std::string name = "op" + S(k) + "_pids";
    std::string sig = "(const uint8_t* d, uint32_t bn, int32_t* pid)";
    PartitionKey pk = PartitionPid(op, layout);

    std::string scalar_body;
    scalar_body += "  for (uint32_t i = 0; i < bn; ++i, d += " + R + ") {\n";
    scalar_body += "    const uint8_t* r = d;\n";
    scalar_body += "    pid[i] = (int32_t)(" + pk.pid + ");\n";
    scalar_body += "  }\n";

    if (kt.id == TypeId::kChar) {
      Emit("static void " + name + sig + " {\n" + scalar_body + "}");
      Emit("");
      return;
    }

    std::string mod = IsPow2(M) ? "h = h & " + S(M - 1) + "ull;"
                                : "h = h % " + S(M) + "ull;";
    std::string vec_body;
    vec_body += "  uint32_t i = 0;\n";
    vec_body += "  for (; i + 4 <= bn; i += 4, d += 4u * " + R + ") {\n";
    vec_body += "    const uint8_t* t0 = d;\n";
    vec_body += "    const uint8_t* t1 = d + " + R + ";\n";
    vec_body += "    const uint8_t* t2 = d + 2u * " + R + ";\n";
    vec_body += "    const uint8_t* t3 = d + 3u * " + R + ";\n";
    vec_body += "    hq_u64x4 h = hq_hash64x4((hq_u64x4){(uint64_t)" +
                FieldAccess("t0", koff, kt) + ", (uint64_t)" +
                FieldAccess("t1", koff, kt) + ", (uint64_t)" +
                FieldAccess("t2", koff, kt) + ", (uint64_t)" +
                FieldAccess("t3", koff, kt) + "});\n";
    vec_body += "    " + mod + "\n";
    vec_body += "    pid[i] = (int32_t)h[0]; pid[i + 1] = (int32_t)h[1];\n";
    vec_body += "    pid[i + 2] = (int32_t)h[2]; pid[i + 3] = (int32_t)h[3];\n";
    vec_body += "  }\n";
    vec_body += "  for (; i < bn; ++i, d += " + R + ") {\n";
    vec_body += "    const uint8_t* r = d;\n";
    vec_body += "    pid[i] = (int32_t)(" + pk.pid + ");\n";
    vec_body += "  }\n";

    Emit("#if HQ_SIMD_X86");
    Emit("__attribute__((target(\"avx2\"))) static void " + name + "_avx2" +
         sig + " {\n" + vec_body + "}");
    Emit("#endif  // HQ_SIMD_X86");
    Emit("static void " + name + sig + " {");
    Emit("#if HQ_SIMD_X86");
    Emit("  if (hq_simd_level == HQ_SIMD_AVX2) { " + name +
         "_avx2(d, bn, pid); return; }");
    Emit("#endif  // HQ_SIMD_X86");
    Emit(scalar_body + "}");
    Emit("");
  }

  /// Parallel two-pass scatter partitioning: per-task histogram over a
  /// record chunk, one global (partition, task) prefix sum, then a scatter
  /// where every task owns a private cursor row — the classic parallel
  /// radix partition. Record order within each partition equals the serial
  /// scatter order, so partitioned streams are thread-count-invariant.
  /// Coarse partitioning computes partition ids a block at a time
  /// (op<k>_pids, vectorized hashing), and the scatter prefetches each
  /// destination line a few records ahead — the M write cursors land in
  /// random frames, the dominant DRAM cost of this pass (Table I). Fine
  /// partitioning keeps the per-record loop with its domain guard.
  void EmitPartitionTasks(int k, const StageOp& op,
                          const RecordLayout& layout) {
    uint32_t rec = layout.record_size;
    uint32_t M = op.num_partitions;
    std::string R = S(rec);
    std::string A = "op" + S(k) + "_part_args";
    PartitionKey pk = PartitionPid(op, layout);
    bool batched = op.action == StageAction::kPartition;
    if (batched) EmitPartitionPidKernel(k, op, layout);
    // Prefetch distance: far enough that the line arrives before the
    // store, near enough to stay in this block — wider records need fewer
    // in-flight lines.
    int pf = 512 / static_cast<int>(rec == 0 ? 1 : rec);
    if (pf < 4) pf = 4;
    if (pf > 16) pf = 16;

    Emit("typedef struct {");
    Emit("  uint8_t* d;");
    Emit("  uint8_t* buf2;");
    Emit("  int64_t n;");
    Emit("  int64_t* cnts;");
    Emit("  uint32_t nt;");
    Emit("} " + A + ";");
    Emit("");
    for (int pass = 0; pass < 2; ++pass) {
      bool count = pass == 0;
      Emit("static int32_t op" + S(k) +
           (count ? "_part_count" : "_part_scatter") +
           "(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, void* argp) {");
      Emit("  " + A + "* A = (" + A + "*)argp; (void)ctx; (void)wk;");
      Emit("  const uint32_t M = " + S(M) + ";");
      Emit("  uint64_t rb, re;");
      Emit("  hq_task_range((uint64_t)A->n, A->nt, t, &rb, &re);");
      Emit("  int64_t* cnt = A->cnts + (uint64_t)t * M;");
      if (batched) {
        Emit("  int32_t pid[HQ_SIMD_BLOCK];");
        Emit("  for (uint64_t i = rb; i < re; ) {");
        Emit("    uint32_t bn = re - i < HQ_SIMD_BLOCK ? (uint32_t)(re - i) "
             ": HQ_SIMD_BLOCK;");
        Emit("    op" + S(k) + "_pids(A->d + i * " + R + ", bn, pid);");
        if (count) {
          Emit("    for (uint32_t j = 0; j < bn; ++j) ++cnt[pid[j]];");
        } else {
          Emit("    for (uint32_t j = 0; j < bn; ++j) {");
          Emit("      if (j + " + S(pf) +
               " < bn) HQ_PREFETCH_W(A->buf2 + (uint64_t)cnt[pid[j + " +
               S(pf) + "]] * " + R + ");");
          Emit("      memcpy(A->buf2 + (uint64_t)cnt[pid[j]] * " + R +
               ", A->d + (i + j) * " + R + ", " + R + ");");
          Emit("      ++cnt[pid[j]];");
          Emit("    }");
        }
        Emit("    i += bn;");
        Emit("  }");
      } else {
        Emit("  for (uint64_t i = rb; i < re; ++i) {");
        Emit("    const uint8_t* r = A->d + i * " + R + ";");
        Emit("    int64_t p = " + pk.pid + ";");
        EmitPartitionGuard(pk, "    ");
        if (!count) {
          Emit("    memcpy(A->buf2 + (uint64_t)cnt[p] * " + R + ", r, " + R +
               ");");
        }
        Emit("    ++cnt[p];");
        Emit("  }");
      }
      Emit("  return 0;");
      Emit("}");
      Emit("");
    }
  }

  /// Orchestration of the parallel partition passes over the staged buffer
  /// held in `out` (emitted inside the stage wrapper).
  void EmitPartitionBody(int k, const StageOp& op,
                         const RecordLayout& layout) {
    uint32_t rec = layout.record_size;
    uint32_t M = op.num_partitions;
    std::string R = S(rec);
    std::string A = "op" + S(k) + "_part_args";

    Emit("  // coarse/fine partitioning: count, prefix-sum, scatter");
    Emit("  {");
    Emit("    const uint32_t M = " + S(M) + ";");
    Emit("    " + A + " A;");
    Emit("    A.d = out->data; A.n = out->n; A.buf2 = 0;");
    Emit("    A.nt = hq_task_count((uint64_t)out->n, HQ_PAR_REC_GRAIN, "
         "HQ_PAR_PART_TASKS);");
    Emit("    int64_t* pb = (int64_t*)ctx->alloc(ctx->arena, "
         "(uint64_t)(M + 1) * 8);");
    Emit("    A.cnts = (int64_t*)ctx->alloc(ctx->arena, "
         "(uint64_t)A.nt * M * 8);");
    Emit("    if (!pb || !A.cnts) { ctx->error = HQ_ERR_OOM; return -1; }");
    Emit("    memset(A.cnts, 0, (uint64_t)A.nt * M * 8);");
    Emit("    if (hq_parallel_for(ctx, A.nt, op" + S(k) +
         "_part_count, &A) != HQ_OK) return -1;");
    Emit("    // (partition, task) prefix: task cursors reproduce the");
    Emit("    // serial scatter order exactly");
    Emit("    int64_t pos = 0;");
    Emit("    for (uint32_t m = 0; m < M; ++m) {");
    Emit("      pb[m] = pos;");
    Emit("      for (uint32_t t2 = 0; t2 < A.nt; ++t2) {");
    Emit("        int64_t c = A.cnts[(uint64_t)t2 * M + m];");
    Emit("        A.cnts[(uint64_t)t2 * M + m] = pos;");
    Emit("        pos += c;");
    Emit("      }");
    Emit("    }");
    Emit("    pb[M] = pos;");
    Emit("    A.buf2 = (uint8_t*)ctx->alloc(ctx->arena, "
         "(uint64_t)(pos ? pos : 1) * " + R + ");");
    Emit("    if (!A.buf2) { ctx->error = HQ_ERR_OOM; return -1; }");
    Emit("    if (hq_parallel_for(ctx, A.nt, op" + S(k) +
         "_part_scatter, &A) != HQ_OK) return -1;");
    Emit("    out->data = A.buf2; out->n = pos;");
    Emit("    out->part_begin = pb; out->num_parts = M;");
    Emit("  }");
  }

  static bool SameLayout(const RecordLayout& a, const RecordLayout& b) {
    if (a.fields.size() != b.fields.size()) return false;
    if (a.record_size != b.record_size) return false;
    for (size_t i = 0; i < a.fields.size(); ++i) {
      if (!(a.fields[i].source == b.fields[i].source)) return false;
      if (a.offsets[i] != b.offsets[i]) return false;
    }
    return true;
  }

  // ---- joins (paper Listing 2: common nested-loops template) -----------

  /// Key access expressions for one join input.
  struct KeyAccess {
    std::string data;   // data pointer variable
    uint32_t rec;       // record size
    uint32_t off;       // key offset
    Type type;
  };

  static std::string KeyExpr(const KeyAccess& ka, const std::string& idx) {
    std::string rec = "(" + ka.data + " + (uint64_t)(" + idx + ") * " +
                      S(ka.rec) + ")";
    return FieldAccess(rec, ka.off, ka.type);
  }
  static std::string KeyPtr(const KeyAccess& ka, const std::string& idx) {
    return "(const char*)(" + ka.data + " + (uint64_t)(" + idx + ") * " +
           S(ka.rec) + " + " + S(ka.off) + ")";
  }

  Status EmitJoin(int k, const JoinOp& op) {
    size_t nin = op.input_streams.size();
    uint32_t orec = op.output.record_size;
    std::string fn = "op" + S(k) + "_join";

    // Detect fine staging: partitions hold a single key value, so the merge
    // degenerates to a pure cross product without sorting (paper §V-B).
    bool fine = false;
    if (op.algo == JoinAlgo::kHybridHashSortMerge) {
      const auto* first_stage = FindProducer(op.input_streams[0]);
      if (first_stage != nullptr &&
          first_stage->action == StageAction::kPartitionFine) {
        fine = true;
      }
    }
    // Per-input JIT sorters for hybrid partitions (paper: hybrid hash-sort-
    // merge join sorts corresponding partitions just before joining them).
    bool need_sort = op.algo == JoinAlgo::kHybridHashSortMerge && !fine;

    std::vector<KeyAccess> keys(nin);
    for (size_t t = 0; t < nin; ++t) {
      const RecordLayout& lay = Stream(op.input_streams[t]).layout;
      keys[t] = {"d" + S(t), lay.record_size,
                 lay.OffsetOf(op.key_fields[t]),
                 lay.fields[op.key_fields[t]].type};
    }

    if (need_sort) {
      for (size_t t = 0; t < nin; ++t) {
        const RecordLayout& lay = Stream(op.input_streams[t]).layout;
        std::string cmp = "cmp_op" + S(k) + "_in" + S(t);
        EmitComparator(cmp, lay, {op.key_fields[t]}, {});
        EmitRecordSort("sortrec_op" + S(k) + "_in" + S(t), lay.record_size,
                       cmp);
      }
    }

    // Scalar-aggregation fusion: a per-task accumulator block updated
    // inside the innermost join loops; the partials are merged in task
    // order after the barrier and the join emits one aggregate record.
    // (This replaces the seed's file-scope static registers, which would
    // race under partition parallelism and carried stale state across
    // re-executions of a cached library.)
    std::string accs_t = "op" + S(k) + "_accs";
    if (op.fuse_scalar_agg) {
      std::vector<AccDecl> fused_accs = BuildAccs(
          op.query->aggs, op.output, op.fused_output, 0, "orec", "", "",
          "grp_n");
      Emit("typedef struct {");
      Emit("  int64_t grp_n = 0;");
      for (const auto& a : fused_accs) Emit("  " + a.decl);
      Emit("} " + accs_t + ";");
      Emit("");
    }

    // The k-way sorted group merge over ranges (binary join is the 2-way
    // case). Signature: data+range per input, then the output vec — or the
    // accumulator block when scalar aggregation is fused.
    std::string range_fn = "op" + S(k) + "_merge_range";
    {
      std::string sig = "static int " + range_fn + "(HqQueryCtx* ctx";
      for (size_t t = 0; t < nin; ++t) {
        sig += ", const uint8_t* d" + S(t) + ", int64_t b" + S(t) +
               ", int64_t e" + S(t);
      }
      sig += op.fuse_scalar_agg ? ", " + accs_t + "* acc) {" : ", HqVec* v) {";
      Emit("// " + std::string(op.algo == JoinAlgo::kMerge
                                   ? "merge join"
                                   : (fine ? "fine-partition join"
                                           : "hybrid hash-sort-merge join")) +
           " over " + S(nin) + " inputs (nested-loops template, Listing 2)" +
           (op.fuse_scalar_agg ? ", scalar aggregation fused" : ""));
      Emit(sig);
      if (op.fuse_scalar_agg) {
        Emit("  uint8_t orec_buf[" + S(op.output.record_size) +
             "]; (void)orec_buf;");
      }
      for (size_t t = 0; t < nin; ++t) {
        Emit("  int64_t i" + S(t) + " = b" + S(t) + ";");
      }
      if (fine) {
        // All tuples in corresponding fine partitions share the key: pure
        // cross product.
        EmitJoinEmitLoops(op, keys, "b", "e");
      } else {
        bool char_key = keys[0].type.id == TypeId::kChar;
        std::string cond;
        for (size_t t = 0; t < nin; ++t) {
          if (t) cond += " && ";
          cond += "i" + S(t) + " < e" + S(t);
        }
        Emit("  while (" + cond + ") {");
        if (char_key) {
          uint16_t len = keys[0].type.length;
          Emit("    const char* m = " + KeyPtr(keys[0], "i0") + ";");
          for (size_t t = 1; t < nin; ++t) {
            Emit("    if (memcmp(" + KeyPtr(keys[t], "i" + S(t)) + ", m, " +
                 S(len) + ") > 0) m = " + KeyPtr(keys[t], "i" + S(t)) + ";");
          }
          for (size_t t = 0; t < nin; ++t) {
            std::string it = "i" + S(t);
            Emit("    while (" + it + " < e" + S(t) + " && memcmp(" +
                 KeyPtr(keys[t], it) + ", m, " + S(len) + ") < 0) ++" + it +
                 ";");
            Emit("    if (" + it + " >= e" + S(t) + ") break;");
          }
          std::string alleq;
          for (size_t t = 0; t < nin; ++t) {
            if (t) alleq += " || ";
            alleq += "memcmp(" + KeyPtr(keys[t], "i" + S(t)) + ", m, " +
                     S(len) + ") != 0";
          }
          Emit("    if (" + alleq + ") continue;");
          for (size_t t = 0; t < nin; ++t) {
            std::string gt = "g" + S(t);
            Emit("    int64_t " + gt + " = i" + S(t) + " + 1;");
            Emit("    while (" + gt + " < e" + S(t) + " && memcmp(" +
                 KeyPtr(keys[t], gt) + ", m, " + S(len) + ") == 0) ++" + gt +
                 ";");
          }
        } else {
          std::string kt = keys[0].type.CType();
          Emit("    " + std::string(kt) + " m = " + KeyExpr(keys[0], "i0") +
               ";");
          for (size_t t = 1; t < nin; ++t) {
            Emit("    if (" + KeyExpr(keys[t], "i" + S(t)) + " > m) m = " +
                 KeyExpr(keys[t], "i" + S(t)) + ";");
          }
          for (size_t t = 0; t < nin; ++t) {
            std::string it = "i" + S(t);
            Emit("    while (" + it + " < e" + S(t) + " && " +
                 KeyExpr(keys[t], it) + " < m) ++" + it + ";");
            Emit("    if (" + it + " >= e" + S(t) + ") break;");
          }
          std::string alleq;
          for (size_t t = 0; t < nin; ++t) {
            if (t) alleq += " || ";
            alleq += KeyExpr(keys[t], "i" + S(t)) + " != m";
          }
          Emit("    if (" + alleq + ") continue;");
          for (size_t t = 0; t < nin; ++t) {
            std::string gt = "g" + S(t);
            Emit("    int64_t " + gt + " = i" + S(t) + " + 1;");
            Emit("    while (" + gt + " < e" + S(t) + " && " +
                 KeyExpr(keys[t], gt) + " == m) ++" + gt + ";");
          }
        }
        EmitJoinEmitLoops(op, keys, "i", "g");
        for (size_t t = 0; t < nin; ++t) {
          Emit("    i" + S(t) + " = g" + S(t) + ";");
        }
        Emit("  }");
      }
      Emit("  return 0;");
      Emit("}");
      Emit("");
    }

    uint32_t vec_rec = op.fuse_scalar_agg ? op.fused_output.record_size
                                          : orec;
    uint64_t est = Stream(op.out_stream).est_rows;
    est = std::min<uint64_t>(est + 16, 1u << 22);
    bool partitioned =
        op.algo != JoinAlgo::kMerge && op.algo != JoinAlgo::kNestedLoops;

    if (partitioned) {
      EmitJoinTasks(k, op, keys, need_sort, vec_rec, est);
    } else if (op.algo == JoinAlgo::kMerge) {
      EmitMergeRangeTasks(k, op, keys, vec_rec, est);
    }

    // Wrapper: splitter-range tasks for merge; partition-parallel tasks
    // (with JIT sort inside each task) for hybrid; one full-range call for
    // nested loops.
    std::string sig = "static int " + fn + "(HqQueryCtx* ctx";
    for (size_t t = 0; t < nin; ++t) sig += ", const HqStream* in" + S(t);
    sig += ", HqStream* out) {";
    Emit(sig);
    if (op.algo == JoinAlgo::kMerge) {
      std::string MA = "op" + S(k) + "_mr_args";
      Emit("  " + MA + " A;");
      for (size_t t = 0; t < nin; ++t) {
        Emit("  A.d" + S(t) + " = in" + S(t) + "->data;");
        Emit("  A.n" + S(t) + " = in" + S(t) + "->n;");
      }
      // The largest (first) input drives the decomposition, mirroring the
      // optimizer's par_tasks choice from its cardinality estimate.
      Emit("  A.nt = hq_task_count((uint64_t)A.n0, HQ_PAR_JOIN_GRAIN, " +
           S(op.par_tasks) + ");");
      if (op.fuse_scalar_agg) {
        Emit("  A.accs = (" + accs_t + "*)ctx->alloc(ctx->arena, "
             "(uint64_t)A.nt * sizeof(" + accs_t + "));");
        Emit("  if (!A.accs) { ctx->error = HQ_ERR_OOM; return -1; }");
        Emit("  memset(A.accs, 0, (uint64_t)A.nt * sizeof(" + accs_t +
             "));");
        Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
             "_mr_task, &A) != HQ_OK) return -1;");
        EmitFusedAccFold(k, op, vec_rec);
      } else {
        Emit("  A.vs = (HqVec*)ctx->alloc(ctx->arena, "
             "(uint64_t)A.nt * sizeof(HqVec));");
        Emit("  A.offs = (int64_t*)ctx->alloc(ctx->arena, "
             "((uint64_t)A.nt + 1) * 8);");
        Emit("  if (!A.vs || !A.offs) { ctx->error = HQ_ERR_OOM; "
             "return -1; }");
        Emit("  A.outbuf = 0;");
        Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
             "_mr_task, &A) != HQ_OK) return -1;");
        Emit("  // concatenate per-task outputs in task (= key-range) order:");
        Emit("  // byte-identical to the single full-range merge");
        Emit("  A.offs[0] = 0;");
        Emit("  for (uint32_t t2 = 0; t2 < A.nt; ++t2) "
             "A.offs[t2 + 1] = A.offs[t2] + A.vs[t2].n;");
        Emit("  int64_t total = A.offs[A.nt];");
        Emit("  A.outbuf = (uint8_t*)ctx->alloc(ctx->arena, "
             "(uint64_t)(total ? total : 1) * " + S(vec_rec) + ");");
        Emit("  if (!A.outbuf) { ctx->error = HQ_ERR_OOM; return -1; }");
        Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
             "_mr_copy, &A) != HQ_OK) return -1;");
        Emit("  out->data = A.outbuf; out->n = total; out->rec_size = " +
             S(vec_rec) + ";");
      }
      Emit("  out->part_begin = 0; out->num_parts = 0;");
      Emit("  return 0;");
      Emit("}");
      Emit("");
      return Status::OK();
    }
    if (!partitioned) {
      if (op.fuse_scalar_agg) {
        Emit("  " + accs_t + " acc1;");
        Emit("  memset(&acc1, 0, sizeof(acc1));");
        std::string call = "  if (" + range_fn + "(ctx";
        for (size_t t = 0; t < nin; ++t) {
          call += ", in" + S(t) + "->data, 0, in" + S(t) + "->n";
        }
        call += ", &acc1) != 0) return -1;";
        Emit(call);
        Emit("  HqVec v;");
        Emit("  if (hq_vec_init(&v, ctx, " + S(vec_rec) +
             ", 1) != 0) return -1;");
        std::vector<AccDecl> accs = BuildAccs(op.query->aggs, op.output,
                                              op.fused_output, 0, "orec",
                                              "acc1.", "", "acc1.grp_n");
        Emit("  {");
        Emit("    uint8_t* o = hq_vec_slot(&v);");
        Emit("    if (!o) return -1;");
        for (const auto& a : accs) Emit("    " + a.emit);
        Emit("  }");
        Emit("  out->data = v.data; out->n = v.n; out->rec_size = " +
             S(vec_rec) + ";");
      } else {
        Emit("  HqVec v;");
        Emit("  if (hq_vec_init(&v, ctx, " + S(vec_rec) + ", " + S(est) +
             ") != 0) return -1;");
        std::string call = "  if (" + range_fn + "(ctx";
        for (size_t t = 0; t < nin; ++t) {
          call += ", in" + S(t) + "->data, 0, in" + S(t) + "->n";
        }
        call += ", &v) != 0) return -1;";
        Emit(call);
        Emit("  out->data = v.data; out->n = v.n; out->rec_size = " +
             S(vec_rec) + ";");
      }
      Emit("  out->part_begin = 0; out->num_parts = 0;");
      Emit("  return 0;");
      Emit("}");
      Emit("");
      return Status::OK();
    }

    std::string args_t = "op" + S(k) + "_join_args";
    Emit("  " + args_t + " A;");
    for (size_t t = 0; t < nin; ++t) {
      Emit("  A.d" + S(t) + " = in" + S(t) + "->data;");
      Emit("  A.pb" + S(t) + " = in" + S(t) + "->part_begin;");
    }
    Emit("  A.nt = hq_task_count(" + S(op.num_partitions) +
         ", 1, HQ_PAR_MAX_TASKS);");
    if (op.fuse_scalar_agg) {
      Emit("  A.accs = (" + accs_t + "*)ctx->alloc(ctx->arena, "
           "(uint64_t)A.nt * sizeof(" + accs_t + "));");
      Emit("  if (!A.accs) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("  memset(A.accs, 0, (uint64_t)A.nt * sizeof(" + accs_t + "));");
      Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
           "_join_part, &A) != HQ_OK) return -1;");
      EmitFusedAccFold(k, op, vec_rec);
    } else {
      Emit("  A.vs = (HqVec*)ctx->alloc(ctx->arena, "
           "(uint64_t)A.nt * sizeof(HqVec));");
      Emit("  A.offs = (int64_t*)ctx->alloc(ctx->arena, "
           "((uint64_t)A.nt + 1) * 8);");
      Emit("  if (!A.vs || !A.offs) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("  A.outbuf = 0;");
      Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
           "_join_part, &A) != HQ_OK) return -1;");
      Emit("  // concatenate per-task outputs in task (= partition) order");
      Emit("  A.offs[0] = 0;");
      Emit("  for (uint32_t t2 = 0; t2 < A.nt; ++t2) "
           "A.offs[t2 + 1] = A.offs[t2] + A.vs[t2].n;");
      Emit("  int64_t total = A.offs[A.nt];");
      Emit("  A.outbuf = (uint8_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)(total ? total : 1) * " + S(vec_rec) + ");");
      Emit("  if (!A.outbuf) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
           "_join_copy, &A) != HQ_OK) return -1;");
      Emit("  out->data = A.outbuf; out->n = total; out->rec_size = " +
           S(vec_rec) + ";");
    }
    Emit("  out->part_begin = 0; out->num_parts = 0;");
    Emit("  return 0;");
    Emit("}");
    Emit("");
    return Status::OK();
  }

  /// Per-task join machinery for partitioned (hybrid / fine) joins: the
  /// args block, the per-partition-range task (JIT partition sort + merge
  /// into a per-task vec or accumulator block), and — for materializing
  /// joins — the ordered copy-out task.
  void EmitJoinTasks(int k, const JoinOp& op,
                     const std::vector<KeyAccess>& keys, bool need_sort,
                     uint32_t vec_rec, uint64_t est) {
    size_t nin = op.input_streams.size();
    bool fused = op.fuse_scalar_agg;
    std::string A = "op" + S(k) + "_join_args";
    std::string accs_t = "op" + S(k) + "_accs";
    Emit("typedef struct {");
    for (size_t t = 0; t < nin; ++t) {
      Emit("  uint8_t* d" + S(t) + ";");
      Emit("  const int64_t* pb" + S(t) + ";");
    }
    if (fused) {
      Emit("  " + accs_t + "* accs;");
    } else {
      Emit("  HqVec* vs;");
      Emit("  uint8_t* outbuf;");
      Emit("  int64_t* offs;");
    }
    Emit("  uint32_t nt;");
    Emit("} " + A + ";");
    Emit("");
    Emit("static int32_t op" + S(k) +
         "_join_part(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
         "void* argp) {");
    Emit("  " + A + "* A = (" + A + "*)argp; (void)wk;");
    Emit("  const uint32_t M = " + S(op.num_partitions) + ";");
    Emit("  uint64_t mb, me;");
    Emit("  hq_task_range(M, A->nt, t, &mb, &me);");
    if (fused) {
      Emit("  " + accs_t + "* acc = &A->accs[t];");
    } else {
      Emit("  HqVec* v = &A->vs[t];");
      Emit("  int64_t est = " + S(est) + " / (int64_t)A->nt + 16;");
      Emit("  if (hq_vec_init_w(v, wk, " + S(vec_rec) +
           ", est) != 0) return -1;");
    }
    Emit("  for (uint64_t m = mb; m < me; ++m) {");
    Emit("    // the next partition's records live in random frames of the");
    Emit("    // scattered buffers: start their lines early (Table I)");
    Emit("    if (m + 1 < me) {");
    for (size_t t = 0; t < nin; ++t) {
      Emit("      HQ_PREFETCH_R(A->d" + S(t) + " + (uint64_t)A->pb" + S(t) +
           "[m + 1] * " + S(keys[t].rec) + ");");
    }
    Emit("    }");
    for (size_t t = 0; t < nin; ++t) {
      Emit("    int64_t b" + S(t) + " = A->pb" + S(t) + "[m];");
      Emit("    int64_t e" + S(t) + " = A->pb" + S(t) + "[m + 1];");
    }
    std::string nonempty;
    for (size_t t = 0; t < nin; ++t) {
      if (t) nonempty += " || ";
      nonempty += "b" + S(t) + " >= e" + S(t);
    }
    Emit("    if (" + nonempty + ") continue;");
    if (need_sort) {
      Emit("    // sort corresponding partitions just before joining them");
      for (size_t t = 0; t < nin; ++t) {
        Emit("    sortrec_op" + S(k) + "_in" + S(t) + "(A->d" + S(t) +
             " + (uint64_t)b" + S(t) + " * " + S(keys[t].rec) + ", e" + S(t) +
             " - b" + S(t) + ");");
      }
    }
    std::string call = "    if (op" + S(k) + "_merge_range(ctx";
    for (size_t t = 0; t < nin; ++t) {
      call += ", A->d" + S(t) + ", b" + S(t) + ", e" + S(t);
    }
    call += fused ? ", acc) != 0) return -1;" : ", v) != 0) return -1;";
    Emit(call);
    Emit("  }");
    Emit("  return 0;");
    Emit("}");
    Emit("");
    if (!fused) {
      Emit("static int32_t op" + S(k) +
           "_join_copy(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
           "void* argp) {");
      Emit("  " + A + "* A = (" + A + "*)argp; (void)ctx; (void)wk;");
      Emit("  memcpy(A->outbuf + (uint64_t)A->offs[t] * " + S(vec_rec) +
           ", A->vs[t].data, (uint64_t)A->vs[t].n * " + S(vec_rec) + ");");
      Emit("  return 0;");
      Emit("}");
      Emit("");
    }
  }

  /// Range-split machinery for the merge join over globally sorted inputs:
  /// splitter join keys drawn at fixed ranks of input 0 are lower-bounded
  /// in every input, so each task merges an aligned slice of the key domain
  /// and no key group straddles two tasks — concatenating the per-task
  /// outputs in task order reproduces the full-range merge byte for byte.
  /// Task count and splitter ranks depend only on the data and the plan's
  /// par_tasks cap, never on the thread count.
  void EmitMergeRangeTasks(int k, const JoinOp& op,
                           const std::vector<KeyAccess>& keys,
                           uint32_t vec_rec, uint64_t est) {
    size_t nin = op.input_streams.size();
    bool fused = op.fuse_scalar_agg;
    std::string A = "op" + S(k) + "_mr_args";
    std::string accs_t = "op" + S(k) + "_accs";
    Emit("typedef struct {");
    for (size_t t = 0; t < nin; ++t) {
      Emit("  const uint8_t* d" + S(t) + ";");
      Emit("  int64_t n" + S(t) + ";");
    }
    if (fused) {
      Emit("  " + accs_t + "* accs;");
    } else {
      Emit("  HqVec* vs;");
      Emit("  uint8_t* outbuf;");
      Emit("  int64_t* offs;");
    }
    Emit("  uint32_t nt;");
    Emit("} " + A + ";");
    Emit("");
    bool char_key = keys[0].type.id == TypeId::kChar;
    Emit("static void op" + S(k) + "_mr_bounds(const " + A +
         "* A, uint32_t t, int64_t* b) {");
    Emit("  if (t == 0) {");
    for (size_t j = 0; j < nin; ++j) Emit("    b[" + S(j) + "] = 0;");
    Emit("    return;");
    Emit("  }");
    Emit("  if (t >= A->nt) {");
    for (size_t j = 0; j < nin; ++j) {
      Emit("    b[" + S(j) + "] = A->n" + S(j) + ";");
    }
    Emit("    return;");
    Emit("  }");
    for (size_t j = 0; j < nin; ++j) {
      Emit("  const uint8_t* d" + S(j) + " = A->d" + S(j) + ";");
    }
    Emit("  int64_t sr = (int64_t)t * A->n0 / (int64_t)A->nt;");
    if (char_key) {
      Emit("  const char* sk = " + KeyPtr(keys[0], "sr") + ";");
    } else {
      Emit("  " + std::string(keys[0].type.CType()) + " sk = " +
           KeyExpr(keys[0], "sr") + ";");
    }
    for (size_t j = 0; j < nin; ++j) {
      Emit("  {");
      Emit("    int64_t lo = 0, hi = A->n" + S(j) + ";");
      Emit("    while (lo < hi) {");
      Emit("      int64_t mid = lo + ((hi - lo) >> 1);");
      if (char_key) {
        Emit("      if (memcmp(" + KeyPtr(keys[j], "mid") + ", sk, " +
             S(keys[0].type.length) + ") < 0) lo = mid + 1; else hi = mid;");
      } else {
        Emit("      if (" + KeyExpr(keys[j], "mid") +
             " < sk) lo = mid + 1; else hi = mid;");
      }
      Emit("    }");
      Emit("    b[" + S(j) + "] = lo;");
      Emit("  }");
    }
    Emit("}");
    Emit("");
    Emit("static int32_t op" + S(k) +
         "_mr_task(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
         "void* argp) {");
    Emit("  " + A + "* A = (" + A + "*)argp; (void)wk;");
    Emit("  int64_t b[" + S(nin) + "]; int64_t e[" + S(nin) + "];");
    Emit("  op" + S(k) + "_mr_bounds(A, t, b);");
    Emit("  op" + S(k) + "_mr_bounds(A, t + 1, e);");
    if (fused) {
      Emit("  " + accs_t + "* acc = &A->accs[t];");
    } else {
      Emit("  HqVec* v = &A->vs[t];");
      Emit("  int64_t est = " + S(est) + " / (int64_t)A->nt + 16;");
      Emit("  if (hq_vec_init_w(v, wk, " + S(vec_rec) +
           ", est) != 0) return -1;");
    }
    std::string call = "  if (op" + S(k) + "_merge_range(ctx";
    for (size_t j = 0; j < nin; ++j) {
      call += ", A->d" + S(j) + ", b[" + S(j) + "], e[" + S(j) + "]";
    }
    call += fused ? ", acc) != 0) return -1;" : ", v) != 0) return -1;";
    Emit(call);
    Emit("  return 0;");
    Emit("}");
    Emit("");
    if (!fused) {
      Emit("static int32_t op" + S(k) +
           "_mr_copy(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
           "void* argp) {");
      Emit("  " + A + "* A = (" + A + "*)argp; (void)ctx; (void)wk;");
      Emit("  memcpy(A->outbuf + (uint64_t)A->offs[t] * " + S(vec_rec) +
           ", A->vs[t].data, (uint64_t)A->vs[t].n * " + S(vec_rec) + ");");
      Emit("  return 0;");
      Emit("}");
      Emit("");
    }
  }

  /// Emits the task-ordered fold of the per-task accumulator partials
  /// (`A.accs` / `A.nt` in scope) into the single fused aggregate record,
  /// leaving the one-row stream in `out`. The fixed decomposition makes the
  /// fold order (and hence every floating-point sum) identical at any
  /// thread count.
  void EmitFusedAccFold(int k, const JoinOp& op, uint32_t vec_rec) {
    std::string accs_t = "op" + S(k) + "_accs";
    Emit("  HqVec v;");
    Emit("  if (hq_vec_init(&v, ctx, " + S(vec_rec) + ", 1) != 0) return -1;");
    Emit("  // merge the per-task partials in task order: the fixed");
    Emit("  // decomposition makes the fold order (and hence every");
    Emit("  // floating-point sum) identical at any thread count");
    Emit("  {");
    Emit("    uint8_t* o = hq_vec_slot(&v);");
    Emit("    if (!o) return -1;");
    Emit("    " + accs_t + " G;");
    Emit("    memset(&G, 0, sizeof(G));");
    Emit("    int64_t gn = 0;");
    Emit("    for (uint32_t t2 = 0; t2 < A.nt; ++t2) {");
    Emit("      const " + accs_t + "* Sp = &A.accs[t2];");
    Emit("      if (Sp->grp_n == 0) continue;");
    for (const std::string& m :
         BuildAccMerges(op.query->aggs, "G.", "Sp->", "gn")) {
      Emit("      " + m);
    }
    Emit("      gn += Sp->grp_n;");
    Emit("    }");
    Emit("    (void)gn;");
    std::vector<AccDecl> accs = BuildAccs(op.query->aggs, op.output,
                                          op.fused_output, 0, "orec", "G.",
                                          "", "gn");
    for (const auto& a : accs) Emit("    " + a.emit);
    Emit("  }");
    Emit("  out->data = v.data; out->n = v.n; out->rec_size = " +
         S(vec_rec) + ";");
  }

  /// Statements folding one task's accumulator partial (`src` prefix) into
  /// the running merge (`dst` prefix); `guard` counts tuples already
  /// merged, so min/max ignore the zero-initialized registers of the
  /// destination until real data arrives.
  std::vector<std::string> BuildAccMerges(
      const std::vector<sql::AggSpec>& aggs, const std::string& dst,
      const std::string& src, const std::string& guard) {
    std::vector<std::string> out;
    for (size_t j = 0; j < aggs.size(); ++j) {
      const sql::AggSpec& spec = aggs[j];
      std::string d = dst + "acc" + S(j);
      std::string s = src + "acc" + S(j);
      switch (spec.func) {
        case AggFunc::kCount:
        case AggFunc::kSum:
        case AggFunc::kAvg:
          out.push_back(d + " += " + s + ";");
          break;
        case AggFunc::kMin:
        case AggFunc::kMax: {
          const char* cmp = spec.func == AggFunc::kMin ? "<" : ">";
          if (spec.out_type.id == TypeId::kChar) {
            std::string len = S(spec.out_type.length);
            out.push_back("if (" + guard + " == 0 || memcmp(" + s + ", " + d +
                          ", " + len + ") " + cmp + " 0) memcpy(" + d + ", " +
                          s + ", " + len + ");");
          } else {
            out.push_back("if (" + guard + " == 0 || " + s + " " + cmp + " " +
                          d + ") " + d + " = " + s + ";");
          }
          break;
        }
      }
    }
    return out;
  }

  /// Emits the innermost nested loops over the per-input group ranges
  /// [lo_t, hi_t): either materializing concatenated output records, or —
  /// when scalar aggregation is fused — updating the aggregate registers
  /// over a stack-resident concatenation buffer.
  void EmitJoinEmitLoops(const JoinOp& op, const std::vector<KeyAccess>& keys,
                         const std::string& lo_prefix,
                         const std::string& hi_prefix) {
    size_t nin = op.input_streams.size();
    std::string ind = "    ";
    for (size_t t = 0; t < nin; ++t) {
      Emit(ind + "for (int64_t a" + S(t) + " = " + lo_prefix + S(t) + "; a" +
           S(t) + " < " + hi_prefix + S(t) + "; ++a" + S(t) + ") {");
      ind += "  ";
    }
    if (op.fuse_scalar_agg) {
      // Copy only the inputs whose fields feed an aggregate argument.
      std::vector<bool> needed(nin, false);
      std::vector<sql::ColRef> arg_cols;
      for (const auto& spec : op.query->aggs) {
        if (spec.arg) spec.arg->CollectColumns(&arg_cols);
      }
      bool any_arg = !arg_cols.empty();
      for (size_t t = 0; t < nin; ++t) {
        const RecordLayout& lay = Stream(op.input_streams[t]).layout;
        for (sql::ColRef c : arg_cols) {
          if (lay.FindField(c) >= 0) needed[t] = true;
        }
      }
      uint32_t dst = 0;
      for (size_t t = 0; t < nin; ++t) {
        uint32_t rec = Stream(op.input_streams[t]).layout.record_size;
        if (needed[t]) {
          Emit(ind + "memcpy(orec_buf + " + S(dst) + ", d" + S(t) +
               " + (uint64_t)a" + S(t) + " * " + S(rec) + ", " + S(rec) +
               ");");
        }
        dst += rec;
      }
      if (any_arg) {
        Emit(ind + "const uint8_t* orec = orec_buf;");
      }
      std::vector<AccDecl> accs =
          BuildAccs(op.query->aggs, op.output, op.fused_output, 0, "orec",
                    "acc->", "", "acc->grp_n");
      for (const auto& a : accs) Emit(ind + a.update);
      Emit(ind + "++acc->grp_n;");
    } else {
      Emit(ind + "uint8_t* o = hq_vec_slot(v);");
      Emit(ind + "if (!o) return -1;");
      uint32_t dst = 0;
      for (size_t t = 0; t < nin; ++t) {
        uint32_t rec = Stream(op.input_streams[t]).layout.record_size;
        Emit(ind + "memcpy(o + " + S(dst) + ", d" + S(t) + " + (uint64_t)a" +
             S(t) + " * " + S(rec) + ", " + S(rec) + ");");
        dst += rec;
      }
    }
    for (size_t t = 0; t < nin; ++t) {
      ind = ind.substr(0, ind.size() - 2);
      Emit(ind + "}");
    }
  }

  /// Finds the StageOp that produced `stream`, if any.
  const StageOp* FindProducer(int stream) const {
    for (const auto& op : plan_.ops) {
      if (const auto* stage = std::get_if<StageOp>(&op)) {
        if (stage->out_stream == stream) return stage;
      }
    }
    return nullptr;
  }

  // ---- aggregation (paper §V-B "Aggregation", Fig. 4) -------------------

  Status EmitAgg(int k, const AggOp& op) {
    switch (op.algo) {
      case AggAlgo::kSort:
        return EmitSortishAgg(k, op, /*hybrid=*/false);
      case AggAlgo::kHybridHashSort:
        return EmitSortishAgg(k, op, /*hybrid=*/true);
      case AggAlgo::kMap:
        return EmitMapAgg(k, op);
    }
    return Status::OK();
  }

  struct AccDecl {
    std::string decl;    // declaration with initializer
    std::string update;  // per-tuple update statement
    std::string reset;   // group-boundary reset
    std::string emit;    // store into output record
  };

  /// Builds accumulator register code for group-at-a-time aggregation.
  /// `rec` is the input record variable; `o` the output slot; `grp_var` the
  /// per-group tuple counter maintained by the caller. `var_prefix` and
  /// `decl_prefix` let fused joins use file-scope static registers.
  std::vector<AccDecl> BuildAccs(const std::vector<sql::AggSpec>& aggs,
                                 const RecordLayout& in_layout,
                                 const RecordLayout& out_layout, size_t nkeys,
                                 const std::string& rec,
                                 const std::string& var_prefix,
                                 const std::string& decl_prefix,
                                 const std::string& grp_var) {
    std::vector<AccDecl> accs;
    for (size_t j = 0; j < aggs.size(); ++j) {
      const sql::AggSpec& spec = aggs[j];
      uint32_t ooff = out_layout.OffsetOf(static_cast<int>(nkeys + j));
      std::string var = var_prefix + "acc" + S(j);
      AccDecl a;
      std::string arg =
          spec.arg ? ScalarToC(rec, in_layout, *spec.arg, &plan_.params) : "1";
      switch (spec.func) {
        case AggFunc::kCount:
          a.decl = decl_prefix + "int64_t " + var + " = 0;";
          a.update = "++" + var + ";";
          a.reset = var + " = 0;";
          a.emit = "*(int64_t*)(o + " + S(ooff) + ") = " + var + ";";
          break;
        case AggFunc::kSum: {
          bool dbl = spec.out_type.id == TypeId::kDouble;
          a.decl = decl_prefix + std::string(dbl ? "double " : "int64_t ") +
                   var + (dbl ? " = 0.0;" : " = 0;");
          a.update = var + " += " + arg + ";";
          a.reset = var + (dbl ? " = 0.0;" : " = 0;");
          a.emit = std::string("*(") + (dbl ? "double" : "int64_t") +
                   "*)(o + " + S(ooff) + ") = " + var + ";";
          break;
        }
        case AggFunc::kAvg:
          a.decl = decl_prefix + "double " + var + " = 0.0;";
          a.update = var + " += (double)" + arg + ";";
          a.reset = var + " = 0.0;";
          a.emit = "*(double*)(o + " + S(ooff) + ") = " + grp_var +
                   " ? (" + var + " / (double)" + grp_var + ") : 0.0;";
          break;
        case AggFunc::kMin:
        case AggFunc::kMax: {
          const char* cmp = spec.func == AggFunc::kMin ? "<" : ">";
          if (spec.out_type.id == TypeId::kChar) {
            // CHAR min/max over a fixed-size register buffer.
            HQ_CHECK(spec.arg && spec.arg->kind == sql::ScalarKind::kColumn);
            int fi = in_layout.FindField(spec.arg->column);
            uint32_t foff = in_layout.OffsetOf(fi);
            uint16_t len = spec.out_type.length;
            a.decl = decl_prefix + "char " + var + "[" + S(len) + "] = {0};";
            a.update = "if (" + grp_var + " == 0 || memcmp(" + rec + " + " +
                       S(foff) + ", " + var + ", " + S(len) + ") " + cmp +
                       " 0) memcpy(" + var + ", " + rec + " + " + S(foff) +
                       ", " + S(len) + ");";
            a.reset = "";
            a.emit = "memcpy(o + " + S(ooff) + ", " + var + ", " + S(len) +
                     ");";
          } else {
            std::string ct = spec.out_type.CType();
            a.decl = decl_prefix + ct + " " + var + " = 0;";
            a.update = "{ " + ct + " v_ = (" + ct + ")" + arg +
                       "; if (" + grp_var + " == 0 || v_ " + cmp + " " + var +
                       ") " + var + " = v_; }";
            a.reset = "";
            a.emit = "*(" + ct + "*)(o + " + S(ooff) + ") = " + var + ";";
          }
          break;
        }
      }
      accs.push_back(std::move(a));
    }
    return accs;
  }

  Status EmitSortishAgg(int k, const AggOp& op, bool hybrid) {
    const RecordLayout& in_layout = Stream(op.input_stream).layout;
    uint32_t irec = in_layout.record_size;
    uint32_t orec = op.output.record_size;
    std::string scan_fn = "op" + S(k) + "_scan";

    if (hybrid) {
      // JIT sort of each partition on all group keys.
      std::string cmp = "cmp_op" + S(k);
      EmitComparator(cmp, in_layout, op.group_fields, {});
      EmitRecordSort("sortrec_op" + S(k), irec, cmp);
    }

    // The sorted-group scan: single pass, registers per aggregate.
    std::vector<AccDecl> accs =
        BuildAccs(op.query->aggs, in_layout, op.output,
                  op.group_fields.size(), "rec", "", "", "grp_n");
    Emit("// op" + S(k) + ": " + (hybrid ? "hybrid hash-sort" : "sort") +
         " aggregation scan");
    Emit("static int " + scan_fn +
         "(HqQueryCtx* ctx, const uint8_t* d, int64_t lo, int64_t hi, "
         "HqVec* out) {");
    Emit("  if (lo >= hi) return 0;");
    Emit("  int64_t gs = lo;");
    Emit("  int64_t grp_n = 0;");
    for (const auto& a : accs) Emit("  " + a.decl);
    Emit("  for (int64_t i = lo; i < hi; ++i) {");
    Emit("    const uint8_t* rec = d + (uint64_t)i * " + S(irec) + ";");
    // Group-change test against the group's first record.
    std::string same;
    for (size_t g = 0; g < op.group_fields.size(); ++g) {
      int f = op.group_fields[g];
      if (g) same += " && ";
      same += FieldEquals("rec", "grec", in_layout.OffsetOf(f),
                          in_layout.fields[f].type);
    }
    if (same.empty()) same = "1";
    Emit("    const uint8_t* grec = d + (uint64_t)gs * " + S(irec) + ";");
    Emit("    if (i > gs && !(" + same + ")) {");
    EmitGroupEmission(op, accs, "grec", "      ");
    Emit("      gs = i; grp_n = 0;");
    for (const auto& a : accs) {
      if (!a.reset.empty()) Emit("      " + a.reset);
    }
    Emit("      grec = rec;");
    Emit("    }");
    for (const auto& a : accs) Emit("    " + a.update);
    Emit("    ++grp_n;");
    Emit("  }");
    Emit("  {");
    Emit("    const uint8_t* grec = d + (uint64_t)gs * " + S(irec) + ";");
    EmitGroupEmission(op, accs, "grec", "    ");
    Emit("  }");
    Emit("  return 0;");
    Emit("}");
    Emit("");

    uint64_t est = std::min<uint64_t>(Stream(op.out_stream).est_rows + 16,
                                      1u << 22);
    if (hybrid) {
      // Partition-parallel: each task JIT-sorts and scans a range of
      // partitions into a per-task vec; the copy-out concatenates them in
      // partition order, matching the serial wrapper's emission order.
      std::string A = "op" + S(k) + "_agg_args";
      Emit("typedef struct {");
      Emit("  uint8_t* d;");
      Emit("  const int64_t* pb;");
      Emit("  HqVec* vs;");
      Emit("  uint8_t* outbuf;");
      Emit("  int64_t* offs;");
      Emit("  uint32_t nt;");
      Emit("} " + A + ";");
      Emit("");
      Emit("static int32_t op" + S(k) +
           "_agg_part(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
           "void* argp) {");
      Emit("  " + A + "* A = (" + A + "*)argp;");
      Emit("  const uint32_t M = " + S(op.num_partitions) + ";");
      Emit("  uint64_t mb, me;");
      Emit("  hq_task_range(M, A->nt, t, &mb, &me);");
      Emit("  HqVec* v = &A->vs[t];");
      Emit("  int64_t est = " + S(est) + " / (int64_t)A->nt + 16;");
      Emit("  if (hq_vec_init_w(v, wk, " + S(orec) +
           ", est) != 0) return -1;");
      Emit("  for (uint64_t m = mb; m < me; ++m) {");
      Emit("    int64_t b = A->pb[m], e = A->pb[m + 1];");
      Emit("    if (b >= e) continue;");
      Emit("    sortrec_op" + S(k) + "(A->d + (uint64_t)b * " + S(irec) +
           ", e - b);");
      Emit("    if (" + scan_fn + "(ctx, A->d, b, e, v) != 0) return -1;");
      Emit("  }");
      Emit("  return 0;");
      Emit("}");
      Emit("");
      Emit("static int32_t op" + S(k) +
           "_agg_copy(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
           "void* argp) {");
      Emit("  " + A + "* A = (" + A + "*)argp; (void)ctx; (void)wk;");
      Emit("  memcpy(A->outbuf + (uint64_t)A->offs[t] * " + S(orec) +
           ", A->vs[t].data, (uint64_t)A->vs[t].n * " + S(orec) + ");");
      Emit("  return 0;");
      Emit("}");
      Emit("");
      Emit("static int op" + S(k) +
           "_agg(HqQueryCtx* ctx, const HqStream* in, HqStream* out) {");
      Emit("  " + A + " A;");
      Emit("  A.d = in->data; A.pb = in->part_begin;");
      Emit("  A.nt = hq_task_count(" + S(op.num_partitions) +
           ", 1, HQ_PAR_MAX_TASKS);");
      Emit("  A.vs = (HqVec*)ctx->alloc(ctx->arena, "
           "(uint64_t)A.nt * sizeof(HqVec));");
      Emit("  A.offs = (int64_t*)ctx->alloc(ctx->arena, "
           "((uint64_t)A.nt + 1) * 8);");
      Emit("  if (!A.vs || !A.offs) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("  A.outbuf = 0;");
      Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
           "_agg_part, &A) != HQ_OK) return -1;");
      Emit("  A.offs[0] = 0;");
      Emit("  for (uint32_t t2 = 0; t2 < A.nt; ++t2) "
           "A.offs[t2 + 1] = A.offs[t2] + A.vs[t2].n;");
      Emit("  int64_t total = A.offs[A.nt];");
      Emit("  A.outbuf = (uint8_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)(total ? total : 1) * " + S(orec) + ");");
      Emit("  if (!A.outbuf) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
           "_agg_copy, &A) != HQ_OK) return -1;");
      Emit("  out->data = A.outbuf; out->n = total; out->rec_size = " +
           S(orec) + ";");
    } else if (!op.group_fields.empty()) {
      // Globally sorted input: split the scan at group boundaries found by
      // binary search — each boundary is the lower bound (group-key
      // comparator) of the record at a fixed splitter rank, so no group
      // straddles two tasks and concatenating the per-task outputs in task
      // order is byte-identical to the serial scan. Ranks depend only on
      // the data and the plan's par_tasks cap, never on the thread count.
      std::string gcmp = "cmp_op" + S(k) + "_g";
      EmitComparator(gcmp, in_layout, op.group_fields, {});
      std::string A = "op" + S(k) + "_sagg_args";
      Emit("typedef struct {");
      Emit("  const uint8_t* d;");
      Emit("  int64_t n;");
      Emit("  HqVec* vs;");
      Emit("  uint8_t* outbuf;");
      Emit("  int64_t* offs;");
      Emit("  uint32_t nt;");
      Emit("} " + A + ";");
      Emit("");
      Emit("static int64_t op" + S(k) + "_sagg_bound(const " + A +
           "* A, uint32_t t) {");
      Emit("  if (t == 0) return 0;");
      Emit("  if (t >= A->nt) return A->n;");
      Emit("  const uint8_t* sp = A->d + "
           "(uint64_t)((int64_t)t * A->n / (int64_t)A->nt) * " + S(irec) +
           ";");
      Emit("  int64_t lo = 0, hi = A->n;");
      Emit("  while (lo < hi) {");
      Emit("    int64_t mid = lo + ((hi - lo) >> 1);");
      Emit("    if (" + gcmp + "(A->d + (uint64_t)mid * " + S(irec) +
           ", sp) < 0) lo = mid + 1; else hi = mid;");
      Emit("  }");
      Emit("  return lo;");
      Emit("}");
      Emit("");
      Emit("static int32_t op" + S(k) +
           "_sagg_task(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
           "void* argp) {");
      Emit("  " + A + "* A = (" + A + "*)argp;");
      Emit("  int64_t b = op" + S(k) + "_sagg_bound(A, t);");
      Emit("  int64_t e = op" + S(k) + "_sagg_bound(A, t + 1);");
      Emit("  HqVec* v = &A->vs[t];");
      Emit("  int64_t est = " + S(est) + " / (int64_t)A->nt + 16;");
      Emit("  if (hq_vec_init_w(v, wk, " + S(orec) +
           ", est) != 0) return -1;");
      Emit("  if (" + scan_fn + "(ctx, A->d, b, e, v) != 0) return -1;");
      Emit("  return 0;");
      Emit("}");
      Emit("");
      Emit("static int32_t op" + S(k) +
           "_sagg_copy(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
           "void* argp) {");
      Emit("  " + A + "* A = (" + A + "*)argp; (void)ctx; (void)wk;");
      Emit("  memcpy(A->outbuf + (uint64_t)A->offs[t] * " + S(orec) +
           ", A->vs[t].data, (uint64_t)A->vs[t].n * " + S(orec) + ");");
      Emit("  return 0;");
      Emit("}");
      Emit("");
      Emit("static int op" + S(k) +
           "_agg(HqQueryCtx* ctx, const HqStream* in, HqStream* out) {");
      Emit("  " + A + " A;");
      Emit("  A.d = in->data; A.n = in->n;");
      Emit("  A.nt = hq_task_count((uint64_t)A.n, HQ_PAR_JOIN_GRAIN, " +
           S(op.par_tasks) + ");");
      Emit("  A.vs = (HqVec*)ctx->alloc(ctx->arena, "
           "(uint64_t)A.nt * sizeof(HqVec));");
      Emit("  A.offs = (int64_t*)ctx->alloc(ctx->arena, "
           "((uint64_t)A.nt + 1) * 8);");
      Emit("  if (!A.vs || !A.offs) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("  A.outbuf = 0;");
      Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
           "_sagg_task, &A) != HQ_OK) return -1;");
      Emit("  A.offs[0] = 0;");
      Emit("  for (uint32_t t2 = 0; t2 < A.nt; ++t2) "
           "A.offs[t2 + 1] = A.offs[t2] + A.vs[t2].n;");
      Emit("  int64_t total = A.offs[A.nt];");
      Emit("  A.outbuf = (uint8_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)(total ? total : 1) * " + S(orec) + ");");
      Emit("  if (!A.outbuf) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
           "_sagg_copy, &A) != HQ_OK) return -1;");
      Emit("  out->data = A.outbuf; out->n = total; out->rec_size = " +
           S(orec) + ";");
    } else {
      // Scalar (ungrouped) aggregation over sorted input: one record out,
      // the single scan stays serial.
      Emit("static int op" + S(k) +
           "_agg(HqQueryCtx* ctx, const HqStream* in, HqStream* out) {");
      Emit("  HqVec v;");
      Emit("  if (hq_vec_init(&v, ctx, " + S(orec) + ", " + S(est) +
           ") != 0) return -1;");
      Emit("  if (" + scan_fn + "(ctx, in->data, 0, in->n, &v) != 0) return "
           "-1;");
      Emit("  out->data = v.data; out->n = v.n; out->rec_size = " + S(orec) +
           ";");
    }
    Emit("  out->part_begin = 0; out->num_parts = 0;");
    Emit("  return 0;");
    Emit("}");
    Emit("");
    return Status::OK();
  }

  /// Writes one group's output record from the group's first record `grec`
  /// plus the accumulator registers.
  void EmitGroupEmission(const AggOp& op, const std::vector<AccDecl>& accs,
                         const std::string& grec, const std::string& ind) {
    const RecordLayout& in_layout = Stream(op.input_stream).layout;
    Emit(ind + "{");
    Emit(ind + "  uint8_t* o = hq_vec_slot(out);");
    Emit(ind + "  if (!o) return -1;");
    for (size_t g = 0; g < op.group_fields.size(); ++g) {
      int f = op.group_fields[g];
      uint32_t src = in_layout.OffsetOf(f);
      uint32_t dst = op.output.OffsetOf(static_cast<int>(g));
      Emit(ind + "  memcpy(o + " + S(dst) + ", " + grec + " + " + S(src) +
           ", " + S(in_layout.fields[f].type.ByteSize()) + ");");
    }
    for (const auto& a : accs) Emit(ind + "  " + a.emit);
    Emit(ind + "}");
  }

  /// Element C type of a map-aggregation array (mirrors the seed's
  /// per-spec array allocation choices).
  static std::string ArrCType(const sql::AggSpec& spec) {
    if (spec.out_type.id == TypeId::kChar) return "char";
    if (spec.out_type.id == TypeId::kInt32 ||
        spec.out_type.id == TypeId::kDate) {
      return "int32_t";
    }
    return spec.out_type.id == TypeId::kDouble ? "double" : "int64_t";
  }
  static uint32_t ArrElemSize(const sql::AggSpec& spec) {
    if (spec.out_type.id == TypeId::kChar) return spec.out_type.length;
    if (spec.out_type.id == TypeId::kInt32 ||
        spec.out_type.id == TypeId::kDate) {
      return 4;
    }
    return 8;
  }

  Status EmitMapAgg(int k, const AggOp& op) {
    const StreamInfo& in = Stream(op.input_stream);
    const RecordLayout& in_layout = in.layout;
    const auto& aggs = op.query->aggs;
    size_t nkeys = op.group_fields.size();
    uint32_t orec = op.output.record_size;

    // Directory capacities & strides (paper Fig. 4(b)).
    std::vector<uint64_t> caps = op.directory_capacity;
    HQ_CHECK(caps.size() == nkeys);
    uint64_t cells = 1;
    for (uint64_t c : caps) cells *= c;
    if (cells == 0) cells = 1;
    std::vector<uint64_t> strides(nkeys, 1);
    for (size_t i = nkeys; i-- > 1;) {
      strides[i - 1] = strides[i] * caps[i];
    }

    auto is_dense = [&](size_t g) {
      return g < op.directory_dense.size() && op.directory_dense[g] != 0;
    };

    // Directory lookup helpers for sparse keys (sorted key array + binary
    // search; ids are insertion-ordered so existing offsets stay stable).
    // Dense int domains use identity directories (value - min) instead.
    for (size_t g = 0; g < nkeys; ++g) {
      if (is_dense(g)) continue;
      Emit("static inline int32_t op" + S(k) + "_dir" + S(g) +
           "(int64_t key, int64_t* dk, int32_t* di, int64_t* dv, int32_t* "
           "pn) {");
      Emit("  int32_t lo = 0, hi = *pn;");
      Emit("  while (lo < hi) {");
      Emit("    int32_t mid = (lo + hi) >> 1;");
      Emit("    if (dk[mid] < key) lo = mid + 1; else hi = mid;");
      Emit("  }");
      Emit("  if (lo < *pn && dk[lo] == key) return di[lo];");
      Emit("  if (*pn >= " + S(caps[g]) + ") return -1;");
      Emit("  memmove(dk + lo + 1, dk + lo, (uint64_t)(*pn - lo) * 8);");
      Emit("  memmove(di + lo + 1, di + lo, (uint64_t)(*pn - lo) * 4);");
      Emit("  dk[lo] = key; di[lo] = *pn; dv[*pn] = key;");
      Emit("  return (*pn)++;");
      Emit("}");
      Emit("");
    }

    // Parallel scan plan: every task owns a private slice of the cell
    // counters, aggregate arrays and (sparse) directories, and scans a
    // fixed page/record range; the wrapper folds the partials into task
    // 0's slice in task order after the barrier. Sparse directories assign
    // ids per task, so the fold re-keys each occupied cell through task
    // 0's directory by value. Decomposition depends only on the input
    // size, so the fold order — and every floating-point sum — is
    // identical at any thread count.
    std::string At = "op" + S(k) + "_map_args";
    std::string scan_task = "op" + S(k) + "_map_scan";
    Emit("typedef struct {");
    if (!in.is_base_table) {
      Emit("  const uint8_t* d;");
      Emit("  int64_t n;");
    }
    Emit("  int64_t* cellcnt;");
    for (size_t j = 0; j < aggs.size(); ++j) {
      if (aggs[j].func == AggFunc::kCount) continue;
      Emit("  " + ArrCType(aggs[j]) + "* arr" + S(j) + ";");
    }
    for (size_t g = 0; g < nkeys; ++g) {
      if (is_dense(g)) continue;
      Emit("  int64_t* dk" + S(g) + ";");
      Emit("  int32_t* di" + S(g) + ";");
      Emit("  int64_t* dv" + S(g) + ";");
      Emit("  int32_t* dn" + S(g) + ";");
    }
    Emit("  uint32_t nt;");
    Emit("} " + At + ";");
    Emit("");

    // The single scan: filters inline when reading a base table directly.
    auto emit_body = [&](const std::string& rec, const Schema* base_schema) {
      std::string ind = base_schema ? "      " : "    ";
      // Key extraction per grouping attribute.
      for (size_t g = 0; g < nkeys; ++g) {
        int f = op.group_fields[g];
        Type t = in_layout.fields[f].type;
        uint32_t off = in_layout.OffsetOf(f);
        if (t.id == TypeId::kChar) {
          Emit(ind + "int64_t kv" + S(g) + " = 0;");
          Emit(ind + "memcpy(&kv" + S(g) + ", " + rec + " + " + S(off) +
               ", " + S(t.length) + ");");
        } else {
          Emit(ind + "int64_t kv" + S(g) + " = (int64_t)" +
               FieldAccess(rec, off, t) + ";");
        }
        if (is_dense(g)) {
          Emit(ind + "int64_t id" + S(g) + " = kv" + S(g) + " - (" +
               S(op.directory_min[g]) + ");");
          Emit(ind + "if ((uint64_t)id" + S(g) + " >= " + S(caps[g]) +
               "ull) { wk->error = HQ_ERR_MAP_OVERFLOW; return -1; }");
        } else {
          Emit(ind + "int32_t id" + S(g) + " = op" + S(k) + "_dir" + S(g) +
               "(kv" + S(g) + ", dk" + S(g) + ", di" + S(g) + ", dv" + S(g) +
               ", dn" + S(g) + ");");
          Emit(ind + "if (id" + S(g) +
               " < 0) { wk->error = HQ_ERR_MAP_OVERFLOW; return -1; }");
        }
      }
      std::string cell = "0";
      if (nkeys > 0) {
        cell.clear();
        for (size_t g = 0; g < nkeys; ++g) {
          if (g) cell += " + ";
          cell += "(uint64_t)id" + S(g) + " * " + S(strides[g]);
        }
      }
      Emit(ind + "uint64_t cell = " + cell + ";");
      for (size_t j = 0; j < aggs.size(); ++j) {
        const sql::AggSpec& spec = aggs[j];
        std::string arg =
            spec.arg ? ScalarToC(rec, in_layout, *spec.arg, &plan_.params) : "1";
        switch (spec.func) {
          case AggFunc::kCount:
            break;  // cellcnt handles it
          case AggFunc::kSum:
          case AggFunc::kAvg:
            Emit(ind + "arr" + S(j) + "[cell] += " +
                 (spec.func == AggFunc::kAvg ? "(double)" : "") + arg + ";");
            break;
          case AggFunc::kMin:
          case AggFunc::kMax: {
            const char* cmp = spec.func == AggFunc::kMin ? "<" : ">";
            if (spec.out_type.id == TypeId::kChar) {
              HQ_CHECK(spec.arg && spec.arg->kind == sql::ScalarKind::kColumn);
              int fi = in_layout.FindField(spec.arg->column);
              uint32_t foff = in_layout.OffsetOf(fi);
              uint16_t len = spec.out_type.length;
              Emit(ind + "if (cellcnt[cell] == 0 || memcmp(" + rec + " + " +
                   S(foff) + ", arr" + S(j) + " + cell * " + S(len) + ", " +
                   S(len) + ") " + cmp + " 0) memcpy(arr" + S(j) +
                   " + cell * " + S(len) + ", " + rec + " + " + S(foff) +
                   ", " + S(len) + ");");
            } else {
              std::string ct = spec.out_type.CType();
              Emit(ind + "{ " + ct + " v_ = (" + ct + ")" + arg +
                   "; if (cellcnt[cell] == 0 || v_ " + cmp + " arr" + S(j) +
                   "[cell]) arr" + S(j) + "[cell] = v_; }");
            }
            break;
          }
        }
      }
      Emit(ind + "++cellcnt[cell];");
    };

    // A batched base-table scan (BatchedScan) walks the selection bitmaps
    // of a predicate kernel; any other scan inlines its filters into the
    // tuple-at-a-time loop.
    std::vector<sql::Filter> base_filters;
    bool batched = false;
    if (in.is_base_table) {
      int bt = in.base_table_index;
      for (const auto& f : plan_.query->filters) {
        if (f.column.table == bt) base_filters.push_back(f);
      }
      batched = BatchedScan(plan_.query->tables[bt]->schema(), base_filters,
                            op.filter_selectivity, &plan_.params);
    }
    if (in.is_base_table && op.input_codec.enabled) {
      // Needed columns: inline filters, grouping keys, aggregate arguments.
      const Schema& schema = plan_.query->tables[in.base_table_index]->schema();
      std::vector<char> needed(schema.NumColumns(), 0);
      for (const auto& f : base_filters) {
        needed[f.column.column] = 1;
        if (f.rhs_is_column) needed[f.rhs_column.column] = 1;
      }
      std::vector<sql::ColRef> refs;
      for (int g : op.group_fields) refs.push_back(in_layout.fields[g].source);
      for (const sql::AggSpec& spec : aggs) {
        if (spec.arg) spec.arg->CollectColumns(&refs);
      }
      for (sql::ColRef r : refs) needed[r.column] = 1;
      EmitDecodeHelpers(k, op.input_codec, schema, needed);
    }
    if (batched) {
      EmitPredicateKernel(&out_, "op" + S(k) + "_mpred",
                          plan_.query->tables[in.base_table_index]->schema(),
                          base_filters, &plan_.params);
    }

    // The scan task: each worker aggregates its page/record range into its
    // private slices; filters inline when reading a base table directly.
    Emit("static int32_t " + scan_task +
         "(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, void* argp) {");
    Emit("  " + At + "* A = (" + At + "*)argp; (void)ctx; (void)wk;");
    Emit("  const uint64_t CELLS = " + S(cells) + ";");
    Emit("  int64_t* cellcnt = A->cellcnt + (uint64_t)t * CELLS;");
    for (size_t j = 0; j < aggs.size(); ++j) {
      const sql::AggSpec& spec = aggs[j];
      if (spec.func == AggFunc::kCount) continue;
      if (spec.out_type.id == TypeId::kChar) {
        Emit("  char* arr" + S(j) + " = A->arr" + S(j) +
             " + (uint64_t)t * CELLS * " + S(ArrElemSize(spec)) + ";");
      } else {
        Emit("  " + ArrCType(spec) + "* arr" + S(j) + " = A->arr" + S(j) +
             " + (uint64_t)t * CELLS;");
      }
    }
    for (size_t g = 0; g < nkeys; ++g) {
      if (is_dense(g)) continue;
      Emit("  int64_t* dk" + S(g) + " = A->dk" + S(g) + " + (uint64_t)t * " +
           S(caps[g]) + ";");
      Emit("  int32_t* di" + S(g) + " = A->di" + S(g) + " + (uint64_t)t * " +
           S(caps[g]) + ";");
      Emit("  int64_t* dv" + S(g) + " = A->dv" + S(g) + " + (uint64_t)t * " +
           S(caps[g]) + ";");
      Emit("  int32_t* dn" + S(g) + " = &A->dn" + S(g) + "[t];");
    }
    if (in.is_base_table && op.input_codec.enabled) {
      int t = in.base_table_index;
      const Schema& schema = plan_.query->tables[t]->schema();
      const std::string TS = S(schema.TupleSize());
      // Map aggregation over a compressed base table: single pass of
      // fused-decoded blocks, selection still inlined. Tasks partition
      // *virtual NSM pages* (the page count the table would have
      // uncompressed) rather than the denser compressed pages, so every
      // task accumulates exactly the tuple range its uncompressed twin
      // would — floating-point aggregates fold in the same order and the
      // results are bit-identical to the uncompressed plan.
      const std::string VTPP = S(Page::TuplesPerPage(schema.TupleSize()));
      Emit("  const HqTableRef* T = &ctx->inputs[" + S(t) + "];");
      Emit("  uint64_t vpages = (T->tuple_count + " + VTPP + " - 1) / " +
           VTPP + ";");
      Emit("  uint64_t pgb, pge;");
      Emit("  hq_task_range(vpages, A->nt, t, &pgb, &pge);");
      Emit("  uint64_t ts = pgb * " + VTPP + ";");
      Emit("  uint64_t te = pge * " + VTPP + ";");
      Emit("  if (te > T->tuple_count) te = T->tuple_count;");
      if (batched) {
        Emit("  // batched select: aggregate the set bits of each bitmap");
        EmitCompressedScanTupleRange(k, schema.TupleSize(), op.input_codec,
                                     "wk->pages_touched", /*prefetch=*/true,
                                     [&] {
          Emit("      uint64_t bm = op" + S(k) + "_mpred(ctx, dbuf, bn);");
          // Mask out lanes outside the task's tuple range. The carry
          // fast-forward loop leaves lo < HQ_SIMD_BLOCK, so `<< lo` is
          // well-defined.
          Emit("      if (lo) bm &= ~0ull << lo;");
          Emit("      if (hi < 64) bm &= (1ull << hi) - 1;");
          Emit("      while (bm) {");
          Emit("        uint32_t bi = (uint32_t)__builtin_ctzll(bm);");
          Emit("        bm &= bm - 1;");
          Emit("        const uint8_t* btup = dbuf + (uint64_t)bi * " + TS +
               ";");
          emit_body("btup", &schema);
          Emit("      }");
        });
      } else {
        EmitCompressedScanTupleRange(k, schema.TupleSize(), op.input_codec,
                                     "wk->pages_touched", /*prefetch=*/false,
                                     [&] {
          Emit("      for (uint32_t bi = lo; bi < hi; ++bi) {");
          Emit("        const uint8_t* tup = dbuf + (uint64_t)bi * " + TS +
               ";");
          for (const auto& f : base_filters) {
            Emit("        if (!" +
                 FilterCondition("tup", schema, f, &plan_.params) +
                 ") continue;");
          }
          emit_body("tup", &schema);
          Emit("      }");
        });
      }
    } else if (in.is_base_table) {
      int t = in.base_table_index;
      const Schema& schema = plan_.query->tables[t]->schema();
      // Map aggregation runs in a single pass over the raw input with the
      // selection inlined — no staging (paper §V-B).
      Emit("  const HqTableRef* T = &ctx->inputs[" + S(t) + "];");
      Emit("  uint64_t pgb, pge;");
      Emit("  hq_task_range(T->page_count, A->nt, t, &pgb, &pge);");
      if (batched) {
        Emit("  // batched select: aggregate the set bits of each bitmap");
        Emit("  for (uint64_t p = pgb; p < pge; ++p) {");
        Emit("    const uint8_t* page = T->pages[p];");
        EmitNextPagePrefetch("T->pages", "p", "pge", "    ");
        Emit("    uint32_t nt = *(const uint32_t*)page;");
        Emit("    const uint8_t* tup = page + HQ_PAGE_HEADER;");
        Emit("    ++wk->pages_touched;");
        Emit("    for (uint32_t ti = 0; ti < nt; ) {");
        Emit("      uint32_t bn = nt - ti < HQ_SIMD_BLOCK ? nt - ti : "
             "HQ_SIMD_BLOCK;");
        Emit("      uint64_t bm = op" + S(k) + "_mpred(ctx, tup, bn);");
        Emit("      while (bm) {");
        Emit("        uint32_t bi = (uint32_t)__builtin_ctzll(bm);");
        Emit("        bm &= bm - 1;");
        Emit("        const uint8_t* btup = tup + (uint64_t)bi * " +
             S(schema.TupleSize()) + ";");
        emit_body("btup", &schema);
        Emit("      }");
        Emit("      ti += bn; tup += (uint64_t)bn * " + S(schema.TupleSize()) +
             ";");
        Emit("    }");
        Emit("  }");
      } else {
        Emit("  for (uint64_t p = pgb; p < pge; ++p) {");
        Emit("    const uint8_t* page = T->pages[p];");
        Emit("    uint32_t nt = *(const uint32_t*)page;");
        Emit("    const uint8_t* tup = page + HQ_PAGE_HEADER;");
        Emit("    ++wk->pages_touched;");
        Emit("    for (uint32_t ti = 0; ti < nt; ++ti, tup += " +
             S(schema.TupleSize()) + ") {");
        // Filters come from the query (this AggOp consumed the base
        // directly).
        for (const auto& f : base_filters) {
          Emit("      if (!" +
               FilterCondition("tup", schema, f, &plan_.params) +
               ") continue;");
        }
        emit_body("tup", &schema);
        Emit("    }");
        Emit("  }");
      }
    } else {
      Emit("  uint64_t rb, re;");
      Emit("  hq_task_range((uint64_t)A->n, A->nt, t, &rb, &re);");
      Emit("  for (uint64_t i = rb; i < re; ++i) {");
      Emit("    const uint8_t* rec = A->d + i * " +
           S(in_layout.record_size) + ";");
      emit_body("rec", nullptr);
      Emit("  }");
    }
    Emit("  return 0;");
    Emit("}");
    Emit("");

    // Wrapper: allocate the sliced state, run the parallel scan, fold.
    Emit("// op" + S(k) +
         ": map aggregation (value directories + aggregate arrays, Fig. 4)");
    std::string sig = "static int op" + S(k) + "_agg(HqQueryCtx* ctx";
    if (!in.is_base_table) sig += ", const HqStream* in";
    sig += ", HqStream* out) {";
    Emit(sig);
    Emit("  const uint64_t CELLS = " + S(cells) + ";");
    Emit("  " + At + " A;");
    if (in.is_base_table && op.input_codec.enabled) {
      // Compressed input: size the task count from the *virtual* NSM page
      // count, not the (denser) compressed one — nt decides how many
      // partial accumulators the merge folds, so it must match the
      // uncompressed plan for bit-identical floating-point results.
      const Schema& bschema = plan_.query->tables[in.base_table_index]->schema();
      const std::string VTPP = S(Page::TuplesPerPage(bschema.TupleSize()));
      Emit("  A.nt = hq_task_count((ctx->inputs[" + S(in.base_table_index) +
           "].tuple_count + " + VTPP + " - 1) / " + VTPP +
           ", HQ_PAR_PAGE_GRAIN, HQ_PAR_MAP_TASKS);");
    } else if (in.is_base_table) {
      Emit("  A.nt = hq_task_count(ctx->inputs[" + S(in.base_table_index) +
           "].page_count, HQ_PAR_PAGE_GRAIN, HQ_PAR_MAP_TASKS);");
    } else {
      Emit("  A.d = in->data; A.n = in->n;");
      Emit("  A.nt = hq_task_count((uint64_t)in->n, HQ_PAR_REC_GRAIN, "
           "HQ_PAR_MAP_TASKS);");
    }
    Emit("  A.cellcnt = (int64_t*)ctx->alloc(ctx->arena, "
         "(uint64_t)A.nt * CELLS * 8);");
    Emit("  if (!A.cellcnt) { ctx->error = HQ_ERR_OOM; return -1; }");
    Emit("  memset(A.cellcnt, 0, (uint64_t)A.nt * CELLS * 8);");
    for (size_t j = 0; j < aggs.size(); ++j) {
      const sql::AggSpec& spec = aggs[j];
      if (spec.func == AggFunc::kCount) continue;
      std::string esz = S(ArrElemSize(spec));
      Emit("  A.arr" + S(j) + " = (" + ArrCType(spec) +
           "*)ctx->alloc(ctx->arena, (uint64_t)A.nt * CELLS * " + esz + ");");
      Emit("  if (!A.arr" + S(j) +
           ") { ctx->error = HQ_ERR_OOM; return -1; }");
      if (spec.out_type.id != TypeId::kChar) {
        Emit("  memset(A.arr" + S(j) + ", 0, (uint64_t)A.nt * CELLS * " +
             esz + ");");
      }
    }
    for (size_t g = 0; g < nkeys; ++g) {
      if (is_dense(g)) continue;
      std::string cap = S(caps[g]);
      Emit("  A.dk" + S(g) + " = (int64_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)A.nt * " + cap + " * 8);");
      Emit("  A.di" + S(g) + " = (int32_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)A.nt * " + cap + " * 4);");
      Emit("  A.dv" + S(g) + " = (int64_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)A.nt * " + cap + " * 8);");
      Emit("  A.dn" + S(g) + " = (int32_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)A.nt * 4);");
      Emit("  if (!A.dk" + S(g) + " || !A.di" + S(g) + " || !A.dv" + S(g) +
           " || !A.dn" + S(g) + ") { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("  memset(A.dn" + S(g) + ", 0, (uint64_t)A.nt * 4);");
    }
    Emit("  if (hq_parallel_for(ctx, A.nt, " + scan_task +
         ", &A) != HQ_OK) return -1;");
    Emit("  // merged view = task 0's slices; fold the others in task order");
    Emit("  int64_t* cellcnt = A.cellcnt;");
    for (size_t j = 0; j < aggs.size(); ++j) {
      const sql::AggSpec& spec = aggs[j];
      if (spec.func == AggFunc::kCount) continue;
      Emit("  " + ArrCType(spec) + "* arr" + S(j) + " = A.arr" + S(j) + ";");
    }
    for (size_t g = 0; g < nkeys; ++g) {
      if (is_dense(g)) continue;
      Emit("  int64_t* dk" + S(g) + " = A.dk" + S(g) + ";");
      Emit("  int32_t* di" + S(g) + " = A.di" + S(g) + ";");
      Emit("  int64_t* dv" + S(g) + " = A.dv" + S(g) + ";");
      Emit("  int32_t* dn" + S(g) + " = &A.dn" + S(g) + "[0];");
      Emit("  (void)dk" + S(g) + "; (void)di" + S(g) + "; (void)dn" + S(g) +
           ";");
    }
    Emit("  for (uint32_t t2 = 1; t2 < A.nt; ++t2) {");
    Emit("    const int64_t* scnt = A.cellcnt + (uint64_t)t2 * CELLS;");
    for (size_t j = 0; j < aggs.size(); ++j) {
      const sql::AggSpec& spec = aggs[j];
      if (spec.func == AggFunc::kCount) continue;
      if (spec.out_type.id == TypeId::kChar) {
        Emit("    const char* sarr" + S(j) + " = A.arr" + S(j) +
             " + (uint64_t)t2 * CELLS * " + S(ArrElemSize(spec)) + ";");
      } else {
        Emit("    const " + ArrCType(spec) + "* sarr" + S(j) + " = A.arr" +
             S(j) + " + (uint64_t)t2 * CELLS;");
      }
    }
    for (size_t g = 0; g < nkeys; ++g) {
      if (is_dense(g)) continue;
      Emit("    const int64_t* sdv" + S(g) + " = A.dv" + S(g) +
           " + (uint64_t)t2 * " + S(caps[g]) + ";");
    }
    Emit("    for (uint64_t c = 0; c < CELLS; ++c) {");
    Emit("      if (scnt[c] == 0) continue;");
    Emit("      uint64_t cell = 0;");
    for (size_t g = 0; g < nkeys; ++g) {
      std::string id = "((c / " + S(strides[g]) + ") % " + S(caps[g]) + ")";
      if (is_dense(g)) {
        // Dense ids are global already: identity re-key.
        Emit("      cell += (uint64_t)" + id + " * " + S(strides[g]) + ";");
      } else {
        // Re-key the task-local id through task 0's directory by value.
        Emit("      { int64_t gv = sdv" + S(g) + "[" + id + "];");
        Emit("        int32_t mid = op" + S(k) + "_dir" + S(g) + "(gv, dk" +
             S(g) + ", di" + S(g) + ", dv" + S(g) + ", dn" + S(g) + ");");
        Emit("        if (mid < 0) { ctx->error = HQ_ERR_MAP_OVERFLOW; "
             "return -1; }");
        Emit("        cell += (uint64_t)mid * " + S(strides[g]) + "; }");
      }
    }
    for (size_t j = 0; j < aggs.size(); ++j) {
      const sql::AggSpec& spec = aggs[j];
      switch (spec.func) {
        case AggFunc::kCount:
          break;  // cellcnt handles it
        case AggFunc::kSum:
        case AggFunc::kAvg:
          Emit("      arr" + S(j) + "[cell] += sarr" + S(j) + "[c];");
          break;
        case AggFunc::kMin:
        case AggFunc::kMax: {
          const char* cmp = spec.func == AggFunc::kMin ? "<" : ">";
          if (spec.out_type.id == TypeId::kChar) {
            std::string len = S(spec.out_type.length);
            Emit("      if (cellcnt[cell] == 0 || memcmp(sarr" + S(j) +
                 " + c * " + len + ", arr" + S(j) + " + cell * " + len +
                 ", " + len + ") " + cmp + " 0) memcpy(arr" + S(j) +
                 " + cell * " + len + ", sarr" + S(j) + " + c * " + len +
                 ", " + len + ");");
          } else {
            Emit("      if (cellcnt[cell] == 0 || sarr" + S(j) + "[c] " +
                 cmp + " arr" + S(j) + "[cell]) arr" + S(j) +
                 "[cell] = sarr" + S(j) + "[c];");
          }
          break;
        }
      }
    }
    Emit("      cellcnt[cell] += scnt[c];");
    Emit("    }");
    Emit("  }");

    // Emission pass over occupied cells.
    Emit("  HqVec v;");
    Emit("  if (hq_vec_init(&v, ctx, " + S(orec) + ", " +
         S(std::min<uint64_t>(cells + 1, 1u << 22)) + ") != 0) return -1;");
    bool scalar_agg = nkeys == 0;
    Emit("  for (uint64_t cell = 0; cell < CELLS; ++cell) {");
    if (!scalar_agg) {
      Emit("    if (cellcnt[cell] == 0) continue;");
    }
    Emit("    uint8_t* o = hq_vec_slot(&v);");
    Emit("    if (!o) return -1;");
    for (size_t g = 0; g < nkeys; ++g) {
      int f = op.group_fields[g];
      Type t = in_layout.fields[f].type;
      uint32_t dst = op.output.OffsetOf(static_cast<int>(g));
      std::string id =
          "((cell / " + S(strides[g]) + ") % " + S(caps[g]) + ")";
      if (is_dense(g)) {
        Emit("    { int64_t gv = (int64_t)" + id + " + (" +
             S(op.directory_min[g]) + ");");
      } else {
        Emit("    { int64_t gv = dv" + S(g) + "[" + id + "];");
      }
      if (t.id == TypeId::kChar) {
        Emit("      memcpy(o + " + S(dst) + ", &gv, " + S(t.length) + "); }");
      } else if (t.ByteSize() == 4) {
        Emit("      *(int32_t*)(o + " + S(dst) + ") = (int32_t)gv; }");
      } else {
        Emit("      *(int64_t*)(o + " + S(dst) + ") = gv; }");
      }
    }
    for (size_t j = 0; j < aggs.size(); ++j) {
      const sql::AggSpec& spec = aggs[j];
      uint32_t dst = op.output.OffsetOf(static_cast<int>(nkeys + j));
      switch (spec.func) {
        case AggFunc::kCount:
          Emit("    *(int64_t*)(o + " + S(dst) + ") = cellcnt[cell];");
          break;
        case AggFunc::kSum:
          Emit("    *(" +
               std::string(spec.out_type.id == TypeId::kDouble ? "double"
                                                               : "int64_t") +
               "*)(o + " + S(dst) + ") = arr" + S(j) + "[cell];");
          break;
        case AggFunc::kAvg:
          Emit("    *(double*)(o + " + S(dst) + ") = cellcnt[cell] ? arr" +
               S(j) + "[cell] / (double)cellcnt[cell] : 0.0;");
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          if (spec.out_type.id == TypeId::kChar) {
            Emit("    memcpy(o + " + S(dst) + ", arr" + S(j) + " + cell * " +
                 S(spec.out_type.length) + ", " + S(spec.out_type.length) +
                 ");");
          } else if (spec.out_type.ByteSize() == 4) {
            Emit("    *(int32_t*)(o + " + S(dst) + ") = arr" + S(j) +
                 "[cell];");
          } else {
            Emit("    *(" + std::string(spec.out_type.CType()) + "*)(o + " +
                 S(dst) + ") = arr" + S(j) + "[cell];");
          }
          break;
      }
    }
    Emit("  }");
    Emit("  out->data = v.data; out->n = v.n; out->rec_size = " + S(orec) +
         ";");
    Emit("  out->part_begin = 0; out->num_parts = 0;");
    Emit("  return 0;");
    Emit("}");
    Emit("");
    return Status::OK();
  }

  // ---- output -----------------------------------------------------------

  Status EmitOutput(int k, const OutputOp& op) {
    const StreamInfo& in = Stream(op.input_stream);
    const RecordLayout& in_layout = in.layout;
    const Schema& os = plan_.output_schema.NumColumns() > 0
                           ? plan_.output_schema
                           : plan_.query->OutputSchema();
    uint32_t osz = os.TupleSize();
    bool need_sort = !op.order_by.empty() && !op.already_sorted;

    // Row construction into `o` from input record `rec`.
    auto emit_row_build = [&](const std::string& ind, const std::string& rec,
                              const std::string& o) {
      for (size_t i = 0; i < op.items.size(); ++i) {
        const auto& item = op.items[i];
        uint32_t dst = os.OffsetAt(i);
        if (item.field_index >= 0) {
          uint32_t src = in_layout.OffsetOf(item.field_index);
          Emit(ind + "memcpy(" + o + " + " + S(dst) + ", " + rec + " + " +
               S(src) + ", " + S(item.type.ByteSize()) + ");");
        } else {
          std::string expr = ScalarToC(rec, in_layout, *item.expr, &plan_.params);
          std::string ct = item.type.CType();
          Emit(ind + "*(" + ct + "*)(" + o + " + " + S(dst) + ") = (" + ct +
               ")" + expr + ";");
        }
      }
    };

    std::string OSZ = S(osz);
    std::string PT = S(op.par_tasks);
    int64_t run = 0;
    if (need_sort) {
      std::string cmp_name = "cmp_op" + S(k) + "_out";
      // Build a comparator over the *output* record layout.
      Emit("static inline int " + cmp_name +
           "(const uint8_t* a, const uint8_t* b) {");
      for (const auto& spec : op.order_by) {
        const auto& item = op.items[spec.output_index];
        AppendFieldCompare(&out_, "a", "b", os.OffsetAt(spec.output_index),
                           item.type, spec.desc, "  ");
      }
      Emit("  return 0;");
      Emit("}");
      Emit("");
      EmitRecordSort("sortrec_op" + S(k) + "_out", osz, cmp_name);
      run = SortRunLen(osz);
      EmitSortTasks("op" + S(k) + "_osort", "sortrec_op" + S(k) + "_out",
                    cmp_name, osz, run);

      // The parallel ORDER BY output pipeline: build rows in parallel,
      // quicksort runs + pair-merge until at most 8 sorted runs remain,
      // then one splitter-partitioned k-way merge writes disjoint
      // destination ranges straight into pre-allocated result pages. Every
      // decomposition below depends only on the data and plan constants,
      // so the emitted bytes — including the permutation of rows with
      // equal sort keys — are identical at every thread count.
      std::string A = "op" + S(k) + "_out_args";
      Emit("typedef struct {");
      Emit("  const uint8_t* d;");
      Emit("  uint8_t* rows;");
      Emit("  int64_t n;");
      Emit("  int64_t emit_n;");
      Emit("  int64_t rw;    // sorted-run width after the cascade");
      Emit("  uint32_t R;    // number of sorted runs (<= 8)");
      Emit("  uint32_t nt;");
      Emit("  HqPage** pgs;");
      Emit("} " + A + ";");
      Emit("");
      Emit("static int32_t op" + S(k) +
           "_out_build(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
           "void* argp) {");
      Emit("  " + A + "* A = (" + A + "*)argp;");
      Emit("  uint64_t rb, re;");
      Emit("  hq_task_range((uint64_t)A->n, A->nt, t, &rb, &re);");
      // Zero first: whole sorted records are memcpy'd into result pages,
      // so record padding must not leak arena garbage (byte-deterministic
      // results at every thread count).
      Emit("  memset(A->rows + rb * " + OSZ + ", 0, (re - rb) * " + OSZ +
           ");");
      Emit("  for (uint64_t i = rb; i < re; ++i) {");
      // The row-build pass sees no result-page boundary, so an
      // early-closed cursor must be noticed here: poll the cancellation
      // flag every 64Ki rows.
      Emit("    if ((i & 0xFFFF) == 0 && hq_cancelled(ctx)) { "
           "wk->error = HQ_ERR_CANCELLED; return -1; }");
      Emit("    const uint8_t* rec = A->d + i * " +
           S(in_layout.record_size) + ";");
      Emit("    uint8_t* o = A->rows + i * " + OSZ + ";");
      emit_row_build("    ", "rec", "o");
      Emit("  }");
      Emit("  return 0;");
      Emit("}");
      Emit("");
      // Splitter boundary t: the record at rank t*|run0|/nt of run 0 is
      // the splitter; its lower bound in every run (full comparator, so a
      // block of equal keys lands entirely in one task) fixes both the
      // per-run cursor ranges and — summed — the task's destination rank.
      Emit("static void op" + S(k) + "_out_bounds(const " + A +
           "* A, uint32_t t, int64_t* b) {");
      Emit("  uint32_t r;");
      Emit("  if (t == 0) {");
      Emit("    for (r = 0; r < A->R; ++r) b[r] = (int64_t)r * A->rw;");
      Emit("    return;");
      Emit("  }");
      Emit("  if (t >= A->nt) {");
      Emit("    for (r = 0; r < A->R; ++r) {");
      Emit("      int64_t e = ((int64_t)r + 1) * A->rw;");
      Emit("      b[r] = e < A->n ? e : A->n;");
      Emit("    }");
      Emit("    return;");
      Emit("  }");
      Emit("  int64_t r0n = A->rw < A->n ? A->rw : A->n;");
      Emit("  const uint8_t* sp = A->rows + "
           "(uint64_t)((int64_t)t * r0n / (int64_t)A->nt) * " + OSZ + ";");
      Emit("  for (r = 0; r < A->R; ++r) {");
      Emit("    int64_t lo = (int64_t)r * A->rw;");
      Emit("    int64_t hi = lo + A->rw;");
      Emit("    if (hi > A->n) hi = A->n;");
      Emit("    while (lo < hi) {");
      Emit("      int64_t mid = lo + ((hi - lo) >> 1);");
      Emit("      if (cmp_op" + S(k) + "_out(A->rows + (uint64_t)mid * " +
           OSZ + ", sp) < 0) lo = mid + 1; else hi = mid;");
      Emit("    }");
      Emit("    b[r] = lo;");
      Emit("  }");
      Emit("}");
      Emit("");
      Emit("static int32_t op" + S(k) +
           "_out_merge(HqQueryCtx* ctx, HqWorkerCtx* wk, uint32_t t, "
           "void* argp) {");
      Emit("  " + A + "* A = (" + A + "*)argp; (void)wk;");
      Emit("  int64_t cur[8]; int64_t stop[8];");
      Emit("  op" + S(k) + "_out_bounds(A, t, cur);");
      Emit("  op" + S(k) + "_out_bounds(A, t + 1, stop);");
      Emit("  int64_t d = 0, de = 0;");
      Emit("  uint32_t r;");
      Emit("  for (r = 0; r < A->R; ++r) {");
      Emit("    d += cur[r] - (int64_t)r * A->rw;");
      Emit("    de += stop[r] - (int64_t)r * A->rw;");
      Emit("  }");
      Emit("  if (de > A->emit_n) de = A->emit_n;");
      Emit("  const uint32_t tpp = ctx->result_tuples_per_page;");
      Emit("  while (d < de) {");
      // Lowest-run-index tie-break keeps this merge stable, matching what
      // the full two-way cascade (take-left on equal) would produce.
      Emit("    int best = -1;");
      Emit("    for (r = 0; r < A->R; ++r) {");
      Emit("      if (cur[r] >= stop[r]) continue;");
      Emit("      if (best < 0 || cmp_op" + S(k) +
           "_out(A->rows + (uint64_t)cur[r] * " + OSZ +
           ", A->rows + (uint64_t)cur[best] * " + OSZ + ") < 0) best = "
           "(int)r;");
      Emit("    }");
      Emit("    uint8_t* o = A->pgs[d / tpp]->data + (uint64_t)(d % tpp) * " +
           OSZ + ";");
      Emit("    memcpy(o, A->rows + (uint64_t)cur[best] * " + OSZ + ", " +
           OSZ + ");");
      Emit("    ++cur[best]; ++d;");
      Emit("  }");
      Emit("  return 0;");
      Emit("}");
      Emit("");
    }

    Emit("// op" + S(k) + ": project" +
         (need_sort ? " + order by (parallel splitter merge)" : "") +
         (op.limit >= 0 ? " + limit" : "") + " -> result");
    Emit("static int64_t op" + S(k) +
         "_output(HqQueryCtx* ctx, const HqStream* in) {");
    Emit("  const uint8_t* d = in->data;");
    Emit("  int64_t n = in->n;");
    Emit("  int64_t emit_n = " +
         (op.limit >= 0 ? "(n < " + S(op.limit) + " ? n : " + S(op.limit) + ")"
                        : std::string("n")) +
         ";");
    Emit("  const uint32_t tpp = ctx->result_tuples_per_page;");
    if (need_sort) {
      std::string A = "op" + S(k) + "_out_args";
      std::string RUN = S(run);
      Emit("  " + A + " A;");
      Emit("  A.d = d; A.n = n;");
      Emit("  A.rows = (uint8_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)(n ? n : 1) * " + OSZ + ");");
      Emit("  if (!A.rows) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("  A.nt = hq_task_count((uint64_t)n, HQ_PAR_OUT_GRAIN, " + PT +
           ");");
      Emit("  if (hq_parallel_for(ctx, A.nt, op" + S(k) +
           "_out_build, &A) != HQ_OK) return -1;");
      Emit("  // quicksort runs, then pair-merge rounds until <= 8 runs");
      Emit("  op" + S(k) + "_osort_args SA;");
      Emit("  SA.src = A.rows; SA.dst = 0; SA.n = n; SA.w = 0;");
      Emit("  SA.nt = hq_task_count(((uint64_t)n + " + RUN + " - 1) / " +
           RUN + ", 1, HQ_PAR_MAX_TASKS);");
      Emit("  if (hq_parallel_for(ctx, SA.nt, op" + S(k) +
           "_osort_runs, &SA) != HQ_OK) return -1;");
      Emit("  int64_t w = " + RUN + ";");
      Emit("  if (n > 0 && (n + w - 1) / w > 8) {");
      Emit("    uint8_t* buf = (uint8_t*)ctx->alloc(ctx->arena, "
           "(uint64_t)n * " + OSZ + ");");
      Emit("    if (!buf) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("    SA.dst = buf;");
      Emit("    while ((n + w - 1) / w > 8) {");
      Emit("      SA.w = w;");
      Emit("      SA.nt = hq_task_count(((uint64_t)n + 2 * w - 1) / "
           "(uint64_t)(2 * w), 1, HQ_PAR_MAX_TASKS);");
      Emit("      if (hq_parallel_for(ctx, SA.nt, op" + S(k) +
           "_osort_merge, &SA) != HQ_OK) return -1;");
      Emit("      uint8_t* tmpp = SA.src; SA.src = SA.dst; SA.dst = tmpp;");
      Emit("      w *= 2;");
      Emit("    }");
      Emit("  }");
      Emit("  A.rows = SA.src;");
      Emit("  A.rw = w;");
      Emit("  A.R = n > 0 ? (uint32_t)((n + w - 1) / w) : 1;");
      Emit("  A.emit_n = emit_n;");
      Emit("  if (emit_n > 0) {");
      Emit("    // splitter-partitioned k-way merge: disjoint tasks fill");
      Emit("    // fixed slots of the pre-allocated result pages");
      Emit("    uint64_t npg = ((uint64_t)emit_n + tpp - 1) / tpp;");
      Emit("    A.pgs = (HqPage**)ctx->alloc(ctx->arena, "
           "npg * sizeof(HqPage*));");
      Emit("    if (!A.pgs) { ctx->error = HQ_ERR_OOM; return -1; }");
      Emit("    if (ctx->result_alloc_pages(ctx->result_sink, A.pgs, npg) "
           "!= 0) return -1;");
      Emit("    A.nt = hq_task_count((uint64_t)emit_n, HQ_PAR_OUT_GRAIN, " +
           PT + ");");
      Emit("    if (hq_parallel_for(ctx, A.nt, op" + S(k) +
           "_out_merge, &A) != HQ_OK) return -1;");
      Emit("    if (ctx->result_emit_pages(ctx->result_sink, npg, "
           "(uint64_t)emit_n) != 0) return -1;");
      Emit("  }");
    } else {
      // One page in production at a time: allocate it, fill its rows,
      // emit it (the sink's per-page cancellation window).
      Emit("  for (int64_t i = 0; i < emit_n;) {");
      Emit("    HqPage* pg;");
      Emit("    if (ctx->result_alloc_pages(ctx->result_sink, &pg, 1) != 0) "
           "return -1;");
      Emit("    uint64_t m = (uint64_t)(emit_n - i) < tpp ? "
           "(uint64_t)(emit_n - i) : tpp;");
      Emit("    for (uint64_t j = 0; j < m; ++j, ++i) {");
      Emit("      const uint8_t* rec = d + (uint64_t)i * " +
           S(in_layout.record_size) + ";");
      Emit("      uint8_t* o = pg->data + j * " + OSZ + ";");
      emit_row_build("      ", "rec", "o");
      Emit("    }");
      Emit("    if (ctx->result_emit_pages(ctx->result_sink, 1, m) != 0) "
           "return -1;");
      Emit("  }");
    }
    Emit("  return (int64_t)ctx->tuples_emitted;");
    Emit("}");
    Emit("");
    return Status::OK();
  }

  // ---- composition (paper Fig. 3, line 19) --------------------------------

  void EmitMain() {
    // Load-time dispatch hook: exec::CompiledLibrary calls this once,
    // right after dlopen, with the resolved level. Anything but AVX2 on an
    // x86 build selects the portable kernels, so a stale caller cannot
    // select a version the library lacks. Dispatch state is per-library,
    // not per-execution: one process never mixes kernel versions within a
    // query.
    Emit("extern \"C\" void hique_set_simd(int32_t level) {");
    Emit("  hq_simd_level = HQ_SIMD_X86 && level == HQ_SIMD_AVX2 ? "
         "HQ_SIMD_AVX2 : HQ_SIMD_SCALAR;");
    Emit("}");
    Emit("");
    Emit("extern \"C\" int64_t hique_query_main(HqQueryCtx* ctx, "
         "const HqParams* params) {");
    // Hoisted literal bindings travel in the per-execution context, never a
    // file-scope static: concurrent runs of one library must not interfere.
    Emit("  ctx->params = params;");
    // Declare intermediate stream variables.
    size_t ntables = plan_.query->tables.size();
    for (size_t s = ntables; s < plan_.streams.size(); ++s) {
      Emit("  HqStream " + StreamVar(static_cast<int>(s)) +
           "; memset(&" + StreamVar(static_cast<int>(s)) + ", 0, sizeof(" +
           StreamVar(static_cast<int>(s)) + "));");
    }
    Emit("  int64_t rows = 0;");
    for (size_t k = 0; k < plan_.ops.size(); ++k) {
      // Operator boundaries are cancellation points: a closed cursor or an
      // async Cancel() stops the pipeline before the next operator starts
      // (finer-grained checks run inside parallel barriers and at result
      // page boundaries).
      Emit("  if (hq_cancelled(ctx)) { ctx->error = HQ_ERR_CANCELLED; "
           "return -1; }");
      // Observability mark: always emitted, so the generated source is
      // identical whether or not the engine installs a span recorder (one
      // cached library serves EXPLAIN ANALYZE and plain runs alike).
      Emit("  hq_op_mark(ctx, " + S(k) + ");");
      const plan::Op& op = plan_.ops[k];
      if (const auto* stage = std::get_if<StageOp>(&op)) {
        if (Stream(stage->input_stream).is_base_table) {
          Emit("  if (op" + S(k) + "_stage(ctx, &" +
               StreamVar(stage->out_stream) + ") != 0) return -1;");
        } else {
          Emit("  if (op" + S(k) + "_stage(ctx, &" +
               StreamVar(stage->input_stream) + ", &" +
               StreamVar(stage->out_stream) + ") != 0) return -1;");
        }
      } else if (const auto* join = std::get_if<JoinOp>(&op)) {
        std::string call = "  if (op" + S(k) + "_join(ctx";
        for (int s : join->input_streams) call += ", &" + StreamVar(s);
        call += ", &" + StreamVar(join->out_stream) + ") != 0) return -1;";
        Emit(call);
      } else if (const auto* agg = std::get_if<AggOp>(&op)) {
        if (Stream(agg->input_stream).is_base_table) {
          Emit("  if (op" + S(k) + "_agg(ctx, &" +
               StreamVar(agg->out_stream) + ") != 0) return -1;");
        } else {
          Emit("  if (op" + S(k) + "_agg(ctx, &" +
               StreamVar(agg->input_stream) + ", &" +
               StreamVar(agg->out_stream) + ") != 0) return -1;");
        }
      } else if (const auto* output = std::get_if<OutputOp>(&op)) {
        Emit("  rows = op" + S(k) + "_output(ctx, &" +
             StreamVar(output->input_stream) + ");");
        Emit("  if (rows < 0) return -1;");
      }
    }
    Emit("  hq_op_mark(ctx, -1);");
    Emit("  return rows;");
    Emit("}");
  }

  const plan::PhysicalPlan& plan_;
  std::string out_;
};

}  // namespace

Result<GeneratedQuery> Generate(const plan::PhysicalPlan& plan) {
  Generator gen(plan);
  return gen.Run();
}

}  // namespace hique::codegen
