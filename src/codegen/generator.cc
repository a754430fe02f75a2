#include "codegen/generator.h"

#include <algorithm>
#include <set>
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
    result.source =
        "// Generated by HIQUE, the Holistic Integrated Query Engine.\n"
        "// One function per staged input / operator; composed by\n"
        "// hique_query_main at the bottom (paper ICDE'10, Fig. 3).\n" +
        EmbeddedAbi() + "\n\n" + out_;
    return result;
  }

 private:
  /// runtime_abi.h without the driver groups this query does not use
  /// (see the header's operator-driver section).
  std::string EmbeddedAbi() const {
    std::set<std::string> used = drivers_;
    // Key ranges search with the sort group's hq_lower_bound; the sort
    // group's run sorts are hq_record_sort; map aggregation folds through
    // hq_accs; staging and the range drivers join task outputs with
    // hq_concat.
    if (used.count("key_range")) used.insert("sort");
    if (used.count("sort")) used.insert("record_sort");
    if (used.count("map")) used.insert("fold");
    if (used.count("stage") || used.count("range")) used.insert("concat");
    std::string abi = kAbiHeaderSource;
    for (const char* group :
         {"decode", "record_sort", "sort", "partition", "concat", "stage",
          "key_filter", "range", "key_range", "fold", "map"}) {
      if (used.count(group)) continue;
      std::string end = "// [end driver group " + std::string(group) + "]\n";
      size_t b = abi.find("// [driver group " + std::string(group) + "]\n");
      size_t e = abi.find(end, b);
      HQ_CHECK(b != std::string::npos && e != std::string::npos);
      abi.erase(b, e + end.size() - b);
    }
    return abi;
  }

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

  /// L2-sized quicksort run length for `rec`-byte records (paper §V-B).
  static int64_t SortRunLen(uint32_t rec) {
    uint64_t l2 = HostCacheInfo().l2_bytes;
    return std::max<int64_t>(64, static_cast<int64_t>(l2 / 2 / rec));
  }

  // ---- base-table scans (paper Listing 1 + §V-B "Input staging") ------

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
    drivers_.insert("decode");
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
  /// variable `T`: per page, `page_head` runs once `nt` is read, then the
  /// decode state is initialized and 64-tuple blocks are decoded into a
  /// 64-aligned stack buffer (`dbuf`); `block_body` consumes
  /// [dbuf, dbuf + bn * tuple_size). The predicate kernels and projection
  /// code run over dbuf unchanged — decode replaces only the "where tuples
  /// live" part of the scan, keeping selection-order semantics untouched.
  void EmitCompressedScan(int k, uint32_t tuple_size, bool prefetch,
                          const std::function<void()>& page_head,
                          const std::function<void()>& block_body) {
    Emit("  uint8_t dbuf[HQ_SIMD_BLOCK * " + S(tuple_size) +
         "] __attribute__((aligned(64)));");
    Emit("  for (uint64_t p = pb; p < pe; ++p) {");
    Emit("    const uint8_t* page = T->pages[p];");
    if (prefetch) EmitNextPagePrefetch("T->pages", "p", "pe", "    ");
    Emit("    uint32_t nt = *(const uint32_t*)page;");
    page_head();
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
                                    const TableCodec& tc, bool prefetch,
                                    const std::function<void()>& page_head,
                                    const std::function<void()>& block_body) {
    const std::string CTPP = S(tc.tuples_per_cpage);
    Emit("  uint8_t dbuf[HQ_SIMD_BLOCK * " + S(tuple_size) +
         "] __attribute__((aligned(64)));");
    Emit("  uint64_t cpb = ts / " + CTPP + ";");
    Emit("  uint64_t cpe = (te + " + CTPP + " - 1) / " + CTPP + ";");
    Emit("  for (uint64_t p = cpb; ts < te && p < cpe; ++p) {");
    Emit("    const uint8_t* page = T->pages[p];");
    if (prefetch) EmitNextPagePrefetch("T->pages", "p", "cpe", "    ");
    Emit("    uint32_t nt = *(const uint32_t*)page;");
    page_head();
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

  /// Emits the body for one qualifying tuple at `tup`, indented by `ind`.
  using SurvivorFn =
      std::function<void(const std::string& tup, const std::string& ind)>;

  /// The page loop of every base-table scan, over pages [pb, pe) of the
  /// caller's `T` — or tuples [ts, te) with `tuple_range` (compressed map
  /// aggregation, see EmitCompressedScanTupleRange). A batched scan (`pred`
  /// names its BatchedScan kernel) walks the set bits of one selection
  /// bitmap per 64-tuple block; any other scan is the paper's
  /// tuple-at-a-time loop with `filters` inlined. A compressed input runs
  /// either shape over fused-decoded blocks. `survivor` emits the body for
  /// one qualifying tuple and `pages` names the page counter.
  ///
  /// `key_test` (staging only) names the hq_key_filter_test instantiation
  /// of a probe stage's join-key filter `kf`: the scan then always runs
  /// the block loop, clears the bits of each block's mask whose key is not
  /// in the filter, then applies any filters the mask did not (an
  /// unbatched scan's), and counts the mask's bits before and after the
  /// test in `kf_in`/`kf_out`.
  void EmitBaseScan(int k, const Schema& schema, const TableCodec& codec,
                    const std::vector<sql::Filter>& filters,
                    const std::string& pred, const std::string& pages,
                    bool tuple_range, const SurvivorFn& survivor,
                    const std::string& key_test = "") {
    const std::string TS = S(schema.TupleSize());
    const bool batched = !pred.empty();
    const bool blocked = batched || !key_test.empty();
    auto page_head = [&] { Emit("    ++" + pages + ";"); };
    // One tuple of the tuple-at-a-time loop: filters, then the survivor.
    auto tuple = [&](const std::string& ind) {
      for (const auto& f : filters) {
        Emit(ind + "if (!" + FilterCondition("tup", schema, f, &plan_.params) +
             ") continue;");
      }
      survivor("tup", ind);
    };
    // One batched block at `blk`: its bitmap, then the set bits in order.
    auto bitmap = [&](const std::string& blk) {
      Emit("      uint64_t bm = " +
           (batched ? pred + "(ctx, " + blk + ", bn)" : "~0ull >> (64 - bn)") +
           ";");
      if (tuple_range) {
        // Mask out lanes outside the task's tuple range. The carry
        // fast-forward loop leaves lo < HQ_SIMD_BLOCK, so `<< lo` is
        // well-defined.
        Emit("      if (lo) bm &= ~0ull << lo;");
        Emit("      if (hi < 64) bm &= (1ull << hi) - 1;");
      }
      if (!key_test.empty()) {
        Emit("      kf_in += __builtin_popcountll(bm);");
        Emit("      bm = " + key_test + "(kf, " + blk + ", bn, bm);");
        Emit("      kf_out += __builtin_popcountll(bm);");
        if (!batched && !filters.empty()) {
          std::string conj;
          for (const auto& f : filters) {
            conj += std::string(conj.empty() ? "" : " && ") +
                    FilterCondition("r", schema, f, &plan_.params);
          }
          Emit("      for (uint64_t sc = bm; sc; sc &= sc - 1) {");
          Emit("        uint32_t bi = (uint32_t)__builtin_ctzll(sc);");
          Emit("        const uint8_t* r = " + blk + " + (uint64_t)bi * " +
               TS + ";");
          Emit("        if (!(" + conj + ")) bm &= ~(1ull << bi);");
          Emit("      }");
        }
      }
      Emit("      while (bm) {");
      Emit("        uint32_t bi = (uint32_t)__builtin_ctzll(bm);");
      Emit("        bm &= bm - 1;");
      Emit("        const uint8_t* rtup = " + blk + " + (uint64_t)bi * " + TS +
           ";");
      survivor("rtup", "        ");
      Emit("      }");
    };
    if (codec.enabled) {
      auto block = [&] {
        if (blocked) {
          bitmap("dbuf");
          return;
        }
        Emit(std::string("      for (uint32_t bi = ") +
             (tuple_range ? "lo; bi < hi" : "0; bi < bn") + "; ++bi) {");
        Emit("        const uint8_t* tup = dbuf + (uint64_t)bi * " + TS + ";");
        tuple("        ");
        Emit("      }");
      };
      if (tuple_range) {
        EmitCompressedScanTupleRange(k, schema.TupleSize(), codec, batched,
                                     page_head, block);
      } else {
        EmitCompressedScan(k, schema.TupleSize(), blocked, page_head, block);
      }
      return;
    }
    Emit("  for (uint64_t p = pb; p < pe; ++p) {");
    Emit("    const uint8_t* page = T->pages[p];");
    if (blocked) EmitNextPagePrefetch("T->pages", "p", "pe", "    ");
    Emit("    uint32_t nt = *(const uint32_t*)page;");
    page_head();
    Emit("    const uint8_t* tup = page + HQ_PAGE_HEADER;");
    if (blocked) {
      Emit("    for (uint32_t ti = 0; ti < nt; ) {");
      Emit("      uint32_t bn = nt - ti < HQ_SIMD_BLOCK ? nt - ti : "
           "HQ_SIMD_BLOCK;");
      bitmap("tup");
      Emit("      ti += bn; tup += (uint64_t)bn * " + TS + ";");
      Emit("    }");
    } else {
      Emit("    for (uint32_t ti = 0; ti < nt; ++ti, tup += " + TS + ") {");
      tuple("      ");
      Emit("    }");
    }
    Emit("  }");
  }

  Status EmitStage(int k, const StageOp& op) {
    const StreamInfo& in = Stream(op.input_stream);
    const RecordLayout& out_layout = op.output;
    uint32_t rec = out_layout.record_size;
    std::string fn = "op" + S(k) + "_stage";

    // The type-specific kernel the sort / partition driver instantiates.
    if (op.action == StageAction::kSort) {
      EmitComparator("cmp_op" + S(k), out_layout, op.key_fields, {});
    } else if (op.action == StageAction::kPartition) {
      EmitPartitionPidKernel(k, op, out_layout);
    } else if (op.action == StageAction::kPartitionFine) {
      EmitFinePid(k, op, out_layout);
    }

    if (in.is_base_table) {
      const Schema& schema = plan_.query->tables[in.base_table_index]->schema();
      if (op.input_codec.enabled) {
        // Needed columns: filter inputs plus projected fields. Everything
        // else stays encoded on the page.
        std::vector<char> needed(schema.NumColumns(), 0);
        for (const auto& f : op.filters) {
          needed[f.column.column] = 1;
          if (f.rhs_is_column) needed[f.rhs_column.column] = 1;
        }
        for (const auto& f : op.output.fields) needed[f.source.column] = 1;
        EmitDecodeHelpers(k, op.input_codec, schema, needed);
      }
      std::string pred;
      if (BatchedScan(schema, op.filters, op.filter_selectivity,
                      &plan_.params)) {
        pred = "op" + S(k) + "_pred";
        EmitPredicateKernel(&out_, pred, schema, op.filters, &plan_.params);
      }
      // A probe stage's join-key filter tests the base tuple's key column.
      const bool filtered = op.key_filter_op >= 0;
      std::string key_test;
      if (filtered) {
        drivers_.insert("key_filter");
        const plan::FieldRef& key = out_layout.fields[op.key_fields[0]];
        key_test = "hq_key_filter_test<" + std::string(key.type.CType()) +
                   ", " + S(schema.TupleSize()) + ", " +
                   S(schema.OffsetAt(key.source.column)) + ">";
      }
      // The scan every hq_stage_base task runs once over its pages.
      Emit("// op" + S(k) + ": stage stream " + S(op.input_stream) +
           " (base table scan-select, Listing 1)");
      Emit("static int64_t op" + S(k) +
           "_scan(HqQueryCtx* ctx, const HqTableRef* T, uint64_t pb, "
           "uint64_t pe, uint8_t* dst, uint64_t* pages) {");
      Emit("  uint8_t* const dst0 = dst;");
      if (filtered) {
        Emit("  HqKeyFilter* kf = ((const HqProbeInput*)T)->kf;");
        Emit("  uint64_t kf_in = 0, kf_out = 0;");
      }
      EmitBaseScan(k, schema, op.input_codec, op.filters, pred, "*pages",
                   /*tuple_range=*/false,
                   [&](const std::string& tup, const std::string& ind) {
        // Project: copy each kept field to its staged offset.
        for (size_t i = 0; i < out_layout.fields.size(); ++i) {
          const auto& f = out_layout.fields[i];
          Emit(ind + "memcpy(dst + " +
               S(out_layout.OffsetOf(static_cast<int>(i))) + ", " + tup +
               " + " + S(schema.OffsetAt(f.source.column)) + ", " +
               S(f.type.ByteSize()) + ");");
        }
        Emit(ind + "dst += " + S(rec) + ";");
      }, key_test);
      if (filtered) Emit("  hq_key_filter_count(kf, kf_in, kf_out);");
      Emit("  return (int64_t)((dst - dst0) / " + S(rec) + ");");
      Emit("}");
      Emit("");
      drivers_.insert("stage");
      const std::string table = "ctx->inputs[" + S(in.base_table_index) + "]";
      if (filtered) {
        Emit("static int " + fn +
             "(HqQueryCtx* ctx, HqKeyFilter* kf, HqStream* out) {");
        Emit("  HqProbeInput in = {" + table + ", kf};");
      } else {
        Emit("static int " + fn + "(HqQueryCtx* ctx, HqStream* out) {");
      }
      Emit("  if (hq_stage_base<" + S(rec) + ", op" + S(k) + "_scan>(ctx, " +
           (filtered ? "&in.T" : "&" + table) + ", out) != 0) return -1;");
    } else {
      // Intermediate streams carry identical layouts: alias, then act.
      HQ_CHECK(SameLayout(in.layout, out_layout));
      Emit("// op" + S(k) + ": stage stream " + S(op.input_stream) +
           " (intermediate)");
      Emit("static int " + fn +
           "(HqQueryCtx* ctx, const HqStream* in, HqStream* out) {");
      Emit("  *out = *in;");
      Emit("  out->part_begin = 0; out->num_parts = 0;");
    }

    switch (op.action) {
      case StageAction::kNone:
        break;
      case StageAction::kSort:
        drivers_.insert("sort");
        Emit("  if (hq_sort_cascade<" + S(rec) + ", cmp_op" + S(k) +
             ">(ctx, &out->data, out->n, " + S(SortRunLen(rec)) +
             ", 1, 0) != 0) return -1;");
        break;
      case StageAction::kPartition:
        drivers_.insert("partition");
        Emit("  if (hq_partition_coarse<" + S(rec) + ", " +
             S(op.num_partitions) + ", op" + S(k) +
             "_pids>(ctx, out) != 0) return -1;");
        break;
      case StageAction::kPartitionFine:
        drivers_.insert("partition");
        Emit("  if (hq_partition_fine<" + S(rec) + ", " +
             S(op.num_partitions) + ", op" + S(k) + "_pid, " +
             (op.fine_clamp ? "true" : "false") +
             ">(ctx, out) != 0) return -1;");
        break;
    }
    Emit("  return 0;");
    Emit("}");
    Emit("");
    return Status::OK();
  }

  /// Coarse (hash) partition-id expression over record pointer `r`.
  static std::string HashPid(const StageOp& op, const RecordLayout& layout) {
    uint32_t M = op.num_partitions;
    int key = op.key_fields[0];
    Type kt = layout.fields[key].type;
    uint32_t koff = layout.OffsetOf(key);
    std::string mod = IsPow2(M) ? "& " + S(M - 1) : "% " + S(M);
    if (kt.id == TypeId::kChar) {
      return "(int64_t)(hq_hash_bytes(r + " + S(koff) + ", " +
             S(kt.length) + ") " + mod + ")";
    }
    return "(int64_t)(hq_hash64((uint64_t)" + FieldAccess("r", koff, kt) +
           ") " + mod + ")";
  }

  /// Fine partitioning's dense value -> partition map (paper:
  /// value-partition map) `op<k>_pid(r)`; hq_partition_fine applies the
  /// drop or clamp guard to ids outside [0, M).
  void EmitFinePid(int k, const StageOp& op, const RecordLayout& layout) {
    int key = op.key_fields[0];
    Emit("static inline int64_t op" + S(k) + "_pid(const uint8_t* r) {");
    Emit("  return (int64_t)" +
         FieldAccess("r", layout.OffsetOf(key), layout.fields[key].type) +
         " - (" + S(op.fine_min) + ");");
    Emit("}");
    Emit("");
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
    std::string pid = HashPid(op, layout);

    std::string scalar_body;
    scalar_body += "  for (uint32_t i = 0; i < bn; ++i, d += " + R + ") {\n";
    scalar_body += "    const uint8_t* r = d;\n";
    scalar_body += "    pid[i] = (int32_t)(" + pid + ");\n";
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
    vec_body += "    pid[i] = (int32_t)(" + pid + ");\n";
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

  /// Emits `static inline int NAME(const uint8_t* a, const uint8_t* b)`
  /// comparing the join key of `a` (an input-`ka` record) with the join key
  /// of `b` (an input-`kb` record).
  void EmitKeyComparator(const std::string& name, const KeyAccess& ka,
                         const KeyAccess& kb) {
    Emit("static inline int " + name +
         "(const uint8_t* a, const uint8_t* b) {");
    if (kb.type.id == TypeId::kChar) {
      Emit("  return memcmp(a + " + S(ka.off) + ", b + " + S(kb.off) + ", " +
           S(kb.type.length) + ");");
    } else {
      std::string x = FieldAccess("a", ka.off, ka.type);
      std::string y = FieldAccess("b", kb.off, kb.type);
      Emit("  if (" + x + " < " + y + ") return -1;");
      Emit("  return " + x + " > " + y + ";");
    }
    Emit("}");
    Emit("");
  }

  /// The signature every range kernel shares (runtime_abi.h HqRangeFn).
  static std::string RangeKernel(const std::string& name) {
    return "static int " + name +
           "(HqQueryCtx* ctx, uint8_t* const* d, const int64_t* b, "
           "const int64_t* e, void* out) {";
  }

  /// `op<k>_join` runs the range kernel `op<k>_merge_range` (the k-way
  /// sorted group merge of Listing 2; fine partitions hold one key each, so
  /// there it is a pure cross product) through a range driver: key ranges
  /// of the sorted inputs for a merge join, partition ranges (with a JIT
  /// sort per partition unless fine) for a hybrid join.
  Status EmitJoin(int k, const JoinOp& op) {
    size_t nin = op.input_streams.size();
    const StageOp* first_stage = FindProducer(op.input_streams[0]);
    bool merge = op.algo == JoinAlgo::kMerge;
    bool fine = !merge && first_stage != nullptr &&
                first_stage->action == StageAction::kPartitionFine;

    std::vector<KeyAccess> keys(nin);
    for (size_t t = 0; t < nin; ++t) {
      const RecordLayout& lay = Stream(op.input_streams[t]).layout;
      keys[t] = {"d" + S(t), lay.record_size,
                 lay.OffsetOf(op.key_fields[t]),
                 lay.fields[op.key_fields[t]].type};
    }
    // One driver argument per input. Hybrid: its partition sort. Merge:
    // its key against input 0's, for the splitter searches.
    std::string per_input;
    if (!fine) {
      for (size_t t = 0; t < nin; ++t) {
        std::string cmp = "cmp_op" + S(k) + "_in" + S(t);
        EmitKeyComparator(cmp, keys[t], merge ? keys[0] : keys[t]);
        per_input += ", " + (merge ? cmp
                                   : "hq_record_sort<" + S(keys[t].rec) +
                                         ", " + cmp + ">");
      }
      if (!merge) drivers_.insert("record_sort");
    }

    // Scalar-aggregation fusion: a per-task accumulator block updated
    // inside the innermost join loops; the driver folds the blocks in task
    // order and the join emits one aggregate record.
    std::string accs_t = "op" + S(k) + "_accs";
    std::string out_policy;
    if (op.fuse_scalar_agg) {
      out_policy = EmitAccBlock(accs_t, Cells(), op.query->aggs, op.output,
                                op.fused_output);
    } else {
      uint64_t est = std::min<uint64_t>(
          Stream(op.out_stream).est_rows + 16, 1u << 22);
      out_policy = "hq_vecs<" + S(op.output.record_size) + ", " + S(est) + ">";
    }

    std::string range_fn = "op" + S(k) + "_merge_range";
    Emit("// " + std::string(merge ? "merge join"
                                   : (fine ? "fine-partition join"
                                           : "hybrid hash-sort-merge join")) +
         " over " + S(nin) + " inputs (nested-loops template, Listing 2)" +
         (op.fuse_scalar_agg ? ", scalar aggregation fused" : ""));
    Emit(RangeKernel(range_fn));
    if (op.fuse_scalar_agg) {
      Emit("  " + accs_t + "* acc = (" + accs_t + "*)out;");
      Emit("  uint8_t orec_buf[" + S(op.output.record_size) +
           "]; (void)orec_buf;");
    } else {
      Emit("  HqVec* v = (HqVec*)out;");
    }
    // Merge cursors i<t> start at b[t]; the fine cross product needs none.
    const std::string lo = fine ? "b" : "i";
    for (size_t t = 0; t < nin; ++t) {
      Emit("  const uint8_t* d" + S(t) + " = d[" + S(t) + "]; int64_t " + lo +
           S(t) + " = b[" + S(t) + "], e" + S(t) + " = e[" + S(t) + "];");
    }
    if (fine) {
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

    std::string sig = "static int op" + S(k) + "_join(HqQueryCtx* ctx";
    std::string ins;
    for (size_t t = 0; t < nin; ++t) {
      sig += ", const HqStream* in" + S(t);
      ins += std::string(t ? ", " : "") + "in" + S(t);
    }
    Emit(sig + ", HqStream* out) {");
    Emit("  const HqStream* in[] = {" + ins + "};");
    // The largest (first) input drives a merge join's key ranges, capped by
    // the optimizer's par_tasks from its cardinality estimate.
    EmitRangeDriver(merge, S(nin), range_fn, out_policy, per_input, "in",
                    op.par_tasks);
    Emit("}");
    Emit("");
    return Status::OK();
  }

  /// `return` of the range driver instantiation: key ranges (capped at
  /// `par_tasks`) or partition ranges over the `n` streams `in`;
  /// `per_input` lists the per-input comparators or sorts.
  void EmitRangeDriver(bool key_ranges, const std::string& n,
                       const std::string& kernel, const std::string& out,
                       const std::string& per_input, const std::string& in,
                       uint32_t par_tasks) {
    drivers_.insert("range");
    if (key_ranges) drivers_.insert("key_range");
    Emit("  return hq_" + std::string(key_ranges ? "key" : "part") +
         "_ranges<" + n + ", " + kernel + ", " + out + per_input + ">(ctx, " +
         in + (key_ranges ? ", " + S(par_tasks) : "") + ", out);");
  }

  /// The cell geometry of an accumulator block (paper Fig. 4(b)): one
  /// directory per group key, dense (identity ids over [min, min + cap)) or
  /// sparse (an hq_dir<cap>), and row-major cells. No keys: one cell.
  struct Cells {
    std::vector<uint64_t> caps, strides;
    std::vector<bool> dense;
    std::vector<int64_t> mins;
    uint64_t n = 1;
    bool sparse = false;  // some key is sparse
  };

  static Cells MapCells(const AggOp& op) {
    Cells m;
    m.caps = op.directory_capacity;
    HQ_CHECK(m.caps.size() == op.group_fields.size());
    for (uint64_t c : m.caps) m.n *= c;
    if (m.n == 0) m.n = 1;
    m.strides.assign(m.caps.size(), 1);
    for (size_t g = m.caps.size(); g-- > 1;) {
      m.strides[g - 1] = m.strides[g] * m.caps[g];
    }
    for (size_t g = 0; g < m.caps.size(); ++g) {
      m.dense.push_back(g < op.directory_dense.size() &&
                        op.directory_dense[g] != 0);
      m.mins.push_back(m.dense[g] ? op.directory_min[g] : 0);
      m.sparse = m.sparse || !m.dense[g];
    }
    return m;
  }

  /// Key g's id within cell index `c`.
  static std::string CellId(const Cells& m, size_t g, const std::string& c) {
    std::string id = m.strides[g] == 1 ? c : c + " / " + S(m.strides[g]);
    return g == 0 ? id : "(" + id + ") % " + S(m.caps[g]);
  }

  /// The per-task accumulator block that hq_accs folds, for map
  /// aggregation and for a join with fused scalar aggregation: typedef T
  /// (tuple counts grp_n, one register per aggregate, one hq_dir per
  /// sparse key; with keys, every register is an array over the cells);
  /// T_merge, which re-keys a task's occupied cells through the running
  /// block's directories and folds them in, returning nonzero when one does
  /// not fit; and T_emit, which writes the occupied cells (a scalar
  /// aggregate's one cell always) as `out` records, group keys first. The
  /// running block counts the tuples already merged, so min/max ignore its
  /// zeroed registers until real data arrives. Returns the hq_accs
  /// instantiation.
  std::string EmitAccBlock(const std::string& T, const Cells& m,
                           const std::vector<sql::AggSpec>& aggs,
                           const RecordLayout& in, const RecordLayout& out) {
    drivers_.insert("fold");
    const size_t nkeys = m.caps.size();
    const std::string cells = S(m.n);
    auto at = [&](const std::string& c) {
      return nkeys ? "[" + c + "]" : std::string();
    };
    const std::string ind = nkeys ? "    " : "  ";
    Emit("typedef struct {");
    Emit("  int64_t grp_n" + at(cells) + ";");
    for (const AccDecl& a : BuildAccs(aggs, in, out, nkeys, "", "", "", "",
                                      at(cells))) {
      if (!a.decl.empty()) Emit("  " + a.decl + ";");
    }
    for (size_t g = 0; g < nkeys; ++g) {
      if (!m.dense[g]) Emit("  hq_dir<" + S(m.caps[g]) + "> dir" + S(g) + ";");
    }
    Emit("} " + T + ";");
    Emit("");
    Emit("static int " + T + "_merge(uint8_t* gp, const uint8_t* sp) {");
    Emit("  " + T + "* G = (" + T + "*)gp; const " + T + "* S = (const " + T +
         "*)sp;");
    if (nkeys == 0) {
      Emit("  if (S->grp_n == 0) return 0;");
    } else {
      Emit("  for (uint64_t c = 0; c < " + cells + "; ++c) {");
      Emit("    if (S->grp_n[c] == 0) continue;");
      Emit(std::string("    uint64_t cell = ") + (m.sparse ? "0;" : "c;"));
    }
    for (size_t g = 0; m.sparse && g < nkeys; ++g) {
      const std::string st = S(m.strides[g]);
      if (m.dense[g]) {
        // Dense ids are global already: identity re-key.
        Emit("    cell += (uint64_t)(" + CellId(m, g, "c") + ") * " + st + ";");
      } else {
        // A task's sparse ids are its own: re-key through G's directory.
        Emit("    { int32_t id = hq_dir_id<" + S(m.caps[g]) + ">(&G->dir" +
             S(g) + ", S->dir" + S(g) + ".v[" + CellId(m, g, "c") + "]);");
        Emit("      if (id < 0) return -1;");
        Emit("      cell += (uint64_t)id * " + st + "; }");
      }
    }
    for (const std::string& merge :
         BuildAccMerges(aggs, "G->", "S->", at("cell"), at("c"),
                        "G->grp_n" + at("cell"))) {
      Emit(ind + merge);
    }
    Emit(ind + "G->grp_n" + at("cell") + " += S->grp_n" + at("c") + ";");
    if (nkeys) Emit("  }");
    Emit("  return 0;");
    Emit("}");
    Emit("");
    Emit("static int " + T + "_emit(const uint8_t* gp, HqVec* v) {");
    Emit("  const " + T + "* G = (const " + T + "*)gp;");
    if (nkeys) {
      Emit("  for (uint64_t cell = 0; cell < " + cells + "; ++cell) {");
      Emit("    if (G->grp_n[cell] == 0) continue;");
    }
    Emit(ind + "uint8_t* o = hq_vec_slot(v);");
    Emit(ind + "if (!o) return -1;");
    for (size_t g = 0; g < nkeys; ++g) {
      const Type t = out.fields[g].type;
      const std::string dst = "o + " + S(out.OffsetOf(static_cast<int>(g)));
      const std::string id = CellId(m, g, "cell");
      if (m.dense[g]) {
        Emit("    { int64_t gv = (int64_t)(" + id + ") + (" + S(m.mins[g]) +
             ");");
      } else {
        Emit("    { int64_t gv = G->dir" + S(g) + ".v[" + id + "];");
      }
      if (t.id == TypeId::kChar) {
        Emit("      memcpy(" + dst + ", &gv, " + S(t.length) + "); }");
      } else if (t.ByteSize() == 4) {
        Emit("      *(int32_t*)(" + dst + ") = (int32_t)gv; }");
      } else {
        Emit("      *(int64_t*)(" + dst + ") = gv; }");
      }
    }
    for (const AccDecl& a : BuildAccs(aggs, in, out, nkeys, "", "G->",
                                      at("cell"), "G->grp_n" + at("cell"))) {
      Emit(ind + a.emit);
    }
    if (nkeys) Emit("  }");
    Emit("  return 0;");
    Emit("}");
    Emit("");
    return "hq_accs<sizeof(" + T + "), " + S(out.record_size) + ", " + T +
           "_merge, " + T + "_emit>";
  }

  /// Statements folding register partials (`src` prefix, `src_cell` index)
  /// into the running ones (`dst` prefix, `dst_cell` index); `guard`
  /// counts the tuples already merged, so min/max ignore the
  /// zero-initialized registers of the destination until real data
  /// arrives. COUNT is the tuple count itself and needs no statement.
  std::vector<std::string> BuildAccMerges(
      const std::vector<sql::AggSpec>& aggs, const std::string& dst,
      const std::string& src, const std::string& dst_cell,
      const std::string& src_cell, const std::string& guard) {
    std::vector<std::string> out;
    for (size_t j = 0; j < aggs.size(); ++j) {
      const sql::AggSpec& spec = aggs[j];
      std::string d = dst + "acc" + S(j) + dst_cell;
      std::string s = src + "acc" + S(j) + src_cell;
      switch (spec.func) {
        case AggFunc::kCount:
          break;
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
      EmitUpdates(BuildAccs(op.query->aggs, op.output, op.fused_output, 0,
                            "orec", "acc->", "", "acc->grp_n"),
                  ind);
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
    std::string decl;    // declaration, without initializer or semicolon
    std::string update;  // per-tuple update statement
    std::string reset;   // group-boundary reset
    std::string emit;    // store into output record `o`
  };

  /// Accumulator register code. Register j is `prefix` + "acc<j>" + `cell`
  /// (a cell index such as "[c]" into a per-cell array of `dims`), `rec`
  /// the input record and `grp` the tuple count its cell has seen, which
  /// the caller maintains. COUNT is that count: it has an emit only.
  std::vector<AccDecl> BuildAccs(const std::vector<sql::AggSpec>& aggs,
                                 const RecordLayout& in_layout,
                                 const RecordLayout& out_layout, size_t nkeys,
                                 const std::string& rec,
                                 const std::string& prefix,
                                 const std::string& cell,
                                 const std::string& grp,
                                 const std::string& dims = "") {
    std::vector<AccDecl> accs;
    for (size_t j = 0; j < aggs.size(); ++j) {
      const sql::AggSpec& spec = aggs[j];
      const std::string o =
          "o + " + S(out_layout.OffsetOf(static_cast<int>(nkeys + j)));
      const std::string name = "acc" + S(j) + dims;
      const std::string var = prefix + "acc" + S(j) + cell;
      AccDecl a;
      std::string arg =
          spec.arg ? ScalarToC(rec, in_layout, *spec.arg, &plan_.params) : "1";
      switch (spec.func) {
        case AggFunc::kCount:
          a.emit = "*(int64_t*)(" + o + ") = " + grp + ";";
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg: {
          const bool avg = spec.func == AggFunc::kAvg;
          const std::string ct =
              avg || spec.out_type.id == TypeId::kDouble ? "double" : "int64_t";
          a.decl = ct + " " + name;
          a.update = var + " += " + (avg ? "(double)" : "") + arg + ";";
          a.reset = var + " = 0;";
          a.emit = "*(" + ct + "*)(" + o + ") = " +
                   (avg ? grp + " ? (" + var + " / (double)" + grp + ") : 0.0"
                        : var) +
                   ";";
          break;
        }
        case AggFunc::kMin:
        case AggFunc::kMax: {
          const char* cmp = spec.func == AggFunc::kMin ? "<" : ">";
          if (spec.out_type.id == TypeId::kChar) {
            // CHAR min/max over a fixed-size register buffer.
            HQ_CHECK(spec.arg && spec.arg->kind == sql::ScalarKind::kColumn);
            int fi = in_layout.FindField(spec.arg->column);
            std::string field = rec + " + " + S(in_layout.OffsetOf(fi));
            std::string len = S(spec.out_type.length);
            a.decl = "char " + name + "[" + len + "]";
            a.update = "if (" + grp + " == 0 || memcmp(" + field + ", " + var +
                       ", " + len + ") " + cmp + " 0) memcpy(" + var + ", " +
                       field + ", " + len + ");";
            a.emit = "memcpy(" + o + ", " + var + ", " + len + ");";
          } else {
            std::string ct = spec.out_type.CType();
            a.decl = ct + " " + name;
            a.update = "{ " + ct + " v_ = (" + ct + ")" + arg + "; if (" +
                       grp + " == 0 || v_ " + cmp + " " + var + ") " + var +
                       " = v_; }";
            a.emit = "*(" + ct + "*)(" + o + ") = " + var + ";";
          }
          break;
        }
      }
      accs.push_back(std::move(a));
    }
    return accs;
  }

  /// Emits the per-tuple updates of `accs` (COUNT has none).
  void EmitUpdates(const std::vector<AccDecl>& accs, const std::string& ind) {
    for (const AccDecl& a : accs) {
      if (!a.update.empty()) Emit(ind + a.update);
    }
  }

  /// Sort and hybrid aggregation: the sorted-group scan `op<k>_scan`, a
  /// range kernel over one input, runs through a range driver: key ranges
  /// of the globally sorted input (each group-key splitter's lower bound,
  /// so no group straddles two tasks), or partition ranges, each partition
  /// JIT-sorted on all group keys.
  Status EmitSortishAgg(int k, const AggOp& op, bool hybrid) {
    const RecordLayout& in_layout = Stream(op.input_stream).layout;
    uint32_t irec = in_layout.record_size;
    uint32_t orec = op.output.record_size;
    std::string scan_fn = "op" + S(k) + "_scan";
    std::string cmp = "cmp_op" + S(k);
    EmitComparator(cmp, in_layout, op.group_fields, {});
    if (hybrid) drivers_.insert("record_sort");

    // The sorted-group scan: single pass, registers per aggregate.
    std::vector<AccDecl> accs =
        BuildAccs(op.query->aggs, in_layout, op.output,
                  op.group_fields.size(), "rec", "", "", "grp_n");
    Emit("// op" + S(k) + ": " + (hybrid ? "hybrid hash-sort" : "sort") +
         " aggregation scan");
    Emit(RangeKernel(scan_fn));
    Emit("  const uint8_t* d0 = d[0]; HqVec* v = (HqVec*)out;");
    Emit("  if (b[0] >= e[0]) return 0;");
    Emit("  int64_t gs = b[0];");
    Emit("  int64_t grp_n = 0;");
    for (const auto& a : accs) {
      if (!a.decl.empty()) Emit("  " + a.decl + " = {};");
    }
    Emit("  for (int64_t i = b[0]; i < e[0]; ++i) {");
    Emit("    const uint8_t* rec = d0 + (uint64_t)i * " + S(irec) + ";");
    // Group-change test against the group's first record.
    std::string same;
    for (size_t g = 0; g < op.group_fields.size(); ++g) {
      int f = op.group_fields[g];
      if (g) same += " && ";
      same += FieldEquals("rec", "grec", in_layout.OffsetOf(f),
                          in_layout.fields[f].type);
    }
    Emit("    const uint8_t* grec = d0 + (uint64_t)gs * " + S(irec) + ";");
    Emit("    if (i > gs && !(" + same + ")) {");
    EmitGroupEmission(op, accs, "grec", "      ");
    Emit("      gs = i; grp_n = 0;");
    for (const auto& a : accs) {
      if (!a.reset.empty()) Emit("      " + a.reset);
    }
    Emit("      grec = rec;");
    Emit("    }");
    EmitUpdates(accs, "    ");
    Emit("    ++grp_n;");
    Emit("  }");
    Emit("  {");
    Emit("    const uint8_t* grec = d0 + (uint64_t)gs * " + S(irec) + ";");
    EmitGroupEmission(op, accs, "grec", "    ");
    Emit("  }");
    Emit("  return 0;");
    Emit("}");
    Emit("");

    uint64_t est = std::min<uint64_t>(Stream(op.out_stream).est_rows + 16,
                                      1u << 22);
    Emit("static int op" + S(k) +
         "_agg(HqQueryCtx* ctx, const HqStream* in, HqStream* out) {");
    EmitRangeDriver(!hybrid, "1", scan_fn,
                    "hq_vecs<" + S(orec) + ", " + S(est) + ">",
                    hybrid ? ", hq_record_sort<" + S(irec) + ", " + cmp + ">"
                           : ", " + cmp,
                    "&in", op.par_tasks);
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
    Emit(ind + "  uint8_t* o = hq_vec_slot(v);");
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

  /// Map aggregation: the per-task block `op<k>_map` with its merge and
  /// emit kernels (EmitAccBlock), and the scan kernel `op<k>_map_scan`,
  /// which aggregates a page, virtual-page or record range into one block,
  /// run through hq_map_agg. Every task owns a block; the fold re-keys the
  /// sparse ids of tasks 1.. through block 0's directories by value.
  Status EmitMapAgg(int k, const AggOp& op) {
    const StreamInfo& in = Stream(op.input_stream);
    const RecordLayout& in_layout = in.layout;
    const auto& aggs = op.query->aggs;
    const size_t nkeys = op.group_fields.size();
    const Cells m = MapCells(op);
    const std::string block = "op" + S(k) + "_map";
    const std::string out_policy =
        EmitAccBlock(block, m, aggs, in_layout, op.output);

    // One input record `rec`: look up its cell, update its registers.
    auto emit_body = [&](const std::string& rec, const std::string& ind) {
      std::string cell;
      for (size_t g = 0; g < nkeys; ++g) {
        int f = op.group_fields[g];
        Type t = in_layout.fields[f].type;
        uint32_t off = in_layout.OffsetOf(f);
        std::string kv = "kv" + S(g), id = "id" + S(g);
        if (t.id == TypeId::kChar) {
          Emit(ind + "int64_t " + kv + " = 0;");
          Emit(ind + "memcpy(&" + kv + ", " + rec + " + " + S(off) + ", " +
               S(t.length) + ");");
        } else {
          Emit(ind + "int64_t " + kv + " = (int64_t)" +
               FieldAccess(rec, off, t) + ";");
        }
        if (m.dense[g]) {
          Emit(ind + "int64_t " + id + " = " + kv + " - (" + S(m.mins[g]) +
               ");");
          Emit(ind + "if ((uint64_t)" + id + " >= " + S(m.caps[g]) +
               "ull) { wk->error = HQ_ERR_MAP_OVERFLOW; return -1; }");
        } else {
          Emit(ind + "int32_t " + id + " = hq_dir_id<" + S(m.caps[g]) +
               ">(&acc->dir" + S(g) + ", " + kv + ");");
          Emit(ind + "if (" + id +
               " < 0) { wk->error = HQ_ERR_MAP_OVERFLOW; return -1; }");
        }
        cell += std::string(g ? " + " : "") + "(uint64_t)" + id + " * " +
                S(m.strides[g]);
      }
      if (nkeys > 0) Emit(ind + "uint64_t cell = " + cell + ";");
      cell = nkeys > 0 ? "[cell]" : "";
      EmitUpdates(BuildAccs(aggs, in_layout, op.output, nkeys, rec, "acc->",
                            cell, "acc->grp_n" + cell),
                  ind);
      Emit(ind + "++acc->grp_n" + cell + ";");
    };

    // Base-table input: the query's filters on it run inside the scan,
    // batched over a predicate kernel when BatchedScan says so.
    std::vector<sql::Filter> base_filters;
    std::string pred;
    if (in.is_base_table) {
      int bt = in.base_table_index;
      const Schema& schema = plan_.query->tables[bt]->schema();
      for (const auto& f : plan_.query->filters) {
        if (f.column.table == bt) base_filters.push_back(f);
      }
      if (op.input_codec.enabled) {
        // Needed columns: inline filters, grouping keys, aggregate
        // arguments.
        std::vector<char> needed(schema.NumColumns(), 0);
        for (const auto& f : base_filters) {
          needed[f.column.column] = 1;
          if (f.rhs_is_column) needed[f.rhs_column.column] = 1;
        }
        std::vector<sql::ColRef> refs;
        for (int g : op.group_fields) {
          refs.push_back(in_layout.fields[g].source);
        }
        for (const sql::AggSpec& spec : aggs) {
          if (spec.arg) spec.arg->CollectColumns(&refs);
        }
        for (sql::ColRef r : refs) needed[r.column] = 1;
        EmitDecodeHelpers(k, op.input_codec, schema, needed);
      }
      if (BatchedScan(schema, base_filters, op.filter_selectivity,
                      &plan_.params)) {
        pred = "op" + S(k) + "_mpred";
        EmitPredicateKernel(&out_, pred, schema, base_filters, &plan_.params);
      }
    }

    Emit("// op" + S(k) +
         ": map aggregation (value directories + aggregate arrays, Fig. 4)");
    Emit("static int " + block +
         "_scan(HqQueryCtx* ctx, HqWorkerCtx* wk, const HqStream* in, "
         "uint64_t pb, uint64_t pe, void* out) {");
    Emit("  " + block + "* acc = (" + block + "*)out; (void)wk; (void)in;");
    // The items hq_map_agg splits into task ranges.
    std::string items = "(uint64_t)in->n", grain = "HQ_PAR_REC_GRAIN";
    if (in.is_base_table) {
      // Map aggregation reads the base table in place, selection inlined —
      // no staging (paper §V-B).
      const std::string bt = S(in.base_table_index);
      const Schema& schema =
          plan_.query->tables[in.base_table_index]->schema();
      Emit("  const HqTableRef* T = &ctx->inputs[" + bt + "];");
      items = "ctx->inputs[" + bt + "].page_count";
      grain = "HQ_PAR_PAGE_GRAIN";
      if (op.input_codec.enabled) {
        // Compressed: tasks split *virtual NSM pages* (the pages the table
        // would have uncompressed), not the denser compressed pages, so
        // every task accumulates exactly the tuple range of its
        // uncompressed twin: floating-point aggregates fold in the same
        // order and the results are bit-identical to the uncompressed
        // plan.
        const std::string VTPP = S(Page::TuplesPerPage(schema.TupleSize()));
        items = "(ctx->inputs[" + bt + "].tuple_count + " + VTPP + " - 1) / " +
                VTPP;
        Emit("  uint64_t ts = pb * " + VTPP + ", te = pe * " + VTPP + ";");
        Emit("  if (te > T->tuple_count) te = T->tuple_count;");
      }
      EmitBaseScan(k, schema, op.input_codec, base_filters, pred,
                   "wk->pages_touched",
                   /*tuple_range=*/op.input_codec.enabled, emit_body);
    } else {
      Emit("  for (uint64_t i = pb; i < pe; ++i) {");
      Emit("    const uint8_t* rec = in->data + i * " +
           S(in_layout.record_size) + ";");
      emit_body("rec", "    ");
      Emit("  }");
    }
    Emit("  return 0;");
    Emit("}");
    Emit("");

    drivers_.insert("map");
    Emit("static int op" + S(k) + "_agg(HqQueryCtx* ctx" +
         (in.is_base_table ? "" : ", const HqStream* in") +
         ", HqStream* out) {");
    Emit("  return hq_map_agg<" + out_policy + ", " + block + "_scan>(ctx, " +
         (in.is_base_table ? "0" : "in") + ", " + items + ", " + grain +
         ", out);");
    Emit("}");
    Emit("");
    return Status::OK();
  }

  // ---- output -----------------------------------------------------------

  Status EmitOutput(int k, const OutputOp& op) {
    const RecordLayout& in_layout = Stream(op.input_stream).layout;
    const Schema& os = plan_.output_schema.NumColumns() > 0
                           ? plan_.output_schema
                           : plan_.query->OutputSchema();
    uint32_t osz = os.TupleSize();
    bool need_sort = !op.order_by.empty() && !op.already_sorted;
    std::string row_fn = "op" + S(k) + "_row";
    std::string cmp_fn = "cmp_op" + S(k) + "_out";

    // Row construction into `o` from input record `rec`.
    Emit("static inline void " + row_fn +
         "(HqQueryCtx* ctx, const uint8_t* rec, uint8_t* o) {");
    Emit("  (void)ctx;");
    for (size_t i = 0; i < op.items.size(); ++i) {
      const auto& item = op.items[i];
      uint32_t dst = os.OffsetAt(i);
      if (item.field_index >= 0) {
        uint32_t src = in_layout.OffsetOf(item.field_index);
        Emit("  memcpy(o + " + S(dst) + ", rec + " + S(src) + ", " +
             S(item.type.ByteSize()) + ");");
      } else {
        std::string expr =
            ScalarToC("rec", in_layout, *item.expr, &plan_.params);
        std::string ct = item.type.CType();
        Emit("  *(" + ct + "*)(o + " + S(dst) + ") = (" + ct + ")" + expr +
             ";");
      }
    }
    Emit("}");
    Emit("");
    if (need_sort) {
      // A comparator over the *output* record layout.
      Emit("static inline int " + cmp_fn +
           "(const uint8_t* a, const uint8_t* b) {");
      for (const auto& spec : op.order_by) {
        const auto& item = op.items[spec.output_index];
        AppendFieldCompare(&out_, "a", "b", os.OffsetAt(spec.output_index),
                           item.type, spec.desc, "  ");
      }
      Emit("  return 0;");
      Emit("}");
      Emit("");
    }

    std::string recs = S(in_layout.record_size) + ", " + S(osz) + ", " +
                       row_fn;
    Emit("// op" + S(k) + ": project" +
         (need_sort ? " + order by (parallel splitter merge)" : "") +
         (op.limit >= 0 ? " + limit" : "") + " -> result");
    Emit("static int64_t op" + S(k) +
         "_output(HqQueryCtx* ctx, const HqStream* in) {");
    if (need_sort) {
      drivers_.insert("sort");
      Emit("  return hq_order_by_output<" + recs + ", " + cmp_fn +
           ">(ctx, in, " + S(op.limit) + ", " + S(SortRunLen(osz)) + ", " +
           S(op.par_tasks) + ");");
    } else {
      Emit("  return hq_emit_rows<" + recs + ">(ctx, in, " + S(op.limit) +
           ");");
    }
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
    // Join-key filters, one per probe stage, named after it.
    auto probe_of = [&](size_t k) -> const StageOp* {
      const auto* stage = std::get_if<StageOp>(&plan_.ops[k]);
      return stage != nullptr && stage->key_filter_op >= 0 ? stage : nullptr;
    };
    for (size_t k = 0; k < plan_.ops.size(); ++k) {
      if (probe_of(k) != nullptr) {
        Emit("  HqKeyFilter kf" + S(k) + "; memset(&kf" + S(k) +
             ", 0, sizeof(kf" + S(k) + "));");
      }
    }
    Emit("  int64_t rows = 0;");
    // Output cardinality of the operator that just finished, reported to
    // the observability hook by the next mark.
    std::string done = "-1";
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
      Emit("  hq_op_mark(ctx, " + S(k) + ", " + done + ");");
      const plan::Op& op = plan_.ops[k];
      if (const auto* stage = std::get_if<StageOp>(&op)) {
        done = StreamVar(stage->out_stream) + ".n";
        if (stage->key_filter_op >= 0) {
          Emit("  if (op" + S(k) + "_stage(ctx, &kf" + S(k) + ", &" +
               StreamVar(stage->out_stream) + ") != 0) return -1;");
          Emit("  hq_key_filter_note(ctx, &kf" + S(k) + ");");
        } else if (Stream(stage->input_stream).is_base_table) {
          Emit("  if (op" + S(k) + "_stage(ctx, &" +
               StreamVar(stage->out_stream) + ") != 0) return -1;");
        } else {
          Emit("  if (op" + S(k) + "_stage(ctx, &" +
               StreamVar(stage->input_stream) + ", &" +
               StreamVar(stage->out_stream) + ") != 0) return -1;");
        }
      } else if (const auto* join = std::get_if<JoinOp>(&op)) {
        done = StreamVar(join->out_stream) + ".n";
        std::string call = "  if (op" + S(k) + "_join(ctx";
        for (int s : join->input_streams) call += ", &" + StreamVar(s);
        call += ", &" + StreamVar(join->out_stream) + ") != 0) return -1;";
        Emit(call);
      } else if (const auto* agg = std::get_if<AggOp>(&op)) {
        done = StreamVar(agg->out_stream) + ".n";
        if (Stream(agg->input_stream).is_base_table) {
          Emit("  if (op" + S(k) + "_agg(ctx, &" +
               StreamVar(agg->out_stream) + ") != 0) return -1;");
        } else {
          Emit("  if (op" + S(k) + "_agg(ctx, &" +
               StreamVar(agg->input_stream) + ", &" +
               StreamVar(agg->out_stream) + ") != 0) return -1;");
        }
      } else if (const auto* output = std::get_if<OutputOp>(&op)) {
        done = "rows";
        Emit("  rows = op" + S(k) + "_output(ctx, &" +
             StreamVar(output->input_stream) + ");");
        Emit("  if (rows < 0) return -1;");
      }
      // The filters op k's staged records build, in op k's span.
      for (size_t p = k + 1; p < plan_.ops.size(); ++p) {
        const StageOp* probe = probe_of(p);
        if (probe == nullptr || probe->key_filter_op != static_cast<int>(k)) {
          continue;
        }
        const auto& build = std::get<StageOp>(op);
        const plan::FieldRef& key =
            build.output.fields[probe->key_filter_field];
        Emit("  if (hq_key_filter_build<" + std::string(key.type.CType()) +
             ", " + S(build.output.record_size) + ", " +
             S(build.output.OffsetOf(probe->key_filter_field)) + ">(ctx, &" +
             StreamVar(build.out_stream) + ", &kf" + S(p) +
             ") != 0) return -1;");
      }
    }
    Emit("  hq_op_mark(ctx, -1, " + done + ");");
    Emit("  return rows;");
    Emit("}");
  }

  const plan::PhysicalPlan& plan_;
  std::string out_;
  // Driver groups of runtime_abi.h the emitted operators instantiate.
  std::set<std::string> drivers_;
};

}  // namespace

Result<GeneratedQuery> Generate(const plan::PhysicalPlan& plan) {
  Generator gen(plan);
  return gen.Run();
}

}  // namespace hique::codegen
