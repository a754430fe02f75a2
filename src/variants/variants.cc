#include "variants/variants.h"

#include <cstdlib>
#include <utility>

#include "codegen/abi_embed.h"
#include "exec/compiled_library.h"
#include "exec/compiler.h"
#include "util/macros.h"

namespace hique::variants {
namespace {

struct Knobs {
  bool iterators;  // virtual next() per tuple
  bool field_fn;   // untyped field access through functions
  bool pred_fn;    // predicate/key comparison through functions
};

Knobs KnobsFor(Style s) {
  switch (s) {
    case Style::kGenericIterators:
      return {true, true, true};
    case Style::kOptimizedIterators:
      return {true, false, false};
    case Style::kGenericHardcoded:
      return {false, true, true};
    case Style::kOptimizedHardcoded:
      return {false, false, true};
    case Style::kHique:
      return {false, false, false};
  }
  return {false, false, false};
}

// The shared 72-byte microbench tuple layout (see bench_support).
constexpr const char* kLayout = R"(
#define REC 72
#define KOFF 0
#define AOFF 8
#define BOFF 16
)";

// Style helper functions. `key_cmp` drives join/group comparisons; `GET_A`/
// `GET_B` read the aggregated doubles. The *sort* comparator is always the
// same inlined type-specific code, instantiating the engine's own
// hq_record_sort from the embedded runtime ABI: the paper gives every
// implementation the same quicksort so that staging costs are identical
// across styles.
std::string StyleHelpers(const Knobs& k) {
  std::string out;
  out += R"(
// Shared type-specific sort comparator (identical across all styles).
static inline int sort_cmp(const uint8_t* x, const uint8_t* y) {
  int32_t a = *(const int32_t*)(x + KOFF);
  int32_t b = *(const int32_t*)(y + KOFF);
  return a < b ? -1 : (a > b ? 1 : 0);
}
)";
  if (k.field_fn) {
    out += R"(
// Generic (untyped) field access and comparison, dispatched through a
// function pointer the way an interpreted engine binds comparators at
// plan time.
typedef struct { int32_t i32; double f64; } HvDatum;
__attribute__((noinline)) static HvDatum hv_get_field(const uint8_t* tup,
                                                      uint32_t off,
                                                      int is_double) {
  HvDatum d; d.i32 = 0; d.f64 = 0;
  if (is_double) memcpy(&d.f64, tup + off, 8);
  else memcpy(&d.i32, tup + off, 4);
  return d;
}
__attribute__((noinline)) static int hv_cmp_datum(const HvDatum* a,
                                                  const HvDatum* b) {
  return a->i32 < b->i32 ? -1 : (a->i32 > b->i32 ? 1 : 0);
}
typedef int (*hv_cmp_fn)(const HvDatum*, const HvDatum*);
static hv_cmp_fn g_cmp = hv_cmp_datum;
static int key_cmp(const uint8_t* x, const uint8_t* y) {
  HvDatum a = hv_get_field(x, KOFF, 0);
  HvDatum b = hv_get_field(y, KOFF, 0);
  return g_cmp(&a, &b);
}
#define GET_A(t) (hv_get_field((t), AOFF, 1).f64)
#define GET_B(t) (hv_get_field((t), BOFF, 1).f64)
#define GET_K(t) (hv_get_field((t), KOFF, 0).i32)
)";
  } else if (k.pred_fn) {
    out += R"(
// Direct pointer-arithmetic field access; predicate evaluation still goes
// through a separate (non-inlined) function.
__attribute__((noinline)) static int key_cmp(const uint8_t* x,
                                             const uint8_t* y) {
  int32_t a = *(const int32_t*)(x + KOFF);
  int32_t b = *(const int32_t*)(y + KOFF);
  return a < b ? -1 : (a > b ? 1 : 0);
}
#define GET_A(t) (*(const double*)((t) + AOFF))
#define GET_B(t) (*(const double*)((t) + BOFF))
#define GET_K(t) (*(const int32_t*)((t) + KOFF))
)";
  } else {
    out += R"(
// Fully inlined access and predicates (the holistic template).
static inline int key_cmp(const uint8_t* x, const uint8_t* y) {
  int32_t a = *(const int32_t*)(x + KOFF);
  int32_t b = *(const int32_t*)(y + KOFF);
  return a < b ? -1 : (a > b ? 1 : 0);
}
#define GET_A(t) (*(const double*)((t) + AOFF))
#define GET_B(t) (*(const double*)((t) + BOFF))
#define GET_K(t) (*(const int32_t*)((t) + KOFF))
)";
  }
  return out;
}

// Virtual scan iterator (iterator styles only) and input loading. In
// iterator styles tuples flow through a virtual next() per tuple; in
// hard-coded styles the page loops are open-coded.
constexpr const char* kIterDefs = R"(
struct HvIter {
  virtual ~HvIter() {}
  virtual const uint8_t* next() = 0;
};
struct HvScanIter : HvIter {
  const HqTableRef* T;
  uint64_t p;
  uint32_t i;
  HvScanIter(const HqTableRef* t) : T(t), p(0), i(0) {}
  const uint8_t* next() {
    while (p < T->page_count) {
      const uint8_t* page = T->pages[p];
      uint32_t nt = *(const uint32_t*)page;
      if (i < nt) return page + HQ_PAGE_HEADER + (uint64_t)(i++) * REC;
      ++p; i = 0;
    }
    return 0;
  }
};
struct HvBufIter : HvIter {
  const uint8_t* d;
  int64_t i, n;
  HvBufIter(const uint8_t* data, int64_t b, int64_t e) : d(data), i(b), n(e) {}
  const uint8_t* next() {
    if (i >= n) return 0;
    return d + (uint64_t)(i++) * REC;
  }
};
)";

std::string LoadInput(const Knobs& k) {
  if (k.iterators) {
    return R"(
static int64_t load_input(HqQueryCtx* ctx, uint32_t t, uint8_t* buf) {
  HvScanIter it(&ctx->inputs[t]);
  int64_t n = 0;
  const uint8_t* tup;
  while ((tup = it.next()) != 0) {
    memcpy(buf + (uint64_t)n * REC, tup, REC);
    ++n;
  }
  return n;
}
)";
  }
  return R"(
static int64_t load_input(HqQueryCtx* ctx, uint32_t t, uint8_t* buf) {
  const HqTableRef* T = &ctx->inputs[t];
  int64_t n = 0;
  for (uint64_t p = 0; p < T->page_count; ++p) {
    const uint8_t* page = T->pages[p];
    uint32_t nt = *(const uint32_t*)page;
    const uint8_t* tup = page + HQ_PAGE_HEADER;
    for (uint32_t i = 0; i < nt; ++i, tup += REC) {
      memcpy(buf + (uint64_t)n * REC, tup, REC);
      ++n;
    }
  }
  return n;
}
)";
}

// Coarse hash partitioning. The partitioning *algorithm* is identical in
// every style (as is the quicksort), but each style reads the partitioning
// key through its own field-access machinery (GET_K), exactly as a real
// engine of that style would: the interpretation overhead applies to every
// pass over the data.
std::string PartitionFn(uint32_t M) {
  std::string m = std::to_string(M);
  return R"(
static int64_t* partition_input(HqQueryCtx* ctx, uint8_t* buf, int64_t n,
                                uint8_t* out) {
  const uint32_t M = )" + m + R"(;
  int64_t* pb = (int64_t*)ctx->alloc(ctx->arena, (uint64_t)(M + 1) * 8);
  int64_t* cur = (int64_t*)ctx->alloc(ctx->arena, (uint64_t)M * 8);
  if (!pb || !cur) { ctx->error = HQ_ERR_OOM; return 0; }
  memset(cur, 0, (uint64_t)M * 8);
  for (int64_t i = 0; i < n; ++i) {
    int32_t key = GET_K(buf + (uint64_t)i * REC);
    ++cur[hq_hash64((uint64_t)(int64_t)key) & (M - 1)];
  }
  pb[0] = 0;
  for (uint32_t m2 = 0; m2 < M; ++m2) pb[m2 + 1] = pb[m2] + cur[m2];
  for (uint32_t m2 = 0; m2 < M; ++m2) cur[m2] = pb[m2];
  for (int64_t i = 0; i < n; ++i) {
    const uint8_t* r = buf + (uint64_t)i * REC;
    int32_t key = GET_K(r);
    uint64_t p = hq_hash64((uint64_t)(int64_t)key) & (M - 1);
    memcpy(out + (uint64_t)cur[p] * REC, r, REC);
    ++cur[p];
  }
  return pb;
}
)";
}

// Merge-join over sorted ranges. In iterator styles the join is an
// iterator producing one (outer, inner) pair per virtual next() call; in
// hard-coded styles the nested loops are open-coded (paper Listing 2).
std::string JoinCore(const Knobs& k) {
  if (k.iterators) {
    return R"(
struct HvMergeJoinIter : HvIter {
  const uint8_t* L; const uint8_t* R;
  int64_t i, j, nL, nR, i2, j2, a, b;
  int in_group;
  HvMergeJoinIter(const uint8_t* l, int64_t bl, int64_t el,
                  const uint8_t* r, int64_t br, int64_t er)
      : L(l), R(r), i(bl), j(br), nL(el), nR(er),
        i2(0), j2(0), a(0), b(0), in_group(0) {}
  // Returns the inner tuple of the next join pair.
  const uint8_t* next() {
    for (;;) {
      if (in_group) {
        if (b < j2) return R + (uint64_t)(b++) * REC;
        ++a; b = j;
        if (a < i2) continue;
        in_group = 0; i = i2;
        j = j2;
      }
      if (i >= nL || j >= nR) return 0;
      int c = key_cmp(L + (uint64_t)i * REC, R + (uint64_t)j * REC);
      if (c < 0) { ++i; continue; }
      if (c > 0) { ++j; continue; }
      i2 = i + 1;
      while (i2 < nL && key_cmp(L + (uint64_t)i2 * REC,
                                L + (uint64_t)i * REC) == 0) ++i2;
      j2 = j + 1;
      while (j2 < nR && key_cmp(R + (uint64_t)j2 * REC,
                                R + (uint64_t)j * REC) == 0) ++j2;
      a = i; b = j;
      in_group = 1;
    }
  }
};
static void join_range(const uint8_t* L, int64_t bl, int64_t el,
                       const uint8_t* R, int64_t br, int64_t er,
                       int64_t* cnt, double* sum) {
  HvMergeJoinIter it(L, bl, el, R, br, er);
  const uint8_t* inner;
  while ((inner = it.next()) != 0) {
    ++*cnt;
    *sum += GET_A(inner);
  }
}
)";
  }
  return R"(
static void join_range(const uint8_t* L, int64_t bl, int64_t el,
                       const uint8_t* R, int64_t br, int64_t er,
                       int64_t* cnt, double* sum) {
  int64_t i = bl, j = br;
  while (i < el && j < er) {
    int c = key_cmp(L + (uint64_t)i * REC, R + (uint64_t)j * REC);
    if (c < 0) { ++i; continue; }
    if (c > 0) { ++j; continue; }
    int64_t i2 = i + 1;
    while (i2 < el && key_cmp(L + (uint64_t)i2 * REC,
                              L + (uint64_t)i * REC) == 0) ++i2;
    int64_t j2 = j + 1;
    while (j2 < er && key_cmp(R + (uint64_t)j2 * REC,
                              R + (uint64_t)j * REC) == 0) ++j2;
    for (int64_t a = i; a < i2; ++a) {
      for (int64_t b = j; b < j2; ++b) {
        ++*cnt;
        *sum += GET_A(R + (uint64_t)b * REC);
      }
    }
    i = i2; j = j2;
  }
}
)";
}

// Group scan over a sorted range: accumulates the two SUMs per group and
// folds them into the checksum at each group boundary.
std::string AggScan(const Knobs& k) {
  if (k.iterators) {
    return R"(
static void agg_scan(const uint8_t* d, int64_t lo, int64_t hi, int64_t* cnt,
                     double* checksum) {
  if (lo >= hi) return;
  HvBufIter it(d, lo, hi);
  const uint8_t* rec = it.next();
  const uint8_t* grp = rec;
  double s2 = 0, s3 = 0;
  while (rec != 0) {
    if (key_cmp(rec, grp) != 0) {
      ++*cnt;
      *checksum += s2 + s3;
      s2 = 0; s3 = 0;
      grp = rec;
    }
    s2 += GET_A(rec);
    s3 += GET_B(rec);
    rec = it.next();
  }
  ++*cnt;
  *checksum += s2 + s3;
}
)";
  }
  return R"(
static void agg_scan(const uint8_t* d, int64_t lo, int64_t hi, int64_t* cnt,
                     double* checksum) {
  if (lo >= hi) return;
  const uint8_t* grp = d + (uint64_t)lo * REC;
  double s2 = 0, s3 = 0;
  for (int64_t i = lo; i < hi; ++i) {
    const uint8_t* rec = d + (uint64_t)i * REC;
    if (key_cmp(rec, grp) != 0) {
      ++*cnt;
      *checksum += s2 + s3;
      s2 = 0; s3 = 0;
      grp = rec;
    }
    s2 += GET_A(rec);
    s3 += GET_B(rec);
  }
  ++*cnt;
  *checksum += s2 + s3;
}
)";
}

std::string EmitResult() {
  return R"(
static int64_t emit_result(HqQueryCtx* ctx, int64_t cnt, double checksum) {
  HqPage* pg;
  if (ctx->result_alloc_pages(ctx->result_sink, &pg, 1) != 0) return -1;
  *(int64_t*)(pg->data + 0) = cnt;
  *(double*)(pg->data + 8) = checksum;
  return ctx->result_emit_pages(ctx->result_sink, 1, 1) != 0 ? -1 : 1;
}
)";
}

}  // namespace

const char* StyleName(Style s) {
  switch (s) {
    case Style::kGenericIterators:
      return "generic iterators";
    case Style::kOptimizedIterators:
      return "optimized iterators";
    case Style::kGenericHardcoded:
      return "generic hard-coded";
    case Style::kOptimizedHardcoded:
      return "optimized hard-coded";
    case Style::kHique:
      return "HIQUE";
  }
  return "?";
}

const char* MicroQueryName(MicroQuery q) {
  switch (q) {
    case MicroQuery::kJoinMerge:
      return "Join Query #1 (merge)";
    case MicroQuery::kJoinHybrid:
      return "Join Query #2 (hybrid)";
    case MicroQuery::kAggHybrid:
      return "Aggregation Query #1 (hybrid)";
    case MicroQuery::kAggMap:
      return "Aggregation Query #2 (map)";
  }
  return "?";
}

Schema VariantOutputSchema() {
  Schema s;
  s.AddColumn("cnt", Type::Int64());
  s.AddColumn("checksum", Type::Double());
  return s;
}

std::string EmitVariantSource(MicroQuery query, Style style,
                              const MicroParams& params) {
  Knobs knobs = KnobsFor(style);
  std::string src;
  src += "// ";
  src += MicroQueryName(query);
  src += " — ";
  src += StyleName(style);
  src += " variant (paper ICDE'10 SVI-A)\n";
  src += codegen::kAbiHeaderSource;
  src += kLayout;
  src += StyleHelpers(knobs);
  if (knobs.iterators) src += kIterDefs;
  src += LoadInput(knobs);
  src += EmitResult();

  switch (query) {
    case MicroQuery::kJoinMerge: {
      src += JoinCore(knobs);
      src += R"(
extern "C" int64_t hique_query_main(HqQueryCtx* ctx, const HqParams* params) {
  (void)params;
  int64_t nl_cap = ctx->inputs[0].tuple_count;
  int64_t nr_cap = ctx->inputs[1].tuple_count;
  uint8_t* L = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)(nl_cap + 1) * REC);
  uint8_t* R = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)(nr_cap + 1) * REC);
  if (!L || !R) { ctx->error = HQ_ERR_OOM; return -1; }
  int64_t nL = load_input(ctx, 0, L);
  int64_t nR = load_input(ctx, 1, R);
  hq_record_sort<REC, sort_cmp>(L, nL);
  hq_record_sort<REC, sort_cmp>(R, nR);
  int64_t cnt = 0; double sum = 0;
  join_range(L, 0, nL, R, 0, nR, &cnt, &sum);
  return emit_result(ctx, cnt, sum);
}
)";
      break;
    }
    case MicroQuery::kJoinHybrid: {
      src += PartitionFn(params.partitions);
      src += JoinCore(knobs);
      src += "extern \"C\" int64_t hique_query_main(HqQueryCtx* ctx, const HqParams* hqp) {\n"
             "  (void)hqp;\n"
             "  const uint32_t M = " + std::to_string(params.partitions) +
             ";\n";
      src += R"(
  int64_t nl_cap = ctx->inputs[0].tuple_count;
  int64_t nr_cap = ctx->inputs[1].tuple_count;
  uint8_t* L0 = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)(nl_cap + 1) * REC);
  uint8_t* R0 = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)(nr_cap + 1) * REC);
  uint8_t* L = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)(nl_cap + 1) * REC);
  uint8_t* R = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)(nr_cap + 1) * REC);
  if (!L0 || !R0 || !L || !R) { ctx->error = HQ_ERR_OOM; return -1; }
  int64_t nL = load_input(ctx, 0, L0);
  int64_t nR = load_input(ctx, 1, R0);
  int64_t* pbL = partition_input(ctx, L0, nL, L);
  int64_t* pbR = partition_input(ctx, R0, nR, R);
  if (!pbL || !pbR) return -1;
  int64_t cnt = 0; double sum = 0;
  for (uint32_t m = 0; m < M; ++m) {
    int64_t bl = pbL[m], el = pbL[m + 1];
    int64_t br = pbR[m], er = pbR[m + 1];
    if (bl >= el || br >= er) continue;
    // sort corresponding partitions just before joining them
    hq_record_sort<REC, sort_cmp>(L + (uint64_t)bl * REC, el - bl);
    hq_record_sort<REC, sort_cmp>(R + (uint64_t)br * REC, er - br);
    join_range(L, bl, el, R, br, er, &cnt, &sum);
  }
  return emit_result(ctx, cnt, sum);
}
)";
      break;
    }
    case MicroQuery::kAggHybrid: {
      src += PartitionFn(params.partitions);
      src += AggScan(knobs);
      src += "extern \"C\" int64_t hique_query_main(HqQueryCtx* ctx, const HqParams* hqp) {\n"
             "  (void)hqp;\n"
             "  const uint32_t M = " + std::to_string(params.partitions) +
             ";\n";
      src += R"(
  int64_t cap = ctx->inputs[0].tuple_count;
  uint8_t* B0 = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)(cap + 1) * REC);
  uint8_t* B = (uint8_t*)ctx->alloc(ctx->arena, (uint64_t)(cap + 1) * REC);
  if (!B0 || !B) { ctx->error = HQ_ERR_OOM; return -1; }
  int64_t n = load_input(ctx, 0, B0);
  int64_t* pb = partition_input(ctx, B0, n, B);
  if (!pb) return -1;
  int64_t cnt = 0; double checksum = 0;
  for (uint32_t m = 0; m < M; ++m) {
    int64_t b = pb[m], e = pb[m + 1];
    if (b >= e) continue;
    hq_record_sort<REC, sort_cmp>(B + (uint64_t)b * REC, e - b);
    agg_scan(B, b, e, &cnt, &checksum);
  }
  return emit_result(ctx, cnt, checksum);
}
)";
      break;
    }
    case MicroQuery::kAggMap: {
      // Dense value-directory aggregation over a single scan, no staging.
      std::string domain = std::to_string(params.map_domain);
      if (knobs.iterators) {
        src += R"(
extern "C" int64_t hique_query_main(HqQueryCtx* ctx, const HqParams* params) {
  (void)params;
  const int64_t D = )" + domain + R"(;
  double* s2 = (double*)ctx->alloc(ctx->arena, (uint64_t)D * 8);
  double* s3 = (double*)ctx->alloc(ctx->arena, (uint64_t)D * 8);
  int64_t* c = (int64_t*)ctx->alloc(ctx->arena, (uint64_t)D * 8);
  if (!s2 || !s3 || !c) { ctx->error = HQ_ERR_OOM; return -1; }
  memset(s2, 0, (uint64_t)D * 8);
  memset(s3, 0, (uint64_t)D * 8);
  memset(c, 0, (uint64_t)D * 8);
  HvScanIter it(&ctx->inputs[0]);
  const uint8_t* tup;
  while ((tup = it.next()) != 0) {
    int64_t id = (int64_t)GET_K(tup);
    if ((uint64_t)id >= (uint64_t)D) { ctx->error = HQ_ERR_MAP_OVERFLOW; return -1; }
    s2[id] += GET_A(tup);
    s3[id] += GET_B(tup);
    ++c[id];
  }
  int64_t cnt = 0; double checksum = 0;
  for (int64_t g = 0; g < D; ++g) {
    if (c[g] == 0) continue;
    ++cnt;
    checksum += s2[g] + s3[g];
  }
  return emit_result(ctx, cnt, checksum);
}
)";
      } else {
        src += R"(
extern "C" int64_t hique_query_main(HqQueryCtx* ctx, const HqParams* params) {
  (void)params;
  const int64_t D = )" + domain + R"(;
  double* s2 = (double*)ctx->alloc(ctx->arena, (uint64_t)D * 8);
  double* s3 = (double*)ctx->alloc(ctx->arena, (uint64_t)D * 8);
  int64_t* c = (int64_t*)ctx->alloc(ctx->arena, (uint64_t)D * 8);
  if (!s2 || !s3 || !c) { ctx->error = HQ_ERR_OOM; return -1; }
  memset(s2, 0, (uint64_t)D * 8);
  memset(s3, 0, (uint64_t)D * 8);
  memset(c, 0, (uint64_t)D * 8);
  const HqTableRef* T = &ctx->inputs[0];
  for (uint64_t p = 0; p < T->page_count; ++p) {
    const uint8_t* page = T->pages[p];
    uint32_t nt = *(const uint32_t*)page;
    const uint8_t* tup = page + HQ_PAGE_HEADER;
    for (uint32_t i = 0; i < nt; ++i, tup += REC) {
      int64_t id = (int64_t)GET_K(tup);
      if ((uint64_t)id >= (uint64_t)D) { ctx->error = HQ_ERR_MAP_OVERFLOW; return -1; }
      s2[id] += GET_A(tup);
      s3[id] += GET_B(tup);
      ++c[id];
    }
  }
  int64_t cnt = 0; double checksum = 0;
  for (int64_t g = 0; g < D; ++g) {
    if (c[g] == 0) continue;
    ++cnt;
    checksum += s2[g] + s3[g];
  }
  return emit_result(ctx, cnt, checksum);
}
)";
      }
      break;
    }
  }
  return src;
}

Result<VariantRun> RunVariant(MicroQuery query, Style style,
                              const MicroParams& params,
                              const std::vector<Table*>& tables,
                              int opt_level, const std::string& work_dir) {
  // The §VI-A variants are hand-written NSM code: they walk raw page bytes
  // with no codec awareness. If an HQ_COMPRESS engine compressed a shared
  // input table, restore the row-major layout they were written against.
  for (Table* t : tables) {
    if (t->codec().enabled) HQ_RETURN_IF_ERROR(t->Decompress());
  }
  std::string source = EmitVariantSource(query, style, params);
  exec::CompileOptions copts;
  copts.opt_level = opt_level;
  static uint64_t counter = 0;
  std::string name = "variant_" + std::to_string(counter++);
  HQ_ASSIGN_OR_RETURN(auto compiled, exec::CompileToSharedLibrary(
                                         source, work_dir, name, copts));
  VariantRun run;
  run.compile_seconds = compiled.compile_seconds;
  run.source_bytes = compiled.source_bytes;
  run.library_bytes = compiled.library_bytes;
  // Unloading the library removes its .cc/.so from `work_dir`.
  HQ_ASSIGN_OR_RETURN(
      auto library,
      exec::CompiledLibrary::Load(std::move(compiled), "hique_query_main",
                                  std::move(source), opt_level,
                                  /*unlink_on_unload=*/true, HQ_SIMD_SCALAR));

  Schema out_schema = VariantOutputSchema();
  int64_t result_rows = 0;
  auto on_page = [&](Page* page) {
    if (page->num_tuples > 0) {
      const uint8_t* tuple = page->TupleAt(0, out_schema.TupleSize());
      run.count = out_schema.GetValue(tuple, 0).AsInt64();
      run.checksum = out_schema.GetValue(tuple, 1).AsDouble();
    }
    result_rows += page->num_tuples;
    std::free(page);
    return true;
  };
  exec::ExecStats stats;
  HQ_RETURN_IF_ERROR(exec::ExecuteEntryStreaming(tables, out_schema,
                                                 library->entry(), nullptr,
                                                 &stats, {}, on_page)
                         .status());
  run.execute_seconds = stats.execute_seconds;
  if (result_rows != 1) {
    return Status::Internal("variant produced no checksum row");
  }
  return run;
}

}  // namespace hique::variants
