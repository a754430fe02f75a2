// The operator drivers of codegen/runtime_abi.h, instantiated in process
// with hand-written kernels — no runtime compiler involved. Base-table
// staging is checked against a serial reference scan, the sort against
// std::sort, the partition driver against a serial reference scatter, the
// concatenation for task order, the ORDER BY pipeline against a sorted
// copy, map aggregation's fold against a serial one and its directory
// against std::map, the join-key filter against std::unordered_set. Each
// runs both on the header's serial fallback and on a
// multi-threaded parallel_for over exec::WorkerPool, and the two must agree
// byte for byte (under TSan this race-checks the per-task staging buffers,
// the disjoint cursors of the scatter and the merges).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "codegen/runtime_abi.h"
#include "exec/worker_pool.h"
#include "util/rng.h"

namespace hique {
namespace {

// 16-byte test record: sort/partition key, unique id, payload.
struct Rec {
  int32_t key;
  uint32_t id;
  uint64_t payload;
};
constexpr uint32_t kRec = sizeof(Rec);
static_assert(kRec == 16, "record layout");

Rec At(const uint8_t* p) {
  Rec r;
  std::memcpy(&r, p, kRec);
  return r;
}

int CmpKey(const uint8_t* a, const uint8_t* b) {
  int32_t x = At(a).key, y = At(b).key;
  return x < y ? -1 : (x > y ? 1 : 0);
}

// A total order (key, then id): its sorted output is unique.
int CmpKeyId(const uint8_t* a, const uint8_t* b) {
  int c = CmpKey(a, b);
  if (c != 0) return c;
  uint32_t x = At(a).id, y = At(b).id;
  return x < y ? -1 : (x > y ? 1 : 0);
}

bool LessKeyId(const Rec& a, const Rec& b) {
  return a.key != b.key ? a.key < b.key : a.id < b.id;
}

enum class Keys { kAllEqual, kSorted, kReverse, kRandom };

std::vector<Rec> MakeRecs(int64_t n, Keys keys, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rec> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int32_t k = 0;
    switch (keys) {
      case Keys::kAllEqual: k = 7; break;
      case Keys::kSorted: k = static_cast<int32_t>(i); break;
      case Keys::kReverse: k = static_cast<int32_t>(n - i); break;
      case Keys::kRandom:
        k = static_cast<int32_t>(rng.NextBounded(1000)) - 100;
        break;
    }
    v[i] = {k, static_cast<uint32_t>(i), rng.Next()};
  }
  return v;
}

std::vector<uint8_t> Bytes(const std::vector<Rec>& v) {
  std::vector<uint8_t> b(v.size() * kRec);
  if (!v.empty()) std::memcpy(b.data(), v.data(), b.size());
  return b;
}

/// A query context with a mutex-guarded malloc arena. With `threads` > 1,
/// hq_parallel_for runs on a WorkerPool with one worker context per
/// executor slot; with 1 it uses the header's serial fallback.
class Harness {
 public:
  explicit Harness(uint32_t threads) {
    std::memset(&ctx_, 0, sizeof(ctx_));
    ctx_.alloc = &Harness::Alloc;
    ctx_.arena = this;
    ctx_.result_sink = this;
    ctx_.result_tuple_size = kRec;
    ctx_.result_tuples_per_page = HQ_PAGE_DATA / kRec;
    ctx_.result_alloc_pages = &Harness::AllocPages;
    ctx_.result_emit_pages = &Harness::EmitPages;
    if (threads > 1) {
      pool_ = std::make_unique<exec::WorkerPool>(threads - 1);
      workers_.resize(pool_->num_executors());
      ctx_.parallel_for = &Harness::ParallelFor;
      ctx_.scheduler = this;
      ctx_.num_workers = pool_->num_executors();
    }
  }
  ~Harness() {
    for (void* p : blocks_) std::free(p);
  }

  HqQueryCtx* ctx() { return &ctx_; }
  uint32_t tasks_run() const { return tasks_run_; }

  /// Bytes requested for the allocation at p (0: not one of this arena's).
  uint64_t AllocBytes(const void* p) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sizes_.find(p);
    return it == sizes_.end() ? 0 : it->second;
  }

  /// Rows delivered through result_emit_pages, in order.
  std::vector<uint8_t> Emitted() const {
    std::vector<uint8_t> out;
    uint64_t left = emitted_rows_;
    for (const HqPage* pg : pages_) {
      if (left == 0) break;
      uint64_t m = std::min<uint64_t>(left, ctx_.result_tuples_per_page);
      out.insert(out.end(), pg->data, pg->data + m * kRec);
      left -= m;
    }
    return out;
  }

 private:
  static void* Alloc(void* arena, uint64_t bytes) {
    auto* h = static_cast<Harness*>(arena);
    void* p = std::aligned_alloc(64, (bytes + 63) / 64 * 64 + 64);
    std::lock_guard<std::mutex> lock(h->mu_);
    h->blocks_.push_back(p);
    h->sizes_[p] = bytes;
    return p;
  }

  static int32_t AllocPages(void* sink, HqPage** pages, uint64_t count) {
    auto* h = static_cast<Harness*>(sink);
    for (uint64_t i = 0; i < count; ++i) {
      pages[i] = static_cast<HqPage*>(Alloc(h, sizeof(HqPage)));
      std::memset(pages[i], 0, sizeof(HqPage));
      h->pending_.push_back(pages[i]);
    }
    return 0;
  }

  static int32_t EmitPages(void* sink, uint64_t count, uint64_t rows) {
    auto* h = static_cast<Harness*>(sink);
    h->pages_.insert(h->pages_.end(), h->pending_.begin(),
                     h->pending_.begin() + static_cast<int64_t>(count));
    h->pending_.erase(h->pending_.begin(),
                      h->pending_.begin() + static_cast<int64_t>(count));
    h->emitted_rows_ += rows;
    h->ctx_.tuples_emitted += rows;
    return 0;
  }

  static int32_t ParallelFor(void* scheduler, HqQueryCtx* ctx,
                             uint32_t num_tasks, HqTaskFn fn, void* arg) {
    auto* h = static_cast<Harness*>(scheduler);
    for (HqWorkerCtx& w : h->workers_) {
      std::memset(&w, 0, sizeof(w));
      w.alloc = &Harness::Alloc;
      w.arena = h;
    }
    bool ok = h->pool_->ParallelFor(
        num_tasks, [&](uint32_t slot, uint32_t task) -> int32_t {
          return fn(ctx, &h->workers_[slot], task, arg);
        });
    h->tasks_run_ += num_tasks;
    for (const HqWorkerCtx& w : h->workers_) {
      ctx->pages_touched += w.pages_touched;
      if (w.error != HQ_OK && ctx->error == HQ_OK) ctx->error = w.error;
    }
    if (!ok && ctx->error == HQ_OK) ctx->error = HQ_ERR_CANCELLED;
    return ctx->error;
  }

  HqQueryCtx ctx_;
  std::unique_ptr<exec::WorkerPool> pool_;
  std::vector<HqWorkerCtx> workers_;
  std::mutex mu_;
  std::vector<void*> blocks_;
  std::map<const void*, uint64_t> sizes_;
  std::vector<HqPage*> pending_;
  std::vector<HqPage*> pages_;
  uint64_t emitted_rows_ = 0;
  uint32_t tasks_run_ = 0;
};

/// Synthetic base-table pages of Recs: page p holds (p * 37) % 256 tuples,
/// so some pages are empty and every task's count differs, or with `full`
/// the page capacity each.
struct TablePages {
  std::vector<std::vector<uint8_t>> pages;
  std::vector<uint8_t*> ptrs;
  std::vector<Rec> tuples;  // in scan order
  HqTableRef ref;

  explicit TablePages(uint64_t page_count, bool full = false) {
    const uint32_t tpp = HQ_PAGE_DATA / kRec;
    uint32_t id = 0;
    for (uint64_t p = 0; p < page_count; ++p) {
      uint32_t nt =
          full ? tpp : static_cast<uint32_t>((p * 37) % (tpp + 1));
      std::vector<uint8_t> page(HQ_PAGE_SIZE, 0);
      std::memcpy(page.data(), &nt, 4);
      for (uint32_t i = 0; i < nt; ++i, ++id) {
        Rec r = {static_cast<int32_t>(id * 7 % 1000), id, id * 3ull};
        std::memcpy(page.data() + HQ_PAGE_HEADER + i * kRec, &r, kRec);
        tuples.push_back(r);
      }
      pages.push_back(std::move(page));
    }
    for (auto& page : pages) ptrs.push_back(page.data());
    std::memset(&ref, 0, sizeof(ref));
    ref.pages = ptrs.data();
    ref.page_count = page_count;
    ref.tuple_size = kRec;
    ref.tuples_per_page = tpp;
    ref.tuple_count = tuples.size();
  }
};

enum class Keep { kAll, kNone, kOddKeys };

bool Kept(Keep keep, const Rec& r) {
  return keep == Keep::kAll || (keep == Keep::kOddKeys && r.key % 2 != 0);
}

/// Every ScanPages call: where it copied to, how many pages it read and
/// how many records it kept.
struct ScanCall {
  const uint8_t* dst;
  uint64_t pages;
  int64_t n;
};
std::mutex scan_calls_mu;
std::vector<ScanCall> scan_calls;

/// The shape of a generated op<k>_scan: copies the survivors of pages
/// [pb, pe) to dst and returns how many it copied.
template <Keep KEEP>
int64_t ScanPages(HqQueryCtx* ctx, const HqTableRef* T, uint64_t pb,
                  uint64_t pe, uint8_t* dst, uint64_t* pages) {
  (void)ctx;
  uint8_t* const dst0 = dst;
  for (uint64_t p = pb; p < pe; ++p) {
    uint32_t nt;
    std::memcpy(&nt, T->pages[p], 4);
    ++*pages;
    for (uint32_t i = 0; i < nt; ++i) {
      const uint8_t* tup = T->pages[p] + HQ_PAGE_HEADER + i * kRec;
      if (!Kept(KEEP, At(tup))) continue;
      std::memcpy(dst, tup, kRec);
      dst += kRec;
    }
  }
  int64_t n = (dst - dst0) / kRec;
  std::lock_guard<std::mutex> lock(scan_calls_mu);
  scan_calls.push_back({dst0, pe - pb, n});
  return n;
}

TEST(OperatorDriverTest, StageBaseMatchesSerialScanOnEveryPath) {
  using Driver = int (*)(HqQueryCtx*, const HqTableRef*, HqStream*);
  struct Case {
    Keep keep;
    Driver driver;
  };
  const Case cases[] = {
      {Keep::kAll, hq_stage_base<kRec, ScanPages<Keep::kAll>>},
      {Keep::kNone, hq_stage_base<kRec, ScanPages<Keep::kNone>>},
      {Keep::kOddKeys, hq_stage_base<kRec, ScanPages<Keep::kOddKeys>>},
  };
  // Around one and several HQ_PAR_PAGE_GRAIN chunks, mostly not multiples;
  // pages of varying fill, then full pages.
  for (bool full : {false, true}) {
    for (uint64_t page_count : {0, 1, 63, 64, 65, 200}) {
      TablePages table(page_count, full);
      for (const Case& c : cases) {
        SCOPED_TRACE("pages=" + std::to_string(page_count) +
                     " keep=" + std::to_string(static_cast<int>(c.keep)) +
                     (full ? " full" : ""));
        std::vector<Rec> want;
        for (const Rec& r : table.tuples) {
          if (Kept(c.keep, r)) want.push_back(r);
        }
        // One task (no parallel_for service, num_workers 0); a task per
        // page chunk on the header's serial parallel_for; the same on a
        // 4-executor WorkerPool.
        for (const char* path : {"serial", "fallback", "pool"}) {
          SCOPED_TRACE(path);
          Harness h(std::string(path) == "pool" ? 4 : 1);
          if (std::string(path) == "fallback") h.ctx()->num_workers = 4;
          const uint32_t nt =
              std::string(path) == "serial"
                  ? 1
                  : hq_task_count(page_count, HQ_PAR_PAGE_GRAIN,
                                  HQ_PAR_MAX_TASKS);
          scan_calls.clear();
          HqStream out;
          std::memset(&out, 0xAB, sizeof(out));
          ASSERT_EQ(c.driver(h.ctx(), &table.ref, &out), 0);
          EXPECT_EQ(out.n, static_cast<int64_t>(want.size()));
          EXPECT_EQ(out.rec_size, kRec);
          EXPECT_EQ(out.part_begin, nullptr);
          EXPECT_EQ(out.num_parts, 0u);
          EXPECT_EQ(std::vector<uint8_t>(out.data, out.data + out.n * kRec),
                    Bytes(want));
          // One scan per task, every page once.
          EXPECT_EQ(h.ctx()->pages_touched, page_count);
          ASSERT_EQ(scan_calls.size(), nt);
          for (const ScanCall& call : scan_calls) {
            // Each task reserved its pages' capacity, capped by the table.
            uint64_t cap = std::min<uint64_t>(
                call.pages * table.ref.tuples_per_page, table.ref.tuple_count);
            EXPECT_EQ(h.AllocBytes(call.dst),
                      std::max<uint64_t>(cap, 1) * kRec);
            if (full && c.keep == Keep::kAll) {
              EXPECT_EQ(static_cast<uint64_t>(call.n), cap);
            }
          }
          // A lone task's buffer is the staged stream, not a copy of it.
          if (nt == 1) EXPECT_EQ(out.data, scan_calls[0].dst);
          if (std::string(path) == "pool") {
            EXPECT_EQ(h.tasks_run(), nt == 1 ? 1 : 2 * nt);
          }
        }
      }
    }
  }
}

TEST(OperatorDriverTest, RecordSortMatchesStdSort) {
  for (int64_t n : {0, 1, 2, 23, 24, 25, 10000}) {
    for (Keys keys :
         {Keys::kAllEqual, Keys::kSorted, Keys::kReverse, Keys::kRandom}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " keys=" + std::to_string(static_cast<int>(keys)));
      std::vector<Rec> in = MakeRecs(n, keys, 11 + static_cast<uint64_t>(n));
      std::vector<Rec> want = in;
      std::sort(want.begin(), want.end(), LessKeyId);

      // Total order: exactly std::sort's output.
      std::vector<uint8_t> total = Bytes(in);
      hq_record_sort<kRec, CmpKeyId>(total.data(), n);
      EXPECT_EQ(total, Bytes(want));

      // Key-only order (ties unordered): a permutation of the input with
      // std::sort's key sequence.
      std::vector<uint8_t> by_key = Bytes(in);
      hq_record_sort<kRec, CmpKey>(by_key.data(), n);
      std::vector<Rec> got(static_cast<size_t>(n));
      if (n > 0) std::memcpy(got.data(), by_key.data(), by_key.size());
      for (int64_t i = 0; i < n; ++i) EXPECT_EQ(got[i].key, want[i].key);
      std::sort(got.begin(), got.end(), LessKeyId);
      EXPECT_EQ(Bytes(got), Bytes(want));
    }
  }
}

TEST(OperatorDriverTest, SortCascadeSortsFullyOrIntoAtMostMaxRuns) {
  const int64_t n = 10000, run = 64;
  std::vector<Rec> in = MakeRecs(n, Keys::kRandom, 5);
  std::vector<Rec> want = in;
  std::sort(want.begin(), want.end(), LessKeyId);
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Harness h(threads);
    std::vector<uint8_t> buf = Bytes(in);
    uint8_t* data = buf.data();
    int64_t width = 0;
    ASSERT_EQ((hq_sort_cascade<kRec, CmpKeyId>(h.ctx(), &data, n, run, 1,
                                               &width)),
              0);
    EXPECT_EQ(std::vector<uint8_t>(data, data + n * kRec), Bytes(want));
    EXPECT_GE(width, n);

    // Stopping at 8 runs: every run of `width` records is sorted.
    buf = Bytes(in);
    data = buf.data();
    ASSERT_EQ((hq_sort_cascade<kRec, CmpKeyId>(h.ctx(), &data, n, run, 8,
                                               &width)),
              0);
    EXPECT_LE((n + width - 1) / width, 8);
    EXPECT_GT((n + width / 2 - 1) / (width / 2), 8);
    for (int64_t b = 0; b < n; b += width) {
      int64_t e = std::min(n, b + width);
      for (int64_t i = b + 1; i < e; ++i) {
        ASSERT_LT(CmpKeyId(data + (i - 1) * kRec, data + i * kRec), 0) << i;
      }
    }
  }
}

constexpr uint32_t kParts = 16;

int64_t HashPidOf(const uint8_t* r) {
  return static_cast<int64_t>(
      hq_hash64(static_cast<uint64_t>(At(r).key)) & (kParts - 1));
}

void HashPids(const uint8_t* d, uint32_t bn, int32_t* pid) {
  for (uint32_t i = 0; i < bn; ++i) {
    pid[i] = static_cast<int32_t>(HashPidOf(d + i * kRec));
  }
}

// Fine partitioning over keys [-100, 900): partition = key - 40 maps only
// part of that domain into [0, kParts).
int64_t ValuePid(const uint8_t* r) { return At(r).key - 40; }

/// The serial scatter every partition driver must reproduce: records in
/// input order within each partition; `pid` < 0 drops a record.
void ReferenceScatter(const std::vector<Rec>& in,
                      int64_t (*pid)(const uint8_t*),
                      std::vector<uint8_t>* data, std::vector<int64_t>* pb) {
  std::vector<std::vector<Rec>> parts(kParts);
  for (const Rec& r : in) {
    int64_t p = pid(reinterpret_cast<const uint8_t*>(&r));
    if (p >= 0) parts[static_cast<size_t>(p)].push_back(r);
  }
  data->clear();
  pb->assign(1, 0);
  for (const auto& part : parts) {
    std::vector<uint8_t> b = Bytes(part);
    data->insert(data->end(), b.begin(), b.end());
    pb->push_back(pb->back() + static_cast<int64_t>(part.size()));
  }
}

int64_t ClampedPid(const uint8_t* r) {
  return std::min<int64_t>(std::max<int64_t>(ValuePid(r), 0), kParts - 1);
}

int64_t DroppingPid(const uint8_t* r) {
  int64_t p = ValuePid(r);
  return p >= 0 && p < kParts ? p : -1;
}

TEST(OperatorDriverTest, PartitionMatchesSerialScatterAtEveryTaskCount) {
  using Driver = int (*)(HqQueryCtx*, HqStream*);
  struct Case {
    const char* name;
    Driver driver;
    int64_t (*reference_pid)(const uint8_t*);
  };
  const Case cases[] = {
      {"coarse", hq_partition_coarse<kRec, kParts, HashPids>, HashPidOf},
      {"fine-clamp", hq_partition_fine<kRec, kParts, ValuePid, true>,
       ClampedPid},
      {"fine-drop", hq_partition_fine<kRec, kParts, ValuePid, false>,
       DroppingPid},
  };
  // One record count per task count 1..4 (HQ_PAR_REC_GRAIN records per
  // task), plus the empty stream.
  for (int64_t n : {0, 1000, 70000, 140000, 200000}) {
    std::vector<Rec> in = MakeRecs(n, Keys::kRandom, 99);
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " n=" + std::to_string(n));
      std::vector<uint8_t> want;
      std::vector<int64_t> want_pb;
      ReferenceScatter(in, c.reference_pid, &want, &want_pb);
      for (uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        Harness h(threads);
        std::vector<uint8_t> buf = Bytes(in);
        HqStream s = {buf.data(), n, kRec, nullptr, 0};
        ASSERT_EQ(c.driver(h.ctx(), &s), 0);
        ASSERT_EQ(s.num_parts, kParts);
        EXPECT_EQ(std::vector<int64_t>(s.part_begin,
                                       s.part_begin + kParts + 1),
                  want_pb);
        EXPECT_EQ(std::vector<uint8_t>(s.data, s.data + s.n * kRec), want);
        if (threads > 1) {
          // Count and scatter each ran one task per record chunk.
          EXPECT_EQ(h.tasks_run(),
                    2 * hq_task_count(static_cast<uint64_t>(n),
                                      HQ_PAR_REC_GRAIN, HQ_PAR_PART_TASKS));
        }
      }
    }
  }
}

TEST(OperatorDriverTest, ConcatKeepsTaskOrder) {
  for (uint32_t nt : {1u, 9u}) {
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("nt=" + std::to_string(nt) +
                   " threads=" + std::to_string(threads));
      Harness h(threads);
      std::vector<HqVec> vs(nt);
      std::vector<Rec> want;
      for (uint32_t t = 0; t < nt; ++t) {
        // Task t contributes (t * 37 + 3) % 11 records (some tasks none).
        ASSERT_EQ(hq_vec_init(&vs[t], h.ctx(), kRec, 1), 0);
        for (uint32_t i = 0; i < (t * 37 + 3) % 11; ++i) {
          Rec r = {static_cast<int32_t>(t), i, t * 1000ull + i};
          std::memcpy(hq_vec_slot(&vs[t]), &r, kRec);
          want.push_back(r);
        }
      }
      HqStream out;
      ASSERT_EQ(hq_concat(h.ctx(), vs.data(), nt, kRec, &out), 0);
      EXPECT_EQ(out.n, static_cast<int64_t>(want.size()));
      EXPECT_EQ(out.rec_size, kRec);
      EXPECT_EQ(out.part_begin, nullptr);
      EXPECT_EQ(std::vector<uint8_t>(out.data, out.data + out.n * kRec),
                Bytes(want));
      // A lone vec is taken over, not copied.
      if (nt == 1) EXPECT_EQ(out.data, vs[0].data);
    }
  }
}

void CopyRow(HqQueryCtx* ctx, const uint8_t* rec, uint8_t* o) {
  (void)ctx;
  std::memcpy(o, rec, kRec);
}

TEST(OperatorDriverTest, OrderByOutputEmitsSortedPrefix) {
  // Runs of 64 records: 20000 rows leave 313 runs, so the cascade merges
  // down to 8 before the splitter merge.
  const int64_t n = 20000;
  std::vector<Rec> in = MakeRecs(n, Keys::kRandom, 3);
  std::vector<Rec> want = in;
  std::sort(want.begin(), want.end(), LessKeyId);
  for (int64_t limit : {int64_t{-1}, int64_t{0}, int64_t{1000}}) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    std::vector<Rec> prefix = want;
    if (limit >= 0) prefix.resize(static_cast<size_t>(limit));
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Harness h(threads);
      std::vector<uint8_t> buf = Bytes(in);
      HqStream s = {buf.data(), n, kRec, nullptr, 0};
      int64_t rows = hq_order_by_output<kRec, kRec, CopyRow, CmpKeyId>(
          h.ctx(), &s, limit, 64, HQ_PAR_MAX_TASKS);
      EXPECT_EQ(rows, static_cast<int64_t>(prefix.size()));
      EXPECT_EQ(h.Emitted(), Bytes(prefix));
    }
  }
}

TEST(OperatorDriverTest, EmitRowsAppliesLimitPageByPage) {
  const int64_t n = 1000;
  std::vector<Rec> in = MakeRecs(n, Keys::kRandom, 4);
  for (int64_t limit : {int64_t{-1}, int64_t{0}, int64_t{300}}) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    std::vector<Rec> prefix = in;
    if (limit >= 0) prefix.resize(static_cast<size_t>(limit));
    Harness h(1);
    std::vector<uint8_t> buf = Bytes(in);
    HqStream s = {buf.data(), n, kRec, nullptr, 0};
    EXPECT_EQ((hq_emit_rows<kRec, kRec, CopyRow>(h.ctx(), &s, limit)),
              static_cast<int64_t>(prefix.size()));
    EXPECT_EQ(h.Emitted(), Bytes(prefix));
  }
}

// ---- range drivers -------------------------------------------------------

int32_t KeyOf(const uint8_t* d, int64_t i) { return At(d + i * kRec).key; }

/// The generated join kernel's contract (op<k>_merge_range): a merge over
/// the key-sorted ranges emitting every combination of records with equal
/// keys as one N * kRec-byte row, inputs in order.
template <uint32_t N>
int JoinRanges(HqQueryCtx* ctx, uint8_t* const* d, const int64_t* b,
               const int64_t* e, void* out) {
  (void)ctx;
  HqVec* v = static_cast<HqVec*>(out);
  int64_t i[N], g[N], a[N];
  for (uint32_t t = 0; t < N; ++t) i[t] = b[t];
  for (;;) {
    for (uint32_t t = 0; t < N; ++t) {
      if (i[t] >= e[t]) return 0;
    }
    int32_t m = KeyOf(d[0], i[0]);
    for (uint32_t t = 1; t < N; ++t) m = std::max(m, KeyOf(d[t], i[t]));
    bool equal = true;
    for (uint32_t t = 0; t < N; ++t) {
      while (i[t] < e[t] && KeyOf(d[t], i[t]) < m) ++i[t];
      if (i[t] >= e[t]) return 0;
      equal = equal && KeyOf(d[t], i[t]) == m;
    }
    if (!equal) continue;
    for (uint32_t t = 0; t < N; ++t) {
      for (g[t] = i[t]; g[t] < e[t] && KeyOf(d[t], g[t]) == m;) ++g[t];
      a[t] = i[t];
    }
    for (;;) {
      uint8_t* o = hq_vec_slot(v);
      if (o == nullptr) return -1;
      for (uint32_t t = 0; t < N; ++t) {
        std::memcpy(o + t * kRec, d[t] + a[t] * kRec, kRec);
      }
      // Next combination: the last input varies fastest.
      int t = static_cast<int>(N) - 1;
      for (; t >= 0 && ++a[t] == g[t]; --t) a[t] = i[t];
      if (t < 0) break;
    }
    for (uint32_t t = 0; t < N; ++t) i[t] = g[t];
  }
}

/// Records each call's ranges as one row: b[0..N) then e[0..N).
template <uint32_t N>
int RecordRanges(HqQueryCtx* ctx, uint8_t* const* d, const int64_t* b,
                 const int64_t* e, void* out) {
  (void)ctx;
  (void)d;
  uint8_t* o = hq_vec_slot(static_cast<HqVec*>(out));
  if (o == nullptr) return -1;
  std::memcpy(o, b, N * 8);
  std::memcpy(o + N * 8, e, N * 8);
  return 0;
}

/// A fused-aggregate stand-in whose fold is order-sensitive: a task's block
/// hashes its calls' ranges, and MergeAcc hashes the blocks in fold order.
struct Acc {
  uint64_t calls;
  uint64_t h;
};

void AddCall(Acc* a, const int64_t* b, const int64_t* e) {
  ++a->calls;
  a->h = a->h * 31 + static_cast<uint64_t>(b[0] * 7 + e[0]);
}

int FoldRanges(HqQueryCtx* ctx, uint8_t* const* d, const int64_t* b,
               const int64_t* e, void* out) {
  (void)ctx;
  (void)d;
  AddCall(static_cast<Acc*>(out), b, e);
  return 0;
}

int MergeAcc(uint8_t* g, const uint8_t* s) {
  Acc* G = reinterpret_cast<Acc*>(g);
  const Acc* S = reinterpret_cast<const Acc*>(s);
  if (S->calls == 0) return 0;
  G->h = G->h * 1000003 + S->h;
  G->calls += S->calls;
  return 0;
}

/// EMIT of a fold's block: the block itself is the one row.
template <class T>
int EmitBlock(const uint8_t* g, HqVec* v) {
  uint8_t* o = hq_vec_slot(v);
  if (o == nullptr) return -1;
  std::memcpy(o, g, sizeof(T));
  return 0;
}

using AccOut = hq_accs<sizeof(Acc), sizeof(Acc), MergeAcc, EmitBlock<Acc>>;

template <size_t>
constexpr HqSortFn kSortByKey = hq_record_sort<kRec, CmpKey>;
template <size_t>
constexpr HqRecCmp kCmpByKey = CmpKey;

/// One expected kernel call: its task and its ranges.
struct Call {
  uint32_t task;
  std::vector<int64_t> b, e;
};

/// The serial reference of a range driver: the expected calls in order,
/// run one after another on a private copy of the inputs.
struct Reference {
  std::vector<uint8_t> joined, ranges, folded;
};

template <uint32_t N>
Reference Serial(std::vector<std::vector<Rec>> inputs,
                 const std::vector<Call>& calls, uint32_t nt, bool sort) {
  Reference r;
  std::vector<uint8_t*> d;
  for (auto& in : inputs) {
    d.push_back(reinterpret_cast<uint8_t*>(in.data()));
  }
  Harness h(1);
  HqVec joined;
  EXPECT_EQ(hq_vec_init(&joined, h.ctx(), N * kRec, 1), 0);
  std::vector<Acc> accs(nt, Acc{0, 0});
  for (const Call& c : calls) {
    if (sort) {
      for (uint32_t t = 0; t < N; ++t) {
        hq_record_sort<kRec, CmpKey>(d[t] + c.b[t] * kRec, c.e[t] - c.b[t]);
      }
    }
    EXPECT_EQ(JoinRanges<N>(h.ctx(), d.data(), c.b.data(), c.e.data(),
                            &joined),
              0);
    for (const std::vector<int64_t>* bound : {&c.b, &c.e}) {
      const uint8_t* p = reinterpret_cast<const uint8_t*>(bound->data());
      r.ranges.insert(r.ranges.end(), p, p + N * 8);
    }
    AddCall(&accs[c.task], c.b.data(), c.e.data());
  }
  r.joined.assign(joined.data, joined.data + joined.n * N * kRec);
  Acc fold = {0, 0};
  for (const Acc& a : accs) {
    MergeAcc(reinterpret_cast<uint8_t*>(&fold),
             reinterpret_cast<const uint8_t*>(&a));
  }
  const uint8_t* f = reinterpret_cast<const uint8_t*>(&fold);
  r.folded.assign(f, f + sizeof(Acc));
  return r;
}

/// Runs `driver` over fresh copies of `inputs` (with partition bounds `pb`
/// when given) on the serial fallback and on a 4-executor pool, and checks
/// the result bytes and, on the pool, the tasks it ran.
using RangeDriver =
    std::function<int(HqQueryCtx*, const HqStream* const*, HqStream*)>;

template <uint32_t N>
void CheckDriver(const std::vector<std::vector<Rec>>& inputs,
                 const std::vector<std::vector<int64_t>>& pb,
                 const RangeDriver& driver,
                 const std::vector<uint8_t>& want, uint32_t rec,
                 uint32_t want_tasks) {
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Harness h(threads);
    std::vector<std::vector<Rec>> data = inputs;
    std::vector<HqStream> streams(N);
    std::vector<const HqStream*> in;
    for (uint32_t t = 0; t < N; ++t) {
      data[t].push_back(Rec{0, 0, 0});  // never empty: a valid data pointer
      streams[t] = {reinterpret_cast<uint8_t*>(data[t].data()),
                    static_cast<int64_t>(inputs[t].size()), kRec,
                    pb.empty() ? nullptr : const_cast<int64_t*>(pb[t].data()),
                    pb.empty() ? 0u : static_cast<uint32_t>(pb[t].size() - 1)};
      in.push_back(&streams[t]);
    }
    HqStream out;
    std::memset(&out, 0xAB, sizeof(out));
    ASSERT_EQ(driver(h.ctx(), in.data(), &out), 0);
    EXPECT_EQ(out.rec_size, rec);
    EXPECT_EQ(out.part_begin, nullptr);
    EXPECT_EQ(out.num_parts, 0u);
    EXPECT_EQ(std::vector<uint8_t>(out.data, out.data + out.n * rec), want);
    if (threads > 1) EXPECT_EQ(h.tasks_run(), want_tasks);
  }
}

/// N partitioned inputs over M partitions (partition = key % M), records
/// in random order within a partition. Input 1 has nothing in partition
/// 1, so that partition is empty in one input only.
std::vector<std::vector<Rec>> PartitionedInputs(
    uint32_t n, uint32_t M, int64_t rows,
    std::vector<std::vector<int64_t>>* pb) {
  std::vector<std::vector<Rec>> inputs(n);
  pb->assign(n, std::vector<int64_t>(M + 1, 0));
  Rng rng(M * 10 + n);
  uint32_t id = 0;
  for (uint32_t t = 0; t < n; ++t) {
    std::vector<std::vector<Rec>> parts(M);
    for (int64_t i = 0; i < rows / (t + 1); ++i) {
      int32_t key = static_cast<int32_t>(rng.NextBounded(40));
      uint32_t m = static_cast<uint32_t>(key) % M;
      if (t == 1 && m == 1) continue;
      parts[m].push_back(Rec{key, id++, rng.Next()});
    }
    for (uint32_t m = 0; m < M; ++m) {
      inputs[t].insert(inputs[t].end(), parts[m].begin(), parts[m].end());
      (*pb)[t][m + 1] = static_cast<int64_t>(inputs[t].size());
    }
  }
  return inputs;
}

template <uint32_t N, size_t... I>
void CheckPartitionRanges(std::index_sequence<I...>) {
  // One task per partition: M = 1..4 gives 1..4 tasks.
  for (uint32_t M : {1u, 2u, 3u, 4u}) {
    for (int64_t rows : {int64_t{0}, int64_t{600}}) {
      SCOPED_TRACE("N=" + std::to_string(N) + " M=" + std::to_string(M) +
                   " rows=" + std::to_string(rows));
      std::vector<std::vector<int64_t>> pb;
      std::vector<std::vector<Rec>> inputs =
          PartitionedInputs(N, M, rows, &pb);
      uint32_t nt = hq_task_count(M, 1, HQ_PAR_MAX_TASKS);
      std::vector<Call> calls;
      for (uint32_t t = 0; t < nt; ++t) {
        uint64_t mb, me;
        hq_task_range(M, nt, t, &mb, &me);
        for (uint64_t m = mb; m < me; ++m) {
          Call c{t, {}, {}};
          bool empty = false;
          for (uint32_t i = 0; i < N; ++i) {
            c.b.push_back(pb[i][m]);
            c.e.push_back(pb[i][m + 1]);
            empty = empty || pb[i][m] == pb[i][m + 1];
          }
          if (!empty) calls.push_back(c);
        }
      }
      Reference want = Serial<N>(inputs, calls, nt, /*sort=*/true);
      EXPECT_EQ(want.joined.empty(), rows == 0);
      if (rows > 0 && M > 1) {
        EXPECT_LT(calls.size(), M);  // partition 1 is skipped
      }
      CheckDriver<N>(inputs, pb,
                     hq_part_ranges<N, JoinRanges<N>, hq_vecs<N * kRec, 64>,
                                    kSortByKey<I>...>,
                     want.joined, N * kRec, nt == 1 ? 1 : 2 * nt);
      CheckDriver<N>(inputs, pb,
                     hq_part_ranges<N, RecordRanges<N>,
                                    hq_vecs<N * 16, 64>, kSortByKey<I>...>,
                     want.ranges, N * 16, nt == 1 ? 1 : 2 * nt);
      CheckDriver<N>(inputs, pb,
                     hq_part_ranges<N, FoldRanges, AccOut, kSortByKey<I>...>,
                     want.folded, sizeof(Acc), nt);
    }
  }
}

TEST(OperatorDriverTest, PartitionRangesMatchSerialReference) {
  CheckPartitionRanges<2>(std::make_index_sequence<2>());
  CheckPartitionRanges<3>(std::make_index_sequence<3>());
}

/// N key-sorted inputs. Input 0 has n0 records in runs of 3000 equal keys,
/// so splitter ranks fall inside runs; input 1 has two records per key
/// except key 6 (absent: the rank 20000 splitter's key); input 2 one each.
std::vector<std::vector<Rec>> SortedInputs(uint32_t n, int64_t n0) {
  std::vector<std::vector<Rec>> inputs(n);
  uint32_t id = 0;
  for (int64_t i = 0; i < n0; ++i) {
    inputs[0].push_back(Rec{static_cast<int32_t>(i / 3000), id++, i * 3ull});
  }
  for (uint32_t t = 1; t < n; ++t) {
    for (int32_t key = 0; key < 14; ++key) {
      if (t == 1 && key == 6) continue;
      for (uint32_t c = 0; c < (t == 1 ? 2u : 1u); ++c) {
        inputs[t].push_back(Rec{key, id++, id * 5ull});
      }
    }
  }
  return inputs;
}

template <uint32_t N, size_t... I>
void CheckKeyRanges(std::index_sequence<I...>) {
  for (int64_t n0 : {int64_t{0}, int64_t{40000}}) {
    std::vector<std::vector<Rec>> inputs = SortedInputs(N, n0);
    // n0 = 40000 spans five HQ_PAR_JOIN_GRAIN chunks: the cap decides.
    for (uint32_t par_tasks : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE("N=" + std::to_string(N) + " n0=" + std::to_string(n0) +
                   " par_tasks=" + std::to_string(par_tasks));
      uint32_t nt = hq_task_count(static_cast<uint64_t>(n0),
                                  HQ_PAR_JOIN_GRAIN, par_tasks);
      // Task t starts at the lower bound of input 0's record at rank
      // t * n0 / nt in every input.
      auto bound = [&](uint32_t i, uint32_t t) -> int64_t {
        const std::vector<Rec>& in = inputs[i];
        if (t == 0) return 0;
        if (t == nt) return static_cast<int64_t>(in.size());
        int32_t key = inputs[0][t * n0 / nt].key;
        return std::lower_bound(in.begin(), in.end(), key,
                                [](const Rec& r, int32_t k) {
                                  return r.key < k;
                                }) -
               in.begin();
      };
      std::vector<Call> calls;
      for (uint32_t t = 0; t < nt; ++t) {
        Call c{t, {}, {}};
        bool empty = false;
        for (uint32_t i = 0; i < N; ++i) {
          c.b.push_back(bound(i, t));
          c.e.push_back(bound(i, t + 1));
          empty = empty || c.b[i] == c.e[i];
        }
        if (!empty) calls.push_back(c);
      }
      if (n0 > 0) {
        ASSERT_EQ(nt, par_tasks);
        // Splitters fall inside runs: no range splits a run of equal keys.
        for (const Call& c : calls) {
          EXPECT_EQ(c.b[0] % 3000, 0) << c.b[0];
        }
      }
      Reference want = Serial<N>(inputs, calls, nt, /*sort=*/false);
      EXPECT_EQ(want.joined.empty(), n0 == 0);
      auto with_cap = [par_tasks](auto driver) -> RangeDriver {
        return [=](HqQueryCtx* ctx, const HqStream* const* in,
                   HqStream* out) { return driver(ctx, in, par_tasks, out); };
      };
      CheckDriver<N>(inputs, {},
                     with_cap(hq_key_ranges<N, JoinRanges<N>,
                                            hq_vecs<N * kRec, 64>,
                                            kCmpByKey<I>...>),
                     want.joined, N * kRec, nt == 1 ? 1 : 2 * nt);
      CheckDriver<N>(inputs, {},
                     with_cap(hq_key_ranges<N, RecordRanges<N>,
                                            hq_vecs<N * 16, 64>,
                                            kCmpByKey<I>...>),
                     want.ranges, N * 16, nt == 1 ? 1 : 2 * nt);
      CheckDriver<N>(inputs, {},
                     with_cap(hq_key_ranges<N, FoldRanges, AccOut,
                                            kCmpByKey<I>...>),
                     want.folded, sizeof(Acc), nt);
    }
  }
}

TEST(OperatorDriverTest, KeyRangesMatchSerialReference) {
  CheckKeyRanges<2>(std::make_index_sequence<2>());
  CheckKeyRanges<3>(std::make_index_sequence<3>());
}

// ---- map aggregation -----------------------------------------------------

/// A map-aggregation block whose fold is order-sensitive: a task hashes
/// its records' ids in scan order, MergeBlock hashes the blocks in fold
/// order. 24 bytes, which hq_accs pads to one cache line per task.
struct Block {
  uint64_t n, h, misaligned;
};

int ScanBlock(HqQueryCtx* ctx, HqWorkerCtx* wk, const HqStream* in,
              uint64_t b, uint64_t e, void* acc) {
  (void)ctx;
  (void)wk;
  Block* blk = static_cast<Block*>(acc);
  blk->misaligned |= reinterpret_cast<uintptr_t>(acc) % 64;
  for (uint64_t i = b; i < e; ++i) {
    blk->h = blk->h * 31 + At(in->data + i * kRec).id;
    ++blk->n;
  }
  return 0;
}

/// Folds s into g, failing when g would then hold more than LIMIT records,
/// as a directory fails to take another task's keys.
template <uint64_t LIMIT>
int MergeBlock(uint8_t* g, const uint8_t* s) {
  Block* G = reinterpret_cast<Block*>(g);
  const Block* S = reinterpret_cast<const Block*>(s);
  if (S->n == 0) return 0;
  if (G->n + S->n > LIMIT) return -1;
  G->h = G->h * 1000003 + S->h;
  G->n += S->n;
  G->misaligned |= S->misaligned;
  return 0;
}

template <uint64_t LIMIT>
using BlockOut = hq_accs<sizeof(Block), sizeof(Block), MergeBlock<LIMIT>,
                         EmitBlock<Block>>;
static_assert(BlockOut<1>::kSize == 64, "one cache line per task block");

constexpr uint64_t kNoLimit = ~0ull;
constexpr uint64_t kMapGrain = 1000;

/// Runs a map driver over n random records (MakeRecs seed 21) on the
/// serial fallback and on a 4-executor pool; `check` sees the harness, the
/// driver's return value and its output.
void RunMapAgg(int64_t n,
               int (*driver)(HqQueryCtx*, const HqStream*, uint64_t,
                             uint64_t, HqStream*),
               const std::function<void(Harness&, int, const HqStream&)>&
                   check) {
  std::vector<Rec> data = MakeRecs(n, Keys::kRandom, 21);
  data.push_back(Rec{0, 0, 0});  // never empty: a valid data pointer
  HqStream in = {reinterpret_cast<uint8_t*>(data.data()), n, kRec, nullptr,
                 0};
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Harness h(threads);
    HqStream out;
    std::memset(&out, 0xAB, sizeof(out));
    int rc = driver(h.ctx(), &in, static_cast<uint64_t>(n), kMapGrain, &out);
    check(h, rc, out);
  }
}

TEST(OperatorDriverTest, MapAggFoldsTaskBlocksInTaskOrder) {
  // One to four tasks of kMapGrain records, and the empty input.
  for (int64_t n : {0, 999, 1000, 2000, 2500, 4000}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<Rec> recs = MakeRecs(n, Keys::kRandom, 21);
    uint32_t nt = hq_task_count(static_cast<uint64_t>(n), kMapGrain,
                                HQ_PAR_MAP_TASKS);
    EXPECT_EQ(nt, std::max<uint32_t>(1, static_cast<uint32_t>(
                                            (n + kMapGrain - 1) / kMapGrain)));
    // Serial reference: the task blocks folded into zeros in task order.
    Block want = {0, 0, 0};
    for (uint32_t t = 0; t < nt; ++t) {
      uint64_t b, e;
      hq_task_range(static_cast<uint64_t>(n), nt, t, &b, &e);
      Block blk = {0, 0, 0};
      for (uint64_t i = b; i < e; ++i) {
        blk.h = blk.h * 31 + recs[i].id;
        ++blk.n;
      }
      MergeBlock<kNoLimit>(reinterpret_cast<uint8_t*>(&want),
                           reinterpret_cast<const uint8_t*>(&blk));
    }
    RunMapAgg(n, hq_map_agg<BlockOut<kNoLimit>, ScanBlock>,
              [&](Harness& h, int rc, const HqStream& out) {
                ASSERT_EQ(rc, 0);
                ASSERT_EQ(out.n, 1);
                EXPECT_EQ(out.rec_size, sizeof(Block));
                EXPECT_EQ(out.part_begin, nullptr);
                EXPECT_EQ(out.num_parts, 0u);
                Block got;
                std::memcpy(&got, out.data, sizeof(Block));
                EXPECT_EQ(got.n, static_cast<uint64_t>(n));
                EXPECT_EQ(got.h, want.h);
                EXPECT_EQ(got.misaligned, 0u);
                if (h.ctx()->parallel_for != nullptr) {
                  EXPECT_EQ(h.tasks_run(), nt);
                }
              });
  }
}

TEST(OperatorDriverTest, MapAggFoldOverflowIsMapOverflow) {
  // Four tasks of 1000 records: each fits a 2500-record block alone, but
  // folding the third into block 0 does not.
  RunMapAgg(4000, hq_map_agg<BlockOut<2500>, ScanBlock>,
            [](Harness& h, int rc, const HqStream& out) {
              (void)out;
              EXPECT_EQ(rc, -1);
              EXPECT_EQ(h.ctx()->error, HQ_ERR_MAP_OVERFLOW);
            });
}

TEST(OperatorDriverTest, DirIdMatchesInsertionOrderReference) {
  constexpr uint32_t kCap = 256;
  auto d = std::make_unique<hq_dir<kCap>>();
  std::memset(d.get(), 0, sizeof(*d));
  std::map<int64_t, int32_t> want;  // key -> id, ids in insertion order
  Rng rng(17);
  bool full = false;
  for (int i = 0; i < 5000; ++i) {
    // 400 keys, negative and wide ones too, against 256 slots.
    int64_t key = (static_cast<int64_t>(rng.NextBounded(400)) - 200) *
                  1000000007LL;
    int32_t id = hq_dir_id<kCap>(d.get(), key);
    auto it = want.find(key);
    if (it != want.end()) {
      ASSERT_EQ(id, it->second) << key;
    } else if (want.size() == kCap) {
      ASSERT_EQ(id, -1) << key;
      full = true;
    } else {
      ASSERT_EQ(id, static_cast<int32_t>(want.size())) << key;
      want[key] = id;
    }
  }
  EXPECT_TRUE(full);
  ASSERT_EQ(d->n, static_cast<int32_t>(kCap));
  int32_t i = 0;
  for (const auto& [key, id] : want) {
    EXPECT_EQ(d->k[i], key);
    EXPECT_EQ(d->id[i], id);
    EXPECT_EQ(d->v[id], key);
    ++i;
  }
}

// Join-key filter: hq_key_filter_build over build records (KT key at byte
// 8 of 16) and hq_key_filter_test over probe blocks (KT key at byte 8 of
// 24), against a serial std::unordered_set of the build keys. Without a
// bitmap (the width guard) every bit of the mask survives.
template <typename KT>
void CheckKeyFilter(const std::vector<KT>& build, const std::vector<KT>& probe,
                    bool bitmap) {
  constexpr uint32_t kBuildRec = 16, kProbeRec = 24, kOff = 8;
  std::vector<uint8_t> recs(build.size() * kBuildRec + kBuildRec, 0xCD);
  for (size_t i = 0; i < build.size(); ++i) {
    std::memcpy(recs.data() + i * kBuildRec + kOff, &build[i], sizeof(KT));
  }
  HqStream s = {recs.data(), static_cast<int64_t>(build.size()), kBuildRec,
                nullptr, 0};
  Harness h(1);
  HqKeyFilter kf;
  std::memset(&kf, 0xEE, sizeof(kf));
  ASSERT_EQ((hq_key_filter_build<KT, kBuildRec, kOff>(h.ctx(), &s, &kf)), 0);
  EXPECT_EQ(kf.keys, static_cast<int64_t>(build.size()));
  EXPECT_EQ(kf.bits != nullptr, bitmap);
  EXPECT_EQ(kf.tested, 0u);
  EXPECT_EQ(kf.passed, 0u);
  const std::unordered_set<int64_t> keys(build.begin(), build.end());
  std::vector<uint8_t> tuples(probe.size() * kProbeRec + kProbeRec, 0xCD);
  for (size_t i = 0; i < probe.size(); ++i) {
    std::memcpy(tuples.data() + i * kProbeRec + kOff, &probe[i], sizeof(KT));
  }
  Rng rng(99);
  for (size_t b = 0; b < probe.size(); b += HQ_SIMD_BLOCK) {
    const uint32_t bn = static_cast<uint32_t>(
        std::min<size_t>(HQ_SIMD_BLOCK, probe.size() - b));
    const uint64_t full = ~0ull >> (64 - bn);
    for (uint64_t bm : {full, rng.Next() & full, uint64_t{0}}) {
      uint64_t want = 0;
      for (uint32_t i = 0; i < bn; ++i) {
        if ((bm >> i & 1) && (!bitmap || keys.count(probe[b + i]) != 0)) {
          want |= 1ull << i;
        }
      }
      EXPECT_EQ((hq_key_filter_test<KT, kProbeRec, kOff>(
                    &kf, tuples.data() + b * kProbeRec, bn, bm)),
                want)
          << "block at " << b;
    }
  }
}

TEST(OperatorDriverTest, KeyFilterMatchesUnorderedSetReference) {
  Rng rng(5);
  auto draw = [&](int64_t lo, int64_t hi, size_t n) {
    std::vector<int32_t> v;
    for (size_t i = 0; i < n; ++i) {
      v.push_back(static_cast<int32_t>(
          lo + static_cast<int64_t>(rng.NextBounded(
                   static_cast<uint64_t>(hi - lo)))));
    }
    return v;
  };
  // Probe keys below, inside and above every build range.
  const std::vector<int32_t> probe = draw(-3000, 3000, 1000);
  CheckKeyFilter<int32_t>({}, probe, true);                   // empty
  CheckKeyFilter<int32_t>({17}, probe, true);                 // one key
  CheckKeyFilter<int32_t>(draw(-900, -100, 300), probe, true);  // negative
  CheckKeyFilter<int32_t>(draw(0, 64, 500), probe, true);       // duplicates
  CheckKeyFilter<int32_t>(draw(-2500, 2500, 4000), probe, true);
  // Range ends that are not word-aligned, and a one-word range.
  CheckKeyFilter<int32_t>({-65, 63, 64, 127, 128}, probe, true);
  // The width guard: two keys 2^32 - 1 apart, then a span just at and
  // just below the limit (max(32 bits per key, HQ_KF_MIN_BITS)).
  const int32_t lo = std::numeric_limits<int32_t>::min();
  const int32_t hi = std::numeric_limits<int32_t>::max();
  CheckKeyFilter<int32_t>({lo, hi}, {lo, hi, 0, lo + 1, hi - 1}, false);
  CheckKeyFilter<int32_t>({0, HQ_KF_MIN_BITS}, probe, false);
  CheckKeyFilter<int32_t>({0, HQ_KF_MIN_BITS - 1}, probe, true);
  // int64 keys: far from zero, and spanning the whole domain.
  const int64_t wide = int64_t{1} << 40;
  CheckKeyFilter<int64_t>({wide - 5, wide, wide + 900},
                          {wide - 6, wide - 5, wide + 1, wide + 900, -wide},
                          true);
  CheckKeyFilter<int64_t>({std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()},
                          {0, 1, std::numeric_limits<int64_t>::max()}, false);
}

/// A probe stage's scan: reads its filter back from the HqProbeInput the
/// stage hands hq_stage_base, tests each block of Recs, counts once.
int64_t ProbeScan(HqQueryCtx* ctx, const HqTableRef* T, uint64_t pb,
                  uint64_t pe, uint8_t* dst, uint64_t* pages) {
  (void)ctx;
  HqKeyFilter* kf = ((const HqProbeInput*)T)->kf;
  uint64_t kf_in = 0, kf_out = 0;
  uint8_t* const dst0 = dst;
  for (uint64_t p = pb; p < pe; ++p) {
    uint32_t nt;
    std::memcpy(&nt, T->pages[p], 4);
    ++*pages;
    const uint8_t* tup = T->pages[p] + HQ_PAGE_HEADER;
    for (uint32_t ti = 0; ti < nt;) {
      uint32_t bn = std::min<uint32_t>(nt - ti, HQ_SIMD_BLOCK);
      uint64_t bm = ~0ull >> (64 - bn);
      kf_in += __builtin_popcountll(bm);
      bm = hq_key_filter_test<int32_t, kRec, 0>(kf, tup, bn, bm);
      kf_out += __builtin_popcountll(bm);
      while (bm) {
        uint32_t bi = static_cast<uint32_t>(__builtin_ctzll(bm));
        bm &= bm - 1;
        std::memcpy(dst, tup + bi * kRec, kRec);
        dst += kRec;
      }
      ti += bn;
      tup += bn * kRec;
    }
  }
  hq_key_filter_count(kf, kf_in, kf_out);
  return (dst - dst0) / kRec;
}

TEST(OperatorDriverTest, ProbeStageStagesOnlyFilterKeysOnEveryPath) {
  TablePages table(200);
  // Build keys: the odd ones in [100, 300).
  std::vector<Rec> build;
  for (int32_t k = 101; k < 300; k += 2) {
    build.push_back({k, static_cast<uint32_t>(k), 0});
  }
  std::vector<uint8_t> build_bytes = Bytes(build);
  std::vector<Rec> want;
  for (const Rec& r : table.tuples) {
    if (r.key >= 100 && r.key < 300 && r.key % 2 != 0) want.push_back(r);
  }
  for (const char* path : {"serial", "fallback", "pool"}) {
    SCOPED_TRACE(path);
    Harness h(std::string(path) == "pool" ? 4 : 1);
    if (std::string(path) == "fallback") h.ctx()->num_workers = 4;
    HqStream bs = {build_bytes.data(), static_cast<int64_t>(build.size()),
                   kRec, nullptr, 0};
    HqKeyFilter kf;
    ASSERT_EQ((hq_key_filter_build<int32_t, kRec, 0>(h.ctx(), &bs, &kf)), 0);
    HqProbeInput in = {table.ref, &kf};
    HqStream out;
    ASSERT_EQ((hq_stage_base<kRec, ProbeScan>(h.ctx(), &in.T, &out)), 0);
    EXPECT_EQ(std::vector<uint8_t>(out.data, out.data + out.n * kRec),
              Bytes(want));
    // Counted once per row.
    EXPECT_EQ(kf.tested, table.tuples.size());
    EXPECT_EQ(kf.passed, want.size());
  }
}

}  // namespace
}  // namespace hique
