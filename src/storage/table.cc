#include "storage/table.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <set>

#include "util/hash.h"
#include "util/macros.h"

namespace hique {

void PinnedPages::Release() {
  pages_.clear();
  hold_.clear();
  tuple_count_ = 0;
}

namespace {

// One fresh, reset page. Pages are handed to generated SIMD kernels as
// staged-column input: kPageSize (>= 64) alignment keeps every aligned
// vector load legal.
Result<Page*> NewPage() {
  void* mem = nullptr;
  int rc = posix_memalign(&mem, kPageSize, kPageSize);
  if (rc != 0 || mem == nullptr) {
    return Status::ExecError("out of memory allocating table page");
  }
  Page* p = static_cast<Page*>(mem);
  assert((reinterpret_cast<uintptr_t>(p) & 63u) == 0);
  p->Reset();
  return p;
}

}  // namespace

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      tuples_per_page_(Page::TuplesPerPage(schema_.TupleSize())) {
  HQ_CHECK_MSG(schema_.TupleSize() > 0 && tuples_per_page_ > 0,
               "tuple too large for a page");
}

Result<Page*> Table::CurrentWritePage() {
  if (gen_->pages.empty() ||
      gen_->pages.back()->num_tuples >= tuples_per_page_) {
    HQ_ASSIGN_OR_RETURN(Page * p, NewPage());
    std::lock_guard<std::mutex> lk(state_mu_);
    gen_->pages.push_back(p);
    ++num_pages_;
  }
  return gen_->pages.back();
}

Result<uint8_t*> Table::AppendTupleSlot() {
  if (delta_ != nullptr) {
    // A raw slot pointer cannot be published safely against concurrent
    // snapshots; the bulk-load fast path is load-time only.
    return Status::InvalidArgument(
        "AppendTupleSlot on write-enabled table " + name_ +
        " (use AppendRow, which routes through the delta store)");
  }
  // Appending to a compressed table rebuilds NSM first (like dropping an
  // index on write): the NSM append path below assumes NSM page layout.
  if (layout_->codec.enabled) HQ_RETURN_IF_ERROR(Decompress());
  HQ_ASSIGN_OR_RETURN(Page * page, CurrentWritePage());
  uint8_t* slot = page->TupleAt(page->num_tuples, schema_.TupleSize());
  ++page->num_tuples;
  num_tuples_.fetch_add(1, std::memory_order_acq_rel);
  stats_.valid = false;
  return slot;
}

Status Table::AdoptPage(Page* page) {
  if (delta_ != nullptr) {
    return Status::InvalidArgument("AdoptPage on write-enabled table " +
                                   name_);
  }
  if (layout_->codec.enabled) HQ_RETURN_IF_ERROR(Decompress());
  if (page->num_tuples > tuples_per_page_) {
    return Status::InvalidArgument("adopted page overflows tuple capacity");
  }
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    gen_->pages.push_back(page);
    ++num_pages_;
  }
  num_tuples_.fetch_add(page->num_tuples, std::memory_order_acq_rel);
  stats_.valid = false;
  return Status::OK();
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != schema_.NumColumns()) {
    return Status::InvalidArgument("row arity mismatch for " + name_);
  }
  if (delta_ != nullptr) {
    // Serving mode: serialize into a scratch tuple and hand it to the delta
    // store — safe against concurrent compiled scans and other appenders.
    std::vector<uint8_t> tuple(schema_.TupleSize(), 0);
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i].type_id() != schema_.ColumnAt(i).type.id) {
        return Status::InvalidArgument("type mismatch in column " +
                                       schema_.ColumnAt(i).name);
      }
      schema_.SetValue(tuple.data(), i, values[i]);
    }
    delta_->Insert(tuple.data());
    num_tuples_.fetch_add(1, std::memory_order_acq_rel);
    // Statistics stay as-of-last-compaction by design (concurrent planners
    // read them); the compactor refreshes them when it folds the delta.
    return Status::OK();
  }
  HQ_ASSIGN_OR_RETURN(uint8_t * slot, AppendTupleSlot());
  std::memset(slot, 0, schema_.TupleSize());
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].type_id() != schema_.ColumnAt(i).type.id) {
      return Status::InvalidArgument("type mismatch in column " +
                                     schema_.ColumnAt(i).name);
    }
    schema_.SetValue(slot, i, values[i]);
  }
  return Status::OK();
}

Result<PinnedPages> Table::Pin() {
  PinnedPages pinned;
  std::lock_guard<std::mutex> lk(state_mu_);
  if (delta_ != nullptr) {
    pinned.pages_.reserve(gen_->pages.size() + delta_->delta_pages());
    pinned.tuple_count_ =
        delta_->SnapshotMerged(gen_->pages, &pinned.pages_, &pinned.hold_);
    // Read after the snapshot: never fewer inserts than it holds.
    pinned.rows_since_stats_ = delta_->inserts();
  } else {
    pinned.pages_ = gen_->pages;
    pinned.tuple_count_ = num_tuples_.load(std::memory_order_acquire);
  }
  pinned.hold_.push_back(gen_);
  pinned.stats_version_ = stats_version_.load(std::memory_order_acquire);
  pinned.layout_version_ = layout_version_.load(std::memory_order_acquire);
  pinned.layout_ = layout_;
  pinned.tuples_per_page_ = PageCapacity(*layout_);
  return pinned;
}

uint64_t Table::RowsSinceStats() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return delta_ != nullptr ? delta_->inserts() : 0;
}

Status Table::ForEachTuple(const std::function<void(const uint8_t*)>& fn) {
  HQ_ASSIGN_OR_RETURN(PinnedPages pinned, Pin());
  const uint32_t tuple_size = schema_.TupleSize();
  if (!pinned.codec().enabled) {
    for (const Page* page : pinned.pages()) {
      for (uint32_t t = 0; t < page->num_tuples; ++t) {
        fn(page->TupleAt(t, tuple_size));
      }
    }
    return Status::OK();
  }
  std::vector<uint8_t> decoded;
  for (const Page* page : pinned.pages()) {
    decoded.clear();
    HQ_RETURN_IF_ERROR(DecodePage(pinned.codec(), schema_, *page,
                                  pinned.dicts(), &decoded));
    for (uint32_t t = 0; t < page->num_tuples; ++t) {
      fn(decoded.data() + static_cast<size_t>(t) * tuple_size);
    }
  }
  return Status::OK();
}

// ---- Write path (src/txn) ---------------------------------------------------

Status Table::EnableWrites() {
  if (read_only_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("table " + name_ + " is read-only");
  }
  if (delta_ != nullptr) return Status::OK();
  // A compressed base cannot interleave with NSM delta pages: rebuild NSM
  // first (in-flight snapshots keep the compressed generation alive and the
  // stats-version bump rolls compiled plans over).
  if (layout_->codec.enabled) HQ_RETURN_IF_ERROR(Decompress());
  auto delta =
      std::make_unique<txn::DeltaStore>(schema_.TupleSize(), tuples_per_page_);
  std::lock_guard<std::mutex> lk(state_mu_);
  delta_ = std::move(delta);
  return Status::OK();
}

Status Table::ForEachLiveRow(
    const std::function<void(uint64_t, const uint8_t*)>& fn) {
  if (layout_->codec.enabled) {
    return Status::InvalidArgument("ForEachLiveRow on compressed table " +
                                   name_);
  }
  const uint32_t ts = schema_.TupleSize();
  std::shared_ptr<const txn::DeleteSet> ds =
      delta_ != nullptr ? delta_->delete_set() : nullptr;
  for (uint64_t pi = 0; pi < gen_->pages.size(); ++pi) {
    const Page* page = gen_->pages[pi];
    const uint64_t first = pi * tuples_per_page_;
    for (uint32_t t = 0; t < page->num_tuples; ++t) {
      const uint64_t id = first + t;
      if (ds != nullptr && ds->BaseDeleted(id)) continue;
      fn(id, page->TupleAt(t, ts));
    }
  }
  if (delta_ != nullptr) delta_->ForEachLiveInsert(fn);
  return Status::OK();
}

Result<uint64_t> Table::DeleteRows(const std::vector<uint64_t>& row_ids) {
  if (delta_ == nullptr) {
    return Status::InvalidArgument("writes not enabled on table " + name_);
  }
  const uint64_t n = delta_->Delete(row_ids);
  num_tuples_.fetch_sub(n, std::memory_order_acq_rel);
  // Statistics stay as-of-last-compaction by design (concurrent planners
  // read them); the compactor refreshes them when it folds the delta.
  return n;
}

Status Table::Compact(bool recompress) {
  std::lock_guard<std::mutex> wl(writer_mu_);
  if (delta_ == nullptr) return Status::OK();
  if (delta_->inserts() == 0 && delta_->deleted_base() == 0) {
    return Status::OK();
  }
  // Gather the merged live state (snapshot-consistent; DML is excluded by
  // the writer mutex), rebuild fresh NSM base pages, and publish pages +
  // empty delta + stats-version bump as one atomic generation swap.
  HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> flat, GatherTuples());
  const uint64_t rows = flat.size() / schema_.TupleSize();
  HQ_ASSIGN_OR_RETURN(std::shared_ptr<PageGen> fresh,
                      BuildGen(flat, TableLayout{}));
  auto delta =
      std::make_unique<txn::DeltaStore>(schema_.TupleSize(), tuples_per_page_);
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    gen_ = std::move(fresh);
    num_pages_ = gen_->pages.size();
    num_tuples_.store(rows, std::memory_order_release);
    delta_ = std::move(delta);
    stats_version_.fetch_add(1, std::memory_order_acq_rel);
  }
  // Fresh statistics for the folded state feed the planner and, when asked,
  // the codec choice below.
  HQ_RETURN_IF_ERROR(ComputeStats());
  if (recompress) HQ_RETURN_IF_ERROR(Compress());
  return Status::OK();
}

// -----------------------------------------------------------------------------

Result<std::vector<uint8_t>> Table::GatherTuples() {
  std::vector<uint8_t> flat;
  const uint32_t ts = schema_.TupleSize();
  flat.reserve(NumTuples() * ts);
  HQ_RETURN_IF_ERROR(ForEachTuple(
      [&](const uint8_t* t) { flat.insert(flat.end(), t, t + ts); }));
  return flat;
}

Result<std::shared_ptr<Table::PageGen>> Table::BuildGen(
    const std::vector<uint8_t>& flat, const TableLayout& layout) const {
  const uint32_t ts = schema_.TupleSize();
  const uint64_t rows = flat.size() / ts;
  const uint32_t cap = PageCapacity(layout);
  HQ_CHECK(cap > 0);
  auto gen = std::make_shared<PageGen>();
  gen->pages.reserve((rows + cap - 1) / cap);
  for (uint64_t first = 0; first < rows; first += cap) {
    HQ_ASSIGN_OR_RETURN(Page * dst, NewPage());
    gen->pages.push_back(dst);  // freed with `gen` if encoding fails
    const uint32_t nt =
        static_cast<uint32_t>(std::min<uint64_t>(cap, rows - first));
    const uint8_t* src = flat.data() + first * ts;
    if (layout.codec.enabled) {
      HQ_RETURN_IF_ERROR(
          EncodePage(layout.codec, schema_, src, nt, layout.dicts, dst));
    } else {
      dst->num_tuples = nt;
      std::memcpy(dst->data, src, static_cast<size_t>(nt) * ts);
    }
  }
  return gen;
}

Status Table::RewritePages(const std::vector<uint8_t>& flat,
                           const TableCodec& codec,
                           const std::vector<std::vector<uint8_t>>& dicts) {
  auto layout = std::make_shared<const TableLayout>(TableLayout{codec, dicts});
  HQ_ASSIGN_OR_RETURN(std::shared_ptr<PageGen> fresh, BuildGen(flat, *layout));
  // Publish pages + codec + dictionaries + the stats-version bump as one
  // atomic layout change: a concurrent Pin sees either the old layout at
  // the old version or the new layout at the new version, never a mix.
  // The retired generation stays alive until the last snapshot drains.
  std::lock_guard<std::mutex> lk(state_mu_);
  gen_ = std::move(fresh);
  num_pages_ = gen_->pages.size();
  layout_ = std::move(layout);
  stats_version_.fetch_add(1, std::memory_order_acq_rel);
  // RewritePages only runs for codec transitions (Compress/Decompress),
  // so the encoding a compiled plan reads moved: retire in-flight plans.
  layout_version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status Table::Compress() {
  if (layout_->codec.enabled) return Status::OK();  // idempotent
  if (NumTuples() == 0) return Status::OK();
  if (delta_ != nullptr &&
      (delta_->inserts() != 0 || delta_->deleted_base() != 0)) {
    return Status::InvalidArgument(
        "Compress with a non-empty delta store on " + name_ +
        " (Compact folds it first)");
  }
  if (!stats().valid) HQ_RETURN_IF_ERROR(ComputeStats());
  TableCodec codec = ChooseTableCodec(schema_, stats());
  if (!codec.enabled) return Status::OK();

  HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> flat, GatherTuples());
  const uint32_t ts = schema_.TupleSize();
  const uint64_t rows = NumTuples();

  // Build sorted dictionary blobs for kDict columns; a cardinality mismatch
  // means the statistics were stale — refuse rather than mis-encode.
  std::vector<std::vector<uint8_t>> dicts(schema_.NumColumns());
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    if (codec.cols[c].enc != ColEncoding::kDict) continue;
    const uint32_t len = schema_.ColumnAt(c).type.length;
    const uint32_t off = schema_.OffsetAt(c);
    std::set<std::string> values;
    for (uint64_t i = 0; i < rows; ++i) {
      values.emplace(
          reinterpret_cast<const char*>(flat.data() + i * ts + off), len);
    }
    if (values.size() != codec.cols[c].dict_entries) {
      return Status::ExecError("Compress: dictionary cardinality differs "
                               "from statistics (stale stats)");
    }
    std::vector<uint8_t>& blob = dicts[c];
    blob.reserve(values.size() * len);
    for (const std::string& v : values) {
      blob.insert(blob.end(), v.begin(), v.end());
    }
  }

  // RewritePages publishes pages + codec + the stats-version bump; the
  // (empty) delta store detaches because a compressed base cannot carry
  // one — the next DML statement re-attaches via EnableWrites/Decompress.
  HQ_RETURN_IF_ERROR(RewritePages(flat, codec, dicts));
  if (delta_ != nullptr) {
    std::lock_guard<std::mutex> lk(state_mu_);
    delta_.reset();
  }
  return Status::OK();
}

Status Table::Decompress() {
  if (!layout_->codec.enabled) return Status::OK();
  HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> flat, GatherTuples());
  HQ_RETURN_IF_ERROR(RewritePages(flat, TableCodec{}, {}));
  return Status::OK();
}

namespace {

// Distinct-count tracking with a cap: beyond the cap the exact count stops
// mattering (map aggregation / fine partitioning are already ruled out).
constexpr size_t kDistinctCap = 1u << 22;

struct DistinctCounter {
  // One flat open-addressing set of 8-byte slots (linear probing,
  // power-of-two capacity, at most 3/4 full; 0 marks an empty slot). A
  // scalar slot holds the value's bits (the value 0 is counted apart); a
  // CHAR slot holds the top 32 bits of the value's hash over the index + 1
  // of its one copy, kept in blocks of kBlockBytes (a CHAR is at most 65535
  // bytes). A repeated value costs one probe and no allocation.
  static constexpr size_t kBlockBytes = 1u << 16;

  std::vector<uint64_t> slots = std::vector<uint64_t>(64, 0);
  uint64_t count = 0;
  bool has_zero = false;
  size_t width = 0;  // CHAR bytes per copy; 0 for a scalar column
  std::vector<std::unique_ptr<char[]>> blocks;
  uint32_t copies = 0;
  bool overflowed = false;

  void AddScalar(uint64_t bits) {
    if (overflowed) return;
    if (bits == 0) {
      if (!has_zero) {
        has_zero = true;
        Inserted();
      }
      return;
    }
    const size_t mask = slots.size() - 1;
    for (size_t i = HashMix64(bits) & mask;; i = (i + 1) & mask) {
      if (slots[i] == 0) {
        slots[i] = bits;
        return Inserted();
      }
      if (slots[i] == bits) return;
    }
  }
  void AddString(const char* p, size_t n) {
    if (overflowed) return;
    width = n;
    const uint64_t tag = HashBytes(p, n) >> 32 << 32;
    const size_t mask = slots.size() - 1;
    for (size_t i = (tag >> 32) & mask;; i = (i + 1) & mask) {
      const uint64_t slot = slots[i];
      if (slot == 0) {
        slots[i] = tag | Copy(p, n);
        return Inserted();
      }
      if ((slot >> 32 << 32) == tag && std::memcmp(CopyAt(slot), p, n) == 0) {
        return;
      }
    }
  }
  uint64_t Count() const { return count; }

 private:
  // Stores a copy of the n bytes at p; returns its index + 1.
  uint64_t Copy(const char* p, size_t n) {
    const size_t per_block = kBlockBytes / n;
    if (copies % per_block == 0) {
      blocks.push_back(std::unique_ptr<char[]>(new char[kBlockBytes]));
    }
    std::memcpy(blocks.back().get() + copies % per_block * n, p, n);
    return ++copies;
  }
  const char* CopyAt(uint64_t slot) const {
    const size_t per_block = kBlockBytes / width;
    const uint64_t index = (slot & 0xFFFFFFFFull) - 1;
    return blocks[index / per_block].get() + index % per_block * width;
  }
  // Counts a new value; past the cap the set is dropped, past 3/4 load it
  // doubles, re-placing every slot by its hash.
  void Inserted() {
    if (++count > kDistinctCap) {
      overflowed = true;
      std::vector<uint64_t>().swap(slots);
      blocks.clear();
      return;
    }
    if (count * 4 <= slots.size() * 3) return;
    std::vector<uint64_t> old(slots.size() * 2, 0);
    old.swap(slots);
    const size_t mask = slots.size() - 1;
    for (uint64_t slot : old) {
      if (slot == 0) continue;
      size_t i = (width != 0 ? slot >> 32 : HashMix64(slot)) & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = slot;
    }
  }
};

// Running min/max of one column, on the stored representation: int-family
// values widened to int64, doubles, and CHAR bytes under memcmp — the
// orders Value::Compare applies to the boxed values.
struct MinMax {
  bool any = false;
  int64_t imin = 0, imax = 0;
  double dmin = 0, dmax = 0;
  std::string smin, smax;

  void AddInt(int64_t v) {
    if (!any || v < imin) imin = v;
    if (!any || v > imax) imax = v;
    any = true;
  }
  void AddDouble(double v) {
    if (!any || v < dmin) dmin = v;
    if (!any || v > dmax) dmax = v;
    any = true;
  }
  void AddChar(const char* p, size_t n) {
    if (!any || std::memcmp(p, smin.data(), n) < 0) smin.assign(p, n);
    if (!any || std::memcmp(p, smax.data(), n) > 0) smax.assign(p, n);
    any = true;
  }
  Value Boxed(const Type& type, bool max) const {
    switch (type.id) {
      case TypeId::kInt32:
        return Value::Int32(static_cast<int32_t>(max ? imax : imin));
      case TypeId::kDate:
        return Value::Date(static_cast<int32_t>(max ? imax : imin));
      case TypeId::kInt64:
        return Value::Int64(max ? imax : imin);
      case TypeId::kDouble:
        return Value::Double(max ? dmax : dmin);
      case TypeId::kChar:
        return Value::Char(max ? smax : smin, type.length);
    }
    return Value();
  }
};

}  // namespace

Status Table::ComputeStats() {
  // Build into a local snapshot and publish it whole under stats_mu_ at the
  // end: the compactor recomputes statistics while concurrent planners read
  // them, and a half-updated TableStats must never be observable.
  stats_version_.fetch_add(1, std::memory_order_acq_rel);
  const size_t num_cols = schema_.NumColumns();
  TableStats fresh;
  fresh.rows = NumTuples();
  fresh.columns.assign(num_cols, ColumnStats{});
  std::vector<DistinctCounter> counters(num_cols);
  std::vector<MinMax> bounds(num_cols);
  // Scan-order sortedness / max adjacent step (delta-encoding inputs).
  std::vector<int64_t> prev(num_cols, 0);
  std::vector<int64_t> max_step(num_cols, 0);
  std::vector<uint8_t> has_prev(num_cols, 0);
  std::vector<uint8_t> sorted(num_cols, 1);

  uint64_t seen = 0;
  HQ_RETURN_IF_ERROR(ForEachTuple([&](const uint8_t* tuple) {
    ++seen;
    for (size_t c = 0; c < num_cols; ++c) {
      const Type& type = schema_.ColumnAt(c).type;
      const uint8_t* p = tuple + schema_.OffsetAt(c);
      uint64_t bits = 0;
      switch (type.id) {
        case TypeId::kDouble: {
          double v = 0;
          std::memcpy(&v, p, 8);
          bounds[c].AddDouble(v);
          std::memcpy(&bits, p, 8);
          counters[c].AddScalar(bits);
          break;
        }
        case TypeId::kInt32:
        case TypeId::kDate:
        case TypeId::kInt64: {
          int64_t iv = 0;
          if (type.id == TypeId::kInt64) {
            std::memcpy(&iv, p, 8);
          } else {
            int32_t v32 = 0;
            std::memcpy(&v32, p, 4);
            iv = v32;
          }
          bounds[c].AddInt(iv);
          std::memcpy(&bits, p, type.ByteSize());
          counters[c].AddScalar(bits);
          if (has_prev[c] != 0) {
            if (iv < prev[c]) {
              sorted[c] = 0;
            } else {
              // In unsigned arithmetic: a step between far-apart values
              // can exceed INT64_MAX. Saturating there is exact enough —
              // no packed delta width is that wide.
              const uint64_t step = static_cast<uint64_t>(iv) -
                                    static_cast<uint64_t>(prev[c]);
              max_step[c] = std::max(
                  max_step[c],
                  static_cast<int64_t>(std::min<uint64_t>(
                      step, std::numeric_limits<int64_t>::max())));
            }
          }
          prev[c] = iv;
          has_prev[c] = 1;
          break;
        }
        case TypeId::kChar:
          bounds[c].AddChar(reinterpret_cast<const char*>(p), type.length);
          counters[c].AddString(reinterpret_cast<const char*>(p),
                                type.length);
          break;
      }
    }
  }));
  // Statistics describe the scanned snapshot, not whatever NumTuples says
  // by the time the scan finishes (DML may have run in between).
  fresh.rows = seen;

  for (size_t c = 0; c < num_cols; ++c) {
    ColumnStats& cs = fresh.columns[c];
    const Type& type = schema_.ColumnAt(c).type;
    if (bounds[c].any) {
      cs.min = bounds[c].Boxed(type, /*max=*/false);
      cs.max = bounds[c].Boxed(type, /*max=*/true);
      cs.valid = true;
    }
    if (counters[c].overflowed) {
      cs.distinct = seen;
      cs.distinct_exact = false;
    } else {
      cs.distinct = counters[c].Count();
      cs.distinct_exact = true;
    }
    const TypeId id = type.id;
    const bool int_family =
        id == TypeId::kInt32 || id == TypeId::kInt64 || id == TypeId::kDate;
    cs.sorted_asc = int_family && has_prev[c] != 0 && sorted[c] != 0;
    cs.max_step = cs.sorted_asc ? max_step[c] : 0;
  }
  fresh.valid = true;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_ = std::move(fresh);
  }
  return Status::OK();
}

}  // namespace hique
