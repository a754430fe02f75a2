#include "storage/table.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <unordered_set>

#include "util/macros.h"

namespace hique {

PinnedPages& PinnedPages::operator=(PinnedPages&& other) noexcept {
  if (this != &other) {
    Release();
    pages_ = std::move(other.pages_);
    buffer_manager_ = other.buffer_manager_;
    file_ = other.file_;
    owns_ = other.owns_;
    tuple_count_ = other.tuple_count_;
    stats_version_ = other.stats_version_;
    layout_version_ = other.layout_version_;
    layout_ = std::move(other.layout_);
    tuples_per_page_ = other.tuples_per_page_;
    hold_ = std::move(other.hold_);
    other.pages_.clear();
    other.hold_.clear();
    other.buffer_manager_ = nullptr;
    other.owns_ = false;
    other.tuple_count_ = 0;
  }
  return *this;
}

void PinnedPages::Release() {
  if (owns_) {
    for (Page* p : pages_) std::free(p);
  } else if (buffer_manager_ != nullptr) {
    for (uint64_t i = 0; i < pages_.size(); ++i) {
      buffer_manager_->Unpin(file_, i, /*dirty=*/false);
    }
  }
  pages_.clear();
  hold_.clear();
  buffer_manager_ = nullptr;
  owns_ = false;
  tuple_count_ = 0;
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      tuples_per_page_(Page::TuplesPerPage(schema_.TupleSize())) {
  HQ_CHECK_MSG(schema_.TupleSize() > 0 && tuples_per_page_ > 0,
               "tuple too large for a page");
}

Table::Table(std::string name, Schema schema, BufferManager* bm, FileId file)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      tuples_per_page_(Page::TuplesPerPage(schema_.TupleSize())),
      buffer_manager_(bm),
      file_(file) {}

Result<std::unique_ptr<Table>> Table::CreateFileBacked(
    std::string name, Schema schema, BufferManager* buffer_manager,
    const std::string& path) {
  HQ_CHECK(buffer_manager != nullptr);
  HQ_ASSIGN_OR_RETURN(FileId file, buffer_manager->OpenFile(path, true));
  std::unique_ptr<Table> t(
      new Table(std::move(name), std::move(schema), buffer_manager, file));
  t->file_path_ = path;
  return t;
}

Table::~Table() {
  if (buffer_manager_ != nullptr) {
    if (write_page_ != nullptr) {
      buffer_manager_->Unpin(file_, write_page_no_, /*dirty=*/true);
    }
  }
  // In-memory pages are freed by the last PageGen reference (a draining
  // snapshot may outlive the table's own pointer).
}

Result<Page*> Table::CurrentWritePage() {
  if (buffer_manager_ == nullptr) {
    if (gen_->pages.empty() ||
        gen_->pages.back()->num_tuples >= tuples_per_page_) {
      void* mem = nullptr;
      int rc = posix_memalign(&mem, kPageSize, kPageSize);
      if (rc != 0 || mem == nullptr) {
        return Status::ExecError("out of memory allocating table page");
      }
      Page* p = static_cast<Page*>(mem);
      // Pages are handed to generated SIMD kernels as staged-column input:
      // kPageSize (>= 64) alignment keeps every aligned vector load legal.
      assert((reinterpret_cast<uintptr_t>(p) & 63u) == 0);
      p->Reset();
      std::lock_guard<std::mutex> lk(state_mu_);
      gen_->pages.push_back(p);
      ++num_pages_;
    }
    return gen_->pages.back();
  }
  if (write_page_ == nullptr && num_pages_ > 0) {
    // Re-attach to the tail page (a Decompress rewrite dropped the pinned
    // write page); keep filling it if it is still partial.
    HQ_ASSIGN_OR_RETURN(Page * tail,
                        buffer_manager_->FetchPage(file_, num_pages_ - 1));
    if (tail->num_tuples < tuples_per_page_) {
      write_page_ = tail;
      write_page_no_ = num_pages_ - 1;
      return write_page_;
    }
    buffer_manager_->Unpin(file_, num_pages_ - 1, /*dirty=*/false);
  }
  if (write_page_ == nullptr || write_page_->num_tuples >= tuples_per_page_) {
    if (write_page_ != nullptr) {
      buffer_manager_->Unpin(file_, write_page_no_, /*dirty=*/true);
      write_page_ = nullptr;
    }
    HQ_ASSIGN_OR_RETURN(Page * p,
                        buffer_manager_->NewPage(file_, &write_page_no_));
    write_page_ = p;
    ++num_pages_;
  }
  return write_page_;
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
  if (buffer_manager_ != nullptr) {
    return Status::InvalidArgument("AdoptPage requires an in-memory table");
  }
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
  if (buffer_manager_ == nullptr) {
    std::lock_guard<std::mutex> lk(state_mu_);
    if (delta_ != nullptr) {
      pinned.pages_.reserve(gen_->pages.size() + delta_->delta_pages());
      pinned.tuple_count_ =
          delta_->SnapshotMerged(gen_->pages, &pinned.pages_, &pinned.hold_);
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
  pinned.tuple_count_ = num_tuples_.load(std::memory_order_acquire);
  pinned.stats_version_ = stats_version_.load(std::memory_order_acquire);
  pinned.layout_version_ = layout_version_.load(std::memory_order_acquire);
  pinned.layout_ = layout();
  pinned.tuples_per_page_ = PageCapacity(*pinned.layout_);
  // Flush the tail write page state: it stays pinned by the table itself;
  // pin counts are per-fetch so double pinning is fine.
  if (num_pages_ < buffer_manager_->frame_capacity()) {
    pinned.buffer_manager_ = buffer_manager_;
    pinned.file_ = file_;
    pinned.pages_.reserve(num_pages_);
    bool pool_failed = false;
    Status fetch_err = Status::OK();
    for (uint64_t i = 0; i < num_pages_; ++i) {
      auto page = buffer_manager_->FetchPage(file_, i);
      if (!page.ok()) {
        // Unpin what we already pinned, then fall through to bypass mode
        // (concurrent queries may hold the frames we needed).
        for (uint64_t j = 0; j < pinned.pages_.size(); ++j) {
          buffer_manager_->Unpin(file_, j, false);
        }
        pinned.pages_.clear();
        pinned.buffer_manager_ = nullptr;
        pool_failed = true;
        fetch_err = page.status();
        break;
      }
      pinned.pages_.push_back(page.value());
    }
    if (!pool_failed) return pinned;
    (void)fetch_err;  // bypass below surfaces its own error if disk fails too
  }
  // Bypass mode: the table does not fit the pool pinned all at once.
  // Stream every page into query-local buffers (resident frames are copied,
  // the rest pread) so beyond-memory scans work at any pool size.
  PinnedPages byp;
  byp.owns_ = true;
  byp.tuple_count_ = pinned.tuple_count_;
  byp.stats_version_ = pinned.stats_version_;
  byp.layout_version_ = pinned.layout_version_;
  byp.layout_ = pinned.layout_;
  byp.tuples_per_page_ = pinned.tuples_per_page_;
  byp.pages_.reserve(num_pages_);
  for (uint64_t i = 0; i < num_pages_; ++i) {
    void* mem = nullptr;
    int rc = posix_memalign(&mem, kPageSize, kPageSize);
    if (rc != 0 || mem == nullptr) {
      return Status::ExecError("out of memory in bypass table read");
    }
    Page* p = static_cast<Page*>(mem);
    Status read = buffer_manager_->ReadPageBypass(file_, i, p);
    if (!read.ok()) {
      std::free(mem);
      return read;
    }
    byp.pages_.push_back(p);
  }
  return byp;
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
  if (buffer_manager_ != nullptr) {
    return Status::NotImplemented("DML requires a memory-resident table (" +
                                  name_ + " is file-backed)");
  }
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
  if (buffer_manager_ != nullptr) {
    return Status::NotImplemented("ForEachLiveRow requires a memory-resident "
                                  "table");
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
  if (buffer_manager_ != nullptr || delta_ == nullptr) return Status::OK();
  if (delta_->inserts() == 0 && delta_->deleted_base() == 0) {
    return Status::OK();
  }
  // Gather the merged live state (snapshot-consistent; DML is excluded by
  // the writer mutex), rebuild fresh NSM base pages, and publish pages +
  // empty delta + stats-version bump as one atomic generation swap.
  HQ_ASSIGN_OR_RETURN(std::vector<uint8_t> flat, GatherTuples());
  const uint32_t ts = schema_.TupleSize();
  const uint64_t rows = flat.size() / ts;
  auto fresh = std::make_shared<PageGen>();
  HQ_ASSIGN_OR_RETURN(fresh->pages,
                      BuildNsmPages(flat, ts, tuples_per_page_));
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

Result<std::vector<Page*>> Table::BuildNsmPages(
    const std::vector<uint8_t>& flat, uint32_t tuple_size, uint32_t cap) {
  const uint64_t rows = flat.size() / tuple_size;
  const uint64_t new_pages = (rows + cap - 1) / cap;
  std::vector<Page*> fresh;
  fresh.reserve(new_pages);
  auto free_fresh = [&]() {
    for (Page* p : fresh) std::free(p);
  };
  for (uint64_t i = 0; i < new_pages; ++i) {
    void* mem = nullptr;
    int rc = posix_memalign(&mem, kPageSize, kPageSize);
    if (rc != 0 || mem == nullptr) {
      free_fresh();
      return Status::ExecError("out of memory rewriting table pages");
    }
    Page* dst = static_cast<Page*>(mem);
    fresh.push_back(dst);
    const uint64_t first = i * cap;
    const uint32_t nt =
        static_cast<uint32_t>(std::min<uint64_t>(cap, rows - first));
    dst->Reset();
    dst->num_tuples = nt;
    std::memcpy(dst->data, flat.data() + first * tuple_size,
                static_cast<size_t>(nt) * tuple_size);
  }
  return fresh;
}

Status Table::RewritePages(const std::vector<uint8_t>& flat,
                           const TableCodec& codec,
                           const std::vector<std::vector<uint8_t>>& dicts) {
  const uint32_t ts = schema_.TupleSize();
  const uint64_t rows = flat.size() / ts;
  auto layout = std::make_shared<const TableLayout>(TableLayout{codec, dicts});
  const uint32_t cap = PageCapacity(*layout);
  HQ_CHECK(cap > 0);
  const uint64_t new_pages = (rows + cap - 1) / cap;

  auto fill = [&](uint64_t page_idx, Page* dst) -> Status {
    const uint64_t first = page_idx * cap;
    const uint32_t nt =
        static_cast<uint32_t>(std::min<uint64_t>(cap, rows - first));
    const uint8_t* src = flat.data() + first * ts;
    if (codec.enabled) {
      return EncodePage(codec, schema_, src, nt, dicts, dst);
    }
    dst->Reset();
    dst->num_tuples = nt;
    std::memcpy(dst->data, src, static_cast<size_t>(nt) * ts);
    return Status::OK();
  };

  if (buffer_manager_ == nullptr) {
    auto fresh = std::make_shared<PageGen>();
    fresh->pages.reserve(new_pages);
    for (uint64_t i = 0; i < new_pages; ++i) {
      void* mem = nullptr;
      int rc = posix_memalign(&mem, kPageSize, kPageSize);
      if (rc != 0 || mem == nullptr) {
        return Status::ExecError("out of memory rewriting table pages");
      }
      fresh->pages.push_back(static_cast<Page*>(mem));
      HQ_RETURN_IF_ERROR(fill(i, fresh->pages.back()));
    }
    // Publish pages + codec + dictionaries + the stats-version bump as one
    // atomic layout change: a concurrent Pin sees either the old layout at
    // the old version or the new layout at the new version, never a mix.
    // The retired generation stays alive until the last snapshot drains.
    std::lock_guard<std::mutex> lk(state_mu_);
    gen_ = std::move(fresh);
    num_pages_ = new_pages;
    layout_ = std::move(layout);
    stats_version_.fetch_add(1, std::memory_order_acq_rel);
    // RewritePages only runs for codec transitions (Compress/Decompress),
    // so the encoding a compiled plan reads moved: retire in-flight plans.
    layout_version_.fetch_add(1, std::memory_order_acq_rel);
    return Status::OK();
  }

  // File-backed: write a fresh generation file and swap the table onto it.
  // The old file's cached frames age out of the pool on their own.
  if (write_page_ != nullptr) {
    buffer_manager_->Unpin(file_, write_page_no_, /*dirty=*/true);
    write_page_ = nullptr;
  }
  const std::string path =
      file_path_ + ".g" + std::to_string(++file_generation_);
  HQ_ASSIGN_OR_RETURN(FileId nf, buffer_manager_->OpenFile(path, true));
  for (uint64_t i = 0; i < new_pages; ++i) {
    uint64_t no = 0;
    HQ_ASSIGN_OR_RETURN(Page * dst, buffer_manager_->NewPage(nf, &no));
    Status s = fill(i, dst);
    buffer_manager_->Unpin(nf, no, /*dirty=*/true);
    HQ_RETURN_IF_ERROR(s);
  }
  file_ = nf;
  num_pages_ = new_pages;
  std::lock_guard<std::mutex> lk(state_mu_);
  layout_ = std::move(layout);
  stats_version_.fetch_add(1, std::memory_order_acq_rel);
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
  std::unordered_set<uint64_t> scalars;
  std::set<std::string> strings;
  bool overflowed = false;

  void AddScalar(uint64_t bits) {
    if (overflowed) return;
    scalars.insert(bits);
    if (scalars.size() > kDistinctCap) overflowed = true;
  }
  void AddString(const char* p, size_t n) {
    if (overflowed) return;
    strings.emplace(p, n);
    if (strings.size() > kDistinctCap) overflowed = true;
  }
  uint64_t Count() const { return scalars.size() + strings.size(); }
};

}  // namespace

Status Table::ComputeStats() {
  // Build into a local snapshot and publish it whole under stats_mu_ at the
  // end: the compactor recomputes statistics while concurrent planners read
  // them, and a half-updated TableStats must never be observable.
  stats_version_.fetch_add(1, std::memory_order_acq_rel);
  TableStats fresh;
  fresh.rows = NumTuples();
  fresh.columns.assign(schema_.NumColumns(), ColumnStats{});
  std::vector<DistinctCounter> counters(schema_.NumColumns());
  // Scan-order sortedness / max adjacent step (delta-encoding inputs).
  std::vector<int64_t> prev(schema_.NumColumns(), 0);
  std::vector<int64_t> max_step(schema_.NumColumns(), 0);
  std::vector<uint8_t> has_prev(schema_.NumColumns(), 0);
  std::vector<uint8_t> sorted(schema_.NumColumns(), 1);

  uint64_t seen = 0;
  HQ_RETURN_IF_ERROR(ForEachTuple([&](const uint8_t* tuple) {
    ++seen;
    for (size_t c = 0; c < schema_.NumColumns(); ++c) {
      const Column& col = schema_.ColumnAt(c);
      const uint8_t* p = tuple + schema_.OffsetAt(c);
      ColumnStats& cs = fresh.columns[c];
      switch (col.type.id) {
        case TypeId::kInt32:
        case TypeId::kDate:
        case TypeId::kInt64:
        case TypeId::kDouble: {
          Value v = schema_.GetValue(tuple, c);
          if (!cs.valid) {
            cs.min = v;
            cs.max = v;
            cs.valid = true;
          } else {
            if (v.Compare(cs.min) < 0) cs.min = v;
            if (v.Compare(cs.max) > 0) cs.max = v;
          }
          uint64_t bits = 0;
          std::memcpy(&bits, p, col.type.ByteSize());
          counters[c].AddScalar(bits);
          if (col.type.id != TypeId::kDouble) {
            const int64_t iv = v.AsInt64();
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
          }
          break;
        }
        case TypeId::kChar: {
          Value v = schema_.GetValue(tuple, c);
          if (!cs.valid) {
            cs.min = v;
            cs.max = v;
            cs.valid = true;
          } else {
            if (v.Compare(cs.min) < 0) cs.min = v;
            if (v.Compare(cs.max) > 0) cs.max = v;
          }
          counters[c].AddString(reinterpret_cast<const char*>(p),
                                col.type.length);
          break;
        }
      }
    }
  }));
  // Statistics describe the scanned snapshot, not whatever NumTuples says
  // by the time the scan finishes (DML may have run in between).
  fresh.rows = seen;

  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    ColumnStats& cs = fresh.columns[c];
    if (counters[c].overflowed) {
      cs.distinct = seen;
      cs.distinct_exact = false;
    } else {
      cs.distinct = counters[c].Count();
      cs.distinct_exact = true;
    }
    const TypeId id = schema_.ColumnAt(c).type.id;
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
