#ifndef HIQUE_STORAGE_TABLE_H_
#define HIQUE_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/compress.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "txn/delta_store.h"
#include "util/status.h"

namespace hique {

/// Per-column statistics gathered by Table::ComputeStats. The optimizer uses
/// them for cardinality estimation and, critically, for choosing map
/// aggregation / fine partitioning (paper §V-B depends on knowing attribute
/// domains).
struct ColumnStats {
  Value min;
  Value max;
  uint64_t distinct = 0;
  bool distinct_exact = false;
  // Compression inputs (int-family columns only): is the column
  // non-decreasing in scan order, and if so what is the largest adjacent
  // step? Drives the delta-encoding choice in ChooseTableCodec.
  bool sorted_asc = false;
  int64_t max_step = 0;
  bool valid = false;
};

struct TableStats {
  uint64_t rows = 0;
  std::vector<ColumnStats> columns;
  bool valid = false;
};

/// A table's page encoding: the compression codec and the sorted
/// dictionaries its kDict columns decode through. Immutable once published;
/// a layout rewrite (Compress/Decompress) installs a fresh one.
struct TableLayout {
  TableCodec codec;  // codec.enabled == false for plain NSM pages
  std::vector<std::vector<uint8_t>> dicts;  // empty vectors off kDict
};

/// All pages of a table pinned in memory for the duration of a query
/// (main-memory execution, paper §VI). Releases pins on destruction.
///
/// For in-memory tables this is a *snapshot*: the page list, the exact
/// tuple count, and the statistics version are captured atomically, and the
/// `hold_` references keep every captured page alive even if a concurrent
/// compaction / Compress / Decompress retires the table's current pages.
class PinnedPages {
 public:
  PinnedPages() = default;
  ~PinnedPages() { Release(); }
  PinnedPages(PinnedPages&& other) noexcept { *this = std::move(other); }
  PinnedPages& operator=(PinnedPages&& other) noexcept;
  PinnedPages(const PinnedPages&) = delete;
  PinnedPages& operator=(const PinnedPages&) = delete;

  const std::vector<Page*>& pages() const { return pages_; }
  /// Exact number of live tuples across pages() at snapshot time.
  uint64_t tuple_count() const { return tuple_count_; }
  /// The table's statistics version at snapshot time.
  uint64_t stats_version() const { return stats_version_; }
  /// The table's physical-layout version at snapshot time (stale-plan
  /// checks: generated code is only invalid if the page *encoding* moved).
  uint64_t layout_version() const { return layout_version_; }
  /// The encoding the pinned pages were written in, captured with them:
  /// a concurrent Compress/Decompress cannot pair these pages with the
  /// next layout's codec or dictionaries.
  const TableCodec& codec() const { return layout_->codec; }
  const std::vector<std::vector<uint8_t>>& dicts() const {
    return layout_->dicts;
  }
  /// Tuple capacity of one pinned page (codec capacity when compressed,
  /// NSM packing otherwise).
  uint32_t tuples_per_page() const { return tuples_per_page_; }
  void Release();

 private:
  friend class Table;
  std::vector<Page*> pages_;
  BufferManager* buffer_manager_ = nullptr;  // null for in-memory tables
  FileId file_ = 0;
  // Bypass mode: the pages are query-local copies (table bigger than the
  // buffer pool) owned by this object and freed on Release.
  bool owns_ = false;
  uint64_t tuple_count_ = 0;
  uint64_t stats_version_ = 0;
  uint64_t layout_version_ = 0;
  std::shared_ptr<const TableLayout> layout_;
  uint32_t tuples_per_page_ = 0;
  // Shared ownership of page generations / delta substitutes backing the
  // snapshot (in-memory tables).
  std::vector<std::shared_ptr<const void>> hold_;
};

/// An NSM table: fixed-length tuples packed into 4096-byte pages. Tables are
/// either memory-resident (the default; malloc'd pages) or file-backed
/// through the BufferManager.
///
/// Write model: bulk loading (AppendTupleSlot / AppendRow / AdoptPage)
/// mutates base pages directly and is NOT safe against concurrent readers.
/// Once EnableWrites() attaches a txn::DeltaStore, the base becomes
/// immutable, AppendRow routes through the delta store, and readers snapshot
/// the merged (base + delta) state via Pin()/ForEachTuple — safe against
/// concurrent DML and compaction.
class Table {
 public:
  /// Creates a memory-resident table.
  Table(std::string name, Schema schema);

  /// Creates a file-backed table whose pages live in `buffer_manager`.
  static Result<std::unique_ptr<Table>> CreateFileBacked(
      std::string name, Schema schema, BufferManager* buffer_manager,
      const std::string& path);

  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint32_t tuple_size() const { return schema_.TupleSize(); }
  uint32_t tuples_per_page() const { return tuples_per_page_; }
  uint64_t NumTuples() const {
    return num_tuples_.load(std::memory_order_acquire);
  }
  uint64_t NumPages() const { return num_pages_; }

  /// Appends a row of boxed values (engine-boundary path: loaders, tests).
  /// With a delta store attached the row lands in the delta (concurrent-
  /// safe); otherwise it goes to the base write page (load-time only).
  Status AppendRow(const std::vector<Value>& values);

  /// Fast append path: returns a pointer to an uninitialized tuple slot the
  /// caller fills in place (used by the data generators). Load-time only —
  /// errors once a delta store is attached, because a raw slot pointer
  /// cannot be published safely against concurrent snapshots.
  Result<uint8_t*> AppendTupleSlot();

  /// Adopts a fully formed, malloc-aligned page (used by the executor to
  /// turn generated-code result pages into a table without copying).
  /// In-memory tables only.
  Status AdoptPage(Page* page);

  /// Pins every page and returns the pinned page-pointer array, the memory
  /// image the code generator's TableRef points at. When a file-backed
  /// table exceeds the buffer pool, falls back to bypass reads: the
  /// returned pages are query-local copies (PinnedPages frees them), so
  /// beyond-memory scans stream instead of failing on pool exhaustion.
  /// For in-memory tables this is a consistent snapshot of the merged
  /// base + delta state (see PinnedPages).
  Result<PinnedPages> Pin();

  /// Invokes `fn(tuple_ptr)` for every tuple (test/oracle convenience).
  /// Decode-aware: on a compressed table the callback sees decoded NSM
  /// tuples (padding bytes zeroed). With a delta store attached the
  /// callback sees the merged live state (inserts included, deletes
  /// filtered) — this is what keeps the reference executor an oracle for
  /// DML tests.
  Status ForEachTuple(const std::function<void(const uint8_t*)>& fn);

  // ---- Write path (src/txn) -----------------------------------------------

  /// Attaches the write-optimized delta store, freezing the base pages.
  /// Idempotent. Decompresses first (a compressed base cannot interleave
  /// with NSM delta pages). In-memory tables only; errors with a typed
  /// Status on file-backed or read-only tables.
  Status EnableWrites();

  /// The attached delta store, or null. Attached implies !codec().enabled.
  /// Caller must hold writer_mutex() (or otherwise exclude compaction,
  /// which swaps the store for an empty one) — use DeltaPages() for a
  /// lock-free-caller threshold probe.
  txn::DeltaStore* delta() const { return delta_.get(); }

  /// Number of sealed delta insert pages, or 0 with no delta attached.
  /// Safe against concurrent DML and compaction (snapshots the store
  /// pointer under the state mutex).
  uint64_t DeltaPages() const {
    std::lock_guard<std::mutex> lk(state_mu_);
    return delta_ != nullptr ? delta_->delta_pages() : 0;
  }

  /// Serializes DML statements and compaction on this table. Hold it across
  /// any enumerate-then-mutate sequence so row ids stay stable.
  std::mutex& writer_mutex() { return writer_mu_; }

  /// Invokes fn(row_id, tuple) for every live row — base pages first (ids
  /// are frozen physical positions), then delta inserts (ids offset by
  /// txn::kDeltaIdBase). Caller must hold writer_mutex(). Requires an
  /// uncompressed in-memory table (EnableWrites establishes that).
  Status ForEachLiveRow(
      const std::function<void(uint64_t, const uint8_t*)>& fn);

  /// Marks the given row ids deleted in the delta store and maintains the
  /// live tuple count. Caller must hold writer_mutex(). Returns the number
  /// of rows that were live.
  Result<uint64_t> DeleteRows(const std::vector<uint64_t>& row_ids);

  /// Folds the delta store into fresh base pages (a new page generation —
  /// in-flight snapshots keep the old one alive), reattaches an empty
  /// delta, recomputes statistics, and optionally re-runs ChooseTableCodec
  /// (`recompress`; detaches the delta when a codec is chosen). Bumps the
  /// statistics version, so cached plans over the old layout invalidate.
  /// No-op when no delta is attached or it is empty.
  Status Compact(bool recompress);

  /// Marks the table read-only: EnableWrites (and therefore all DML)
  /// rejects with a typed Status. System/bench result tables use this.
  void SetReadOnly(bool read_only) { read_only_ = read_only; }
  bool read_only() const { return read_only_; }

  // -------------------------------------------------------------------------

  /// Re-encodes the table into compressed columnar pages using a codec
  /// chosen from the current statistics (computing them first if stale).
  /// No-op when compression would not raise the page tuple capacity.
  /// Idempotent. Bumps the statistics version, because the page layout a
  /// compiled plan was generated against changes; in-flight snapshots stay
  /// valid (old generation) and new plans recompile under the new version.
  /// Requires an empty delta store (Compact folds it first); detaches it.
  Status Compress();

  /// Rebuilds plain NSM pages from a compressed table (inverse of
  /// Compress; same stats-version semantics). Appending to a compressed
  /// table decompresses it automatically, like dropping an index on write.
  Status Decompress();

  /// The active page encoding, read under the state mutex, so a planner
  /// racing a Compress/Decompress sees one whole layout. Code that reads
  /// pages takes the layout from its PinnedPages instead: that one matches
  /// the pages.
  std::shared_ptr<const TableLayout> layout() const {
    std::lock_guard<std::mutex> lk(state_mu_);
    return layout_;
  }

  /// The active compression codec; codec().enabled == false for plain NSM
  /// tables. The planner serializes this into plan signatures.
  TableCodec codec() const { return layout()->codec; }

  /// Null for in-memory tables.
  BufferManager* buffer_manager() const { return buffer_manager_; }

  /// Scans the table and recomputes `stats()`. Bumps the statistics
  /// version: the engine embeds the catalog-wide version in compiled-plan
  /// cache keys, so refreshed statistics invalidate stale libraries.
  Status ComputeStats();
  /// A copy of the current statistics snapshot. Copy, not reference: the
  /// compactor republishes statistics while concurrent planners read them,
  /// and the lock scope must not leak into the caller.
  TableStats stats() const {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return stats_;
  }
  /// Load-time only (data generators seeding synthetic statistics): the
  /// returned reference is unguarded against concurrent readers.
  TableStats& mutable_stats() {
    // Handing out a mutable reference signals a statistics edit: count it
    // as a refresh so cached plans keyed on the old stats stop matching.
    stats_version_.fetch_add(1, std::memory_order_acq_rel);
    return stats_;
  }

  /// Monotonic statistics refresh counter (see Catalog::StatsVersion).
  uint64_t stats_version() const {
    return stats_version_.load(std::memory_order_acquire);
  }

  /// Monotonic physical-layout counter: bumps only when the page *encoding*
  /// changes (Compress / Decompress / recompressing compaction), never on a
  /// plain NSM compaction or a statistics refresh. Compiled plans capture it
  /// at prepare time and the executor compares it against the pinned
  /// snapshot: generated code stays valid across layout-preserving
  /// compactions, so a compaction storm cannot starve in-flight queries.
  uint64_t layout_version() const {
    return layout_version_.load(std::memory_order_acquire);
  }

 private:
  /// One immutable generation of in-memory base pages. Readers hold a
  /// shared_ptr from Pin(); page-layout rewrites (Compress/Decompress/
  /// Compact) install a fresh generation and the old pages are freed only
  /// when the last snapshot over them drains.
  struct PageGen {
    std::vector<Page*> pages;
    ~PageGen() {
      for (Page* p : pages) std::free(p);
    }
  };

  Table(std::string name, Schema schema, BufferManager* bm, FileId file);
  // Tuple capacity of one page under `layout`.
  uint32_t PageCapacity(const TableLayout& layout) const {
    return layout.codec.enabled ? layout.codec.tuples_per_cpage
                                : tuples_per_page_;
  }
  Result<Page*> CurrentWritePage();
  // Gathers every tuple as NSM bytes (decoding if compressed, merging the
  // delta) — the staging buffer for Compress/Decompress/Compact rewrites.
  Result<std::vector<uint8_t>> GatherTuples();
  // Replaces the table's pages with pages built from `flat` under `codec`
  // (codec.enabled == false → NSM rebuild) and publishes pages + codec +
  // dicts + a stats-version bump atomically. In-memory tables swap the
  // page generation; file-backed tables write a fresh generation file.
  Status RewritePages(const std::vector<uint8_t>& flat,
                      const TableCodec& codec,
                      const std::vector<std::vector<uint8_t>>& dicts);
  static Result<std::vector<Page*>> BuildNsmPages(
      const std::vector<uint8_t>& flat, uint32_t tuple_size, uint32_t cap);

  std::string name_;
  Schema schema_;
  uint32_t tuples_per_page_;
  std::atomic<uint64_t> num_tuples_{0};  // live tuples incl. delta
  uint64_t num_pages_ = 0;               // base pages only

  // In-memory mode: the current base-page generation. state_mu_ guards the
  // generation pointer, layout_ swaps, and the stats-version bump
  // that accompanies them, so Pin() captures a consistent snapshot.
  std::shared_ptr<PageGen> gen_ = std::make_shared<PageGen>();
  mutable std::mutex state_mu_;

  // Write path: delta store + statement-level writer serialization.
  std::unique_ptr<txn::DeltaStore> delta_;
  std::mutex writer_mu_;
  std::atomic<bool> read_only_{false};

  // File-backed mode.
  BufferManager* buffer_manager_ = nullptr;
  FileId file_ = 0;
  Page* write_page_ = nullptr;     // pinned tail page
  uint64_t write_page_no_ = 0;
  std::string file_path_;          // base path; rewrites append .g<N>
  uint32_t file_generation_ = 0;

  // Compression state (see storage/compress.h). Swapped under state_mu_;
  // the load and writer paths, which are the only ones that swap it, read
  // it without the lock.
  std::shared_ptr<const TableLayout> layout_ =
      std::make_shared<const TableLayout>();

  TableStats stats_;
  mutable std::mutex stats_mu_;  // guards stats_ (ComputeStats vs planners)
  std::atomic<uint64_t> stats_version_{0};
  std::atomic<uint64_t> layout_version_{0};
};

}  // namespace hique

#endif  // HIQUE_STORAGE_TABLE_H_
