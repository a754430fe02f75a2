#ifndef HIQUE_STORAGE_PAGE_ALLOC_H_
#define HIQUE_STORAGE_PAGE_ALLOC_H_

#include <cstdint>

#include "storage/page.h"

namespace hique::storage {

/// The process-wide allocator of table and delta-store pages. It maps
/// 2 MB-aligned chunks of kChunkPages pages with mmap, advises the kernel
/// to back them with huge pages, and hands out the lowest free page of the
/// lowest chunk, so a bulk load or a page-generation rebuild gets a run of
/// adjacent pages: a scan walks contiguous memory, and no allocator header
/// or alignment hole sits between two pages. A chunk is unmapped when its
/// last page is freed, except that one empty chunk is kept for reuse.
///
/// Result pages do not come from here: consumers may std::free them (see
/// exec::ResultPageFn).
inline constexpr uint64_t kChunkBytes = uint64_t{2} << 20;
inline constexpr uint32_t kChunkPages = kChunkBytes / kPageSize;

/// A 4096-aligned page whose contents are unspecified (zero when the page
/// is fresh from the OS), or null when the OS refuses a new chunk.
/// Thread-safe.
Page* AllocPage();

/// Returns a page AllocPage handed out. Null is a no-op. Thread-safe.
void FreePage(Page* page);

namespace internal {

/// Makes FreePage fill every page with 0xA5 before it becomes reusable, so
/// a reader that still walks a freed page generation sees garbage rather
/// than the old tuples. Off by default; tests only.
void PoisonFreedPages(bool on);

}  // namespace internal

}  // namespace hique::storage

#endif  // HIQUE_STORAGE_PAGE_ALLOC_H_
