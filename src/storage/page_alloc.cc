#include "storage/page_alloc.h"

#include <sys/mman.h>

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <set>

#include "obs/metrics.h"
#include "util/macros.h"

namespace hique::storage {

namespace {

std::atomic<bool> g_poison{false};

/// Bytes of the chunks the allocator has mapped, one chunk per step.
obs::Gauge* MappedGauge() {
  static obs::Gauge* g = obs::Registry::Global().GetGauge(
      "hique_table_page_bytes",
      "Bytes of 2 MB chunks mapped for table and delta-store pages");
  return g;
}

// Empty chunks kept mapped for the next allocation: a table rebuilt page
// by page does not unmap and remap the chunk at its tail every time.
constexpr int kKeepEmptyChunks = 1;

constexpr uint32_t kWords = kChunkPages / 64;

class PageAllocator {
 public:
  Page* Alloc() {
    std::lock_guard<std::mutex> lk(mu_);
    if (open_.empty() && !MapChunk()) return nullptr;
    const uintptr_t base = *open_.begin();
    Chunk& c = chunks_.find(base)->second;
    uint32_t w = 0;
    while (c.used[w] == ~uint64_t{0}) ++w;
    const uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(~c.used[w]));
    c.used[w] |= uint64_t{1} << bit;
    if (c.in_use++ == 0) --empty_;
    if (c.in_use == kChunkPages) open_.erase(base);
    return reinterpret_cast<Page*>(base +
                                   (w * 64 + bit) * uint64_t{kPageSize});
  }

  void Free(Page* page) {
    const uintptr_t addr = reinterpret_cast<uintptr_t>(page);
    const uintptr_t base = addr & ~(uintptr_t{kChunkBytes} - 1);
    const uint32_t slot = static_cast<uint32_t>((addr - base) / kPageSize);
    if (g_poison.load(std::memory_order_relaxed)) {
      std::memset(page, 0xA5, kPageSize);
    }
    std::lock_guard<std::mutex> lk(mu_);
    auto it = chunks_.find(base);
    HQ_CHECK_MSG(it != chunks_.end(), "FreePage of a page not from AllocPage");
    Chunk& c = it->second;
    const uint64_t mask = uint64_t{1} << (slot % 64);
    HQ_CHECK_MSG((c.used[slot / 64] & mask) != 0, "FreePage of a free page");
    c.used[slot / 64] &= ~mask;
    if (c.in_use-- == kChunkPages) open_.insert(base);
    if (c.in_use > 0) return;
    if (empty_ < kKeepEmptyChunks) {
      ++empty_;
      return;
    }
    open_.erase(base);
    chunks_.erase(it);
    munmap(reinterpret_cast<void*>(base), kChunkBytes);
    MappedGauge()->Add(-static_cast<int64_t>(kChunkBytes));
  }

 private:
  struct Chunk {
    uint64_t used[kWords] = {};  // bit i: page i is handed out
    uint32_t in_use = 0;
  };

  // Maps one 2 MB-aligned chunk: over-map by a chunk, then trim the
  // misaligned head and tail.
  bool MapChunk() {
    void* raw = mmap(nullptr, 2 * kChunkBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) return false;
    const uintptr_t start = reinterpret_cast<uintptr_t>(raw);
    const uintptr_t base =
        (start + kChunkBytes - 1) & ~(uintptr_t{kChunkBytes} - 1);
    if (base > start) munmap(raw, base - start);
    const uintptr_t end = start + 2 * kChunkBytes;
    if (end > base + kChunkBytes) {
      munmap(reinterpret_cast<void*>(base + kChunkBytes),
             end - (base + kChunkBytes));
    }
#ifdef MADV_HUGEPAGE
    // Advice only: without transparent huge pages the chunk is still
    // contiguous, just backed by 4 KB pages.
    madvise(reinterpret_cast<void*>(base), kChunkBytes, MADV_HUGEPAGE);
#endif
    chunks_.emplace(base, Chunk{});
    open_.insert(base);
    ++empty_;
    MappedGauge()->Add(static_cast<int64_t>(kChunkBytes));
    return true;
  }

  std::mutex mu_;
  std::map<uintptr_t, Chunk> chunks_;  // every mapped chunk, by base
  std::set<uintptr_t> open_;           // chunks with a free page
  int empty_ = 0;                      // chunks with no page handed out
};

PageAllocator* Allocator() {
  static PageAllocator* a = new PageAllocator();  // never destroyed
  return a;
}

}  // namespace

Page* AllocPage() { return Allocator()->Alloc(); }

void FreePage(Page* page) {
  if (page != nullptr) Allocator()->Free(page);
}

namespace internal {

void PoisonFreedPages(bool on) {
  g_poison.store(on, std::memory_order_relaxed);
}

}  // namespace internal

}  // namespace hique::storage
