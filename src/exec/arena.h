#ifndef HIQUE_EXEC_ARENA_H_
#define HIQUE_EXEC_ARENA_H_

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace hique::exec {

/// Recycles the fixed-size blocks of execution arenas, so a warm plan
/// writes pages that are already mapped instead of page-faulting fresh
/// ones on every run. One pool per engine (callers without an engine use
/// the process's pool, see ParallelRuntime::arena_pool).
///
/// Blocks come back in the order they were used: the pool keeps one list
/// per arena slot (0 = the query arena, i + 1 = worker i), an arena takes
/// its own slot's blocks first, in the order it used them last time, then
/// another slot's, and goes to the OS only after that. A warm plan thus
/// reuses the same pages at the same offsets; an unordered pool mixes
/// offsets across runs and faults in the union of all of them.
///
/// Retention: after each execution the pool frees the blocks beyond the
/// most that were out at once during any of the last kWindow executions,
/// so a one-off large query does not stay resident. Thread-safe; arenas
/// take blocks from worker threads.
class ArenaPool {
 public:
  static constexpr uint64_t kBlockSize = uint64_t{4} << 20;
  static constexpr size_t kWindow = 32;

  ArenaPool();
  ~ArenaPool();
  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  /// A kBlockSize block, 64-byte aligned, for the arena in `slot`. Sets
  /// `*fresh` when it came from the OS. Null when the OS refuses. Blocks
  /// start at different offsets within their pages (see arena.cc).
  void* Take(uint32_t slot, bool* fresh);

  /// Returns the blocks the arena in `slot` took, in the order it used
  /// them.
  void Give(uint32_t slot, const std::vector<void*>& blocks);

  /// Closes one execution (after its arenas gave their blocks back) and
  /// applies the retention window.
  void EndExecution();

  /// Bytes of the blocks the pool holds (not those out in arenas). The
  /// gauge hique_arena_pool_bytes sums this over the process's pools.
  uint64_t pooled_bytes() const;

  /// The pool of callers that pass none. Lives for the process.
  static ArenaPool* Shared();

 private:
  mutable std::mutex mu_;
  std::vector<std::deque<void*>> slots_;  // front = next to take
  size_t pooled_ = 0;  // blocks in slots_
  size_t out_ = 0;     // blocks taken and not given back
  size_t high_ = 0;    // most blocks out at once since the last execution
  std::array<size_t, kWindow> recent_{};  // high_ of the last executions
  size_t next_ = 0;
  uint64_t fresh_blocks_ = 0;  // picks each new block's page offset
};

/// Bump allocator backing all scratch memory of one query execution
/// (staging buffers, partitions, directories). Generated code allocates
/// through the HqQueryCtx/HqWorkerCtx callback and never frees; the whole
/// arena is released when the query finishes. Parallel executions use one
/// arena per worker (plus the shared query arena for serial sections), so
/// allocation inside tasks is contention- and race-free; an optional
/// shared byte budget caps the query's total scratch across all of them.
///
/// Blocks of ArenaPool::kBlockSize come from the pool and go back to it;
/// a larger request gets an exact-size allocation of its own, freed with
/// the arena (its pages cost nothing while untouched). Generated code must
/// never read arena memory it did not write: a pooled block holds what the
/// previous execution left in it.
class Arena {
 public:
  /// `budget`, when set, is a shared countdown of bytes the query may
  /// still allocate (decremented atomically by every arena wired to it);
  /// exhausting it makes Allocate return nullptr, which generated code
  /// reports as HQ_ERR_OOM.
  Arena(ArenaPool* pool, uint32_t slot,
        std::atomic<int64_t>* budget = nullptr)
      : pool_(pool), slot_(slot), budget_(budget) {}
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// 64-byte aligned allocation; returns nullptr on OOM.
  void* Allocate(uint64_t bytes) {
    if (bytes == 0) bytes = 1;
    bytes = (bytes + 63) & ~uint64_t{63};
    void* p;
    if (bytes > ArenaPool::kBlockSize) {
      p = AllocateOversized(bytes);
    } else {
      if (current_ == nullptr || used_ + bytes > ArenaPool::kBlockSize) {
        if (!NextBlock()) return nullptr;
      }
      p = current_ + used_;
      used_ += bytes;
    }
    if (p == nullptr) return nullptr;
    total_ += bytes;
    // Generated SIMD kernels and the staged-buffer layout rely on every
    // arena allocation being 64-byte (cache-line / AVX2-load) aligned:
    // blocks are 64-byte aligned and sizes round up to 64.
    assert((reinterpret_cast<uintptr_t>(p) & 63u) == 0);
    return p;
  }

  uint64_t total_allocated() const { return total_; }

  /// Bytes this arena took from the OS rather than from the pool: fresh
  /// blocks plus oversized allocations.
  uint64_t fresh_bytes() const { return fresh_; }

  /// C callback adapter for HqQueryCtx::alloc / HqWorkerCtx::alloc.
  static void* AllocCallback(void* arena, uint64_t bytes) {
    return static_cast<Arena*>(arena)->Allocate(bytes);
  }

 private:
  bool NextBlock();
  void* AllocateOversized(uint64_t bytes);

  /// Debits `bytes` from the shared budget iff it stays non-negative
  /// (CAS loop: a failing oversized request can never transiently drive
  /// the counter negative and spuriously OOM a concurrent fitting one).
  bool ChargeBudget(uint64_t bytes);
  void RefundBudget(uint64_t bytes);

  ArenaPool* pool_;
  uint32_t slot_;
  std::atomic<int64_t>* budget_;
  std::vector<void*> blocks_;     // pooled blocks, in the order used
  std::vector<void*> oversized_;  // exact-size allocations
  uint8_t* current_ = nullptr;
  uint64_t used_ = 0;
  uint64_t total_ = 0;
  uint64_t fresh_ = 0;
};

namespace internal {

/// Makes every arena fill each block it takes (pooled or oversized) with a
/// non-zero pattern before use, so tests prove that generated code never
/// relies on fresh memory being zero. Off by default; tests only.
void PoisonArenaBlocks(bool on);

}  // namespace internal

}  // namespace hique::exec

#endif  // HIQUE_EXEC_ARENA_H_
