#include "exec/arena.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace hique::exec {

namespace {

std::atomic<bool> g_poison{false};

/// What the process's pools hold; hiqued runs one engine, so this is its
/// pool. Updated once per block that enters or leaves a pool.
obs::Gauge* PooledGauge() {
  static obs::Gauge* g = obs::Registry::Global().GetGauge(
      "hique_arena_pool_bytes", "Arena block bytes pooled for reuse");
  return g;
}

void CountPooled(int64_t blocks) {
  PooledGauge()->Add(blocks * static_cast<int64_t>(ArenaPool::kBlockSize));
}

void* AllocateFromOs(uint64_t bytes) {
  void* mem = nullptr;
  if (posix_memalign(&mem, 64, bytes) != 0) return nullptr;
  return mem;
}

// A pooled block starts `color` bytes into an allocation of kBlockSize +
// kColorSpan, with the allocation's address stored in the 8 bytes before
// the block. Large allocations are page-aligned mmaps, so without the
// offset every block would start at the same position within its page,
// and a kernel copying between the starts of two blocks would alias each
// load with a store (4K aliasing). The pool rarely frees a block, so
// glibc's dynamic mmap threshold stays below the block size and every
// block is such an mmap.
constexpr uint64_t kColorSpan = 4096;

void* NewBlock(uint64_t color) {
  void* raw = AllocateFromOs(ArenaPool::kBlockSize + kColorSpan);
  if (raw == nullptr) return nullptr;
  uint8_t* block = static_cast<uint8_t*>(raw) + color;
  std::memcpy(block - sizeof(void*), &raw, sizeof(void*));
  return block;
}

void FreeBlock(void* block) {
  void* raw = nullptr;
  std::memcpy(&raw, static_cast<uint8_t*>(block) - sizeof(void*),
              sizeof(void*));
  std::free(raw);
}

void Poison(void* mem, uint64_t bytes) {
  if (g_poison.load(std::memory_order_relaxed)) std::memset(mem, 0xA5, bytes);
}

}  // namespace

namespace internal {

void PoisonArenaBlocks(bool on) {
  g_poison.store(on, std::memory_order_relaxed);
}

}  // namespace internal

// ---- ArenaPool -------------------------------------------------------------

// Registers the gauge before any block moves, so it reads 0 until then.
ArenaPool::ArenaPool() { PooledGauge(); }

ArenaPool::~ArenaPool() {
  CountPooled(-static_cast<int64_t>(pooled_));
  for (auto& list : slots_) {
    for (void* b : list) FreeBlock(b);
  }
}

void* ArenaPool::Take(uint32_t slot, bool* fresh) {
  uint64_t color = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    void* block = nullptr;
    if (!slots_[slot].empty()) {
      block = slots_[slot].front();
      slots_[slot].pop_front();
    } else {
      // Another slot's least recently needed block: the tail of the
      // highest non-empty list.
      for (size_t s = slots_.size(); s-- > 0 && block == nullptr;) {
        if (slots_[s].empty()) continue;
        block = slots_[s].back();
        slots_[s].pop_back();
      }
    }
    ++out_;
    high_ = std::max(high_, out_);
    if (block != nullptr) {
      --pooled_;
      CountPooled(-1);
      *fresh = false;
      return block;
    }
    // Consecutive fresh blocks start 29 cache lines apart (mod 63 lines).
    color = 64 * (1 + fresh_blocks_++ * 29 % 63);
  }
  *fresh = true;
  void* block = NewBlock(color);
  if (block == nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    --out_;
  }
  return block;
}

void ArenaPool::Give(uint32_t slot, const std::vector<void*>& blocks) {
  if (blocks.empty()) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  // The first block used goes to the front, ahead of the slot's leftovers.
  slots_[slot].insert(slots_[slot].begin(), blocks.begin(), blocks.end());
  pooled_ += blocks.size();
  out_ -= blocks.size();
  CountPooled(static_cast<int64_t>(blocks.size()));
}

void ArenaPool::EndExecution() {
  std::vector<void*> excess;
  {
    std::lock_guard<std::mutex> lk(mu_);
    recent_[next_++ % kWindow] = high_;
    high_ = out_;
    const size_t cap = *std::max_element(recent_.begin(), recent_.end());
    for (size_t s = slots_.size(); s-- > 0 && pooled_ + out_ > cap;) {
      while (!slots_[s].empty() && pooled_ + out_ > cap) {
        excess.push_back(slots_[s].back());
        slots_[s].pop_back();
        --pooled_;
      }
    }
  }
  CountPooled(-static_cast<int64_t>(excess.size()));
  for (void* b : excess) FreeBlock(b);
}

uint64_t ArenaPool::pooled_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pooled_ * kBlockSize;
}

ArenaPool* ArenaPool::Shared() {
  static ArenaPool* pool = new ArenaPool();  // never destroyed
  return pool;
}

// ---- Arena -----------------------------------------------------------------

Arena::~Arena() {
  pool_->Give(slot_, blocks_);
  for (void* b : oversized_) std::free(b);
}

bool Arena::NextBlock() {
  // Charge the budget for the whole block, not the request: the cap then
  // bounds real scratch memory, whether the block is pooled or fresh.
  // Allocations served from the current block are prepaid.
  if (!ChargeBudget(ArenaPool::kBlockSize)) return false;
  bool fresh = false;
  void* block = pool_->Take(slot_, &fresh);
  if (block == nullptr) {
    RefundBudget(ArenaPool::kBlockSize);
    return false;
  }
  if (fresh) fresh_ += ArenaPool::kBlockSize;
  Poison(block, ArenaPool::kBlockSize);
  blocks_.push_back(block);
  current_ = static_cast<uint8_t*>(block);
  used_ = 0;
  return true;
}

void* Arena::AllocateOversized(uint64_t bytes) {
  if (!ChargeBudget(bytes)) return nullptr;
  void* mem = AllocateFromOs(bytes);
  if (mem == nullptr) {
    RefundBudget(bytes);
    return nullptr;
  }
  fresh_ += bytes;
  Poison(mem, bytes);
  oversized_.push_back(mem);
  return mem;
}

bool Arena::ChargeBudget(uint64_t bytes) {
  if (budget_ == nullptr) return true;
  int64_t cur = budget_->load(std::memory_order_relaxed);
  for (;;) {
    int64_t next = cur - static_cast<int64_t>(bytes);
    if (next < 0) return false;
    if (budget_->compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      return true;
    }
  }
}

void Arena::RefundBudget(uint64_t bytes) {
  if (budget_ != nullptr) {
    budget_->fetch_add(static_cast<int64_t>(bytes), std::memory_order_relaxed);
  }
}

}  // namespace hique::exec
