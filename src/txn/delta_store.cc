#include "txn/delta_store.h"

#include <cstring>

#include "storage/page_alloc.h"
#include "util/macros.h"

namespace hique::txn {

DeltaStore::DeltaStore(uint32_t tuple_size, uint32_t tuples_per_page)
    : tuple_size_(tuple_size),
      tuples_per_page_(tuples_per_page),
      deletes_(std::make_shared<const DeleteSet>()) {
  HQ_CHECK(tuple_size_ > 0 && tuples_per_page_ > 0);
}

DeltaStore::PagePtr DeltaStore::NewPage() {
  Page* p = storage::AllocPage();
  HQ_CHECK_MSG(p != nullptr, "out of memory in delta store");
  p->Reset();
  return PagePtr(p, storage::FreePage);
}

void DeltaStore::Insert(const uint8_t* tuple) {
  std::lock_guard<std::mutex> lk(mu_);
  if (open_ == nullptr || open_count_ >= tuples_per_page_) {
    if (open_ != nullptr) sealed_.push_back(std::move(open_));
    open_ = NewPage();
    open_count_ = 0;
  }
  std::memcpy(open_->TupleAt(open_count_, tuple_size_), tuple, tuple_size_);
  ++open_count_;
  open_->num_tuples = open_count_;
  ++inserts_;
  open_sub_.reset();  // the frozen copy is stale now
}

uint64_t DeltaStore::Delete(const std::vector<uint64_t>& row_ids) {
  std::lock_guard<std::mutex> lk(mu_);
  auto next = std::make_shared<DeleteSet>(*deletes_);
  uint64_t newly = 0;
  for (uint64_t id : row_ids) {
    if (id >= kDeltaIdBase) {
      const uint64_t seq = id - kDeltaIdBase;
      if (seq >= inserts_ || next->DeltaDeleted(seq)) continue;
      DeleteSet::Set(&next->delta_bits, seq);
      ++delta_page_dels_[seq / tuples_per_page_];
      ++deleted_delta_;
      ++newly;
    } else {
      if (next->BaseDeleted(id)) continue;
      DeleteSet::Set(&next->base_bits, id);
      ++base_page_dels_[id / tuples_per_page_];
      ++deleted_base_;
      ++newly;
    }
  }
  if (newly == 0) return 0;
  next->version = deletes_->version + 1;
  deletes_ = std::move(next);
  return newly;
}

uint64_t DeltaStore::inserts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return inserts_;
}

uint64_t DeltaStore::live_inserts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return inserts_ - deleted_delta_;
}

uint64_t DeltaStore::deleted_base() const {
  std::lock_guard<std::mutex> lk(mu_);
  return deleted_base_;
}

uint64_t DeltaStore::delta_pages() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sealed_.size() + (open_count_ > 0 ? 1 : 0);
}

std::shared_ptr<const DeleteSet> DeltaStore::delete_set() const {
  std::lock_guard<std::mutex> lk(mu_);
  return deletes_;
}

void DeltaStore::ForEachLiveInsert(
    const std::function<void(uint64_t, const uint8_t*)>& fn) const {
  std::lock_guard<std::mutex> lk(mu_);
  const DeleteSet& ds = *deletes_;
  uint64_t seq = 0;
  for (const PagePtr& page : sealed_) {
    for (uint32_t t = 0; t < page->num_tuples; ++t, ++seq) {
      if (ds.DeltaDeleted(seq)) continue;
      fn(kDeltaIdBase + seq, page->TupleAt(t, tuple_size_));
    }
  }
  if (open_ != nullptr) {
    for (uint32_t t = 0; t < open_count_; ++t, ++seq) {
      if (ds.DeltaDeleted(seq)) continue;
      fn(kDeltaIdBase + seq, open_->TupleAt(t, tuple_size_));
    }
  }
}

DeltaStore::PagePtr DeltaStore::BuildSubstitute(const Page* src,
                                                const DeleteSet& ds, bool base,
                                                uint64_t first_id) const {
  PagePtr sub = NewPage();
  uint32_t live = 0;
  for (uint32_t t = 0; t < src->num_tuples; ++t) {
    const uint64_t id = first_id + t;
    const bool dead = base ? ds.BaseDeleted(id) : ds.DeltaDeleted(id);
    if (dead) continue;
    std::memcpy(sub->TupleAt(live, tuple_size_), src->TupleAt(t, tuple_size_),
                tuple_size_);
    ++live;
  }
  sub->num_tuples = live;
  return sub;
}

uint64_t DeltaStore::SnapshotMerged(
    const std::vector<Page*>& base_pages, std::vector<Page*>* out,
    std::vector<std::shared_ptr<const void>>* hold) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::shared_ptr<const DeleteSet> ds = deletes_;
  uint64_t tuples = 0;

  // Base pages: pass through, or substitute a compacted copy when the page
  // contains deletions. The caller owns the base pages' lifetime; only
  // substitutes need a hold entry.
  for (uint64_t i = 0; i < base_pages.size(); ++i) {
    Page* page = base_pages[i];
    auto dels = base_page_dels_.find(i);
    if (dels == base_page_dels_.end() || dels->second == 0) {
      out->push_back(page);
      tuples += page->num_tuples;
      continue;
    }
    SubEntry& entry = base_subs_[i];
    if (entry.page == nullptr || entry.version != ds->version) {
      entry.page =
          BuildSubstitute(page, *ds, /*base=*/true, i * tuples_per_page_);
      entry.version = ds->version;
    }
    out->push_back(entry.page.get());
    tuples += entry.page->num_tuples;
    hold->push_back(entry.page);
  }

  // Sealed delta pages: same substitution discipline; every appended page
  // gets a hold entry because compaction retires the whole delta.
  for (uint64_t i = 0; i < sealed_.size(); ++i) {
    auto dels = delta_page_dels_.find(i);
    if (dels == delta_page_dels_.end() || dels->second == 0) {
      out->push_back(sealed_[i].get());
      tuples += sealed_[i]->num_tuples;
      hold->push_back(sealed_[i]);
      continue;
    }
    SubEntry& entry = delta_subs_[i];
    if (entry.page == nullptr || entry.version != ds->version) {
      entry.page = BuildSubstitute(sealed_[i].get(), *ds, /*base=*/false,
                                   i * tuples_per_page_);
      entry.version = ds->version;
    }
    out->push_back(entry.page.get());
    tuples += entry.page->num_tuples;
    hold->push_back(entry.page);
  }

  // Open insert page: writers mutate it in place under mu_, so readers only
  // ever see a frozen compact copy, cached until the next insert/delete.
  if (open_ != nullptr && open_count_ > 0) {
    if (open_sub_ == nullptr || open_sub_inserts_ != inserts_ ||
        open_sub_version_ != ds->version) {
      open_sub_ = BuildSubstitute(open_.get(), *ds, /*base=*/false,
                                  sealed_.size() * tuples_per_page_);
      open_sub_inserts_ = inserts_;
      open_sub_version_ = ds->version;
    }
    if (open_sub_->num_tuples > 0) {
      out->push_back(open_sub_.get());
      tuples += open_sub_->num_tuples;
      hold->push_back(open_sub_);
    }
  }
  return tuples;
}

}  // namespace hique::txn
