#include "iterator/iterators.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>

#include "util/hash.h"
#include "util/macros.h"

namespace hique::iter {
namespace {

using plan::AggAlgo;
using plan::AggOp;
using plan::JoinAlgo;
using plan::JoinOp;
using plan::OutputOp;
using plan::RecordLayout;
using plan::StageAction;
using plan::StageOp;
using sql::AggFunc;

using CmpClosure = std::function<int(const uint8_t*, const uint8_t*)>;

/// Shared type-specific record quicksort (the paper notes all compared
/// implementations use the same quicksort; the iterator versions pay an
/// indirect call per comparison, the generated code inlines it).
void RecordSortIndirect(uint8_t* base, int64_t n, uint32_t rec,
                        const CmpClosure& cmp) {
  std::vector<uint8_t> tmp_v(rec), pivot_v(rec);
  uint8_t* tmp = tmp_v.data();
  uint8_t* pivot = pivot_v.data();
  auto at = [&](int64_t i) { return base + static_cast<uint64_t>(i) * rec; };
  auto swap = [&](int64_t i, int64_t j) {
    std::memcpy(tmp, at(i), rec);
    std::memcpy(at(i), at(j), rec);
    std::memcpy(at(j), tmp, rec);
  };
  if (n < 2) return;
  int64_t stk[128][2];
  int sp = 0;
  int64_t lo = 0, hi = n - 1;
  for (;;) {
    if (hi - lo < 24) {
      for (int64_t x = lo + 1; x <= hi; ++x) {
        std::memcpy(tmp, at(x), rec);
        int64_t y = x - 1;
        while (y >= lo && cmp(at(y), tmp) > 0) {
          std::memcpy(at(y + 1), at(y), rec);
          --y;
        }
        std::memcpy(at(y + 1), tmp, rec);
      }
      if (sp == 0) break;
      --sp;
      lo = stk[sp][0];
      hi = stk[sp][1];
      continue;
    }
    int64_t mid = lo + ((hi - lo) >> 1);
    if (cmp(at(mid), at(lo)) < 0) swap(mid, lo);
    if (cmp(at(hi), at(mid)) < 0) {
      swap(hi, mid);
      if (cmp(at(mid), at(lo)) < 0) swap(mid, lo);
    }
    std::memcpy(pivot, at(mid), rec);
    int64_t i = lo, j = hi;
    while (i <= j) {
      while (cmp(at(i), pivot) < 0) ++i;
      while (cmp(at(j), pivot) > 0) --j;
      if (i <= j) {
        if (i != j) swap(i, j);
        ++i;
        --j;
      }
    }
    if (j - lo < hi - i) {
      if (i < hi) {
        stk[sp][0] = i;
        stk[sp][1] = hi;
        ++sp;
      }
      hi = j;
    } else {
      if (lo < j) {
        stk[sp][0] = lo;
        stk[sp][1] = j;
        ++sp;
      }
      lo = i;
    }
    if (lo >= hi) {
      if (sp == 0) break;
      --sp;
      lo = stk[sp][0];
      hi = stk[sp][1];
    }
  }
}

CmpClosure MakeKeyCmp(Mode mode, const RecordLayout& layout,
                      std::vector<int> keys, IterStats* stats) {
  return [mode, &layout, keys = std::move(keys), stats](const uint8_t* a,
                                                        const uint8_t* b) {
    for (int f : keys) {
      int c = CompareField(mode, a, b, layout.OffsetOf(f),
                           layout.fields[f].type, stats);
      if (c != 0) return c;
    }
    return 0;
  };
}

// ---- scan ------------------------------------------------------------

class ScanIterator : public Iterator {
 public:
  ScanIterator(Table* table, IterStats* stats)
      : table_(table), stats_(stats) {}

  Status Open() override {
    ++stats_->iterator_calls;
    HQ_ASSIGN_OR_RETURN(pinned_, table_->Pin());
    page_ = 0;
    slot_ = 0;
    decoded_page_ = SIZE_MAX;
    return Status::OK();
  }

  const uint8_t* Next() override {
    ++stats_->iterator_calls;
    const auto& pages = pinned_.pages();
    while (page_ < pages.size()) {
      const Page* p = pages[page_];
      if (slot_ < p->num_tuples) {
        // Compressed pages are decoded whole on first touch; the decode
        // buffer then serves every slot of the page (the volcano model is
        // the paper's comparison baseline, so simplicity beats fusion
        // here — the generated-code path decodes in registers instead).
        if (pinned_.codec().enabled) {
          if (decoded_page_ != page_) {
            decoded_.clear();
            Status s = DecodePage(pinned_.codec(), table_->schema(), *p,
                                  pinned_.dicts(), &decoded_);
            if (!s.ok()) return nullptr;
            decoded_page_ = page_;
          }
          return decoded_.data() +
                 static_cast<size_t>(slot_++) * table_->tuple_size();
        }
        return p->TupleAt(slot_++, table_->tuple_size());
      }
      ++page_;
      slot_ = 0;
    }
    return nullptr;
  }

  void Close() override {
    ++stats_->iterator_calls;
    pinned_.Release();
  }

 private:
  Table* table_;
  IterStats* stats_;
  PinnedPages pinned_;
  size_t page_ = 0;
  uint32_t slot_ = 0;
  size_t decoded_page_ = SIZE_MAX;  // page index decoded_ currently holds
  std::vector<uint8_t> decoded_;
};

// ---- staging ------------------------------------------------------------

class StageIterator : public Iterator {
 public:
  StageIterator(const plan::PhysicalPlan& plan, const StageOp& op,
                std::unique_ptr<Iterator> child, Mode mode, IterStats* stats)
      : plan_(plan), op_(op), child_(std::move(child)), mode_(mode),
        stats_(stats) {}

  Status Open() override {
    ++stats_->iterator_calls;
    HQ_RETURN_IF_ERROR(child_->Open());
    const auto& in_info = plan_.streams[op_.input_stream];
    const RecordLayout& out = op_.output;
    stream_.rec_size = out.record_size;
    const Schema* base_schema =
        in_info.is_base_table
            ? &plan_.query->tables[in_info.base_table_index]->schema()
            : nullptr;
    // Drain the child tuple by tuple (two calls per in-flight tuple: the
    // caller's request and the callee's production — paper §II-B).
    const uint8_t* tuple;
    std::vector<uint8_t> rec(out.record_size);
    while ((tuple = child_->Next()) != nullptr) {
      ++stats_->tuples_processed;
      if (base_schema != nullptr) {
        bool pass = true;
        for (const auto& f : op_.filters) {
          if (!EvalFilter(mode_, f, tuple, *base_schema, stats_)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        for (size_t i = 0; i < out.fields.size(); ++i) {
          std::memcpy(rec.data() + out.OffsetOf(static_cast<int>(i)),
                      tuple + base_schema->OffsetAt(out.fields[i].source.column),
                      out.fields[i].type.ByteSize());
        }
        stream_.data.insert(stream_.data.end(), rec.begin(), rec.end());
      } else {
        stream_.data.insert(stream_.data.end(), tuple,
                            tuple + out.record_size);
      }
      ++stream_.n;
    }
    child_->Close();

    switch (op_.action) {
      case StageAction::kNone:
        break;
      case StageAction::kSort: {
        CmpClosure cmp = MakeKeyCmp(mode_, op_.output, op_.key_fields, stats_);
        RecordSortIndirect(stream_.data.data(), stream_.n, stream_.rec_size,
                           cmp);
        break;
      }
      case StageAction::kPartition:
      case StageAction::kPartitionFine:
        Partition();
        break;
    }
    pos_ = 0;
    return Status::OK();
  }

  const uint8_t* Next() override {
    ++stats_->iterator_calls;
    if (pos_ >= stream_.n) return nullptr;
    return stream_.data.data() +
           static_cast<uint64_t>(pos_++) * stream_.rec_size;
  }

  void Close() override { ++stats_->iterator_calls; }

  MaterializedStream* stream() { return &stream_; }

 private:
  void Partition() {
    const RecordLayout& out = op_.output;
    uint32_t M = op_.num_partitions;
    int key = op_.key_fields[0];
    Type kt = out.fields[key].type;
    uint32_t koff = out.OffsetOf(key);
    uint32_t rec = stream_.rec_size;
    bool fine = op_.action == StageAction::kPartitionFine;

    auto part_of = [&](const uint8_t* r) -> int64_t {
      const uint8_t* p = r + koff;
      if (fine) {
        int64_t v = 0;
        if (kt.id == TypeId::kInt64) {
          std::memcpy(&v, p, 8);
        } else {
          int32_t x;
          std::memcpy(&x, p, 4);
          v = x;
        }
        int64_t id = v - op_.fine_min;
        if (op_.fine_clamp) {
          if (id < 0) id = 0;
          if (id >= static_cast<int64_t>(M)) id = M - 1;
        }
        return id;
      }
      if (kt.id == TypeId::kChar) {
        return static_cast<int64_t>(HashBytes(p, kt.length) % M);
      }
      uint64_t v = 0;
      std::memcpy(&v, p, kt.ByteSize());
      if (kt.ByteSize() == 4) {
        int32_t x;
        std::memcpy(&x, p, 4);
        v = static_cast<uint64_t>(static_cast<int64_t>(x));
      }
      return static_cast<int64_t>(HashMix64(v) % M);
    };

    std::vector<int64_t> counts(M, 0);
    for (int64_t i = 0; i < stream_.n; ++i) {
      int64_t p = part_of(stream_.data.data() + static_cast<uint64_t>(i) * rec);
      if (static_cast<uint64_t>(p) >= M) continue;
      ++counts[p];
    }
    stream_.part_begin.assign(M + 1, 0);
    for (uint32_t m = 0; m < M; ++m) {
      stream_.part_begin[m + 1] = stream_.part_begin[m] + counts[m];
    }
    std::vector<int64_t> cur(stream_.part_begin.begin(),
                             stream_.part_begin.end() - 1);
    std::vector<uint8_t> scattered(
        static_cast<uint64_t>(stream_.part_begin[M]) * rec);
    for (int64_t i = 0; i < stream_.n; ++i) {
      const uint8_t* r = stream_.data.data() + static_cast<uint64_t>(i) * rec;
      int64_t p = part_of(r);
      if (static_cast<uint64_t>(p) >= M) continue;
      std::memcpy(scattered.data() + static_cast<uint64_t>(cur[p]) * rec, r,
                  rec);
      ++cur[p];
    }
    stream_.data = std::move(scattered);
    stream_.n = stream_.part_begin[M];
  }

  const plan::PhysicalPlan& plan_;
  const StageOp& op_;
  std::unique_ptr<Iterator> child_;
  Mode mode_;
  IterStats* stats_;
  MaterializedStream stream_;
  int64_t pos_ = 0;
};

// ---- join -----------------------------------------------------------------

/// Merge / hybrid / team join over materialized staged inputs. One output
/// tuple per Next() call (the Volcano contract), with key comparisons going
/// through the mode's comparison path.
class JoinIterator : public Iterator {
 public:
  JoinIterator(const plan::PhysicalPlan& plan, const JoinOp& op,
               std::vector<std::unique_ptr<Iterator>> children, Mode mode,
               IterStats* stats)
      : plan_(plan), op_(op), children_(std::move(children)), mode_(mode),
        stats_(stats) {}

  Status Open() override {
    ++stats_->iterator_calls;
    size_t k = children_.size();
    streams_.resize(k);
    for (size_t t = 0; t < k; ++t) {
      HQ_RETURN_IF_ERROR(children_[t]->Open());
      auto* stage = dynamic_cast<StageIterator*>(children_[t].get());
      if (stage != nullptr) {
        streams_[t] = stage->stream();
      } else {
        // Non-staged input (interesting-order reuse): drain into a local
        // copy, the temp-table materialization the paper describes.
        owned_.push_back(std::make_unique<MaterializedStream>());
        MaterializedStream* s = owned_.back().get();
        s->rec_size = plan_.streams[op_.input_streams[t]].layout.record_size;
        const uint8_t* rec;
        while ((rec = children_[t]->Next()) != nullptr) {
          ++stats_->tuples_processed;
          s->data.insert(s->data.end(), rec, rec + s->rec_size);
          ++s->n;
        }
        streams_[t] = s;
      }
    }
    for (size_t t = 0; t < k; ++t) {
      const RecordLayout& lay = plan_.streams[op_.input_streams[t]].layout;
      key_off_.push_back(lay.OffsetOf(op_.key_fields[t]));
      key_type_.push_back(lay.fields[op_.key_fields[t]].type);
      rec_size_.push_back(lay.record_size);
    }
    out_rec_.resize(op_.output.record_size);

    hybrid_ = op_.algo == JoinAlgo::kHybridHashSortMerge;
    fine_ = false;
    if (hybrid_) {
      const StageOp* producer = nullptr;
      for (const auto& o : plan_.ops) {
        if (const auto* s = std::get_if<StageOp>(&o)) {
          if (s->out_stream == op_.input_streams[0]) producer = s;
        }
      }
      fine_ = producer != nullptr &&
              producer->action == StageAction::kPartitionFine;
    }
    num_parts_ = hybrid_ ? op_.num_partitions : 1;
    part_ = -1;
    in_group_ = false;
    NextPartition();
    return Status::OK();
  }

  const uint8_t* Next() override {
    ++stats_->iterator_calls;
    size_t k = children_.size();
    for (;;) {
      if (in_group_) {
        // Emit the current odometer combination.
        uint32_t dst = 0;
        for (size_t t = 0; t < k; ++t) {
          std::memcpy(out_rec_.data() + dst, RecordAt(t, odo_[t]),
                      rec_size_[t]);
          dst += rec_size_[t];
        }
        // Advance the odometer (innermost input fastest).
        ssize_t t = static_cast<ssize_t>(k) - 1;
        while (t >= 0) {
          if (++odo_[t] < g_hi_[t]) break;
          odo_[t] = g_lo_[t];
          --t;
        }
        if (t < 0) {
          in_group_ = false;
          for (size_t u = 0; u < k; ++u) idx_[u] = g_hi_[u];
        }
        ++stats_->tuples_processed;
        return out_rec_.data();
      }
      if (!AdvanceToGroup()) {
        if (!NextPartition()) return nullptr;
        continue;
      }
    }
  }

  void Close() override {
    ++stats_->iterator_calls;
    for (auto& c : children_) c->Close();
  }

 private:
  const uint8_t* RecordAt(size_t t, int64_t i) const {
    return streams_[t]->data.data() + static_cast<uint64_t>(i) * rec_size_[t];
  }
  int CompareKeys(size_t ta, int64_t ia, size_t tb, int64_t ib) {
    // Key types match across inputs (binder guarantee).
    const uint8_t* a = RecordAt(ta, ia) + key_off_[ta];
    const uint8_t* b = RecordAt(tb, ib) + key_off_[tb];
    return CompareField(mode_, a, b, 0, key_type_[ta], stats_);
  }

  bool NextPartition() {
    size_t k = children_.size();
    while (++part_ < static_cast<int64_t>(num_parts_)) {
      idx_.assign(k, 0);
      end_.assign(k, 0);
      bool nonempty = true;
      for (size_t t = 0; t < k; ++t) {
        if (hybrid_) {
          idx_[t] = streams_[t]->part_begin[part_];
          end_[t] = streams_[t]->part_begin[part_ + 1];
        } else {
          idx_[t] = 0;
          end_[t] = streams_[t]->n;
        }
        if (idx_[t] >= end_[t]) nonempty = false;
      }
      if (!nonempty) continue;
      if (hybrid_ && !fine_) {
        // JIT sort of corresponding partitions.
        for (size_t t = 0; t < k; ++t) {
          const RecordLayout& lay =
              plan_.streams[op_.input_streams[t]].layout;
          CmpClosure cmp =
              MakeKeyCmp(mode_, lay, {op_.key_fields[t]}, stats_);
          RecordSortIndirect(
              streams_[t]->data.data() +
                  static_cast<uint64_t>(idx_[t]) * rec_size_[t],
              end_[t] - idx_[t], rec_size_[t], cmp);
        }
      }
      return true;
    }
    return false;
  }

  /// Advances the k-way merge to the next group of equal keys; fills
  /// g_lo_/g_hi_ and arms the odometer. Fine partitions are a single group.
  bool AdvanceToGroup() {
    size_t k = children_.size();
    g_lo_.assign(k, 0);
    g_hi_.assign(k, 0);
    if (fine_) {
      bool any = false;
      for (size_t t = 0; t < k; ++t) {
        if (idx_[t] < end_[t]) any = true;
        g_lo_[t] = idx_[t];
        g_hi_[t] = end_[t];
      }
      if (!any || idx_[0] >= end_[0]) return false;
      for (size_t t = 0; t < k; ++t) {
        if (idx_[t] >= end_[t]) return false;
      }
      // Consume the whole partition as one group.
      odo_ = g_lo_;
      in_group_ = true;
      for (size_t t = 0; t < k; ++t) idx_[t] = end_[t];
      return true;
    }
    for (;;) {
      for (size_t t = 0; t < k; ++t) {
        if (idx_[t] >= end_[t]) return false;
      }
      // m = max of current keys; table index holding it.
      size_t mt = 0;
      for (size_t t = 1; t < k; ++t) {
        if (CompareKeys(t, idx_[t], mt, idx_[mt]) > 0) mt = t;
      }
      bool all_eq = true;
      for (size_t t = 0; t < k; ++t) {
        while (idx_[t] < end_[t] &&
               CompareKeys(t, idx_[t], mt, idx_[mt]) < 0) {
          ++idx_[t];
        }
        if (idx_[t] >= end_[t]) return false;
        if (CompareKeys(t, idx_[t], mt, idx_[mt]) != 0) all_eq = false;
      }
      if (!all_eq) continue;
      for (size_t t = 0; t < k; ++t) {
        g_lo_[t] = idx_[t];
        int64_t e = idx_[t] + 1;
        while (e < end_[t] && CompareKeys(t, e, mt, idx_[mt]) == 0) ++e;
        g_hi_[t] = e;
      }
      odo_ = g_lo_;
      in_group_ = true;
      return true;
    }
  }

  const plan::PhysicalPlan& plan_;
  const JoinOp& op_;
  std::vector<std::unique_ptr<Iterator>> children_;
  Mode mode_;
  IterStats* stats_;
  std::vector<MaterializedStream*> streams_;
  std::vector<std::unique_ptr<MaterializedStream>> owned_;
  std::vector<uint32_t> key_off_;
  std::vector<Type> key_type_;
  std::vector<uint32_t> rec_size_;
  std::vector<uint8_t> out_rec_;
  bool hybrid_ = false;
  bool fine_ = false;
  uint32_t num_parts_ = 1;
  int64_t part_ = -1;
  std::vector<int64_t> idx_, end_, g_lo_, g_hi_, odo_;
  bool in_group_ = false;
};

// ---- aggregation -----------------------------------------------------------

struct AggAccum {
  double sum = 0;
  int64_t count = 0;
  double min_d = 0, max_d = 0;
  const uint8_t* min_c = nullptr;
  const uint8_t* max_c = nullptr;
  bool has = false;
};

void WriteAggValue(const sql::AggSpec& spec, const AggAccum& acc,
                   int64_t grp_n, uint8_t* dst) {
  switch (spec.func) {
    case AggFunc::kCount: {
      int64_t v = grp_n;
      std::memcpy(dst, &v, 8);
      break;
    }
    case AggFunc::kSum:
      if (spec.out_type.id == TypeId::kDouble) {
        std::memcpy(dst, &acc.sum, 8);
      } else {
        int64_t v = static_cast<int64_t>(acc.sum);
        std::memcpy(dst, &v, 8);
      }
      break;
    case AggFunc::kAvg: {
      double v = grp_n == 0 ? 0 : acc.sum / static_cast<double>(grp_n);
      std::memcpy(dst, &v, 8);
      break;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      bool is_min = spec.func == AggFunc::kMin;
      if (spec.out_type.id == TypeId::kChar) {
        const uint8_t* src = is_min ? acc.min_c : acc.max_c;
        if (src != nullptr) {
          std::memcpy(dst, src, spec.out_type.length);
        } else {
          std::memset(dst, 0, spec.out_type.length);
        }
        break;
      }
      double v = is_min ? acc.min_d : acc.max_d;
      switch (spec.out_type.id) {
        case TypeId::kInt32:
        case TypeId::kDate: {
          int32_t x = static_cast<int32_t>(v);
          std::memcpy(dst, &x, 4);
          break;
        }
        case TypeId::kInt64: {
          int64_t x = static_cast<int64_t>(v);
          std::memcpy(dst, &x, 8);
          break;
        }
        default:
          std::memcpy(dst, &v, 8);
      }
      break;
    }
  }
}

/// Streaming scalar aggregation over a fused join: drains the child's
/// concatenated records without materializing them and emits one record.
class ScalarAggIterator : public Iterator {
 public:
  ScalarAggIterator(const plan::PhysicalPlan& plan, const JoinOp& op,
                    std::unique_ptr<Iterator> child, Mode mode,
                    IterStats* stats)
      : plan_(plan), op_(op), child_(std::move(child)), mode_(mode),
        stats_(stats) {}

  Status Open() override {
    ++stats_->iterator_calls;
    return child_->Open();
  }

  const uint8_t* Next() override {
    ++stats_->iterator_calls;
    if (done_) return nullptr;
    done_ = true;
    const auto& aggs = op_.query->aggs;
    const RecordLayout& lay = op_.output;  // concatenated layout
    std::vector<AggAccum> accs(aggs.size());
    std::vector<std::vector<uint8_t>> char_min(aggs.size()),
        char_max(aggs.size());
    int64_t grp_n = 0;
    const uint8_t* rec;
    while ((rec = child_->Next()) != nullptr) {
      ++stats_->tuples_processed;
      ++grp_n;
      for (size_t a = 0; a < aggs.size(); ++a) {
        const sql::AggSpec& spec = aggs[a];
        if (!spec.arg) continue;
        AggAccum& acc = accs[a];
        if (spec.out_type.id == TypeId::kChar) {
          int fi = lay.FindField(spec.arg->column);
          const uint8_t* p = rec + lay.OffsetOf(fi);
          uint16_t len = spec.out_type.length;
          if (!acc.has || std::memcmp(p, char_min[a].data(), len) < 0) {
            char_min[a].assign(p, p + len);
          }
          if (!acc.has || std::memcmp(p, char_max[a].data(), len) > 0) {
            char_max[a].assign(p, p + len);
          }
          acc.has = true;
          continue;
        }
        double v = EvalNumeric(mode_, *spec.arg, rec, lay, stats_);
        acc.sum += v;
        if (!acc.has || v < acc.min_d) acc.min_d = v;
        if (!acc.has || v > acc.max_d) acc.max_d = v;
        acc.has = true;
      }
    }
    out_rec_.assign(op_.fused_output.record_size, 0);
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (!char_min[a].empty()) accs[a].min_c = char_min[a].data();
      if (!char_max[a].empty()) accs[a].max_c = char_max[a].data();
      WriteAggValue(aggs[a], accs[a], grp_n,
                    out_rec_.data() +
                        op_.fused_output.OffsetOf(static_cast<int>(a)));
    }
    return out_rec_.data();
  }

  void Close() override {
    ++stats_->iterator_calls;
    child_->Close();
  }

 private:
  const plan::PhysicalPlan& plan_;
  const JoinOp& op_;
  std::unique_ptr<Iterator> child_;
  Mode mode_;
  IterStats* stats_;
  bool done_ = false;
  std::vector<uint8_t> out_rec_;
};

/// Sort / hybrid aggregation: the input is sorted (or partition-sorted) and
/// scanned once, emitting one group per Next() call.
class SortAggIterator : public Iterator {
 public:
  SortAggIterator(const plan::PhysicalPlan& plan, const AggOp& op,
                  std::unique_ptr<Iterator> child, Mode mode,
                  IterStats* stats)
      : plan_(plan), op_(op), child_(std::move(child)), mode_(mode),
        stats_(stats) {}

  Status Open() override {
    ++stats_->iterator_calls;
    HQ_RETURN_IF_ERROR(child_->Open());
    auto* stage = dynamic_cast<StageIterator*>(child_.get());
    if (stage != nullptr) {
      stream_ = stage->stream();
    } else {
      owned_ = std::make_unique<MaterializedStream>();
      owned_->rec_size = plan_.streams[op_.input_stream].layout.record_size;
      const uint8_t* rec;
      while ((rec = child_->Next()) != nullptr) {
        ++stats_->tuples_processed;
        owned_->data.insert(owned_->data.end(), rec, rec + owned_->rec_size);
        ++owned_->n;
      }
      stream_ = owned_.get();
    }
    hybrid_ = op_.algo == AggAlgo::kHybridHashSort;
    num_parts_ = hybrid_ ? op_.num_partitions : 1;
    if (hybrid_) {
      const RecordLayout& lay = plan_.streams[op_.input_stream].layout;
      CmpClosure cmp = MakeKeyCmp(mode_, lay, op_.group_fields, stats_);
      for (uint32_t m = 0; m < num_parts_; ++m) {
        int64_t b = stream_->part_begin[m], e = stream_->part_begin[m + 1];
        if (b < e) {
          RecordSortIndirect(stream_->data.data() +
                                 static_cast<uint64_t>(b) * stream_->rec_size,
                             e - b, stream_->rec_size, cmp);
        }
      }
    }
    pos_ = 0;
    out_rec_.resize(op_.output.record_size);
    return Status::OK();
  }

  const uint8_t* Next() override {
    ++stats_->iterator_calls;
    const RecordLayout& lay = plan_.streams[op_.input_stream].layout;
    uint32_t rec = stream_->rec_size;
    if (pos_ >= stream_->n) return nullptr;
    const uint8_t* first = stream_->data.data() +
                           static_cast<uint64_t>(pos_) * rec;
    std::vector<AggAccum> accs(op_.query->aggs.size());
    int64_t grp_n = 0;
    int64_t i = pos_;
    // The group ends at a key change or (for hybrid) a partition boundary.
    int64_t limit = stream_->n;
    if (hybrid_) {
      while (part_ + 1 < static_cast<int64_t>(num_parts_) &&
             pos_ >= stream_->part_begin[part_ + 1]) {
        ++part_;
      }
      limit = stream_->part_begin[part_ + 1];
    }
    for (; i < limit; ++i) {
      const uint8_t* r = stream_->data.data() + static_cast<uint64_t>(i) * rec;
      bool same = true;
      for (int f : op_.group_fields) {
        if (CompareField(mode_, r, first, lay.OffsetOf(f),
                         lay.fields[f].type, stats_) != 0) {
          same = false;
          break;
        }
      }
      if (!same) break;
      ++stats_->tuples_processed;
      Update(&accs, r, lay);
      ++grp_n;
    }
    pos_ = i;
    EmitGroup(first, accs, grp_n, lay);
    return out_rec_.data();
  }

  void Close() override {
    ++stats_->iterator_calls;
    child_->Close();
  }

 private:
  void Update(std::vector<AggAccum>* accs, const uint8_t* r,
              const RecordLayout& lay) {
    const auto& aggs = op_.query->aggs;
    for (size_t a = 0; a < aggs.size(); ++a) {
      AggAccum& acc = (*accs)[a];
      const sql::AggSpec& spec = aggs[a];
      ++acc.count;
      if (!spec.arg) continue;
      if (spec.out_type.id == TypeId::kChar) {
        int fi = lay.FindField(spec.arg->column);
        const uint8_t* p = r + lay.OffsetOf(fi);
        uint16_t len = spec.out_type.length;
        if (!acc.has || std::memcmp(p, acc.min_c, len) < 0) acc.min_c = p;
        if (!acc.has || std::memcmp(p, acc.max_c, len) > 0) acc.max_c = p;
        acc.has = true;
        continue;
      }
      double v = EvalNumeric(mode_, *spec.arg, r, lay, stats_);
      acc.sum += v;
      if (!acc.has || v < acc.min_d) acc.min_d = v;
      if (!acc.has || v > acc.max_d) acc.max_d = v;
      acc.has = true;
    }
  }

  void EmitGroup(const uint8_t* first, const std::vector<AggAccum>& accs,
                 int64_t grp_n, const RecordLayout& lay) {
    size_t nkeys = op_.group_fields.size();
    for (size_t g = 0; g < nkeys; ++g) {
      int f = op_.group_fields[g];
      std::memcpy(out_rec_.data() + op_.output.OffsetOf(static_cast<int>(g)),
                  first + lay.OffsetOf(f), lay.fields[f].type.ByteSize());
    }
    const auto& aggs = op_.query->aggs;
    for (size_t a = 0; a < aggs.size(); ++a) {
      const sql::AggSpec& spec = aggs[a];
      uint8_t* dst =
          out_rec_.data() + op_.output.OffsetOf(static_cast<int>(nkeys + a));
      WriteAggValue(spec, accs[a], grp_n, dst);
    }
  }

  const plan::PhysicalPlan& plan_;
  const AggOp& op_;
  std::unique_ptr<Iterator> child_;
  Mode mode_;
  IterStats* stats_;
  MaterializedStream* stream_ = nullptr;
  std::unique_ptr<MaterializedStream> owned_;
  std::vector<uint8_t> out_rec_;
  int64_t pos_ = 0;
  bool hybrid_ = false;
  uint32_t num_parts_ = 1;
  int64_t part_ = 0;
};

/// Map aggregation: value directory per grouping attribute plus aggregate
/// arrays (paper Fig. 4), interpreted.
class MapAggIterator : public Iterator {
 public:
  MapAggIterator(const plan::PhysicalPlan& plan, const AggOp& op,
                 std::unique_ptr<Iterator> child, Mode mode, IterStats* stats)
      : plan_(plan), op_(op), child_(std::move(child)), mode_(mode),
        stats_(stats) {}

  Status Open() override {
    ++stats_->iterator_calls;
    HQ_RETURN_IF_ERROR(child_->Open());
    const auto& in_info = plan_.streams[op_.input_stream];
    const RecordLayout& lay = in_info.layout;
    const Schema* base_schema =
        in_info.is_base_table
            ? &plan_.query->tables[in_info.base_table_index]->schema()
            : nullptr;
    size_t nkeys = op_.group_fields.size();
    caps_ = op_.directory_capacity;
    if (caps_.empty()) caps_.assign(nkeys, 1);
    strides_.assign(nkeys, 1);
    for (size_t i = nkeys; i-- > 1;) strides_[i - 1] = strides_[i] * caps_[i];
    cells_ = 1;
    for (uint64_t c : caps_) cells_ *= c;
    if (cells_ == 0) cells_ = 1;
    dirs_.resize(nkeys);
    vals_.resize(nkeys);
    cnt_.assign(cells_, 0);
    const auto& aggs = op_.query->aggs;
    acc_.assign(aggs.size(), std::vector<double>(cells_, 0));

    const uint8_t* rec;
    while ((rec = child_->Next()) != nullptr) {
      ++stats_->tuples_processed;
      if (base_schema != nullptr) {
        bool pass = true;
        for (const auto& f : plan_.query->filters) {
          if (f.column.table != in_info.base_table_index) continue;
          if (!EvalFilter(mode_, f, rec, *base_schema, stats_)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
      }
      uint64_t cell = 0;
      bool overflow = false;
      for (size_t g = 0; g < nkeys; ++g) {
        int f = op_.group_fields[g];
        int64_t key = 0;
        const uint8_t* p = rec + lay.OffsetOf(f);
        Type t = lay.fields[f].type;
        if (t.id == TypeId::kChar) {
          std::memcpy(&key, p, std::min<uint16_t>(t.length, 8));
        } else if (t.ByteSize() == 4) {
          int32_t x;
          std::memcpy(&x, p, 4);
          key = x;
        } else {
          std::memcpy(&key, p, 8);
        }
        if (mode_ == Mode::kGeneric) ++stats_->function_calls;
        if (g < op_.directory_dense.size() && op_.directory_dense[g] != 0) {
          int64_t id = key - op_.directory_min[g];
          if (static_cast<uint64_t>(id) >= caps_[g]) {
            overflow = true;
            break;
          }
          cell += static_cast<uint64_t>(id) * strides_[g];
          continue;
        }
        auto [it, inserted] = dirs_[g].try_emplace(
            key, static_cast<int32_t>(dirs_[g].size()));
        if (inserted) {
          if (vals_[g].size() >= caps_[g]) {
            overflow = true;
            break;
          }
          vals_[g].push_back(key);
        }
        cell += static_cast<uint64_t>(it->second) * strides_[g];
      }
      if (overflow) {
        return Status::ExecError("map aggregation directory overflow");
      }
      for (size_t a = 0; a < aggs.size(); ++a) {
        const sql::AggSpec& spec = aggs[a];
        if (!spec.arg) continue;
        double v = EvalNumeric(mode_, *spec.arg, rec, lay, stats_);
        switch (spec.func) {
          case AggFunc::kSum:
          case AggFunc::kAvg:
            acc_[a][cell] += v;
            break;
          case AggFunc::kMin:
            if (cnt_[cell] == 0 || v < acc_[a][cell]) acc_[a][cell] = v;
            break;
          case AggFunc::kMax:
            if (cnt_[cell] == 0 || v > acc_[a][cell]) acc_[a][cell] = v;
            break;
          case AggFunc::kCount:
            break;
        }
      }
      ++cnt_[cell];
    }
    child_->Close();
    cell_pos_ = 0;
    out_rec_.resize(op_.output.record_size);
    return Status::OK();
  }

  const uint8_t* Next() override {
    ++stats_->iterator_calls;
    size_t nkeys = op_.group_fields.size();
    const RecordLayout& lay = plan_.streams[op_.input_stream].layout;
    bool scalar = nkeys == 0;
    while (cell_pos_ < cells_) {
      uint64_t cell = cell_pos_++;
      if (!scalar && cnt_[cell] == 0) continue;
      for (size_t g = 0; g < nkeys; ++g) {
        uint64_t id = (cell / strides_[g]) % caps_[g];
        bool dense =
            g < op_.directory_dense.size() && op_.directory_dense[g] != 0;
        int64_t gv = dense ? op_.directory_min[g] + static_cast<int64_t>(id)
                           : vals_[g][id];
        int f = op_.group_fields[g];
        Type t = lay.fields[f].type;
        uint8_t* dst =
            out_rec_.data() + op_.output.OffsetOf(static_cast<int>(g));
        if (t.id == TypeId::kChar) {
          std::memcpy(dst, &gv, t.length);
        } else if (t.ByteSize() == 4) {
          int32_t x = static_cast<int32_t>(gv);
          std::memcpy(dst, &x, 4);
        } else {
          std::memcpy(dst, &gv, 8);
        }
      }
      const auto& aggs = op_.query->aggs;
      for (size_t a = 0; a < aggs.size(); ++a) {
        const sql::AggSpec& spec = aggs[a];
        uint8_t* dst = out_rec_.data() +
                       op_.output.OffsetOf(static_cast<int>(nkeys + a));
        switch (spec.func) {
          case AggFunc::kCount: {
            std::memcpy(dst, &cnt_[cell], 8);
            break;
          }
          case AggFunc::kSum:
            if (spec.out_type.id == TypeId::kDouble) {
              std::memcpy(dst, &acc_[a][cell], 8);
            } else {
              int64_t v = static_cast<int64_t>(acc_[a][cell]);
              std::memcpy(dst, &v, 8);
            }
            break;
          case AggFunc::kAvg: {
            double v = cnt_[cell] == 0
                           ? 0
                           : acc_[a][cell] / static_cast<double>(cnt_[cell]);
            std::memcpy(dst, &v, 8);
            break;
          }
          case AggFunc::kMin:
          case AggFunc::kMax: {
            double v = acc_[a][cell];
            switch (spec.out_type.id) {
              case TypeId::kInt32:
              case TypeId::kDate: {
                int32_t x = static_cast<int32_t>(v);
                std::memcpy(dst, &x, 4);
                break;
              }
              case TypeId::kInt64: {
                int64_t x = static_cast<int64_t>(v);
                std::memcpy(dst, &x, 8);
                break;
              }
              default:
                std::memcpy(dst, &v, 8);
            }
            break;
          }
        }
      }
      return out_rec_.data();
    }
    return nullptr;
  }

  void Close() override { ++stats_->iterator_calls; }

 private:
  const plan::PhysicalPlan& plan_;
  const AggOp& op_;
  std::unique_ptr<Iterator> child_;
  Mode mode_;
  IterStats* stats_;
  std::vector<uint64_t> caps_, strides_;
  uint64_t cells_ = 1;
  std::vector<std::map<int64_t, int32_t>> dirs_;
  std::vector<std::vector<int64_t>> vals_;
  std::vector<int64_t> cnt_;
  std::vector<std::vector<double>> acc_;
  uint64_t cell_pos_ = 0;
  std::vector<uint8_t> out_rec_;
};

}  // namespace

// ---- plan driver -----------------------------------------------------------

Result<std::unique_ptr<Table>> ExecutePlanVolcano(
    const plan::PhysicalPlan& plan, Mode mode, IterStats* stats) {
  std::map<int, std::unique_ptr<Iterator>> by_stream;

  auto take_input = [&](int stream) -> Result<std::unique_ptr<Iterator>> {
    auto it = by_stream.find(stream);
    if (it != by_stream.end()) {
      auto iter = std::move(it->second);
      by_stream.erase(it);
      return iter;
    }
    const auto& info = plan.streams[stream];
    if (info.is_base_table) {
      return std::unique_ptr<Iterator>(std::make_unique<ScanIterator>(
          plan.query->tables[info.base_table_index], stats));
    }
    return Status::Internal("iterator plan wiring error: stream " +
                            std::to_string(stream));
  };

  const plan::OutputOp* output_op = nullptr;
  for (const auto& op : plan.ops) {
    if (const auto* stage = std::get_if<plan::StageOp>(&op)) {
      HQ_ASSIGN_OR_RETURN(auto child, take_input(stage->input_stream));
      by_stream[stage->out_stream] = std::make_unique<StageIterator>(
          plan, *stage, std::move(child), mode, stats);
    } else if (const auto* join = std::get_if<plan::JoinOp>(&op)) {
      std::vector<std::unique_ptr<Iterator>> children;
      for (int s : join->input_streams) {
        HQ_ASSIGN_OR_RETURN(auto child, take_input(s));
        children.push_back(std::move(child));
      }
      auto join_iter = std::make_unique<JoinIterator>(
          plan, *join, std::move(children), mode, stats);
      if (join->fuse_scalar_agg) {
        by_stream[join->out_stream] = std::make_unique<ScalarAggIterator>(
            plan, *join, std::move(join_iter), mode, stats);
      } else {
        by_stream[join->out_stream] = std::move(join_iter);
      }
    } else if (const auto* agg = std::get_if<plan::AggOp>(&op)) {
      HQ_ASSIGN_OR_RETURN(auto child, take_input(agg->input_stream));
      if (agg->algo == plan::AggAlgo::kMap) {
        by_stream[agg->out_stream] = std::make_unique<MapAggIterator>(
            plan, *agg, std::move(child), mode, stats);
      } else {
        by_stream[agg->out_stream] = std::make_unique<SortAggIterator>(
            plan, *agg, std::move(child), mode, stats);
      }
    } else if (const auto* out = std::get_if<plan::OutputOp>(&op)) {
      output_op = out;
    }
  }
  HQ_CHECK(output_op != nullptr);

  HQ_ASSIGN_OR_RETURN(auto root, take_input(output_op->input_stream));
  HQ_RETURN_IF_ERROR(root->Open());

  const plan::RecordLayout& in_layout =
      plan.streams[output_op->input_stream].layout;
  const Schema& os = plan.output_schema;
  uint32_t osz = os.TupleSize();
  bool need_sort = !output_op->order_by.empty() && !output_op->already_sorted;

  auto result = std::make_unique<Table>("result", os);
  auto build_row = [&](const uint8_t* rec, uint8_t* dst) {
    for (size_t i = 0; i < output_op->items.size(); ++i) {
      const auto& item = output_op->items[i];
      uint8_t* d = dst + os.OffsetAt(i);
      if (item.field_index >= 0) {
        std::memcpy(d, rec + in_layout.OffsetOf(item.field_index),
                    item.type.ByteSize());
      } else {
        double v = EvalNumeric(mode, *item.expr, rec, in_layout, stats);
        switch (item.type.id) {
          case TypeId::kInt32:
          case TypeId::kDate: {
            int32_t x = static_cast<int32_t>(v);
            std::memcpy(d, &x, 4);
            break;
          }
          case TypeId::kInt64: {
            int64_t x = static_cast<int64_t>(v);
            std::memcpy(d, &x, 8);
            break;
          }
          default:
            std::memcpy(d, &v, 8);
        }
      }
    }
  };

  if (need_sort) {
    std::vector<uint8_t> rows;
    int64_t n = 0;
    const uint8_t* rec;
    std::vector<uint8_t> tmp(osz);
    while ((rec = root->Next()) != nullptr) {
      build_row(rec, tmp.data());
      rows.insert(rows.end(), tmp.begin(), tmp.end());
      ++n;
    }
    CmpClosure cmp = [&](const uint8_t* a, const uint8_t* b) {
      for (const auto& spec : output_op->order_by) {
        int c = CompareField(mode, a, b,
                             os.OffsetAt(spec.output_index),
                             output_op->items[spec.output_index].type, stats);
        if (c != 0) return spec.desc ? -c : c;
      }
      return 0;
    };
    RecordSortIndirect(rows.data(), n, osz, cmp);
    int64_t limit = output_op->limit >= 0 && output_op->limit < n
                        ? output_op->limit
                        : n;
    for (int64_t i = 0; i < limit; ++i) {
      HQ_ASSIGN_OR_RETURN(uint8_t * slot, result->AppendTupleSlot());
      std::memcpy(slot, rows.data() + static_cast<uint64_t>(i) * osz, osz);
    }
  } else {
    const uint8_t* rec;
    int64_t emitted = 0;
    while ((rec = root->Next()) != nullptr) {
      if (output_op->limit >= 0 && emitted >= output_op->limit) break;
      HQ_ASSIGN_OR_RETURN(uint8_t * slot, result->AppendTupleSlot());
      build_row(rec, slot);
      ++emitted;
    }
  }
  root->Close();
  stats->rows = static_cast<int64_t>(result->NumTuples());
  return result;
}

}  // namespace hique::iter
