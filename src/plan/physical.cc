#include "plan/physical.h"

#include <sstream>

namespace hique::plan {

namespace {
uint32_t AlignUp(uint32_t v, uint32_t a) { return (v + a - 1) / a * a; }
}  // namespace

void RecordLayout::AddField(FieldRef f) {
  uint32_t align = f.type.Alignment();
  uint32_t offset = AlignUp(end, align);
  offsets.push_back(offset);
  end = offset + f.type.ByteSize();
  record_size = AlignUp(end, 8);
  fields.push_back(std::move(f));
}

void RecordLayout::AppendConcat(const RecordLayout& other) {
  uint32_t base = record_size;  // padded: preserves every field's alignment
  for (size_t i = 0; i < other.fields.size(); ++i) {
    fields.push_back(other.fields[i]);
    offsets.push_back(base + other.offsets[i]);
  }
  end = base + other.record_size;
  record_size = end;
}

int RecordLayout::FindField(sql::ColRef source) const {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].source == source) return static_cast<int>(i);
  }
  return -1;
}

namespace {

const char* JoinAlgoName(JoinAlgo a) {
  switch (a) {
    case JoinAlgo::kMerge:
      return "merge";
    case JoinAlgo::kHybridHashSortMerge:
      return "hybrid-hash-sort-merge";
  }
  return "?";
}

const char* AggAlgoName(AggAlgo a) {
  switch (a) {
    case AggAlgo::kSort:
      return "sort";
    case AggAlgo::kHybridHashSort:
      return "hybrid-hash-sort";
    case AggAlgo::kMap:
      return "map";
  }
  return "?";
}

const char* ActionName(StageAction a) {
  switch (a) {
    case StageAction::kNone:
      return "scan";
    case StageAction::kSort:
      return "sort";
    case StageAction::kPartition:
      return "partition(coarse)";
    case StageAction::kPartitionFine:
      return "partition(fine)";
  }
  return "?";
}

}  // namespace

std::string PhysicalPlan::ToString() const {
  std::ostringstream out;
  for (size_t i = 0; i < ops.size(); ++i) {
    out << "op" << i << ": ";
    if (const auto* stage = std::get_if<StageOp>(&ops[i])) {
      out << "stage " << ActionName(stage->action) << " stream "
          << stage->input_stream << " -> " << stage->out_stream << " ("
          << stage->output.fields.size() << " fields, "
          << stage->output.record_size << "B";
      if (stage->num_partitions > 0) {
        out << ", M=" << stage->num_partitions;
      }
      out << ", " << stage->filters.size() << " filters)";
    } else if (const auto* join = std::get_if<JoinOp>(&ops[i])) {
      out << "join " << JoinAlgoName(join->algo) << " streams [";
      for (size_t k = 0; k < join->input_streams.size(); ++k) {
        if (k) out << ", ";
        out << join->input_streams[k];
      }
      out << "] -> " << join->out_stream;
      if (join->num_partitions > 0) out << " M=" << join->num_partitions;
    } else if (const auto* agg = std::get_if<AggOp>(&ops[i])) {
      out << "agg " << AggAlgoName(agg->algo) << " stream "
          << agg->input_stream << " -> " << agg->out_stream << " ("
          << agg->group_fields.size() << " keys)";
    } else if (const auto* output = std::get_if<OutputOp>(&ops[i])) {
      out << "output stream " << output->input_stream << " ("
          << output->items.size() << " cols";
      if (!output->order_by.empty()) {
        out << (output->already_sorted ? ", pre-sorted" : ", sort");
      }
      if (output->limit >= 0) out << ", limit " << output->limit;
      out << ")";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace hique::plan
