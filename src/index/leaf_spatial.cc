#include "index/leaf_spatial.h"

#include <algorithm>

#include "common/coding.h"
#include "telco/schema.h"

namespace spate {
namespace {

void PutRowList(std::string* out, const std::vector<uint32_t>& rows) {
  PutVarint64(out, rows.size());
  uint32_t prev = 0;
  for (uint32_t row : rows) {
    PutVarint32(out, row - prev);  // ascending -> small deltas
    prev = row;
  }
}

bool GetRowList(Slice* in, std::vector<uint32_t>* rows) {
  uint64_t count = 0;
  if (!GetVarint64(in, &count)) return false;
  rows->clear();
  rows->reserve(static_cast<size_t>(count));
  uint32_t value = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    if (!GetVarint32(in, &delta)) return false;
    value += delta;
    rows->push_back(value);
  }
  return true;
}

}  // namespace

LeafSpatialIndex LeafSpatialIndex::Build(const Snapshot& snapshot) {
  LeafSpatialIndex index;
  for (uint32_t i = 0; i < snapshot.cdr.size(); ++i) {
    index.cells_[FieldAsString(snapshot.cdr[i], kCdrCellId)].cdr.push_back(i);
  }
  for (uint32_t i = 0; i < snapshot.nms.size(); ++i) {
    index.cells_[FieldAsString(snapshot.nms[i], kNmsCellId)].nms.push_back(i);
  }
  return index;
}

const std::vector<uint32_t>* LeafSpatialIndex::CdrRows(
    const std::string& cell_id) const {
  auto it = cells_.find(cell_id);
  return it == cells_.end() ? nullptr : &it->second.cdr;
}

const std::vector<uint32_t>* LeafSpatialIndex::NmsRows(
    const std::string& cell_id) const {
  auto it = cells_.find(cell_id);
  return it == cells_.end() ? nullptr : &it->second.nms;
}

std::vector<std::string> LeafSpatialIndex::Cells() const {
  std::vector<std::string> out;
  out.reserve(cells_.size());
  for (const auto& [cell_id, rows] : cells_) out.push_back(cell_id);
  return out;
}

std::string LeafSpatialIndex::Serialize() const {
  std::string out;
  PutVarint64(&out, cells_.size());
  for (const auto& [cell_id, rows] : cells_) {
    PutLengthPrefixed(&out, cell_id);
    PutRowList(&out, rows.cdr);
    PutRowList(&out, rows.nms);
  }
  return out;
}

Status LeafSpatialIndex::Parse(Slice data, LeafSpatialIndex* index) {
  index->cells_.clear();
  uint64_t num_cells = 0;
  if (!GetVarint64(&data, &num_cells)) {
    return Status::Corruption("leaf spatial index: missing cell count");
  }
  for (uint64_t i = 0; i < num_cells; ++i) {
    Slice cell_id;
    CellRows rows;
    if (!GetLengthPrefixed(&data, &cell_id) ||
        !GetRowList(&data, &rows.cdr) || !GetRowList(&data, &rows.nms)) {
      return Status::Corruption("leaf spatial index: truncated entry");
    }
    index->cells_.emplace(cell_id.ToString(), std::move(rows));
  }
  if (!data.empty()) {
    return Status::Corruption("leaf spatial index: trailing bytes");
  }
  return Status::OK();
}

std::vector<uint32_t> SelectedPositions(
    const LeafSpatialIndex& index, bool cdr_table,
    const std::unordered_set<std::string>& wanted_cells) {
  std::vector<uint32_t> positions;
  for (const std::string& cell_id : wanted_cells) {
    const std::vector<uint32_t>* rows =
        cdr_table ? index.CdrRows(cell_id) : index.NmsRows(cell_id);
    if (rows != nullptr) {
      positions.insert(positions.end(), rows->begin(), rows->end());
    }
  }
  std::sort(positions.begin(), positions.end());
  return positions;
}

}  // namespace spate
