#ifndef SPATE_INDEX_LEAF_SPATIAL_H_
#define SPATE_INDEX_LEAF_SPATIAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "telco/snapshot.h"

namespace spate {

/// Per-leaf spatial index (Section V-A): maps each cell id to the row
/// positions it occupies inside one snapshot, so a bounding-box read keeps
/// exactly the matching rows without testing every row's cell id.
///
/// Two layouts carry it: every columnar leaf embeds one as its "@spidx"
/// chunk, and row-layout leaves get one as a compressed DFS sidecar
/// (/spate/spidx/<epoch>) when `SpateOptions::leaf_spatial_index` is on.
/// The paper considers such an index and decides against it ("snapshots
/// are usually not very large, thus an additional index would only provide
/// modest additional query response time benefits at the price of
/// additional storage space"); `bench_ablation_leaf_spatial` reproduces
/// that trade-off on row stores. Either way the index only narrows what a
/// leaf decode keeps: the decoded rows equal a row-by-row cell filter.
class LeafSpatialIndex {
 public:
  LeafSpatialIndex() = default;

  /// Builds the index from a parsed snapshot.
  static LeafSpatialIndex Build(const Snapshot& snapshot);

  /// Row positions of `cell_id` within the snapshot's CDR table (ascending).
  const std::vector<uint32_t>* CdrRows(const std::string& cell_id) const;
  /// Row positions of `cell_id` within the snapshot's NMS table (ascending).
  const std::vector<uint32_t>* NmsRows(const std::string& cell_id) const;

  /// Cells present in the snapshot, sorted.
  std::vector<std::string> Cells() const;

  size_t num_cells() const { return cells_.size(); }

  /// Compact binary serialization (varint-delta row lists).
  std::string Serialize() const;
  static Status Parse(Slice data, LeafSpatialIndex* index);

  /// Memberwise equality. The comparison bottoms out in `CellRows`'s
  /// defaulted `operator==` — both tables' row-position lists participate,
  /// so two indexes differing only in (say) an NMS row list compare
  /// unequal in both directions.
  bool operator==(const LeafSpatialIndex& other) const = default;

 private:
  struct CellRows {
    std::vector<uint32_t> cdr;
    std::vector<uint32_t> nms;

    bool operator==(const CellRows& other) const = default;
  };
  std::map<std::string, CellRows> cells_;
};

/// Ascending row positions of `wanted_cells` within one table of the
/// indexed snapshot (CDR when `cdr_table`, else NMS): the rows a cell
/// restriction keeps, in their original order.
std::vector<uint32_t> SelectedPositions(
    const LeafSpatialIndex& index, bool cdr_table,
    const std::unordered_set<std::string>& wanted_cells);

}  // namespace spate

#endif  // SPATE_INDEX_LEAF_SPATIAL_H_
