#ifndef SPATE_CORE_COLUMNAR_LEAF_H_
#define SPATE_CORE_COLUMNAR_LEAF_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>

#include "common/slice.h"
#include "common/status.h"
#include "compress/codec.h"
#include "core/fragment_cache.h"
#include "core/framework.h"
#include "index/temporal_index.h"
#include "telco/schema.h"
#include "telco/snapshot.h"

namespace spate {

class ThreadPool;

/// Snapshot shredding for the columnar leaf layout
/// (`SpateOptions::leaf_layout = kColumnar`): one snapshot becomes a 0xCD
/// columnar container (compress/columnar.h) whose chunks are
///
///   "@meta"        epoch + per-table row-width tables (always decoded; the
///                  width tables preserve ragged rows bit-exactly and tell
///                  the reader which rows carry which columns),
///   "@spidx"       the serialized `LeafSpatialIndex` of the snapshot
///                  (cell id -> row positions), decoded only by bounding-box
///                  queries to jump straight to the matching rows,
///   "c:<attr>"     one chunk per CDR column (attribute-named; columns
///                  beyond the schema width are named "c:#<index>"),
///   "n:<attr>"     one chunk per NMS column.
///
/// A column chunk holds the column's values in row order, one per row that
/// is wide enough to carry the column, each terminated by '\n' (the same
/// cannot-contain-separator contract as the row text format). A projected
/// read decodes "@meta" plus exactly the requested columns; a full decode
/// reproduces the original snapshot bit for bit, so
/// `SerializeSnapshot(decoded)` equals the row layout's stored text.

/// Chunk names of the two metadata chunks ("@" sorts before any schema
/// attribute name and is not a legal attribute character, so metadata can
/// never collide with a column chunk).
inline constexpr std::string_view kColumnarMetaChunk = "@meta";
inline constexpr std::string_view kColumnarSpatialChunk = "@spidx";

/// Chunk name of one shredded CDR column: "c:<attribute name>", or
/// "c:#<index>" past the schema width.
std::string CdrColumnChunkName(int column);

/// Chunk name of one shredded NMS column: "n:<attribute name>" /
/// "n:#<index>".
std::string NmsColumnChunkName(int column);

/// Shreds `snapshot` into the columnar container, compressing each chunk
/// with `codec` (in parallel on `pool` when given — the stored bytes are
/// identical at every worker count) and appending the blob to `*blob`.
/// When `stats` is non-null it is filled with the exact plaintext size of
/// every chunk (the SQL planner's cost-model input, see `LeafDecodeStats`).
Status EncodeColumnarLeaf(const Codec& codec, const Snapshot& snapshot,
                          ThreadPool* pool, std::string* blob,
                          LeafDecodeStats* stats = nullptr);

/// Recomputes the per-chunk decode statistics of `snapshot` without
/// encoding anything — the recovery path rebuilds `LeafNode::decode_stats`
/// with this after decoding a columnar blob; the sizes equal what
/// `EncodeColumnarLeaf` would report for the same snapshot.
void ComputeColumnarLeafStats(const Snapshot& snapshot, LeafDecodeStats* stats);

/// Reassembles (part of) a snapshot from a columnar blob.
///
/// `cdr` / `nms` select the columns to materialize per table
/// (`RestrictSnapshot` semantics: rows keep their original width with
/// non-selected fields empty; a `skip` projection drops the table's rows
/// wholesale without decoding any of its chunks). When `wanted_cells` is
/// non-null, only rows whose cell id is in the set are materialized — via
/// the embedded "@spidx" row-position lists, in ascending row order — so a
/// bounding-box query never touches the other rows' bytes.
///
/// With both projections `all` and no cell restriction the result is the
/// original snapshot, bit for bit.
///
/// `tally` (may be null) counts the decode work: decompressed bytes
/// actually produced (the projection-pushdown metric surfaced in
/// `ScanStats::bytes_decoded`), fragment-cache hits and the bytes they
/// avoided.
///
/// `fragments` (may be null) consults/feeds a decoded-fragment cache at the
/// per-chunk decode funnel: a cached chunk is served without touching the
/// codec and counts as a hit instead of decoded bytes; a freshly decoded
/// chunk is admitted under its chunk name. Caching never changes the
/// produced snapshot — only where the plaintext came from.
Status DecodeColumnarLeaf(Slice blob, const TableProjection& cdr,
                          const TableProjection& nms,
                          const std::unordered_set<std::string>* wanted_cells,
                          Snapshot* snapshot, DecodeTally* tally,
                          const FragmentCacheScope* fragments = nullptr);

}  // namespace spate

#endif  // SPATE_CORE_COLUMNAR_LEAF_H_
