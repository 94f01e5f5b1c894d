#ifndef SPATEBENCH_REPLAY_H_
#define SPATEBENCH_REPLAY_H_

// Layer replay for the traced run: feeds one query's in-window leaves
// through the public layer functions, in scan order, with a span around
// each layer — TemporalIndex::LeavesInWindow, DFS ReadFile, Crc32,
// ChunkedDecompress (row leaves) or ColumnarReader::Decode (columnar
// leaves), ParseSnapshot (row) or DecodeColumnarLeaf (columnar row
// assembly), and the FilterSnapshotRows box/projection filter. The
// replay's own DFS reads are kept out of the I/O counters the workloads
// report, which are taken around the program's calls only.

#include <cstdint>

#include "core/spate_framework.h"
#include "trace.h"

namespace spatebench {

struct ReplayTotals {
  uint64_t leaves = 0;
  uint64_t bytes_read = 0;     // stored blob bytes (CRC'd)
  uint64_t bytes_decoded = 0;  // decompressed bytes
  uint64_t bytes_parsed = 0;   // text (row) or decoded column bytes parsed
  uint64_t failures = 0;
  uint32_t crc_sink = 0;
};

void ReplayQuery(spate::SpateFramework& framework,
                 const spate::ExplorationQuery& query, SpanLog& log,
                 int64_t op, ReplayTotals* totals);

}  // namespace spatebench

#endif  // SPATEBENCH_REPLAY_H_
