#include "replay.h"

#include <string>
#include <vector>

#include "common/crc32.h"
#include "compress/chunked.h"
#include "compress/columnar.h"
#include "core/columnar_leaf.h"

namespace spatebench {

void ReplayQuery(spate::SpateFramework& framework,
                 const spate::ExplorationQuery& query, SpanLog& log,
                 int64_t op, ReplayTotals* totals) {
  ScopedSpan replay(log, "replay", op);
  std::vector<const spate::LeafNode*> leaves;
  {
    ScopedSpan span(log, "index.leaves_in_window", op);
    leaves = framework.index().LeavesInWindow(query.window_begin,
                                              query.window_end);
  }
  std::vector<spate::Record> cdr;
  std::vector<spate::Record> nms;
  for (const spate::LeafNode* leaf : leaves) {
    if (leaf->decayed) continue;
    std::string blob;
    {
      ScopedSpan span(log, "dfs.read", op);
      spate::Result<std::string> read = framework.dfs().ReadFile(leaf->dfs_path);
      if (!read.ok()) {
        ++totals->failures;
        continue;
      }
      blob = std::move(read).value();
    }
    {
      ScopedSpan span(log, "common.crc32", op);
      totals->crc_sink ^= spate::Crc32(blob);
    }
    totals->bytes_read += blob.size();
    ++totals->leaves;
    spate::Snapshot snapshot;
    spate::Status status;
    if (spate::IsColumnarBlob(blob)) {
      uint64_t decoded = 0;
      {
        ScopedSpan span(log, "compress.decode", op);
        spate::ColumnarReader reader;
        status = spate::ColumnarReader::Open(blob, &reader);
        for (const auto& chunk : reader.chunks()) {
          if (!status.ok()) break;
          std::string data;
          status = spate::ColumnarReader::Decode(chunk, &data);
          decoded += data.size();
        }
      }
      totals->bytes_decoded += decoded;
      if (status.ok()) {
        ScopedSpan span(log, "telco.parse", op);
        status = spate::DecodeColumnarLeaf(blob, spate::TableProjection{},
                                           spate::TableProjection{}, nullptr,
                                           &snapshot, nullptr);
        totals->bytes_parsed += decoded;
      }
    } else {
      std::string text;
      {
        ScopedSpan span(log, "compress.decode", op);
        status = spate::ChunkedDecompress(blob, nullptr, &text);
      }
      totals->bytes_decoded += text.size();
      if (status.ok()) {
        ScopedSpan span(log, "telco.parse", op);
        status = spate::ParseSnapshot(text, &snapshot);
        totals->bytes_parsed += text.size();
      }
    }
    if (!status.ok()) {
      ++totals->failures;
      continue;
    }
    ScopedSpan span(log, "core.filter", op);
    spate::FilterSnapshotRows(snapshot, query, framework.cells(), &cdr, &nms);
  }
}

}  // namespace spatebench
