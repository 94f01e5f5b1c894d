#ifndef SPATEBENCH_ORACLE_H_
#define SPATEBENCH_ORACLE_H_

// The RAW oracle, partitioned by epoch. Every snapshot lives in its own
// `RawFramework`, so an oracle query reads (and parses) only the epochs of
// its window instead of RAW's whole-dataset scan. Answers are exactly
// RAW's: each partition is a stock RawFramework, partitions are visited in
// time order, and RAW's `Execute` is a per-snapshot filter, so the
// concatenation of per-epoch answers is the whole-window answer.
//
// Built only after the timed phase, so it costs neither set-up time nor
// peak memory of the measured store.

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/raw_framework.h"
#include "digest.h"

namespace spatebench {

class PartitionedRaw : public spate::Framework {
 public:
  explicit PartitionedRaw(const std::vector<spate::Record>& cell_rows);

  std::string_view Name() const override { return "RAW-partitioned"; }
  spate::Status Ingest(const spate::Snapshot& snapshot) override;
  const spate::IngestStats& last_ingest_stats() const override {
    return last_ingest_;
  }
  spate::Result<spate::QueryResult> Execute(
      const spate::ExplorationQuery& query) override;
  spate::Status ScanWindow(
      spate::Timestamp begin, spate::Timestamp end,
      const std::function<void(const spate::Snapshot&)>& fn) override;
  spate::Result<spate::NodeSummary> AggregateWindow(
      spate::Timestamp begin, spate::Timestamp end) override;
  uint64_t StorageBytes() const override;
  spate::DistributedFileSystem& dfs() override { return empty_dfs_; }
  const spate::CellDirectory& cells() const override { return cells_; }
  const std::vector<spate::Record>& cell_rows() const override {
    return cell_rows_;
  }

  /// Digest of RAW's answer to `query`, memoized per (epoch, query shape):
  /// row digests are additive, so a window's digest is the sum of its
  /// epochs' digests. Fails if any in-window epoch was never ingested.
  spate::Result<AnswerDigest> AnswerDigestOf(
      const spate::ExplorationQuery& query);

  /// `DigestAnswer` of RAW's answer to `query`: the rows as above, and the
  /// in-window epochs' summaries (memoized per epoch) merged in time order
  /// and restricted to the box, with the highlights SPATE's exact path
  /// extracts from such a summary (RAW itself extracts none).
  spate::Result<uint64_t> FullAnswerDigestOf(
      const spate::ExplorationQuery& query);

 private:
  /// Partitions intersecting [begin, end), in time order.
  std::vector<spate::RawFramework*> InWindow(spate::Timestamp begin,
                                             spate::Timestamp end);

  spate::DfsOptions dfs_options_;
  spate::DistributedFileSystem empty_dfs_;
  spate::CellDirectory cells_;
  std::vector<spate::Record> cell_rows_;
  std::map<spate::Timestamp, std::unique_ptr<spate::RawFramework>> parts_;
  spate::IngestStats last_ingest_;
  std::map<std::pair<spate::Timestamp, std::string>, AnswerDigest> memo_;
  std::map<spate::Timestamp, spate::NodeSummary> summaries_;
};

/// `DigestAnswer` of a stock RAW answer, with the highlights SPATE's exact
/// path extracts from its summary.
uint64_t RawAnswerDigest(const spate::QueryResult& raw_answer);

}  // namespace spatebench

#endif  // SPATEBENCH_ORACLE_H_
