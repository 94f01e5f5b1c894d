#include "oracle.h"

#include <algorithm>
#include <cstdio>

#include "core/spate_framework.h"

namespace spatebench {

using spate::ExplorationQuery;
using spate::Result;
using spate::Status;
using spate::Timestamp;

namespace {

/// Everything about a query except its window.
std::string ShapeKey(const ExplorationQuery& q) {
  std::string key = q.want_cdr ? "c" : "-";
  key += q.want_nms ? "n" : "-";
  if (q.has_box) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "|%.17g,%.17g,%.17g,%.17g", q.box.min_x,
                  q.box.min_y, q.box.max_x, q.box.max_y);
    key += buf;
  }
  for (const std::string& a : q.attributes) key += "|" + a;
  return key;
}

/// DigestSummary of a box-restricted summary and the highlights SPATE
/// extracts from it on the exact path (day-level theta).
uint64_t SummaryDigestOf(const spate::NodeSummary& summary) {
  return DigestSummary(
      summary, summary.ExtractHighlights(spate::SpateOptions().theta_day));
}

spate::DfsOptions OracleDfs() {
  // One replica: the oracle needs RAW's answers, not its storage cost.
  spate::DfsOptions options;
  options.replication = 1;
  return options;
}

}  // namespace

PartitionedRaw::PartitionedRaw(const std::vector<spate::Record>& cell_rows)
    : dfs_options_(OracleDfs()),
      empty_dfs_(dfs_options_),
      cells_(cell_rows),
      cell_rows_(cell_rows) {}

Status PartitionedRaw::Ingest(const spate::Snapshot& snapshot) {
  auto part = std::make_unique<spate::RawFramework>(dfs_options_, cell_rows_);
  SPATE_RETURN_IF_ERROR(part->Ingest(snapshot));
  last_ingest_ = part->last_ingest_stats();
  parts_[snapshot.epoch_start] = std::move(part);
  return Status::OK();
}

std::vector<spate::RawFramework*> PartitionedRaw::InWindow(Timestamp begin,
                                                           Timestamp end) {
  std::vector<spate::RawFramework*> out;
  for (auto it = parts_.lower_bound(begin - spate::kEpochSeconds + 1);
       it != parts_.end() && it->first < end; ++it) {
    out.push_back(it->second.get());
  }
  return out;
}

Result<spate::QueryResult> PartitionedRaw::Execute(
    const ExplorationQuery& query) {
  if (query.window_begin >= query.window_end) {
    return Status::InvalidArgument("query window is empty");
  }
  spate::QueryResult result;
  result.exact = true;
  for (spate::RawFramework* part :
       InWindow(query.window_begin, query.window_end)) {
    SPATE_ASSIGN_OR_RETURN(spate::QueryResult r, part->Execute(query));
    std::move(r.cdr_rows.begin(), r.cdr_rows.end(),
              std::back_inserter(result.cdr_rows));
    std::move(r.nms_rows.begin(), r.nms_rows.end(),
              std::back_inserter(result.nms_rows));
    result.summary.Merge(r.summary);
  }
  return result;
}

Status PartitionedRaw::ScanWindow(
    Timestamp begin, Timestamp end,
    const std::function<void(const spate::Snapshot&)>& fn) {
  for (spate::RawFramework* part : InWindow(begin, end)) {
    SPATE_RETURN_IF_ERROR(part->ScanWindow(begin, end, fn));
  }
  return Status::OK();
}

Result<spate::NodeSummary> PartitionedRaw::AggregateWindow(Timestamp begin,
                                                           Timestamp end) {
  spate::NodeSummary summary;
  SPATE_RETURN_IF_ERROR(ScanWindow(
      begin, end,
      [&](const spate::Snapshot& snapshot) { summary.AddSnapshot(snapshot); }));
  return summary;
}

uint64_t PartitionedRaw::StorageBytes() const {
  uint64_t total = 0;
  for (const auto& [epoch, part] : parts_) total += part->StorageBytes();
  return total;
}

Result<AnswerDigest> PartitionedRaw::AnswerDigestOf(
    const ExplorationQuery& query) {
  if (query.window_begin >= query.window_end) {
    return Status::InvalidArgument("query window is empty");
  }
  const std::string shape = ShapeKey(query);
  AnswerDigest total;
  for (Timestamp epoch = spate::TruncateToEpoch(query.window_begin);
       epoch < query.window_end; epoch += spate::kEpochSeconds) {
    const auto it = parts_.find(epoch);
    if (it == parts_.end()) {
      return Status::NotFound("oracle: epoch " + spate::FormatCompact(epoch) +
                              " was never ingested");
    }
    ExplorationQuery part_query = query;
    part_query.window_begin = std::max(query.window_begin, epoch);
    part_query.window_end =
        std::min(query.window_end, epoch + spate::kEpochSeconds);
    const auto key = std::make_pair(
        epoch, shape + "|" + std::to_string(part_query.window_begin) + "-" +
                   std::to_string(part_query.window_end));
    auto memo = memo_.find(key);
    if (memo == memo_.end()) {
      SPATE_ASSIGN_OR_RETURN(spate::QueryResult r,
                             it->second->Execute(part_query));
      memo = memo_.emplace(key, DigestResult(r)).first;
    }
    total.Add(memo->second);
  }
  return total;
}

Result<uint64_t> PartitionedRaw::FullAnswerDigestOf(
    const ExplorationQuery& query) {
  SPATE_ASSIGN_OR_RETURN(AnswerDigest rows, AnswerDigestOf(query));
  spate::NodeSummary merged;
  for (Timestamp epoch = spate::TruncateToEpoch(query.window_begin);
       epoch < query.window_end; epoch += spate::kEpochSeconds) {
    auto it = summaries_.find(epoch);
    if (it == summaries_.end()) {
      SPATE_ASSIGN_OR_RETURN(
          spate::NodeSummary summary,
          parts_.at(epoch)->AggregateWindow(epoch,
                                            epoch + spate::kEpochSeconds));
      it = summaries_.emplace(epoch, std::move(summary)).first;
    }
    merged.Merge(it->second);
  }
  return DigestAnswer(rows, SummaryDigestOf(spate::RestrictSummaryToBox(
                                 merged, query, cells_)));
}

uint64_t RawAnswerDigest(const spate::QueryResult& raw_answer) {
  return DigestAnswer(DigestResult(raw_answer),
                      SummaryDigestOf(raw_answer.summary));
}

}  // namespace spatebench
