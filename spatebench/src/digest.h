#ifndef SPATEBENCH_DIGEST_H_
#define SPATEBENCH_DIGEST_H_

// Answer digests: what the benchmark compares against the oracles. Row
// digests are order-insensitive multiset hashes (a sum of per-row hashes),
// so a sharded gather, which returns rows in shard order, digests the same
// as a single-node scan, and per-epoch digests add up to a window's digest.

#include <cstdint>
#include <string>
#include <vector>

#include "core/framework.h"
#include "query/tasks.h"
#include "sql/executor.h"

namespace spatebench {

/// Multiset digest of a row set: row count plus the wrapping sum of a
/// 64-bit hash of every row (field boundaries included).
struct RowDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;

  void Add(const spate::Record& row);
  void Add(const RowDigest& other) {
    rows += other.rows;
    sum += other.sum;
  }
  bool operator==(const RowDigest& other) const {
    return rows == other.rows && sum == other.sum;
  }
};

/// Digest of an exploration answer's CDR and NMS row multisets. On its own
/// it is the digest of a sharded gather's answer, whose merged summary
/// legitimately differs from a single scan's; `DigestAnswer` adds the
/// summary where no gather happens.
struct AnswerDigest {
  RowDigest cdr;
  RowDigest nms;

  void Add(const AnswerDigest& other) {
    cdr.Add(other.cdr);
    nms.Add(other.nms);
  }
  bool operator==(const AnswerDigest& other) const {
    return cdr == other.cdr && nms == other.nms;
  }
  uint64_t Value() const;
};

AnswerDigest DigestRows(const std::vector<spate::Record>& cdr,
                        const std::vector<spate::Record>& nms);
AnswerDigest DigestResult(const spate::QueryResult& result);

/// Digest of the parts of a summary and its highlights that no merge order
/// changes: the row counts, each cell's row and drop counts and each
/// metric's count, min and max, the categorical histograms, and the
/// (attribute, value, cell_id) set of the highlights.
uint64_t DigestSummary(const spate::NodeSummary& summary,
                       const std::vector<spate::Highlight>& highlights);

/// Whole-answer digest of an exploration answer from a single framework:
/// its rows plus `DigestSummary` of its summary and highlights.
uint64_t DigestAnswer(const AnswerDigest& rows, uint64_t summary);
uint64_t DigestAnswer(const spate::QueryResult& result);

/// SQL answer: ordered column names plus the row multiset.
uint64_t DigestSql(const spate::SqlResult& result);

/// T1/T2, T3 and T4 answers, every field that the task reports.
uint64_t DigestFlux(const spate::FluxResult& result);
uint64_t DigestDropRates(const spate::DropRateResult& result);
uint64_t DigestMovers(const spate::MovedDevicesResult& result);

}  // namespace spatebench

#endif  // SPATEBENCH_DIGEST_H_
