#include "digest.h"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace spatebench {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvString(uint64_t h, const std::string& s) {
  const uint64_t n = s.size();
  h = Fnv(h, &n, sizeof(n));
  return Fnv(h, s.data(), s.size());
}

uint64_t FnvU64(uint64_t h, uint64_t v) { return Fnv(h, &v, sizeof(v)); }

uint64_t FnvDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvU64(h, bits);
}

/// splitmix64 finalizer: spreads FNV's weak low bits before summing.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t HashFields(const std::vector<std::string>& fields) {
  uint64_t h = FnvU64(kFnvOffset, fields.size());
  for (const std::string& field : fields) h = FnvString(h, field);
  return Mix(h);
}

}  // namespace

void RowDigest::Add(const spate::Record& row) {
  ++rows;
  sum += HashFields(row);
}

uint64_t AnswerDigest::Value() const {
  uint64_t h = kFnvOffset;
  for (uint64_t v : {cdr.rows, cdr.sum, nms.rows, nms.sum}) h = FnvU64(h, v);
  return Mix(h);
}

AnswerDigest DigestRows(const std::vector<spate::Record>& cdr,
                        const std::vector<spate::Record>& nms) {
  AnswerDigest digest;
  for (const spate::Record& row : cdr) digest.cdr.Add(row);
  for (const spate::Record& row : nms) digest.nms.Add(row);
  return digest;
}

AnswerDigest DigestResult(const spate::QueryResult& result) {
  return DigestRows(result.cdr_rows, result.nms_rows);
}

uint64_t DigestSummary(const spate::NodeSummary& summary,
                       const std::vector<spate::Highlight>& highlights) {
  uint64_t h = FnvU64(kFnvOffset, summary.cdr_rows());
  h = FnvU64(h, summary.nms_rows());
  h = FnvU64(h, summary.per_cell().size());
  for (const auto& [cell, stats] : summary.per_cell()) {
    h = FnvString(h, cell);
    h = FnvU64(h, stats.cdr_rows);
    h = FnvU64(h, stats.nms_rows);
    h = FnvU64(h, stats.dropped_calls);
    for (const spate::MetricAggregate& metric : stats.metrics) {
      h = FnvU64(h, metric.count);
      h = FnvDouble(h, metric.min);
      h = FnvDouble(h, metric.max);
    }
  }
  for (const auto* counts :
       {&summary.call_type_counts(), &summary.result_counts()}) {
    h = FnvU64(h, counts->size());
    for (const auto& [value, count] : *counts) {
      h = FnvU64(FnvString(h, value), count);
    }
  }
  std::vector<std::tuple<std::string, std::string, std::string>> set;
  for (const spate::Highlight& highlight : highlights) {
    set.emplace_back(highlight.attribute, highlight.value, highlight.cell_id);
  }
  std::sort(set.begin(), set.end());
  h = FnvU64(h, set.size());
  for (const auto& [attribute, value, cell] : set) {
    h = FnvString(FnvString(FnvString(h, attribute), value), cell);
  }
  return Mix(h);
}

uint64_t DigestAnswer(const AnswerDigest& rows, uint64_t summary) {
  return Mix(FnvU64(FnvU64(kFnvOffset, rows.Value()), summary));
}

uint64_t DigestAnswer(const spate::QueryResult& result) {
  return DigestAnswer(DigestResult(result),
                      DigestSummary(result.summary, result.highlights));
}

uint64_t DigestSql(const spate::SqlResult& result) {
  RowDigest rows;
  for (const auto& row : result.rows) rows.Add(row);
  uint64_t h = HashFields(result.columns);
  h = FnvU64(h, rows.rows);
  h = FnvU64(h, rows.sum);
  return Mix(h);
}

uint64_t DigestFlux(const spate::FluxResult& result) {
  uint64_t h = FnvU64(kFnvOffset, result.flux.size());
  for (const auto& [up, down] : result.flux) {
    h = FnvU64(h, static_cast<uint64_t>(up));
    h = FnvU64(h, static_cast<uint64_t>(down));
  }
  h = FnvU64(h, result.total_upflux);
  h = FnvU64(h, result.total_downflux);
  return Mix(h);
}

uint64_t DigestDropRates(const spate::DropRateResult& result) {
  uint64_t h = FnvU64(kFnvOffset, result.drops_per_cell.size());
  for (const auto& [cell, drops] : result.drops_per_cell) {
    h = FnvDouble(FnvString(h, cell), drops);
  }
  h = FnvU64(h, result.drop_rate_per_cell.size());
  for (const auto& [cell, rate] : result.drop_rate_per_cell) {
    h = FnvDouble(FnvString(h, cell), rate);
  }
  return Mix(h);
}

uint64_t DigestMovers(const spate::MovedDevicesResult& result) {
  uint64_t h = FnvU64(kFnvOffset, result.devices_seen);
  h = FnvU64(h, result.devices_moved);
  for (const auto& [imei, cells] : result.top_movers) {
    h = FnvU64(FnvString(h, imei), static_cast<uint64_t>(cells));
  }
  return Mix(h);
}

}  // namespace spatebench
