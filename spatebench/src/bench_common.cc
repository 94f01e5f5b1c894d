#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string_view>
#include <thread>

#include "bench/bench_util.h"
#include "oracle.h"
#include "query/tasks.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "telco/schema.h"

#ifndef SPATEBENCH_BUILD_TYPE
#define SPATEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SPATEBENCH_COMPILER
#define SPATEBENCH_COMPILER "unknown"
#endif
#ifndef SPATEBENCH_FLAGS
#define SPATEBENCH_FLAGS ""
#endif

namespace spatebench {

using spate::Timestamp;

const std::vector<MetricSpec>& EndToEndCatalog() {
  static const std::vector<MetricSpec> kCatalog = {
      {"setup_s", "s"},
      {"op_success_share", "share"},
      {"goodput_ops_s", "ops/s"},
      {"p50_ms", "ms"},
      {"tail_ms", "ms"},
      {"ingest_mb_s", "MB/s"},
      {"peak_rss_mb", "MB"},
      {"bytes_written_per_raw_byte", "ratio"},
      {"bytes_stored_per_raw_byte", "ratio"},
      {"bytes_read_per_op", "B/op"},
  };
  return kCatalog;
}

namespace {

/// Span names the workloads record; each gets a `self.<name>_ms` metric.
const char* const kSpanNames[] = {
    "op",           "core.execute",  "sql.plan",
    "sql.exec",     "query.task",    "core.ingest",
    "index.decay",  "serve.query",   "serve.sql",
    "serve.ingest", "replay",        "index.leaves_in_window",
    "dfs.read",     "common.crc32",  "compress.decode",
    "telco.parse",  "core.filter",   "telco.serialize",
    "compress.encode", "dfs.write",
};

std::string SelfMetricName(const std::string& span) {
  return "self." + span + "_ms";
}

}  // namespace

const std::vector<MetricSpec>& PerLayerCatalog() {
  static const std::vector<MetricSpec>* const kCatalog = [] {
    auto* catalog = new std::vector<MetricSpec>{
        // Read path (replayed per leaf on the traced run).
        {"dfs.read_ms_per_op", "ms"},
        {"dfs.blocks_read_per_op", "count"},
        {"dfs.simulated_io_s_per_op", "s"},
        {"common.crc32_mb_s", "MB/s"},
        {"compress.decode_mb_s", "MB/s"},
        {"core.bytes_decoded_per_op", "B/op"},
        {"telco.parse_mb_s", "MB/s"},
        {"core.filter_ms_per_op", "ms"},
        {"core.execute_residual_ms", "ms"},
        {"core.execute_ms", "ms"},
        {"core.leaves_scanned_per_op", "count"},
        {"core.leaves_skipped_spatial_share", "share"},
        {"core.rows_returned_per_op", "count"},
        {"core.fragment_hit_share", "share"},
        {"core.fragment_evictions_per_op", "count"},
        {"core.fragment_bytes_saved_share", "share"},
        // SQL and tasks.
        {"sql.plan_ms", "ms"},
        {"sql.exec_ms", "ms"},
        {"sql.predicted_over_actual_bytes", "ratio"},
        {"query.task_ms", "ms"},
        // Write path.
        {"core.ingest_ms", "ms"},
        {"core.ingest_compress_ms", "ms"},
        {"index.ingest_index_ms", "ms"},
        {"telco.serialize_mb_s", "MB/s"},
        {"compress.encode_mb_s", "MB/s"},
        {"compress.ratio", "ratio"},
        {"dfs.write_ms_per_op", "ms"},
        {"dfs.blocks_written_per_op", "count"},
        {"index.decay_ms", "ms"},
        {"index.leaves_evicted_per_op", "count"},
        // Serving tier.
        {"serve.query_ms", "ms"},
        {"serve.sql_ms", "ms"},
        {"serve.ingest_ms", "ms"},
        {"serve.degraded_share", "share"},
        {"serve.shed_share", "share"},
        {"serve.retries_per_op", "count"},
        {"query.scheduler.join_share", "share"},
        {"query.scheduler.passes_per_query", "count"},
        {"query.scheduler.bytes_decoded_per_query", "B/op"},
        {"query.scheduler.waiters_detached", "count"},
        {"query.result_cache.hit_share", "share"},
        // Tracing itself.
        {"trace.goodput_ops_s", "ops/s"},
        {"trace.untraced_goodput_ops_s", "ops/s"},
        {"trace.overhead_share", "share"},
    };
    static std::vector<std::string> self_names;
    for (const char* span : kSpanNames) {
      self_names.push_back(SelfMetricName(span));
    }
    for (const std::string& name : self_names) {
      catalog->push_back({name.c_str(), "ms"});
    }
    return catalog;
  }();
  return *kCatalog;
}

void RunReport::Fail(const std::string& error) {
  correct = false;
  if (errors.size() < 8) errors.push_back(error);
}

spate::TraceConfig BenchTraceConfig(uint64_t seed, int days) {
  spate::TraceConfig config = spate::bench::BenchTrace();
  config.seed = 0x5EA7BE5Cull ^ (seed * 0x9e3779b97f4a7c15ull);
  config.days = days;
  return config;
}

uint64_t RawBytes(const spate::Snapshot& snapshot) {
  return spate::SerializeSnapshot(snapshot).size();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<int> Spread(int n, int lo, int hi) {
  std::vector<int> out;
  out.reserve(n);
  const double span = static_cast<double>(hi - lo + 1);
  for (int i = 0; i < n; ++i) {
    const double u = (i + 0.5) / n;
    out.push_back(std::min(hi, lo + static_cast<int>(std::floor(u * span))));
  }
  return out;
}

double GoldenPoint(int i) {
  constexpr double kInverseGolden = 0.6180339887498949;
  const double x = 0.5 + i * kInverseGolden;
  return x - std::floor(x);
}

int Scatter(int r, int n) {
  if (n <= 1) return 0;
  int stride = std::max(1, static_cast<int>(n * 0.6180339887498949));
  while (std::gcd(stride, n) != 1) ++stride;
  return static_cast<int>((static_cast<int64_t>(r) * stride) % n);
}

void ShapeQuery(const spate::CellDirectory& cells, bool box,
                int num_attributes, int mix, spate::Rng& rng, Op* op) {
  if (box) {
    const spate::BoundingBox& extent = cells.extent();
    const double w = 0.3 * extent.width();
    const double h = 0.3 * (extent.max_y - extent.min_y);
    const double x = extent.min_x + rng.NextDouble() * (extent.width() - w);
    const double y =
        extent.min_y + rng.NextDouble() * (extent.max_y - extent.min_y - h);
    op->query.has_box = true;
    op->query.box = spate::BoundingBox{x, y, x + w, y + h};
  }
  static const char* const kCdrNamed[] = {
      "caller_id", "callee_id", "call_type", "duration",
      "upflux",    "downflux",  "result",    "imei"};
  static const char* const kNmsNamed[] = {
      "drop_calls", "call_attempts", "avg_duration",
      "throughput", "rssi",          "handover_fails"};
  auto draw = [&rng](auto& names, int count, std::vector<std::string>* out) {
    std::vector<std::string> pool(std::begin(names), std::end(names));
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.Uniform(i)]);
    }
    out->insert(out->end(), pool.begin(), pool.begin() + count);
  };
  std::vector<std::string> pool;
  const int cdr = mix == 0 ? num_attributes
                           : (mix == 1 ? 0 : (num_attributes + 1) / 2);
  draw(kCdrNamed, cdr, &pool);
  draw(kNmsNamed, num_attributes - cdr, &pool);
  std::sort(pool.begin(), pool.end());
  op->query.attributes = pool;
}

namespace {

std::string Window(Timestamp begin, Timestamp end) {
  return "ts >= '" + spate::FormatCompact(begin) + "' AND ts < '" +
         spate::FormatCompact(end) + "'";
}

const char* const kPreparedText[kSqlTemplates] = {
    "SELECT caller_id, duration FROM CDR WHERE ts >= ? AND ts < ?",
    "SELECT cell_id, COUNT(*), SUM(duration) FROM CDR WHERE ts >= ? AND "
    "ts < ? GROUP BY cell_id",
    "SELECT cell_id, drop_calls, call_attempts FROM NMS WHERE ts >= ? AND "
    "ts < ? AND cell_id = ?",
    "SELECT COUNT(*), SUM(upflux), MAX(downflux) FROM CDR WHERE ts >= ? AND "
    "ts < ?",
    "SELECT cell_id, SUM(drop_calls), SUM(call_attempts) FROM NMS WHERE "
    "ts >= ? AND ts < ? GROUP BY cell_id",
};

}  // namespace

std::string SqlText(int variant, Timestamp begin, Timestamp end,
                    const std::string& cell) {
  const std::string w = Window(begin, end);
  switch (variant) {
    case 0:
      return "SELECT caller_id, duration FROM CDR WHERE " + w;
    case 1:
      return "SELECT cell_id, COUNT(*), SUM(duration) FROM CDR WHERE " + w +
             " GROUP BY cell_id";
    case 2:
      return "SELECT cell_id, drop_calls, call_attempts FROM NMS WHERE " + w +
             " AND cell_id = '" + cell + "'";
    case 3:
      return "SELECT COUNT(*), SUM(upflux), MAX(downflux) FROM CDR WHERE " + w;
    default:
      return "SELECT cell_id, SUM(drop_calls), SUM(call_attempts) FROM NMS "
             "WHERE " +
             w + " GROUP BY cell_id";
  }
}

std::string PreparedName(int variant) {
  return "bench_sql_" + std::to_string(variant);
}

std::string PreparedText(int variant) { return kPreparedText[variant]; }

std::vector<std::string> PreparedParams(int variant, Timestamp begin,
                                        Timestamp end,
                                        const std::string& cell) {
  std::vector<std::string> params = {spate::FormatCompact(begin),
                                     spate::FormatCompact(end)};
  if (variant == 2) params.push_back(cell);
  return params;
}

spate::Result<uint64_t> OracleDigest(const Op& op, QueryDigest query_digest,
                                     PartitionedRaw& raw) {
  const spate::ExplorationQuery& q = op.query;
  switch (op.kind) {
    case OpKind::kIngest:
      return uint64_t{0};
    case OpKind::kQuery: {
      if (query_digest == QueryDigest::kWholeAnswer) {
        return raw.FullAnswerDigestOf(q);
      }
      SPATE_ASSIGN_OR_RETURN(AnswerDigest d, raw.AnswerDigestOf(q));
      return d.Value();
    }
    case OpKind::kSql: {
      SPATE_ASSIGN_OR_RETURN(
          spate::SqlResult r,
          spate::ExecuteSql(raw, SqlText(op.variant, q.window_begin,
                                         q.window_end, op.cell)));
      return DigestSql(r);
    }
    case OpKind::kTask:
      switch (op.variant) {
        case 1: {
          SPATE_ASSIGN_OR_RETURN(auto r,
                                 spate::TaskEquality(raw, q.window_begin));
          return DigestFlux(r);
        }
        case 2: {
          SPATE_ASSIGN_OR_RETURN(
              auto r, spate::TaskRange(raw, q.window_begin, q.window_end));
          return DigestFlux(r);
        }
        case 3: {
          SPATE_ASSIGN_OR_RETURN(
              auto r, spate::TaskAggregate(raw, q.window_begin, q.window_end));
          return DigestDropRates(r);
        }
        default: {
          SPATE_ASSIGN_OR_RETURN(
              auto r, spate::TaskJoin(raw, q.window_begin, q.window_end));
          return DigestMovers(r);
        }
      }
  }
  return spate::Status::Internal("unknown op kind");
}

std::vector<uint64_t> ExpectedDigests(const std::vector<Op>& ops,
                                      QueryDigest query_digest,
                                      PartitionedRaw& raw, RunReport* report) {
  std::vector<uint64_t> expected(ops.size(), 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    spate::Result<uint64_t> digest = OracleDigest(ops[i], query_digest, raw);
    if (digest.ok()) {
      expected[i] = *digest;
    } else {
      report->Fail("oracle op " + std::to_string(i) + ": " +
                   digest.status().ToString());
    }
  }
  return expected;
}

void VerifyOps(const std::vector<Op>& ops,
               const std::vector<OpRecord>& records,
               const std::vector<uint64_t>& expected, RunReport* report) {
  for (size_t i = 0; i < ops.size(); ++i) {
    ++report->attempted;
    const OpRecord& rec = records[i];
    if (!rec.ok) {
      ++report->failed;
      report->Fail("op " + std::to_string(i) + " failed: " + rec.error);
    } else if (rec.digest != expected[i]) {
      ++report->failed;
      report->Fail("op " + std::to_string(i) + " (kind " +
                   std::to_string(static_cast<int>(ops[i].kind)) +
                   ", variant " + std::to_string(ops[i].variant) +
                   ") answer differs from the oracle");
    }
  }
}

uint64_t Verified(const std::vector<OpRecord>& records,
                  const std::vector<uint64_t>& expected) {
  uint64_t n = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    n += records[i].ok && records[i].digest == expected[i];
  }
  return n;
}

SetupTimes SetupTimer::Medians(const SpeedProbe& probe) const {
  std::vector<double> scaled, raw, scaled_ingest, raw_ingest;
  for (size_t rep = 0; rep < builds_.size(); ++rep) {
    scaled_ingest.push_back(probe.ScaledSeconds(ingests_[rep]));
    raw_ingest.push_back(SpeedProbe::RawSeconds(ingests_[rep]));
    scaled.push_back(probe.ScaledSeconds(builds_[rep]) + scaled_ingest.back());
    raw.push_back(SpeedProbe::RawSeconds(builds_[rep]) + raw_ingest.back());
  }
  SetupTimes times;
  times.scaled_s = Median(scaled);
  times.raw_s = Median(raw);
  times.scaled_ingest_s = Median(scaled_ingest);
  times.raw_ingest_s = Median(raw_ingest);
  return times;
}

void ScaleLatencies(const SpeedProbe& probe, std::vector<OpRecord>* records) {
  for (OpRecord& rec : *records) {
    rec.scaled_ms = rec.latency_ms * probe.FactorAt(rec.mid_ns);
  }
}

void AddLatencyMetrics(const std::vector<OpRecord>& records,
                       RunReport* report) {
  std::vector<double> scaled, raw;
  for (const OpRecord& rec : records) {
    scaled.push_back(rec.scaled_ms);
    raw.push_back(rec.latency_ms);
  }
  const Tail tail = TailOf(scaled);
  report->metrics["p50_ms"] = Median(scaled);
  report->metrics["tail_ms"] = tail.value;
  JsonObject t;
  t.Num("percentile", tail.percentile)
      .Int("samples", static_cast<long long>(tail.samples))
      .Int("beyond", static_cast<long long>(tail.beyond));
  report->provenance.Obj("tail_ms", t);
  AddRaw("p50_ms", Median(raw), report);
  AddRaw("tail_ms", TailOf(raw).value, report);
}

void StampProbe(const SpeedProbe& probe, RunReport* report) {
  report->speed_factor = probe.MedianFactor();
  JsonObject p;
  p.Int("samples", static_cast<long long>(probe.samples()))
      .Int("busy_samples", probe.busy_samples())
      .Num("max_foreign_cpu_share", probe.max_foreign_cpu_share());
  report->provenance.Obj("speed_probe", p);
}

void AddRaw(const std::string& name, double value, RunReport* report) {
  report->raw[name] = value;
}

void StampProvenance(const Options& options, uint64_t ops, RunReport* report) {
  report->provenance.Str("build_type", SPATEBENCH_BUILD_TYPE)
      .Str("compiler", SPATEBENCH_COMPILER)
      .Str("flags", SPATEBENCH_FLAGS)
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("git_sha", options.git_sha)
      .Str("workload", options.workload)
      .Int("seed", static_cast<long long>(options.seed))
      .Num("seconds", options.seconds)
      .Int("ops", static_cast<long long>(ops))
      .Bool("traced", options.trace);
}

namespace {

/// Expresses the per-layer timings of a traced run at nominal machine
/// speed, like the end-to-end ones: "ms" values times `factor`, "MB/s"
/// values divided by it.
void ScaleLayerTimes(double factor, MetricValues* metrics) {
  for (const MetricSpec& spec : PerLayerCatalog()) {
    const auto it = metrics->find(spec.name);
    if (it == metrics->end()) continue;
    if (std::string_view(spec.unit) == "ms") it->second *= factor;
    if (std::string_view(spec.unit) == "MB/s") it->second /= factor;
  }
}

}  // namespace

double TotalMs(const std::map<std::string, LayerTime>& layers,
               const char* name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0
                            : static_cast<double>(it->second.total_ns) * 1e-6;
}

void FinishTraced(const Options& options,
                  const std::vector<const SpanLog*>& logs,
                  const std::map<std::string, LayerTime>& layers, double ops,
                  double plain_goodput, double traced_goodput,
                  uint64_t replay_failures, RunReport* report) {
  MetricValues& m = report->metrics;
  m["trace.goodput_ops_s"] = traced_goodput;
  m["trace.untraced_goodput_ops_s"] = plain_goodput;
  m["trace.overhead_share"] = 1 - Share(traced_goodput, plain_goodput);
  if (replay_failures > 0) {
    report->Fail(std::to_string(replay_failures) +
                 " leaves failed to read or decode in the layer replay");
  }
  if (ops > 0) {
    for (const auto& [name, layer] : layers) {
      m[SelfMetricName(name)] = static_cast<double>(layer.self_ns) * 1e-6 / ops;
    }
  }
  ScaleLayerTimes(report->speed_factor, &m);
  if (!options.trace_out.empty() && !WriteSpans(logs, options.trace_out)) {
    report->Fail("cannot write spans to " + options.trace_out);
  }
}

}  // namespace spatebench
