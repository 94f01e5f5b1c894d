// explore_cold: one closed-loop client over a 7-day row store (336 leaves,
// about 47 MB of decoded text) behind an 8 MiB fragment cache, so nearly
// every op pays the whole read path: DFS read + CRC, decompress, parse,
// filter/project, fold. Shared scans and admission are bypassed.

#include <algorithm>
#include <memory>

#include "core/spate_framework.h"
#include "oracle.h"
#include "query/tasks.h"
#include "replay.h"
#include "speed.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "telco/schema.h"
#include "workloads.h"

namespace spatebench {

namespace {

using spate::Timestamp;

constexpr int kDays = 7;
constexpr int kMaxWindowEpochs = 48;
/// Op rate the plan is sized by (ops per requested second), measured on a
/// 4-core x86 build machine; the op count, not the clock, ends a run.
constexpr double kNominalOpsPerSecond = 16;
constexpr size_t kFragmentCacheBytes = 8u << 20;
constexpr int kSetupRepetitions = 3;
/// A machine-speed sample every this many set-up ingests (outside timing).
constexpr int kProbeEvery = 8;

spate::SpateOptions StoreOptions() {
  spate::SpateOptions options;
  options.fragment_cache_bytes = kFragmentCacheBytes;
  return options;
}

/// The fixed op mix: 70% Q(a,b,w), 20% planned SQL, 10% T1-T4, interleaved
/// in proportion. Window lengths (1-48 epochs), start positions and order
/// come from fixed grids per kind; the seed picks boxes, attributes and SQL
/// cells (and the trace).
std::vector<Op> PlanOps(const Options& o, const spate::CellDirectory& cells,
                        const std::vector<spate::Record>& cell_rows,
                        const std::vector<Timestamp>& epochs) {
  spate::Rng rng(o.seed * 0x2545F4914F6CDD1Dull + 0xE7);
  const int n = std::max(20, static_cast<int>(o.seconds * kNominalOpsPerSecond));
  const int num_sql = n / 5;
  const int num_task = n / 10;
  const int num_query = n - num_sql - num_task;
  std::vector<std::pair<double, Op>> keyed;
  auto add = [&](OpKind kind, int count) {
    const std::vector<int> lengths = Spread(count, 1, kMaxWindowEpochs);
    for (int r = 0; r < count; ++r) {
      const int i = Scatter(r, count);
      Op op;
      op.kind = kind;
      int length = lengths[i];
      if (kind == OpKind::kTask) {
        op.variant = 1 + i % 4;
        if (op.variant == 1) length = 1;  // T1 reads one snapshot
      } else if (kind == OpKind::kSql) {
        op.variant = i % kSqlTemplates;
        op.cell = cell_rows[rng.Uniform(cell_rows.size())][spate::kCellId];
      } else {
        ShapeQuery(cells, i % 2 == 0, 1 + (i / 2) % 4, (i / 8) % 3, rng, &op);
      }
      const int slots = static_cast<int>(epochs.size()) - length + 1;
      const int start = static_cast<int>(
          GoldenPoint(i + 1000 * static_cast<int>(kind)) * slots);
      op.query.window_begin = epochs[start];
      op.query.window_end = epochs[start] + length * spate::kEpochSeconds;
      keyed.emplace_back((r + 0.5) / count, std::move(op));
    }
  };
  add(OpKind::kQuery, num_query);
  add(OpKind::kSql, num_sql);
  add(OpKind::kTask, num_task);
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Op> ops;
  for (auto& [key, op] : keyed) ops.push_back(std::move(op));
  return ops;
}

struct Pass {
  std::vector<OpRecord> records;
  SetupTimes setup;
  uint64_t raw_bytes = 0;
  uint64_t bytes_written = 0;
  uint64_t storage_bytes = 0;
  double op_seconds = 0;  // scaled; raw_op_seconds unscaled
  double raw_op_seconds = 0;
  double peak_rss_mb = 0;
  SpanLog log;
  // Program counters, taken around the program's calls only.
  spate::IoStats io;
  spate::ScanStats scan;  // summed over Q ops
  uint64_t rows = 0;
  spate::FragmentCacheStats fragments;  // delta over the op loop
  // Per-kind time sums (ns) and counts.
  int64_t execute_ns = 0, plan_ns = 0, exec_ns = 0, task_ns = 0;
  uint64_t queries = 0, sqls = 0, tasks = 0;
  uint64_t predicted_bytes = 0, actual_bytes = 0;
  ReplayTotals replay;
};

void AddIo(const spate::IoStats& before, const spate::IoStats& after,
           spate::IoStats* sum) {
  sum->bytes_read += after.bytes_read - before.bytes_read;
  sum->blocks_read += after.blocks_read - before.blocks_read;
  sum->simulated_read_seconds +=
      after.simulated_read_seconds - before.simulated_read_seconds;
}

std::unique_ptr<Pass> RunPass(const spate::TraceGenerator& gen,
                              const std::vector<Op>& ops, bool traced,
                              int setup_repetitions, SpeedProbe& probe,
                              RunReport* report) {
  auto pass = std::make_unique<Pass>();
  pass->log = SpanLog(traced);
  const std::vector<Timestamp> epochs = gen.EpochStarts();

  // Set-up: build the store `setup_repetitions` times (snapshot generation
  // untimed), keep the last, report the median scaled build time.
  std::unique_ptr<spate::SpateFramework> fw;
  SetupTimer setup(setup_repetitions);
  for (int rep = 0; rep < setup_repetitions; ++rep) {
    fw.reset();
    probe.Sample();
    int64_t t0 = NowNs();
    fw = std::make_unique<spate::SpateFramework>(StoreOptions(), gen.cells());
    setup.Build(rep, t0, NowNs());
    for (size_t e = 0; e < epochs.size(); ++e) {
      if (e % kProbeEvery == kProbeEvery - 1) probe.Sample();
      const spate::Snapshot snapshot = gen.GenerateSnapshot(epochs[e]);
      if (rep == 0) pass->raw_bytes += RawBytes(snapshot);
      t0 = NowNs();
      const spate::Status status = fw->Ingest(snapshot);
      setup.Ingest(rep, t0, NowNs());
      if (!status.ok()) report->Fail("setup ingest: " + status.ToString());
    }
  }
  probe.Sample();
  pass->setup = setup.Medians(probe);
  pass->bytes_written = fw->dfs().stats().bytes_written;
  pass->storage_bytes = fw->StorageBytes();

  const spate::FragmentCacheStats frag0 = fw->fragment_cache()->stats();
  SpanLog& log = pass->log;
  pass->records.resize(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    probe.Sample();
    const Op& op = ops[i];
    const spate::ExplorationQuery& q = op.query;
    OpRecord& rec = pass->records[i];
    const int64_t id = static_cast<int64_t>(i);
    ScopedSpan op_span(log, "op", id);
    const spate::IoStats io0 = fw->dfs().stats();
    const int64_t t0 = NowNs();
    spate::Status status;
    switch (op.kind) {
      case OpKind::kQuery: {
        spate::Result<spate::QueryResult> r = [&] {
          ScopedSpan span(log, "core.execute", id);
          return fw->Execute(q);
        }();
        const int64_t t1 = NowNs();
        pass->execute_ns += t1 - t0;
        ++pass->queries;
        status = r.status();
        if (r.ok()) {
          const spate::ScanStats& scan = fw->last_scan_stats();
          pass->scan.leaves_scanned += scan.leaves_scanned;
          pass->scan.leaves_skipped_spatial += scan.leaves_skipped_spatial;
          pass->scan.bytes_decoded += scan.bytes_decoded;
          pass->scan.fragment_hits += scan.fragment_hits;
          pass->scan.bytes_decoded_saved += scan.bytes_decoded_saved;
          pass->rows += r->cdr_rows.size() + r->nms_rows.size();
          rec.digest = DigestAnswer(*r);
        }
        break;
      }
      case OpKind::kSql: {
        spate::Result<spate::QueryPlan> plan = [&]() {
          ScopedSpan span(log, "sql.plan", id);
          spate::Result<spate::SelectStatement> statement = spate::ParseSql(
              SqlText(op.variant, q.window_begin, q.window_end, op.cell));
          if (!statement.ok()) {
            return spate::Result<spate::QueryPlan>(statement.status());
          }
          return spate::PlanSelect(*fw, *statement);
        }();
        const int64_t t1 = NowNs();
        pass->plan_ns += t1 - t0;
        if (!plan.ok()) {
          status = plan.status();
          break;
        }
        uint64_t actual = 0;
        spate::Result<spate::SqlResult> r = [&] {
          ScopedSpan span(log, "sql.exec", id);
          return spate::ExecutePlan(*fw, *plan, nullptr, &actual);
        }();
        pass->exec_ns += NowNs() - t1;
        ++pass->sqls;
        pass->predicted_bytes += plan->predicted_bytes;
        pass->actual_bytes += actual;
        status = r.status();
        if (r.ok()) rec.digest = DigestSql(*r);
        break;
      }
      case OpKind::kTask: {
        ScopedSpan span(log, "query.task", id);
        switch (op.variant) {
          case 1: {
            auto r = spate::TaskEquality(*fw, q.window_begin);
            status = r.status();
            if (r.ok()) rec.digest = DigestFlux(*r);
            break;
          }
          case 2: {
            auto r = spate::TaskRange(*fw, q.window_begin, q.window_end);
            status = r.status();
            if (r.ok()) rec.digest = DigestFlux(*r);
            break;
          }
          case 3: {
            auto r = spate::TaskAggregate(*fw, q.window_begin, q.window_end);
            status = r.status();
            if (r.ok()) rec.digest = DigestDropRates(*r);
            break;
          }
          default: {
            auto r = spate::TaskJoin(*fw, q.window_begin, q.window_end);
            status = r.status();
            if (r.ok()) rec.digest = DigestMovers(*r);
            break;
          }
        }
        pass->task_ns += NowNs() - t0;
        ++pass->tasks;
        break;
      }
      case OpKind::kIngest:
        break;
    }
    const int64_t t_end = NowNs();
    AddIo(io0, fw->dfs().stats(), &pass->io);
    rec.ok = status.ok();
    if (!rec.ok) rec.error = status.ToString();
    // Latency covers the public calls only, not digesting or replay.
    rec.latency_ms = static_cast<double>(t_end - t0) * 1e-6;
    rec.mid_ns = (t0 + t_end) / 2;
    if (traced && op.kind == OpKind::kQuery) {
      ReplayQuery(*fw, q, log, id, &pass->replay);
    }
  }
  probe.Sample();
  ScaleLatencies(probe, &pass->records);
  for (const OpRecord& rec : pass->records) {
    pass->op_seconds += rec.scaled_ms * 1e-3;
    pass->raw_op_seconds += rec.latency_ms * 1e-3;
  }
  pass->peak_rss_mb = PeakRssMb();
  const spate::FragmentCacheStats frag1 = fw->fragment_cache()->stats();
  pass->fragments.fragment_hits = frag1.fragment_hits - frag0.fragment_hits;
  pass->fragments.misses = frag1.misses - frag0.misses;
  pass->fragments.evictions = frag1.evictions - frag0.evictions;
  return pass;
}

}  // namespace

RunReport RunExploreCold(const Options& o) {
  RunReport report;
  const spate::TraceGenerator gen(BenchTraceConfig(o.seed, kDays));
  const std::vector<Timestamp> epochs = gen.EpochStarts();
  const spate::CellDirectory cells(gen.cells());
  const std::vector<Op> ops = PlanOps(o, cells, gen.cells(), epochs);
  StampProvenance(o, ops.size(), &report);

  const int reps = o.trace ? 1 : kSetupRepetitions;
  SpeedProbe probe;
  std::unique_ptr<Pass> plain = RunPass(gen, ops, false, reps, probe, &report);
  std::unique_ptr<Pass> traced;
  if (o.trace) traced = RunPass(gen, ops, true, reps, probe, &report);
  StampProbe(probe, &report);

  // Oracle answers, after every timed phase.
  PartitionedRaw raw(gen.cells());
  for (Timestamp epoch : epochs) {
    const spate::Status status = raw.Ingest(gen.GenerateSnapshot(epoch));
    if (!status.ok()) report.Fail("oracle ingest: " + status.ToString());
  }
  const std::vector<uint64_t> expected =
      ExpectedDigests(ops, QueryDigest::kWholeAnswer, raw, &report);
  VerifyOps(ops, plain->records, expected, &report);
  if (traced != nullptr) VerifyOps(ops, traced->records, expected, &report);

  const double n = static_cast<double>(ops.size());
  const double plain_goodput =
      static_cast<double>(Verified(plain->records, expected)) /
      plain->op_seconds;
  MetricValues& m = report.metrics;
  if (!o.trace) {
    const double verified = Verified(plain->records, expected);
    m["setup_s"] = plain->setup.scaled_s;
    AddRaw("setup_s", plain->setup.raw_s, &report);
    m["op_success_share"] = verified / n;
    m["goodput_ops_s"] = plain_goodput;
    AddRaw("goodput_ops_s", verified / plain->raw_op_seconds, &report);
    AddLatencyMetrics(plain->records, &report);
    const double mb = static_cast<double>(plain->raw_bytes) * 1e-6;
    m["ingest_mb_s"] = mb / plain->setup.scaled_ingest_s;
    AddRaw("ingest_mb_s", mb / plain->setup.raw_ingest_s, &report);
    m["peak_rss_mb"] = plain->peak_rss_mb;
    m["bytes_written_per_raw_byte"] =
        static_cast<double>(plain->bytes_written) / plain->raw_bytes;
    m["bytes_stored_per_raw_byte"] =
        static_cast<double>(plain->storage_bytes) / plain->raw_bytes;
    m["bytes_read_per_op"] = static_cast<double>(plain->io.bytes_read) / n;
    return report;
  }

  const Pass& t = *traced;
  const std::map<std::string, LayerTime> layers = SummarizeSpans({&t.log});
  const double q = static_cast<double>(t.queries);
  m["dfs.read_ms_per_op"] = Share(TotalMs(layers, "dfs.read"), q);
  m["dfs.blocks_read_per_op"] = static_cast<double>(t.io.blocks_read) / n;
  m["dfs.simulated_io_s_per_op"] = t.io.simulated_read_seconds / n;
  m["common.crc32_mb_s"] =
      Share(static_cast<double>(t.replay.bytes_read) * 1e-3,
            TotalMs(layers, "common.crc32"));
  m["compress.decode_mb_s"] =
      Share(static_cast<double>(t.replay.bytes_decoded) * 1e-3,
            TotalMs(layers, "compress.decode"));
  m["core.bytes_decoded_per_op"] = Share(t.scan.bytes_decoded, q);
  m["telco.parse_mb_s"] = Share(static_cast<double>(t.replay.bytes_parsed) * 1e-3,
                                TotalMs(layers, "telco.parse"));
  m["core.filter_ms_per_op"] = Share(TotalMs(layers, "core.filter"), q);
  const double execute_ms = static_cast<double>(t.execute_ns) * 1e-6;
  m["core.execute_ms"] = Share(execute_ms, q);
  m["core.execute_residual_ms"] =
      Share(execute_ms - (TotalMs(layers, "replay") -
                          TotalMs(layers, "common.crc32")),
            q);
  m["core.leaves_scanned_per_op"] = Share(t.scan.leaves_scanned, q);
  m["core.leaves_skipped_spatial_share"] =
      Share(t.scan.leaves_skipped_spatial,
            t.scan.leaves_scanned + t.scan.leaves_skipped_spatial);
  m["core.rows_returned_per_op"] = Share(t.rows, q);
  m["core.fragment_hit_share"] =
      Share(t.fragments.fragment_hits,
            t.fragments.fragment_hits + t.fragments.misses);
  m["core.fragment_evictions_per_op"] = t.fragments.evictions / n;
  m["core.fragment_bytes_saved_share"] =
      Share(t.scan.bytes_decoded_saved,
            t.scan.bytes_decoded_saved + t.scan.bytes_decoded);
  m["sql.plan_ms"] = Share(t.plan_ns * 1e-6, t.sqls);
  m["sql.exec_ms"] = Share(t.exec_ns * 1e-6, t.sqls);
  m["sql.predicted_over_actual_bytes"] =
      Share(t.predicted_bytes, t.actual_bytes);
  m["query.task_ms"] = Share(t.task_ns * 1e-6, t.tasks);
  FinishTraced(o, {&t.log}, layers, n, plain_goodput,
               static_cast<double>(Verified(t.records, expected)) /
                   t.op_seconds,
               t.replay.failures, &report);
  return report;
}

}  // namespace spatebench
