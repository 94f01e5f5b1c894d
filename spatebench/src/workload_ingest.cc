// ingest: one writer streams a BenchTrace-shaped trace into a default
// SpateFramework (row layout, deflate, serial) with a short decay policy,
// calling RunDecay after every Ingest exactly as auto_decay would, so leaf
// eviction and day-summary pruning run in steady state for most of the
// stream. This is the paper's storage-and-decay path: the write side of
// telco/compress/dfs/index; decode, scheduler and serving are bypassed.

#include <memory>

#include "baseline/raw_framework.h"
#include "common/crc32.h"
#include "compress/chunked.h"
#include "compress/codec.h"
#include "core/spate_framework.h"
#include "oracle.h"
#include "speed.h"
#include "workloads.h"

namespace spatebench {

namespace {

using spate::Timestamp;

/// Ops (snapshot ingests) per requested second, sized on a 4-core x86
/// build machine; the op count, not the clock, ends a run.
constexpr double kNominalOpsPerSecond = 120;
/// The first day is set-up: the store is built and warmed before decay
/// starts evicting.
constexpr int kWarmupEpochs = spate::kEpochsPerDay;
constexpr int kSetupRepetitions = 3;
/// A machine-speed sample every this many ingests (outside timing).
constexpr int kProbeEvery = 4;

spate::SpateOptions StoreOptions() {
  spate::SpateOptions options;
  options.auto_decay = false;
  options.decay.full_resolution_seconds = 2 * 86400;
  options.decay.day_resolution_seconds = 6 * 86400;
  return options;
}

struct Pass {
  std::vector<OpRecord> records;
  std::vector<uint64_t> expected;
  SetupTimes setup;
  uint64_t raw_bytes = 0;        // stream only
  uint64_t total_raw_bytes = 0;  // warm-up + stream
  uint64_t storage_bytes = 0;
  double op_seconds = 0;  // scaled; raw_op_seconds unscaled
  double raw_op_seconds = 0;
  double peak_rss_mb = 0;
  spate::IoStats writes;  // around Ingest + RunDecay
  uint64_t bytes_read_back = 0;
  int64_t ingest_ns = 0, decay_ns = 0;
  double compress_seconds = 0, index_seconds = 0;
  uint64_t evicted = 0;
  // Write-path replay totals.
  uint64_t replay_text = 0, replay_blob = 0;
  uint32_t crc_sink = 0;
  SpanLog log;
};

/// The freshly written snapshot read back through Execute, outside every
/// timed region, and RAW's answer for the same epoch.
void ReadBack(spate::SpateFramework& fw, const spate::Snapshot& snapshot,
              const std::vector<spate::Record>& cell_rows, OpRecord* rec,
              uint64_t* expected, uint64_t* bytes_read, uint64_t* raw_bytes) {
  spate::ExplorationQuery q;
  q.window_begin = snapshot.epoch_start;
  q.window_end = snapshot.epoch_start + spate::kEpochSeconds;
  const uint64_t before = fw.dfs().stats().bytes_read;
  spate::Result<spate::QueryResult> r = fw.Execute(q);
  *bytes_read += fw.dfs().stats().bytes_read - before;
  if (!r.ok()) {
    rec->ok = false;
    rec->error = "read-back: " + r.status().ToString();
    return;
  }
  rec->digest = DigestAnswer(*r);
  spate::DfsOptions one_replica;
  one_replica.replication = 1;
  spate::RawFramework raw(one_replica, cell_rows);
  const spate::Status ingested = raw.Ingest(snapshot);
  *raw_bytes += raw.last_ingest_stats().stored_bytes;
  spate::Result<spate::QueryResult> oracle =
      ingested.ok() ? raw.Execute(q) : spate::Result<spate::QueryResult>(ingested);
  *expected = oracle.ok() ? RawAnswerDigest(*oracle) : ~rec->digest;
}

std::unique_ptr<Pass> RunPass(const spate::TraceGenerator& gen,
                              const std::vector<Timestamp>& epochs,
                              bool traced, int setup_repetitions,
                              SpeedProbe& probe, RunReport* report) {
  auto pass = std::make_unique<Pass>();
  pass->log = SpanLog(traced);
  SpanLog& log = pass->log;
  const spate::SpateOptions options = StoreOptions();

  std::unique_ptr<spate::SpateFramework> fw;
  SetupTimer setup(setup_repetitions);
  for (int rep = 0; rep < setup_repetitions; ++rep) {
    fw.reset();
    probe.Sample();
    int64_t t0 = NowNs();
    fw = std::make_unique<spate::SpateFramework>(options, gen.cells());
    setup.Build(rep, t0, NowNs());
    for (int i = 0; i < kWarmupEpochs; ++i) {
      if (i % kProbeEvery == kProbeEvery - 1) probe.Sample();
      const spate::Snapshot snapshot = gen.GenerateSnapshot(epochs[i]);
      if (rep == 0) pass->total_raw_bytes += RawBytes(snapshot);
      t0 = NowNs();
      const spate::Status status = fw->Ingest(snapshot);
      fw->RunDecay(epochs[i] + spate::kEpochSeconds);
      setup.Ingest(rep, t0, NowNs());
      if (!status.ok()) report->Fail("warm-up ingest: " + status.ToString());
    }
  }
  probe.Sample();
  pass->setup = setup.Medians(probe);

  // Scratch DFS for the write-path replay, with the store's DfsOptions.
  spate::DistributedFileSystem scratch(options.dfs);
  const spate::Codec* codec = spate::CodecRegistry::Get(options.codec);

  const size_t n = epochs.size() - kWarmupEpochs;
  pass->records.resize(n);
  pass->expected.resize(n);
  probe.Sample();
  for (size_t j = 0; j < n; ++j) {
    if (j % kProbeEvery == kProbeEvery - 1) probe.Sample();
    const Timestamp epoch = epochs[kWarmupEpochs + j];
    const spate::Snapshot snapshot = gen.GenerateSnapshot(epoch);
    const int64_t id = static_cast<int64_t>(j);
    OpRecord& rec = pass->records[j];
    const spate::IoStats io0 = fw->dfs().stats();
    spate::Status status;
    int64_t t0 = 0, t1 = 0, t2 = 0;
    {
      ScopedSpan op_span(log, "op", id);
      t0 = NowNs();
      {
        ScopedSpan span(log, "core.ingest", id);
        status = fw->Ingest(snapshot);
      }
      t1 = NowNs();
      {
        ScopedSpan span(log, "index.decay", id);
        pass->evicted += fw->RunDecay(epoch + spate::kEpochSeconds);
      }
      t2 = NowNs();
      if (traced) {
        ScopedSpan replay(log, "replay", id);
        std::string text;
        {
          ScopedSpan span(log, "telco.serialize", id);
          text = spate::SerializeSnapshot(snapshot);
        }
        std::string blob;
        {
          ScopedSpan span(log, "compress.encode", id);
          const spate::Status encoded = spate::ChunkedCompress(
              *codec, text, options.parallelism.ingest_chunk_bytes, nullptr,
              &blob);
          if (status.ok()) status = encoded;
        }
        {
          ScopedSpan span(log, "common.crc32", id);
          pass->crc_sink ^= spate::Crc32(blob);
        }
        {
          ScopedSpan span(log, "dfs.write", id);
          const spate::Status written = scratch.WriteFile("/replay/leaf", blob);
          if (status.ok()) status = written;
        }
        (void)scratch.DeleteFile("/replay/leaf");
        pass->replay_text += text.size();
        pass->replay_blob += blob.size();
      }
    }
    const spate::IoStats io1 = fw->dfs().stats();
    pass->writes.bytes_written += io1.bytes_written - io0.bytes_written;
    pass->writes.blocks_written += io1.blocks_written - io0.blocks_written;
    pass->ingest_ns += t1 - t0;
    pass->decay_ns += t2 - t1;
    const spate::IngestStats& stats = fw->last_ingest_stats();
    pass->compress_seconds += stats.compress_seconds;
    pass->index_seconds += stats.index_seconds;
    rec.latency_ms = static_cast<double>(t2 - t0) * 1e-6;
    rec.mid_ns = (t0 + t2) / 2;
    rec.ok = status.ok();
    if (!rec.ok) {
      rec.error = status.ToString();
      continue;
    }
    ReadBack(*fw, snapshot, gen.cells(), &rec, &pass->expected[j],
             &pass->bytes_read_back, &pass->raw_bytes);
  }
  probe.Sample();
  ScaleLatencies(probe, &pass->records);
  for (const OpRecord& rec : pass->records) {
    pass->op_seconds += rec.scaled_ms * 1e-3;
    pass->raw_op_seconds += rec.latency_ms * 1e-3;
  }
  pass->peak_rss_mb = PeakRssMb();
  pass->total_raw_bytes += pass->raw_bytes;
  pass->storage_bytes = fw->StorageBytes();

  // Decay must have kept only the full-resolution horizon resident.
  const Timestamp now = epochs.back() + spate::kEpochSeconds;
  const std::vector<const spate::LeafNode*> resident =
      fw->index().LeavesInWindow(epochs.front(), now);
  if (resident.empty() ||
      resident.front()->epoch_start <
          now - options.decay.full_resolution_seconds - spate::kEpochSeconds) {
    report->Fail("decay left leaves older than the full-resolution horizon");
  }
  return pass;
}

}  // namespace

RunReport RunIngest(const Options& o) {
  RunReport report;
  const int ops =
      std::max(48, static_cast<int>(o.seconds * kNominalOpsPerSecond));
  const int total = kWarmupEpochs + ops;
  const spate::TraceGenerator gen(
      BenchTraceConfig(o.seed, total / spate::kEpochsPerDay + 1));
  std::vector<Timestamp> epochs = gen.EpochStarts();
  epochs.resize(total);
  StampProvenance(o, ops, &report);

  const int reps = o.trace ? 1 : kSetupRepetitions;
  SpeedProbe probe;
  std::unique_ptr<Pass> plain =
      RunPass(gen, epochs, false, reps, probe, &report);
  std::unique_ptr<Pass> traced;
  if (o.trace) traced = RunPass(gen, epochs, true, reps, probe, &report);
  StampProbe(probe, &report);

  const std::vector<Op> op_list(ops);  // ingest ops carry no query
  VerifyOps(op_list, plain->records, plain->expected, &report);
  if (traced != nullptr) {
    VerifyOps(op_list, traced->records, traced->expected, &report);
  }

  const double n = static_cast<double>(ops);
  const double plain_goodput =
      static_cast<double>(Verified(plain->records, plain->expected)) /
      plain->op_seconds;
  MetricValues& m = report.metrics;
  if (!o.trace) {
    const double verified = Verified(plain->records, plain->expected);
    const double mb = static_cast<double>(plain->raw_bytes) * 1e-6;
    m["setup_s"] = plain->setup.scaled_s;
    AddRaw("setup_s", plain->setup.raw_s, &report);
    m["op_success_share"] = verified / n;
    m["goodput_ops_s"] = plain_goodput;
    AddRaw("goodput_ops_s", verified / plain->raw_op_seconds, &report);
    AddLatencyMetrics(plain->records, &report);
    m["ingest_mb_s"] = mb / plain->op_seconds;
    AddRaw("ingest_mb_s", mb / plain->raw_op_seconds, &report);
    m["peak_rss_mb"] = plain->peak_rss_mb;
    m["bytes_written_per_raw_byte"] =
        static_cast<double>(plain->writes.bytes_written) / plain->raw_bytes;
    m["bytes_stored_per_raw_byte"] =
        static_cast<double>(plain->storage_bytes) / plain->total_raw_bytes;
    m["bytes_read_per_op"] = static_cast<double>(plain->bytes_read_back) / n;
    return report;
  }

  const Pass& t = *traced;
  const std::map<std::string, LayerTime> layers = SummarizeSpans({&t.log});
  m["core.ingest_ms"] = t.ingest_ns * 1e-6 / n;
  m["core.ingest_compress_ms"] = t.compress_seconds * 1e3 / n;
  m["index.ingest_index_ms"] = t.index_seconds * 1e3 / n;
  m["telco.serialize_mb_s"] =
      Share(t.replay_text * 1e-3, TotalMs(layers, "telco.serialize"));
  m["compress.encode_mb_s"] =
      Share(t.replay_text * 1e-3, TotalMs(layers, "compress.encode"));
  m["compress.ratio"] = Share(t.replay_text, t.replay_blob);
  m["common.crc32_mb_s"] =
      Share(t.replay_blob * 1e-3, TotalMs(layers, "common.crc32"));
  m["dfs.write_ms_per_op"] = TotalMs(layers, "dfs.write") / n;
  m["dfs.blocks_written_per_op"] = t.writes.blocks_written / n;
  m["index.decay_ms"] = t.decay_ns * 1e-6 / n;
  m["index.leaves_evicted_per_op"] = t.evicted / n;
  FinishTraced(o, {&t.log}, layers, n, plain_goodput,
               static_cast<double>(Verified(t.records, t.expected)) /
                   t.op_seconds,
               0, &report);
  return report;
}

}  // namespace spatebench
