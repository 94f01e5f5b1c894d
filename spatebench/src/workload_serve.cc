// serve_hot: three closed-loop clients drive a QueryServer with 2 shards x
// 2 workers over a columnar store whose hot set (the last 12 h of three
// ingested days) fits the 64 MiB fragment caches. About 80% Query and 20%
// prepared QuerySql; client 0 replaces every 25th op with an Ingest of the
// next snapshot, so writes (RunExclusive drains, fragment-cache orphaning)
// sit beside reads. Rate limiting is off and request deadlines are 10 s,
// so no op changes code path on a scheduling hiccup. Exercises scheduler,
// fragment cache, result cache and scatter/gather; decode is mostly
// bypassed.

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "oracle.h"
#include "replay.h"
#include "speed.h"
#include "serve/server.h"
#include "telco/schema.h"
#include "workloads.h"

namespace spatebench {

namespace {

using spate::Timestamp;

constexpr int kSetupDays = 3;
constexpr int kClients = 3;
/// Ops per requested second across all clients, sized on a 4-core x86
/// build machine; the op count, not the clock, ends a run.
constexpr double kNominalOpsPerSecond = 240;
constexpr int kWriteEvery = 25;
constexpr int kMaxWindowEpochs = 8;
constexpr int kShapePool = 32;
constexpr int kHotEpochs = spate::kEpochsPerDay / 2;  // the last 12 h
constexpr double kRequestDeadlineSeconds = 10;
constexpr size_t kFragmentCacheBytes = 64u << 20;
constexpr int kSetupRepetitions = 3;
/// A machine-speed sample every this many set-up ingests.
constexpr int kProbeEvery = 6;
/// Traced runs replay every Nth query's leaves after the timed phase.
constexpr size_t kReplayEvery = 4;
/// The timed phase runs in blocks; between blocks every client waits while
/// the machine-speed probe samples on an otherwise idle process.
constexpr int kBlocks = 20;

spate::ServeOptions ServerOptions() {
  spate::ServeOptions options;
  options.num_shards = 2;
  options.shard.leaf_layout = spate::LeafLayout::kColumnar;
  options.shard.fragment_cache_bytes = kFragmentCacheBytes;
  options.quota.tokens_per_second = 0;  // no token bucket
  options.quota.max_in_flight = 0;      // no in-flight cap
  options.tuning.workers = 2;
  return options;
}

/// Per-client op lists. Windows are 1-8 epochs ending within the last 12 h
/// of what is certainly ingested when the op is issued: the set-up days for
/// clients 1 and 2, and additionally client 0's own earlier writes for
/// client 0, so every answer is deterministic.
std::vector<std::vector<Op>> PlanOps(const Options& o,
                                     const spate::CellDirectory& cells,
                                     const std::vector<spate::Record>& cell_rows,
                                     const std::vector<Timestamp>& epochs,
                                     int setup_epochs, int* writes) {
  spate::Rng rng(o.seed * 0x2545F4914F6CDD1Dull + 0x5E);
  const int per_client = std::max(
      kWriteEvery, static_cast<int>(o.seconds * kNominalOpsPerSecond) / kClients);
  std::vector<std::vector<Op>> plan(kClients);
  *writes = 0;
  // Query shapes repeat, as dashboard panels do. Every 8th query selects
  // every attribute over the whole region, so a cached wider answer can
  // serve it; the rest draw from a per-seed pool of projected shapes
  // (half boxed, 1-4 attributes), large enough that no single seed-drawn
  // shape weighs on the totals.
  std::vector<Op> shapes_pool(kShapePool);
  for (int k = 0; k < kShapePool; ++k) {
    ShapeQuery(cells, k % 2 == 0, 1 + (k / 2) % 4, (k / 8) % 3, rng,
               &shapes_pool[k]);
  }
  for (int c = 0; c < kClients; ++c) {
    // Fixed (length, offset, kind) grid per client, in a fixed order.
    struct Shape {
      int length;
      int offset;
      bool sql;
      int variant;
    };
    std::vector<Shape> shapes;
    const std::vector<int> lengths = Spread(per_client, 1, kMaxWindowEpochs);
    for (int r = 0; r < per_client; ++r) {
      // Each client walks the grid from its own third.
      const int i = Scatter((r + c * per_client / kClients) % per_client,
                            per_client);
      shapes.push_back({lengths[i],
                        static_cast<int>(GoldenPoint(i) * kHotEpochs),
                        i % 5 == 4,  // 1 in 5 SQL
                        (i / 5) % kSqlTemplates});
    }
    int own_writes = 0;
    for (int i = 0; i < per_client; ++i) {
      Op op;
      op.client = c;
      if (c == 0 && i % kWriteEvery == kWriteEvery / 2) {
        op.kind = OpKind::kIngest;
        op.ingest_index = own_writes++;
        plan[c].push_back(std::move(op));
        continue;
      }
      const Shape& shape = shapes[i];
      const int anchor = setup_epochs + (c == 0 ? own_writes : 0);
      const int end = anchor - shape.offset;
      const int begin = std::max(0, end - shape.length);
      op.query.window_begin = epochs[begin];
      op.query.window_end = epochs[end - 1] + spate::kEpochSeconds;
      if (shape.sql) {
        op.kind = OpKind::kSql;
        op.variant = shape.variant;
        op.cell = cell_rows[rng.Uniform(cell_rows.size())][spate::kCellId];
      } else if (i % 8 != 0) {
        const Op& shape_op = shapes_pool[(i / 8 * 7 + i % 8) % kShapePool];
        op.query.has_box = shape_op.query.has_box;
        op.query.box = shape_op.query.box;
        op.query.attributes = shape_op.query.attributes;
      }
      plan[c].push_back(std::move(op));
    }
    if (c == 0) *writes = own_writes;
  }
  return plan;
}

struct ShardTotals {
  spate::IoStats io;
  uint64_t cache_hits = 0, cache_misses = 0;
  spate::ScanSchedulerStats scheduler;
  spate::FragmentCacheStats fragments;
  uint64_t bytes_written = 0;
  uint64_t storage = 0;
};

ShardTotals Totals(spate::QueryServer& server) {
  ShardTotals t;
  const spate::ServerStats stats = server.Stats();
  for (size_t i = 0; i < server.num_shards(); ++i) {
    spate::SpateFramework& fw = server.shard(i).framework();
    const spate::IoStats io = fw.dfs().stats();
    t.io.bytes_read += io.bytes_read;
    t.io.blocks_read += io.blocks_read;
    t.io.simulated_read_seconds += io.simulated_read_seconds;
    t.bytes_written += io.bytes_written;
    t.storage += fw.StorageBytes();
    const spate::ShardStats& s = stats.shards[i];
    t.cache_hits += s.cache.hits;
    t.cache_misses += s.cache.misses;
    t.scheduler.passes_started += s.scheduler.passes_started;
    t.scheduler.shared_pass_joins += s.scheduler.shared_pass_joins;
    t.scheduler.mid_pass_attaches += s.scheduler.mid_pass_attaches;
    t.scheduler.waiters_detached += s.scheduler.waiters_detached;
    t.scheduler.bytes_decoded += s.scheduler.bytes_decoded;
    t.fragments.fragment_hits += s.fragments.fragment_hits;
    t.fragments.misses += s.fragments.misses;
    t.fragments.evictions += s.fragments.evictions;
    t.fragments.bytes_decoded_saved += s.fragments.bytes_decoded_saved;
  }
  return t;
}

struct ClientStats {
  std::vector<OpRecord> records;
  SpanLog log;
  uint64_t queries = 0, sqls = 0, ingests = 0;
  int64_t query_ns = 0, sql_ns = 0, ingest_ns = 0;
  uint64_t degraded = 0, shed = 0, retries = 0, rows = 0;
};

/// The block op i of a client's n ops runs in.
int BlockOf(size_t i, size_t n) {
  return static_cast<int>(i * kBlocks / n);
}

/// Block barrier: clients run block b once the main thread releases it and
/// report back when done.
struct BlockGate {
  std::mutex mu;
  std::condition_variable cv;
  int released = -1;
  int done = 0;
};

struct Pass {
  SetupTimes setup;
  uint64_t raw_bytes = 0;
  uint64_t bytes_written = 0;
  uint64_t storage_bytes = 0;
  /// Wall seconds and machine-speed factor of each block.
  std::vector<double> block_seconds;
  std::vector<double> block_factor;
  double peak_rss_mb = 0;
  std::vector<ClientStats> clients;
  ShardTotals before, after;
  SpanLog replay_log;
  ReplayTotals replay;
  uint64_t replayed = 0;
};

void RunOp(spate::QueryServer& server, const Op& op, size_t i,
           const std::vector<spate::Snapshot>& writes, ClientStats* out) {
  SpanLog& log = out->log;
  OpRecord& rec = out->records[i];
  // Span op ids are unique across clients: client * 1e6 + index.
  const int64_t id = op.client * 1000000 + static_cast<int64_t>(i);
  ScopedSpan op_span(log, "op", id);
  const int64_t t0 = NowNs();
  switch (op.kind) {
    case OpKind::kQuery: {
      spate::ServeRequest request;
      request.query = op.query;
      request.deadline_seconds = kRequestDeadlineSeconds;
      spate::ServeResponse response = [&] {
        ScopedSpan span(log, "serve.query", id);
        return server.Query(request);
      }();
      out->query_ns += NowNs() - t0;
      ++out->queries;
      out->degraded += response.outcome == spate::ServeOutcome::kDegraded;
      out->shed += response.outcome == spate::ServeOutcome::kShed;
      out->retries += response.retries;
      rec.ok = response.outcome == spate::ServeOutcome::kOk;
      if (rec.ok) {
        out->rows +=
            response.result.cdr_rows.size() + response.result.nms_rows.size();
        rec.digest = DigestResult(response.result).Value();
      } else {
        rec.error = std::string(spate::ServeOutcomeName(response.outcome)) +
                    ": " + response.status.ToString();
      }
      break;
    }
    case OpKind::kSql: {
      spate::SqlServeRequest request;
      request.prepared = PreparedName(op.variant);
      request.params = PreparedParams(op.variant, op.query.window_begin,
                                      op.query.window_end, op.cell);
      request.deadline_seconds = kRequestDeadlineSeconds;
      spate::SqlServeResponse response = [&] {
        ScopedSpan span(log, "serve.sql", id);
        return server.QuerySql(request);
      }();
      out->sql_ns += NowNs() - t0;
      ++out->sqls;
      out->degraded += response.outcome == spate::ServeOutcome::kDegraded;
      out->shed += response.outcome == spate::ServeOutcome::kShed;
      out->retries += response.retries;
      rec.ok = response.outcome == spate::ServeOutcome::kOk;
      if (rec.ok) {
        rec.digest = DigestSql(response.result);
      } else {
        rec.error = std::string(spate::ServeOutcomeName(response.outcome)) +
                    ": " + response.status.ToString();
      }
      break;
    }
    case OpKind::kIngest: {
      spate::Status status;
      {
        ScopedSpan span(log, "serve.ingest", id);
        status = server.Ingest(writes[op.ingest_index]);
      }
      out->ingest_ns += NowNs() - t0;
      ++out->ingests;
      rec.ok = status.ok();
      if (!rec.ok) rec.error = status.ToString();
      break;
    }
    case OpKind::kTask:
      break;
  }
  const int64_t t_end = NowNs();
  rec.latency_ms = static_cast<double>(t_end - t0) * 1e-6;
  rec.mid_ns = (t0 + t_end) / 2;
}

void RunClient(spate::QueryServer& server, const std::vector<Op>& ops,
               const std::vector<spate::Snapshot>& writes, BlockGate* gate,
               ClientStats* out) {
  out->records.resize(ops.size());
  for (int block = 0; block < kBlocks; ++block) {
    {
      std::unique_lock<std::mutex> lock(gate->mu);
      gate->cv.wait(lock, [&] { return gate->released >= block; });
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      if (BlockOf(i, ops.size()) == block) RunOp(server, ops[i], i, writes, out);
    }
    std::lock_guard<std::mutex> lock(gate->mu);
    ++gate->done;
    gate->cv.notify_all();
  }
}

std::unique_ptr<Pass> RunPass(const spate::TraceGenerator& gen,
                              const std::vector<Timestamp>& epochs,
                              int setup_epochs,
                              const std::vector<std::vector<Op>>& plan,
                              const std::vector<spate::Snapshot>& writes,
                              bool traced, int setup_repetitions,
                              SpeedProbe& probe, RunReport* report) {
  auto pass = std::make_unique<Pass>();
  const spate::ServeOptions options = ServerOptions();

  std::unique_ptr<spate::QueryServer> server;
  SetupTimer setup(setup_repetitions);
  for (int rep = 0; rep < setup_repetitions; ++rep) {
    server.reset();
    probe.Sample();
    int64_t t0 = NowNs();
    server = std::make_unique<spate::QueryServer>(options, gen.cells());
    for (int v = 0; v < kSqlTemplates; ++v) {
      const spate::Status status =
          server->PrepareSql(PreparedName(v), PreparedText(v));
      if (!status.ok()) report->Fail("prepare: " + status.ToString());
    }
    setup.Build(rep, t0, NowNs());
    for (int e = 0; e < setup_epochs; ++e) {
      if (e % kProbeEvery == kProbeEvery - 1) probe.Sample();
      const spate::Snapshot snapshot = gen.GenerateSnapshot(epochs[e]);
      if (rep == 0) pass->raw_bytes += RawBytes(snapshot);
      t0 = NowNs();
      const spate::Status status = server->Ingest(snapshot);
      setup.Ingest(rep, t0, NowNs());
      if (!status.ok()) report->Fail("setup ingest: " + status.ToString());
    }
  }
  probe.Sample();
  pass->setup = setup.Medians(probe);
  pass->before = Totals(*server);
  pass->bytes_written = pass->before.bytes_written;
  pass->storage_bytes = pass->before.storage;

  pass->clients.resize(kClients);
  for (ClientStats& client : pass->clients) client.log = SpanLog(traced);
  BlockGate gate;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      RunClient(*server, plan[c], writes, &gate, &pass->clients[c]);
    });
  }
  // The probe samples between blocks, with every client parked; a block's
  // factor comes from the samples on either side of it.
  std::vector<double> boundary;
  for (int block = 0; block < kBlocks; ++block) {
    boundary.push_back(probe.Sample());
    const int64_t start = NowNs();
    std::unique_lock<std::mutex> lock(gate.mu);
    gate.done = 0;
    gate.released = block;
    gate.cv.notify_all();
    gate.cv.wait(lock, [&] { return gate.done == kClients; });
    pass->block_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  boundary.push_back(probe.Sample());
  for (std::thread& thread : threads) thread.join();
  for (int block = 0; block < kBlocks; ++block) {
    pass->block_factor.push_back(SpeedProbe::kNominalSliceNs * 2 /
                                 (boundary[block] + boundary[block + 1]));
  }
  for (int c = 0; c < kClients; ++c) {
    std::vector<OpRecord>& records = pass->clients[c].records;
    for (size_t i = 0; i < records.size(); ++i) {
      records[i].scaled_ms =
          records[i].latency_ms * pass->block_factor[BlockOf(i, records.size())];
    }
  }
  pass->peak_rss_mb = PeakRssMb();
  pass->after = Totals(*server);

  if (traced) {
    // Layer replay on the now quiescent shards, for every Nth query.
    pass->replay_log = SpanLog(true);
    size_t seen = 0;
    for (int c = 0; c < kClients; ++c) {
      for (size_t i = 0; i < plan[c].size(); ++i) {
        if (plan[c][i].kind != OpKind::kQuery || seen++ % kReplayEvery != 0) {
          continue;
        }
        const int64_t id = c * 1000000 + static_cast<int64_t>(i);
        for (size_t s = 0; s < server->num_shards(); ++s) {
          ReplayQuery(server->shard(s).framework(), plan[c][i].query,
                      pass->replay_log, id, &pass->replay);
        }
        ++pass->replayed;
      }
    }
  }
  return pass;
}

}  // namespace

RunReport RunServeHot(const Options& o) {
  RunReport report;
  const int setup_epochs = kSetupDays * spate::kEpochsPerDay;
  const spate::TraceGenerator gen(BenchTraceConfig(o.seed, kSetupDays + 2));
  const std::vector<Timestamp> epochs = gen.EpochStarts();
  const spate::CellDirectory cells(gen.cells());
  int num_writes = 0;
  const std::vector<std::vector<Op>> plan =
      PlanOps(o, cells, gen.cells(), epochs, setup_epochs, &num_writes);
  std::vector<Op> ops;  // flattened, client-major
  for (const auto& client_ops : plan) {
    ops.insert(ops.end(), client_ops.begin(), client_ops.end());
  }
  StampProvenance(o, ops.size(), &report);
  report.provenance.Int("clients", kClients).Int("writes", num_writes);

  // The snapshots client 0 writes, generated before any timed phase.
  std::vector<spate::Snapshot> writes;
  for (int k = 0; k < num_writes; ++k) {
    writes.push_back(gen.GenerateSnapshot(epochs[setup_epochs + k]));
  }

  const int reps = o.trace ? 1 : kSetupRepetitions;
  // Clients and workers keep every core busy: sample on each core.
  SpeedProbe probe(static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u)));
  std::unique_ptr<Pass> plain = RunPass(gen, epochs, setup_epochs, plan,
                                        writes, false, reps, probe, &report);
  std::unique_ptr<Pass> traced;
  if (o.trace) {
    traced = RunPass(gen, epochs, setup_epochs, plan, writes, true, reps,
                     probe, &report);
  }
  StampProbe(probe, &report);

  // Oracle answers over every epoch an op may see.
  PartitionedRaw raw(gen.cells());
  for (int e = 0; e < setup_epochs; ++e) {
    const spate::Status status = raw.Ingest(gen.GenerateSnapshot(epochs[e]));
    if (!status.ok()) report.Fail("oracle ingest: " + status.ToString());
  }
  for (const spate::Snapshot& snapshot : writes) {
    const spate::Status status = raw.Ingest(snapshot);
    if (!status.ok()) report.Fail("oracle ingest: " + status.ToString());
  }
  // Rows only: the gather merges shard summaries in shard order, so their
  // float sums legitimately differ from a single scan's.
  const std::vector<uint64_t> expected =
      ExpectedDigests(ops, QueryDigest::kRows, raw, &report);

  // Goodput counts verified ops that also met the server's own default
  // deadline (250 ms).
  const double limit_ms = ServerOptions().default_deadline_seconds * 1e3;
  auto flatten = [](const Pass& pass) {
    std::vector<OpRecord> records;
    for (const ClientStats& client : pass.clients) {
      records.insert(records.end(), client.records.begin(),
                     client.records.end());
    }
    return records;
  };
  // Goodput: the median over blocks of the block's verified ops that met
  // the limit, per (scaled or wall) block second.
  auto goodput = [&](const Pass& pass, bool scaled) {
    std::vector<double> good(kBlocks, 0);
    size_t offset = 0;
    for (const ClientStats& client : pass.clients) {
      const std::vector<OpRecord>& records = client.records;
      for (size_t i = 0; i < records.size(); ++i) {
        const OpRecord& rec = records[i];
        good[BlockOf(i, records.size())] +=
            rec.ok && rec.digest == expected[offset + i] &&
            (scaled ? rec.scaled_ms : rec.latency_ms) <= limit_ms;
      }
      offset += records.size();
    }
    std::vector<double> rates;
    for (int b = 0; b < kBlocks; ++b) {
      rates.push_back(good[b] / (pass.block_seconds[b] *
                                 (scaled ? pass.block_factor[b] : 1.0)));
    }
    return Median(rates);
  };
  // p50: likewise the median over blocks of each block's median latency,
  // so a few seconds of host trouble move one block, not the run.
  auto block_p50 = [&](const Pass& pass, bool scaled) {
    std::vector<std::vector<double>> latencies(kBlocks);
    for (const ClientStats& client : pass.clients) {
      const std::vector<OpRecord>& records = client.records;
      for (size_t i = 0; i < records.size(); ++i) {
        latencies[BlockOf(i, records.size())].push_back(
            scaled ? records[i].scaled_ms : records[i].latency_ms);
      }
    }
    std::vector<double> medians;
    for (const std::vector<double>& block : latencies) {
      medians.push_back(Median(block));
    }
    return Median(medians);
  };
  const std::vector<OpRecord> plain_records = flatten(*plain);
  VerifyOps(ops, plain_records, expected, &report);
  std::vector<OpRecord> traced_records;
  if (traced != nullptr) {
    traced_records = flatten(*traced);
    VerifyOps(ops, traced_records, expected, &report);
  }

  const double n = static_cast<double>(ops.size());
  const double plain_goodput = goodput(*plain, true);
  MetricValues& m = report.metrics;
  if (!o.trace) {
    m["setup_s"] = plain->setup.scaled_s;
    AddRaw("setup_s", plain->setup.raw_s, &report);
    m["op_success_share"] =
        static_cast<double>(Verified(plain_records, expected)) / n;
    m["goodput_ops_s"] = plain_goodput;
    AddRaw("goodput_ops_s", goodput(*plain, false), &report);
    AddLatencyMetrics(plain_records, &report);
    m["p50_ms"] = block_p50(*plain, true);
    AddRaw("p50_ms", block_p50(*plain, false), &report);
    const double mb = static_cast<double>(plain->raw_bytes) * 1e-6;
    m["ingest_mb_s"] = mb / plain->setup.scaled_ingest_s;
    AddRaw("ingest_mb_s", mb / plain->setup.raw_ingest_s, &report);
    m["peak_rss_mb"] = plain->peak_rss_mb;
    m["bytes_written_per_raw_byte"] =
        static_cast<double>(plain->bytes_written) / plain->raw_bytes;
    m["bytes_stored_per_raw_byte"] =
        static_cast<double>(plain->storage_bytes) / plain->raw_bytes;
    m["bytes_read_per_op"] =
        static_cast<double>(plain->after.io.bytes_read -
                            plain->before.io.bytes_read) /
        n;
    return report;
  }

  const Pass& t = *traced;
  std::vector<const SpanLog*> logs;
  ClientStats sum;
  for (const ClientStats& client : t.clients) {
    logs.push_back(&client.log);
    sum.queries += client.queries;
    sum.sqls += client.sqls;
    sum.ingests += client.ingests;
    sum.query_ns += client.query_ns;
    sum.sql_ns += client.sql_ns;
    sum.ingest_ns += client.ingest_ns;
    sum.degraded += client.degraded;
    sum.shed += client.shed;
    sum.retries += client.retries;
    sum.rows += client.rows;
  }
  logs.push_back(&t.replay_log);
  const std::map<std::string, LayerTime> layers = SummarizeSpans(logs);
  const double reads = static_cast<double>(sum.queries + sum.sqls);
  const ShardTotals& b = t.before;
  const ShardTotals& a = t.after;
  const double decoded =
      static_cast<double>(a.scheduler.bytes_decoded - b.scheduler.bytes_decoded);
  const double replayed = static_cast<double>(t.replayed);
  m["dfs.read_ms_per_op"] = Share(TotalMs(layers, "dfs.read"), replayed);
  m["dfs.blocks_read_per_op"] =
      static_cast<double>(a.io.blocks_read - b.io.blocks_read) / n;
  m["dfs.simulated_io_s_per_op"] =
      (a.io.simulated_read_seconds - b.io.simulated_read_seconds) / n;
  m["common.crc32_mb_s"] =
      Share(t.replay.bytes_read * 1e-3, TotalMs(layers, "common.crc32"));
  m["compress.decode_mb_s"] =
      Share(t.replay.bytes_decoded * 1e-3, TotalMs(layers, "compress.decode"));
  m["telco.parse_mb_s"] =
      Share(t.replay.bytes_parsed * 1e-3, TotalMs(layers, "telco.parse"));
  m["core.filter_ms_per_op"] = Share(TotalMs(layers, "core.filter"), replayed);
  m["core.bytes_decoded_per_op"] = Share(decoded, reads);
  m["core.rows_returned_per_op"] = Share(sum.rows, sum.queries);
  const double hits =
      static_cast<double>(a.fragments.fragment_hits - b.fragments.fragment_hits);
  const double misses = static_cast<double>(a.fragments.misses - b.fragments.misses);
  m["core.fragment_hit_share"] = Share(hits, hits + misses);
  m["core.fragment_evictions_per_op"] =
      static_cast<double>(a.fragments.evictions - b.fragments.evictions) / n;
  const double saved = static_cast<double>(a.fragments.bytes_decoded_saved -
                                           b.fragments.bytes_decoded_saved);
  m["core.fragment_bytes_saved_share"] = Share(saved, saved + decoded);
  m["serve.query_ms"] = Share(sum.query_ns * 1e-6, sum.queries);
  m["serve.sql_ms"] = Share(sum.sql_ns * 1e-6, sum.sqls);
  m["serve.ingest_ms"] = Share(sum.ingest_ns * 1e-6, sum.ingests);
  m["serve.degraded_share"] = Share(sum.degraded, reads);
  m["serve.shed_share"] = Share(sum.shed, reads);
  m["serve.retries_per_op"] = Share(sum.retries, reads);
  const double passes =
      static_cast<double>(a.scheduler.passes_started - b.scheduler.passes_started);
  const double joins = static_cast<double>(a.scheduler.shared_pass_joins -
                                           b.scheduler.shared_pass_joins);
  m["query.scheduler.join_share"] = Share(joins, passes + joins);
  m["query.scheduler.passes_per_query"] = Share(passes, reads);
  m["query.scheduler.bytes_decoded_per_query"] = Share(decoded, reads);
  m["query.scheduler.waiters_detached"] = static_cast<double>(
      a.scheduler.waiters_detached - b.scheduler.waiters_detached);
  const double cache_hits = static_cast<double>(a.cache_hits - b.cache_hits);
  const double cache_misses =
      static_cast<double>(a.cache_misses - b.cache_misses);
  m["query.result_cache.hit_share"] =
      Share(cache_hits, cache_hits + cache_misses);
  FinishTraced(o, logs, layers, n, plain_goodput, goodput(t, true),
               t.replay.failures, &report);
  return report;
}

}  // namespace spatebench
