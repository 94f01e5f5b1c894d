#ifndef SPATEBENCH_BENCH_COMMON_H_
#define SPATEBENCH_BENCH_COMMON_H_

// Pieces shared by the three workloads: run options, the metric catalogs,
// seed-determined op plans, the SQL templates and answer verification.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/framework.h"
#include "digest.h"
#include "speed.h"
#include "stats.h"
#include "telco/generator.h"
#include "trace.h"

namespace spatebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
  std::string git_sha = "unknown";
};

/// name -> value; units come from the catalogs below.
using MetricValues = std::map<std::string, double>;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, in print order (BENCHMARK.json lists the same).
const std::vector<MetricSpec>& EndToEndCatalog();
/// Every per-layer metric, in print order.
const std::vector<MetricSpec>& PerLayerCatalog();

/// What one run prints: the verdict, op counts, metric values and the
/// provenance line.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricValues metrics;
  JsonObject provenance;
  /// Unscaled wall-clock values of the scaled timing metrics, and the
  /// run's median machine-speed factor (nominal / measured slice time).
  MetricValues raw;
  double speed_factor = 1;
  /// First few verification failures, printed to stderr.
  std::vector<std::string> errors;

  void Fail(const std::string& error);
};

/// The paper benches' trace shape, `spate::bench::BenchTrace()` (3000
/// users, 360 cells, cdr_base_rate 100, nms_per_cell 8; about 6.7 MB of
/// text per day, from Monday 2016-01-18), over `days` days, with the
/// generator seeded from the benchmark seed.
spate::TraceConfig BenchTraceConfig(uint64_t seed, int days);

/// Raw serialized-text bytes of a snapshot (the ingest MB/s numerator).
uint64_t RawBytes(const spate::Snapshot& snapshot);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// `n` values spread evenly over the integers [lo, hi]: value i is the
/// midpoint of the i-th of n equal strata. The op plans take window
/// lengths, positions and op order from fixed grids and let the seed pick
/// the trace, boxes, attributes and SQL literals, so every seed runs the
/// same work shape and the run-to-run spread is the program's and the
/// machine's, not the plan's.
std::vector<int> Spread(int n, int lo, int hi);

/// The i-th point of the golden-ratio sequence in [0, 1): evenly covering
/// and uncorrelated with the index order of `Spread`.
double GoldenPoint(int i);

/// The grid index the r-th op of `n` takes: r * stride mod n for a stride
/// near n / golden ratio that is coprime with n, a fixed permutation that
/// scatters neighbouring grid cells across the run.
int Scatter(int r, int n);

/// One benchmark operation.
enum class OpKind { kQuery, kSql, kTask, kIngest };

struct Op {
  OpKind kind = OpKind::kQuery;
  /// SQL template (0..kSqlTemplates-1) or task number (1..4).
  int variant = 0;
  /// Window, box and attributes (the window is also the SQL/task window).
  spate::ExplorationQuery query;
  /// Cell literal of the cell-filtered SQL template.
  std::string cell;
  /// Which client issues it (serve_hot) and, for ingest ops, which
  /// pre-generated snapshot it writes.
  int client = 0;
  int ingest_index = -1;
};

/// Shapes an op's query: with `box`, a box of 30% x 30% of the cell
/// extent (about 9% of the region) at a seeded position; `num_attributes`
/// (0-4) distinct named attributes, 0 meaning every attribute. `mix`
/// fixes which tables they come from, as that decides which tables a
/// projected scan can skip: 0 CDR only, 1 NMS only, 2 both.
void ShapeQuery(const spate::CellDirectory& cells, bool box,
                int num_attributes, int mix, spate::Rng& rng, Op* op);

inline constexpr int kSqlTemplates = 5;

/// SQL text of a template over [begin, end) with literals inline.
std::string SqlText(int variant, spate::Timestamp begin, spate::Timestamp end,
                    const std::string& cell);
/// Prepared-statement name and `?` text of a template, and its parameters.
std::string PreparedName(int variant);
std::string PreparedText(int variant);
std::vector<std::string> PreparedParams(int variant, spate::Timestamp begin,
                                        spate::Timestamp end,
                                        const std::string& cell);

/// Result of one op as observed by the client.
struct OpRecord {
  bool ok = false;
  /// Wall-clock latency, and the same scaled to nominal machine speed.
  double latency_ms = 0;
  double scaled_ms = 0;
  /// Steady-clock time halfway through the op.
  int64_t mid_ns = 0;
  uint64_t digest = 0;
  std::string error;
};

/// Sets every record's `scaled_ms` from its latency and the probe's factor
/// at the op's midpoint.
void ScaleLatencies(const SpeedProbe& probe, std::vector<OpRecord>* records);

class PartitionedRaw;

/// How an exploration answer is digested: rows only where a sharded gather
/// merges the summary (serve_hot), rows plus summary and highlights where a
/// single framework answers.
enum class QueryDigest { kRows, kWholeAnswer };

/// Expected digest of `op` from the oracles: the partitioned RAW framework
/// for exploration queries and T1-T4, the naive `ExecuteSql` over it for
/// SQL. Ingest ops have nothing to digest (0).
spate::Result<uint64_t> OracleDigest(const Op& op, QueryDigest query_digest,
                                     PartitionedRaw& raw);

/// `OracleDigest` of every op; an op the oracle cannot answer fails the run.
std::vector<uint64_t> ExpectedDigests(const std::vector<Op>& ops,
                                      QueryDigest query_digest,
                                      PartitionedRaw& raw, RunReport* report);

/// Compares every op's record with the oracle's digest; fills attempted,
/// failed and errors. An op counts as failed if its call failed or its
/// digest differs.
void VerifyOps(const std::vector<Op>& ops,
               const std::vector<OpRecord>& records,
               const std::vector<uint64_t>& expected, RunReport* report);

/// Number of records that succeeded with the expected digest.
uint64_t Verified(const std::vector<OpRecord>& records,
                  const std::vector<uint64_t>& expected);

/// Set-up time of a workload that builds its store several times: the
/// median over repetitions, scaled to nominal machine speed and unscaled.
struct SetupTimes {
  double scaled_s = 0;
  double raw_s = 0;
  /// The ingest intervals alone (the set-up build rate's denominator).
  double scaled_ingest_s = 0;
  double raw_ingest_s = 0;
};

class SetupTimer {
 public:
  explicit SetupTimer(int repetitions)
      : builds_(repetitions), ingests_(repetitions) {}

  /// Records a timed interval of repetition `rep`: constructing the store
  /// or server, or ingesting into it.
  void Build(int rep, int64_t start_ns, int64_t end_ns) {
    builds_[rep].push_back({start_ns, end_ns});
  }
  void Ingest(int rep, int64_t start_ns, int64_t end_ns) {
    ingests_[rep].push_back({start_ns, end_ns});
  }

  /// Medians over repetitions, each interval scaled by the probe's factor
  /// at its middle.
  SetupTimes Medians(const SpeedProbe& probe) const;

 private:
  std::vector<std::vector<SpeedProbe::Interval>> builds_;
  std::vector<std::vector<SpeedProbe::Interval>> ingests_;
};

/// p50_ms and tail_ms from the records' scaled latencies; the tail's
/// percentile, sample count and samples beyond, and the unscaled p50 and
/// tail, go into the provenance.
void AddLatencyMetrics(const std::vector<OpRecord>& records,
                       RunReport* report);

/// Takes the run's speed factor from the probe and records in the
/// provenance how many of its samples found the program busy.
void StampProbe(const SpeedProbe& probe, RunReport* report);

/// Records (or replaces) the unscaled value of a scaled end-to-end metric.
void AddRaw(const std::string& name, double value, RunReport* report);

/// Provenance common to every run: build type, compiler and flags, nproc,
/// git sha, workload, seed, seconds and op count.
void StampProvenance(const Options& options, uint64_t ops, RunReport* report);

/// part / whole, or 0 when there is no whole (a layer the workload skips).
inline double Share(double part, double whole) {
  return whole > 0 ? part / whole : 0;
}

/// Total ms of the spans named `name`, 0 if there are none.
double TotalMs(const std::map<std::string, LayerTime>& layers,
               const char* name);

/// The end every traced run shares: the trace.* goodputs and overhead, a
/// check that the layer replay read and decoded every leaf, each span
/// name's self time as `self.<name>_ms` per op, the per-layer timings at
/// nominal machine speed, and the spans written to `options.trace_out`.
void FinishTraced(const Options& options,
                  const std::vector<const SpanLog*>& logs,
                  const std::map<std::string, LayerTime>& layers, double ops,
                  double plain_goodput, double traced_goodput,
                  uint64_t replay_failures, RunReport* report);

}  // namespace spatebench

#endif  // SPATEBENCH_BENCH_COMMON_H_
