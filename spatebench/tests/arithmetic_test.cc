// Tests of the benchmark's own arithmetic: the tail-percentile rule, the
// median, span self time and answer digests (rows, summary, highlights).
// The steadiness report's quartiles are Python's and are tested in
// test_benchmark_json.py.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "baseline/raw_framework.h"
#include "bench_common.h"
#include "core/spate_framework.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"

namespace spatebench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailRule, PicksHighestPercentileWithTenSamplesBeyond) {
  // 150 samples: p95 leaves 7 beyond, p90 leaves 15.
  Tail tail = TailOf(OneTo(150));
  EXPECT_EQ(tail.percentile, 90);
  EXPECT_EQ(tail.beyond, 15u);
  EXPECT_EQ(tail.samples, 150u);
  EXPECT_EQ(tail.value, 135);

  // Exactly 10 beyond qualifies.
  tail = TailOf(OneTo(1000));
  EXPECT_EQ(tail.percentile, 99);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.value, 990);

  // 9 beyond does not.
  tail = TailOf(OneTo(999));
  EXPECT_EQ(tail.percentile, 95);
  EXPECT_EQ(tail.beyond, 49u);
}

TEST(TailRule, InputOrderDoesNotMatter) {
  std::vector<double> v = OneTo(200);
  std::reverse(v.begin(), v.end());
  const Tail tail = TailOf(v);
  EXPECT_EQ(tail.percentile, 95);
  EXPECT_EQ(tail.value, 190);
}

TEST(TailRule, TinyRunsFallBackToTheMedian) {
  const Tail tail = TailOf(OneTo(9));
  EXPECT_EQ(tail.percentile, 50);
  EXPECT_EQ(tail.value, 5);
  EXPECT_EQ(tail.beyond, 4u);
  EXPECT_EQ(TailOf({}).samples, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

Span MakeSpan(int64_t start, int64_t end, int parent) {
  Span span;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(SelfTime, SubtractsTheUnionOfNestedAndOverlappingChildren) {
  const std::vector<Span> spans = {
      MakeSpan(0, 100, -1),   // 0: root
      MakeSpan(10, 30, 0),    // 1: child
      MakeSpan(20, 50, 0),    // 2: child overlapping 1
      MakeSpan(90, 120, 0),   // 3: child running past its parent
      MakeSpan(15, 20, 1),    // 4: grandchild inside 1
      MakeSpan(60, 60, 0),    // 5: empty child
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  // Root: 100 minus [10,50] (40) minus [90,100] (10).
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 15);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
  EXPECT_EQ(self[5], 0);
}

TEST(SelfTime, ScopedSpansRecordParentsAndDisabledLogsNothing) {
  SpanLog log(true);
  {
    ScopedSpan outer(log, "outer", 7);
    { ScopedSpan inner(log, "inner", 7); }
    { ScopedSpan second(log, "second", 7); }
  }
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, 0);
  EXPECT_EQ(log.spans()[1].op, 7);
  const auto layers = SummarizeSpans({&log});
  EXPECT_LE(layers.at("outer").self_ns, layers.at("outer").total_ns);

  SpanLog off(false);
  { ScopedSpan span(off, "x", 1); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Digest, RowsAreAMultiset) {
  const std::vector<spate::Record> rows = {{"a", "1"}, {"b", "2"}, {"c", ""}};
  std::vector<spate::Record> reversed(rows.rbegin(), rows.rend());
  EXPECT_EQ(DigestRows(rows, {}), DigestRows(reversed, {}));
  // Field boundaries count: {"ab", ""} is not {"a", "b"}.
  EXPECT_FALSE(DigestRows({{"ab", ""}}, {}) == DigestRows({{"a", "b"}}, {}));
  // The table a row came from counts.
  EXPECT_FALSE(DigestRows(rows, {}) == DigestRows({}, rows));
  // Per-part digests add up to the whole.
  AnswerDigest parts = DigestRows({rows[0]}, {});
  parts.Add(DigestRows({rows[1], rows[2]}, {}));
  EXPECT_EQ(parts, DigestRows(rows, {}));

  spate::SqlResult sql;
  sql.columns = {"x", "y"};
  sql.rows = {{"1", "2"}, {"3", "4"}};
  spate::SqlResult swapped = sql;
  std::swap(swapped.rows[0], swapped.rows[1]);
  EXPECT_EQ(DigestSql(sql), DigestSql(swapped));
  swapped.columns = {"y", "x"};
  EXPECT_NE(DigestSql(sql), DigestSql(swapped));
}

TEST(Digest, StableAcrossRowAndColumnarLayoutsAndTheOracle) {
  spate::TraceConfig config = BenchTraceConfig(5, 1);
  config.num_users = 300;
  config.num_cells = 40;
  config.num_antennas = 12;
  const spate::TraceGenerator gen(config);
  spate::SpateOptions row_options;
  spate::SpateOptions columnar_options;
  columnar_options.leaf_layout = spate::LeafLayout::kColumnar;
  spate::SpateFramework row(row_options, gen.cells());
  spate::SpateFramework columnar(columnar_options, gen.cells());
  spate::RawFramework raw(spate::DfsOptions{}, gen.cells());
  PartitionedRaw partitioned(gen.cells());
  // Six daytime epochs (09:00-12:00), when every cell is busy.
  const std::vector<spate::Timestamp> all = gen.EpochStarts();
  const std::vector<spate::Timestamp> epochs(all.begin() + 18,
                                             all.begin() + 24);
  for (spate::Timestamp epoch : epochs) {
    const spate::Snapshot snapshot = gen.GenerateSnapshot(epoch);
    ASSERT_TRUE(row.Ingest(snapshot).ok());
    ASSERT_TRUE(columnar.Ingest(snapshot).ok());
    ASSERT_TRUE(raw.Ingest(snapshot).ok());
    ASSERT_TRUE(partitioned.Ingest(snapshot).ok());
  }
  const spate::CellDirectory cells(gen.cells());
  spate::Rng rng(9);
  for (int i = 0; i < 8; ++i) {
    Op op;
    ShapeQuery(cells, i % 2 == 0, i % 5, i % 3, rng, &op);
    op.query.window_begin = epochs[i % 3];
    op.query.window_end = epochs[3 + i % 3] + spate::kEpochSeconds;
    SCOPED_TRACE(i);
    auto a = row.Execute(op.query);
    auto b = columnar.Execute(op.query);
    auto c = raw.Execute(op.query);
    auto d = partitioned.AnswerDigestOf(op.query);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
    if (!op.query.has_box) {
      EXPECT_GT(a->cdr_rows.size() + a->nms_rows.size(), 0u);
    }
    EXPECT_EQ(DigestResult(*a), DigestResult(*b));
    EXPECT_EQ(DigestResult(*a), DigestResult(*c));
    EXPECT_EQ(DigestResult(*a), *d);
    // The memoized second lookup agrees with the first.
    EXPECT_EQ(*partitioned.AnswerDigestOf(op.query), *d);
    // Whole answers, summary and highlights included, agree too.
    auto e = partitioned.FullAnswerDigestOf(op.query);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(DigestAnswer(*a), DigestAnswer(*b));
    EXPECT_EQ(DigestAnswer(*a), RawAnswerDigest(*c));
    EXPECT_EQ(DigestAnswer(*a), *e);
    EXPECT_EQ(*partitioned.FullAnswerDigestOf(op.query), *e);
  }
}

TEST(Digest, WholeAnswerCoversSummaryAndHighlights) {
  spate::TraceConfig config = BenchTraceConfig(3, 1);
  config.num_users = 200;
  config.num_cells = 20;
  config.num_antennas = 8;
  const spate::TraceGenerator gen(config);
  const spate::Snapshot snapshot = gen.GenerateSnapshot(gen.EpochStarts()[20]);
  spate::QueryResult answer;
  answer.summary.AddSnapshot(snapshot);
  answer.highlights = {{"result", "DROP", "", 0.01},
                       {"drop_calls", "9", "c7", 2.5}};
  const uint64_t base = DigestAnswer(answer);

  // Highlight order and frequency (a float) do not count.
  spate::QueryResult reordered = answer;
  std::swap(reordered.highlights[0], reordered.highlights[1]);
  reordered.highlights[0].frequency = 2.4999;
  EXPECT_EQ(DigestAnswer(reordered), base);

  // A missing highlight does.
  spate::QueryResult fewer = answer;
  fewer.highlights.pop_back();
  EXPECT_NE(DigestAnswer(fewer), base);

  // So do the summary's counters.
  spate::QueryResult doubled = answer;
  doubled.summary.AddSnapshot(snapshot);
  EXPECT_NE(DigestAnswer(doubled), base);

  // The rows-only digest ignores the summary.
  EXPECT_EQ(DigestResult(doubled), DigestResult(answer));
}

TEST(Catalog, NamesAreUniqueAndEndToEndHasSetup) {
  std::vector<std::string> names;
  for (const auto* catalog : {&EndToEndCatalog(), &PerLayerCatalog()}) {
    for (const MetricSpec& spec : *catalog) names.push_back(spec.name);
  }
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_STREQ(EndToEndCatalog().front().name, "setup_s");
  EXPECT_LE(PerLayerCatalog().size(), 128u);
}

}  // namespace
}  // namespace spatebench
