#include "query/result_cache.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "core/spate_framework.h"
#include "telco/generator.h"

namespace spate {
namespace {

/// The default day threshold, for direct `Lookup`s in front of `spate_`.
constexpr double kTheta = 0.05;

/// The (attribute, value, cell_id) identity of a result's highlights.
std::set<std::tuple<std::string, std::string, std::string>> HighlightSet(
    const QueryResult& result) {
  std::set<std::tuple<std::string, std::string, std::string>> set;
  for (const Highlight& h : result.highlights) {
    set.emplace(h.attribute, h.value, h.cell_id);
  }
  return set;
}

class ResultCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TraceConfig config;
    config.days = 1;
    config.num_cells = 60;
    config.num_antennas = 20;
    config.num_users = 200;
    config.cdr_base_rate = 40;
    config.nms_per_cell = 1.0;
    config_ = new TraceConfig(config);
    gen_ = new TraceGenerator(config);
    spate_ = new SpateFramework(SpateOptions{}, gen_->cells());
    for (Timestamp epoch : gen_->EpochStarts()) {
      ASSERT_TRUE(spate_->Ingest(gen_->GenerateSnapshot(epoch)).ok());
    }
  }

  ExplorationQuery DayQuery() const {
    ExplorationQuery q;
    q.window_begin = config_->start + 8 * 3600;
    q.window_end = config_->start + 20 * 3600;
    return q;
  }

  static TraceConfig* config_;
  static TraceGenerator* gen_;
  static SpateFramework* spate_;
};

TraceConfig* ResultCacheTest::config_ = nullptr;
TraceGenerator* ResultCacheTest::gen_ = nullptr;
SpateFramework* ResultCacheTest::spate_ = nullptr;

TEST_F(ResultCacheTest, IdenticalQueryHits) {
  CachedExplorer explorer(spate_);
  auto first = explorer.Execute(DayQuery());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(explorer.cache().misses(), 1u);
  auto second = explorer.Execute(DayQuery());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(explorer.cache().hits(), 1u);
  EXPECT_EQ(second->cdr_rows.size(), first->cdr_rows.size());
  EXPECT_EQ(second->nms_rows.size(), first->nms_rows.size());
}

TEST_F(ResultCacheTest, SubWindowServedFromCacheMatchesDirect) {
  CachedExplorer explorer(spate_);
  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());  // warm: 08:00-20:00

  ExplorationQuery narrow = DayQuery();
  narrow.window_begin = config_->start + 11 * 3600;
  narrow.window_end = config_->start + 13 * 3600;
  auto cached = explorer.Execute(narrow);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(explorer.cache().hits(), 1u);

  auto direct = spate_->Execute(narrow);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(cached->cdr_rows.size(), direct->cdr_rows.size());
  EXPECT_EQ(cached->nms_rows.size(), direct->nms_rows.size());
  EXPECT_EQ(cached->summary.cdr_rows(), direct->summary.cdr_rows());
}

TEST_F(ResultCacheTest, SubBoxServedFromCache) {
  CachedExplorer explorer(spate_);
  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());  // unboxed = whole region

  ExplorationQuery boxed = DayQuery();
  boxed.has_box = true;
  const BoundingBox extent = spate_->cells().extent();
  boxed.box = BoundingBox{extent.min_x, extent.min_y,
                          (extent.min_x + extent.max_x) / 2, extent.max_y};
  auto cached = explorer.Execute(boxed);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(explorer.cache().hits(), 1u);
  auto direct = spate_->Execute(boxed);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(cached->cdr_rows.size(), direct->cdr_rows.size());
}

TEST_F(ResultCacheTest, WiderWindowMisses) {
  CachedExplorer explorer(spate_);
  ExplorationQuery narrow = DayQuery();
  narrow.window_end = config_->start + 10 * 3600;
  ASSERT_TRUE(explorer.Execute(narrow).ok());
  // Wider than cached: must go to the framework.
  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());
  EXPECT_EQ(explorer.cache().hits(), 0u);
  EXPECT_EQ(explorer.cache().misses(), 2u);
}

TEST_F(ResultCacheTest, BoxedEntryDoesNotServeUnboxedQuery) {
  CachedExplorer explorer(spate_);
  ExplorationQuery boxed = DayQuery();
  boxed.has_box = true;
  boxed.box = spate_->cells().extent();
  ASSERT_TRUE(explorer.Execute(boxed).ok());
  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());  // unboxed
  EXPECT_EQ(explorer.cache().hits(), 0u);
}

TEST_F(ResultCacheTest, HitsCreditBytesDecodedSaved) {
  CachedExplorer explorer(spate_);
  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());  // miss: scans + inserts
  // The miss scanned with its own context; a direct execution of the same
  // query (no fragment cache) decodes the same bytes.
  ASSERT_TRUE(spate_->Execute(DayQuery()).ok());
  const uint64_t scan_cost = spate_->last_scan_stats().bytes_decoded;
  ASSERT_GT(scan_cost, 0u);
  EXPECT_EQ(explorer.cache().stats().bytes_decoded_saved, 0u);

  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());
  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());
  const ResultCache::CacheStats stats = explorer.cache().stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  // Every hit credits the decompressed bytes the original execution cost.
  EXPECT_EQ(stats.bytes_decoded_saved, 2 * scan_cost);
}

TEST_F(ResultCacheTest, ProjectedQueryServedVerbatimWhenIdentical) {
  CachedExplorer explorer(spate_);
  ExplorationQuery projected = DayQuery();
  projected.attributes = {"ts", "upflux", "downflux"};
  auto first = explorer.Execute(projected);
  ASSERT_TRUE(first.ok());
  auto second = explorer.Execute(projected);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(explorer.cache().hits(), 1u);
  EXPECT_EQ(second->cdr_rows, first->cdr_rows);
  EXPECT_EQ(second->nms_rows, first->nms_rows);
  EXPECT_GT(explorer.cache().stats().bytes_decoded_saved, 0u);
}

TEST_F(ResultCacheTest, ProjectedEntryNeverServesDifferentQuery) {
  CachedExplorer explorer(spate_);
  ExplorationQuery projected = DayQuery();
  projected.attributes = {"ts", "upflux", "downflux"};
  ASSERT_TRUE(explorer.Execute(projected).ok());

  // A projected entry lacks the predicate columns, so even a sub-window of
  // the same projection cannot be re-filtered from it.
  ExplorationQuery narrower = projected;
  narrower.window_end -= 3600;
  ASSERT_TRUE(explorer.Execute(narrower).ok());
  // And a different attribute list is a different result shape.
  ExplorationQuery other = projected;
  other.attributes = {"ts", "duration"};
  ASSERT_TRUE(explorer.Execute(other).ok());
  EXPECT_EQ(explorer.cache().hits(), 0u);
  EXPECT_EQ(explorer.cache().misses(), 3u);
}

TEST_F(ResultCacheTest, UnprojectedEntryServesProjectedSubQuery) {
  CachedExplorer explorer(spate_);
  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());  // full-width entry

  ExplorationQuery projected = DayQuery();
  projected.attributes = {"ts", "upflux", "downflux"};
  projected.window_begin += 3600;
  auto cached = explorer.Execute(projected);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(explorer.cache().hits(), 1u);

  // The served rows must match a direct projected execution byte for byte
  // (projection applied after re-filtering, summary built before it).
  auto direct = spate_->Execute(projected);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(cached->cdr_rows, direct->cdr_rows);
  EXPECT_EQ(cached->nms_rows, direct->nms_rows);
  EXPECT_EQ(cached->summary.cdr_rows(), direct->summary.cdr_rows());
}

// A narrowed hit re-extracts its highlights at the serving framework's day
// threshold, so at a non-default theta a hit still answers with the same
// highlights as a direct `Execute`.
TEST_F(ResultCacheTest, HitHighlightsUseTheFrameworksTheta) {
  SpateOptions options;
  options.theta_day = 0.5;
  SpateFramework framework(options, gen_->cells());
  for (Timestamp epoch : gen_->EpochStarts()) {
    ASSERT_TRUE(framework.Ingest(gen_->GenerateSnapshot(epoch)).ok());
  }
  CachedExplorer explorer(&framework);
  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());  // miss: fills the cache
  auto hit = explorer.Execute(DayQuery());
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(explorer.cache().hits(), 1u);
  auto direct = framework.Execute(DayQuery());
  ASSERT_TRUE(direct.ok());
  EXPECT_FALSE(direct->highlights.empty());
  EXPECT_EQ(HighlightSet(*hit), HighlightSet(*direct));
}

TEST_F(ResultCacheTest, ClearResetsBytesDecodedSaved) {
  ResultCache cache(4);
  QueryResult dummy;
  dummy.exact = true;
  cache.Insert(DayQuery(), dummy, /*bytes_decoded=*/12345);
  ASSERT_TRUE(cache.Lookup(DayQuery(), spate_->cells(), kTheta).has_value());
  ASSERT_EQ(cache.stats().bytes_decoded_saved, 12345u);
  cache.Clear();
  const ResultCache::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes_decoded_saved, 0u);
}

TEST_F(ResultCacheTest, LruEviction) {
  ResultCache cache(2);
  QueryResult dummy;
  dummy.exact = true;
  ExplorationQuery q1 = DayQuery();
  ExplorationQuery q2 = DayQuery();
  q2.window_begin += 3600;
  ExplorationQuery q3 = DayQuery();
  q3.window_begin += 7200;
  cache.Insert(q1, dummy);
  cache.Insert(q2, dummy);
  cache.Insert(q3, dummy);  // evicts q1
  EXPECT_EQ(cache.size(), 2u);
  ExplorationQuery probe = q1;
  EXPECT_FALSE(cache.Lookup(probe, spate_->cells(), kTheta).has_value());
  EXPECT_TRUE(cache.Lookup(q3, spate_->cells(), kTheta).has_value());
}

TEST_F(ResultCacheTest, ZeroCapacityNeverCaches) {
  CachedExplorer explorer(spate_, 0);
  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());
  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());
  EXPECT_EQ(explorer.cache().hits(), 0u);
  EXPECT_EQ(explorer.cache().size(), 0u);
}

TEST_F(ResultCacheTest, ClearResets) {
  CachedExplorer explorer(spate_);
  ASSERT_TRUE(explorer.Execute(DayQuery()).ok());
  ResultCache cache(4);
  cache.Insert(DayQuery(), QueryResult{});
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

}  // namespace
}  // namespace spate
