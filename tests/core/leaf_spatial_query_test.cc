#include <gtest/gtest.h>

#include "core/spate_framework.h"
#include "telco/generator.h"
#include "telco/schema.h"

namespace spate {
namespace {

/// The leaf-spatial-index sidecars must be an invisible optimization:
/// identical rows, in the same order, to the plain filter path for every
/// box.
TEST(LeafSpatialQueryTest, BoxQueriesMatchPlainPath) {
  TraceConfig config;
  config.days = 1;
  config.num_cells = 60;
  config.num_antennas = 20;
  config.cdr_base_rate = 30;
  config.nms_per_cell = 0.6;
  TraceGenerator gen(config);

  SpateFramework plain(SpateOptions{}, gen.cells());
  SpateOptions indexed_options;
  indexed_options.leaf_spatial_index = true;
  SpateFramework indexed(indexed_options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    const Snapshot snapshot = gen.GenerateSnapshot(epoch);
    ASSERT_TRUE(plain.Ingest(snapshot).ok());
    ASSERT_TRUE(indexed.Ingest(snapshot).ok());
  }

  const BoundingBox extent = plain.cells().extent();
  const double w = extent.max_x - extent.min_x;
  const double h = extent.max_y - extent.min_y;
  const BoundingBox boxes[] = {
      {extent.min_x, extent.min_y, extent.min_x + 0.1 * w,
       extent.min_y + 0.1 * h},
      {extent.min_x + 0.3 * w, extent.min_y + 0.2 * h,
       extent.min_x + 0.7 * w, extent.min_y + 0.9 * h},
      extent,
      {extent.max_x + 10, extent.max_y + 10, extent.max_x + 20,
       extent.max_y + 20},  // empty
  };
  for (const BoundingBox& box : boxes) {
    ExplorationQuery query;
    query.window_begin = config.start + 9 * 3600;
    query.window_end = config.start + 15 * 3600;
    query.has_box = true;
    query.box = box;
    auto a = plain.Execute(query);
    auto b = indexed.Execute(query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->cdr_rows, b->cdr_rows);
    EXPECT_EQ(a->nms_rows, b->nms_rows);
    EXPECT_EQ(a->exact, b->exact);
  }
}

/// A sidecar is part of its leaf's boxed read: with every replica of one
/// sidecar lost, a box query skips that epoch as degraded, exactly as if the
/// leaf itself were unreadable — while unboxed queries never read it.
TEST(LeafSpatialQueryTest, LostSidecarSkipsItsEpochAsDegraded) {
  TraceConfig config;
  config.days = 1;
  config.num_cells = 30;
  config.num_antennas = 10;
  config.cdr_base_rate = 10;
  config.nms_per_cell = 0.3;
  TraceGenerator gen(config);
  SpateOptions options;
  options.leaf_spatial_index = true;
  SpateFramework spate(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(spate.Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  const std::vector<std::string> sidecars =
      spate.dfs().ListFiles("/spate/spidx/");
  ASSERT_EQ(sidecars.size(), static_cast<size_t>(kEpochsPerDay));
  const Timestamp lost_epoch = config.start + 10 * kEpochSeconds;
  const std::string victim = sidecars[10];
  ASSERT_EQ(ParseCompact(victim.substr(victim.rfind('/') + 1)), lost_epoch);
  for (size_t replica = 0; replica < 3; ++replica) {
    ASSERT_TRUE(spate.dfs().CorruptReplica(victim, 0, replica, 99).ok());
  }

  ExplorationQuery query;
  query.window_begin = config.start + 8 * kEpochSeconds;
  query.window_end = config.start + 12 * kEpochSeconds;
  query.has_box = true;
  query.box = spate.cells().extent();
  auto boxed = spate.Execute(query);
  ASSERT_TRUE(boxed.ok()) << boxed.status().ToString();
  EXPECT_FALSE(boxed->exact);
  EXPECT_TRUE(boxed->degraded);
  EXPECT_EQ(boxed->skipped_epochs, std::vector<Timestamp>{lost_epoch});
  EXPECT_EQ(spate.last_scan_stats().leaves_scanned, 3u);

  query.has_box = false;
  auto unboxed = spate.Execute(query);
  ASSERT_TRUE(unboxed.ok());
  EXPECT_TRUE(unboxed->exact);
  EXPECT_EQ(spate.last_scan_stats().leaves_scanned, 4u);
}

TEST(LeafSpatialQueryTest, SidecarsDecayWithLeaves) {
  TraceConfig config;
  config.days = 2;
  config.num_cells = 30;
  config.num_antennas = 10;
  config.cdr_base_rate = 10;
  config.nms_per_cell = 0.3;
  TraceGenerator gen(config);
  SpateOptions options;
  options.leaf_spatial_index = true;
  options.decay.full_resolution_seconds = 86400;
  SpateFramework spate(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(spate.Ingest(gen.GenerateSnapshot(epoch)).ok());
  }
  // One day of sidecars decayed along with its leaves.
  EXPECT_EQ(spate.dfs().ListFiles("/spate/spidx/").size(),
            static_cast<size_t>(kEpochsPerDay));
}

}  // namespace
}  // namespace spate
