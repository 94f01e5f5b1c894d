// Ablation: the per-leaf spatial index the paper discusses and rejects
// (Section V-A: "an additional index would only provide modest additional
// query response time benefits at the price of additional storage space
// that we aim to minimize").
//
// With `leaf_spatial_index` on, every row leaf gets a compressed
// cell->rows sidecar; a bounding-box decode of the leaf then keeps the rows
// the sidecar lists instead of testing every parsed row's cell. This bench
// measures the query-time benefit and the storage cost for several box
// sizes.

#include <cstdio>

#include "bench_util.h"

namespace spate {
namespace bench {
namespace {

void Run() {
  TraceConfig config = BenchTrace();
  config.days = 2;
  TraceGenerator generator(config);
  const auto epochs = generator.EpochStarts();

  SpateOptions plain_options;
  SpateFramework plain(plain_options, generator.cells());
  SpateOptions indexed_options;
  indexed_options.leaf_spatial_index = true;
  SpateFramework indexed(indexed_options, generator.cells());
  for (Timestamp epoch : epochs) {
    const Snapshot snapshot = generator.GenerateSnapshot(epoch);
    plain.Ingest(snapshot).ok();
    indexed.Ingest(snapshot).ok();
  }

  printf("\nStorage: without leaf index %.2f MB, with %.2f MB (+%.1f%%)\n",
         plain.StorageBytes() / (1024.0 * 1024.0),
         indexed.StorageBytes() / (1024.0 * 1024.0),
         100.0 * (static_cast<double>(indexed.StorageBytes()) /
                      static_cast<double>(plain.StorageBytes()) -
                  1.0));

  PrintSeriesHeader(
      "ABLATION: per-leaf spatial index (box query over a 12h window)",
      "box side (fraction of region)", "response time (sec)");
  printf("%-12s %14s %14s %10s\n", "Box side", "no index (s)",
         "leaf index (s)", "rows");
  const BoundingBox extent = plain.cells().extent();
  for (double fraction : {0.05, 0.1, 0.25, 0.5, 1.0}) {
    ExplorationQuery query;
    query.window_begin = config.start + 8 * 3600;
    query.window_end = config.start + 20 * 3600;
    query.has_box = true;
    query.box = BoundingBox{
        extent.min_x, extent.min_y,
        extent.min_x + fraction * (extent.max_x - extent.min_x),
        extent.min_y + fraction * (extent.max_y - extent.min_y)};

    size_t rows = 0;
    const double without = MeasureResponse(plain, [&] {
      auto result = plain.Execute(query);
      if (result.ok()) rows = result->cdr_rows.size() + result->nms_rows.size();
    });
    size_t rows_with = 0;
    const double with = MeasureResponse(indexed, [&] {
      auto result = indexed.Execute(query);
      if (result.ok()) {
        rows_with = result->cdr_rows.size() + result->nms_rows.size();
      }
    });
    printf("%-12.2f %14.4f %14.4f %10zu\n", fraction, without, with, rows);
    if (rows != rows_with) {
      printf("  !! row count mismatch: %zu vs %zu\n", rows, rows_with);
    }
  }
  printf("\nExpected (the paper's conclusion, Section V-A): at best a modest "
         "query-time benefit —\n");
  printf("decompression and parsing dominate, row filtering does not — and "
         "the per-leaf sidecar\n");
  printf("costs extra storage plus one extra disk seek per leaf, which can "
         "make box queries\n");
  printf("strictly slower. This is why SPATE ships with the option off.\n");
}

}  // namespace
}  // namespace bench
}  // namespace spate

int main() {
  spate::bench::Run();
  return 0;
}
