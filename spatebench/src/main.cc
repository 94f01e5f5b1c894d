// spatebench: runs one workload of the SPATE benchmark and prints, as the
// last line of stdout, {"correct", "attempted", "failed", "metrics"}.
//
//   spatebench --workload explore_cold --seed 3 --seconds 10 --trace 0
//              [--trace-out spans.jsonl] [--git-sha <sha>]
//   spatebench --list-metrics
//
// --trace 0 prints every end-to-end metric, --trace 1 every per-layer
// metric (a traced run repeats the op sequence untraced first, to measure
// the tracing overhead). A provenance line precedes the result line.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using spatebench::JsonObject;
using spatebench::MetricSpec;

int Usage(const char* message) {
  std::fprintf(stderr,
               "spatebench: %s\nusage: spatebench --workload "
               "ingest|explore_cold|serve_hot --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--git-sha SHA]\n",
               message);
  return 2;
}

JsonObject MetricsJson(const std::vector<MetricSpec>& catalog,
                       const spatebench::MetricValues& values) {
  JsonObject metrics;
  for (const MetricSpec& spec : catalog) {
    const auto it = values.find(spec.name);
    JsonObject metric;
    metric.Num("value", it == values.end() ? 0.0 : it->second)
        .Str("unit", spec.unit);
    metrics.Obj(spec.name, metric);
  }
  return metrics;
}

/// The metric catalogs with their units, for checking BENCHMARK.json.
void ListMetrics() {
  JsonObject lists;
  for (const auto& [key, catalog] :
       {std::pair{"end_to_end", &spatebench::EndToEndCatalog()},
        std::pair{"per_layer", &spatebench::PerLayerCatalog()}}) {
    JsonObject units;
    for (const MetricSpec& spec : *catalog) units.Str(spec.name, spec.unit);
    lists.Obj(key, units);
  }
  std::printf("%s\n", lists.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
    ListMetrics();
    return 0;
  }
  spatebench::Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (> 0) and --trace are required");
  }

  spatebench::RunReport report;
  if (options.workload == "ingest") {
    report = spatebench::RunIngest(options);
  } else if (options.workload == "explore_cold") {
    report = spatebench::RunExploreCold(options);
  } else if (options.workload == "serve_hot") {
    report = spatebench::RunServeHot(options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "spatebench: %s\n", error.c_str());
  }
  const bool correct = report.correct && report.failed == 0;
  JsonObject unscaled;
  for (const auto& [name, value] : report.raw) unscaled.Num(name, value);
  report.provenance.Obj("unscaled", unscaled)
      .Num("speed_factor", report.speed_factor)
      .Num("nominal_slice_ms", spatebench::SpeedProbe::kNominalSliceNs * 1e-6);
  std::printf("%s\n",
              JsonObject().Obj("provenance", report.provenance).ToString().c_str());
  JsonObject result;
  result.Bool("correct", correct)
      .Int("attempted", static_cast<long long>(report.attempted))
      .Int("failed", static_cast<long long>(report.failed))
      .Obj("metrics",
           MetricsJson(options.trace ? spatebench::PerLayerCatalog()
                                     : spatebench::EndToEndCatalog(),
                       report.metrics));
  std::printf("%s\n", result.ToString().c_str());
  return 0;
}
