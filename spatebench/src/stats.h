#ifndef SPATEBENCH_STATS_H_
#define SPATEBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles, the tail rule, the median
// and a small JSON object writer. Kept free of any SPATE type so the tests
// in spatebench/tests/ pin it down in isolation.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace spatebench {

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value at
/// rank ceil(p/100 * n), clamped to [1, n].
double PercentileSorted(const std::vector<double>& sorted, double p);

/// Samples strictly ranked beyond the nearest-rank p-th percentile:
/// n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

/// The tail a run can honestly report: the highest percentile of the
/// ladder {50, 75, 90, 95, 99, 99.9, 99.99} with at least `min_beyond`
/// samples ranked beyond it. Falls back to the median when even p50 has
/// fewer (tiny runs).
struct Tail {
  double percentile = 50;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> samples, size_t min_beyond = 10);

/// Median (average of the two middle values for even n); 0 when empty.
double Median(std::vector<double> values);

/// Minimal ordered JSON object writer (numbers, strings, nested objects).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, long long value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// JSON string literal of `s` (quoted, escaped).
std::string JsonQuote(const std::string& s);

}  // namespace spatebench

#endif  // SPATEBENCH_STATS_H_
