#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace spatebench {

namespace {

size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double p) {
  return sorted[NearestRank(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

Tail TailOf(std::vector<double> samples, size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  static const double kLadder[] = {50, 75, 90, 95, 99, 99.9, 99.99};
  tail.percentile = kLadder[0];
  for (double p : kLadder) {
    if (SamplesBeyond(samples.size(), p) >= min_beyond) tail.percentile = p;
  }
  tail.value = PercentileSorted(samples, tail.percentile);
  tail.beyond = SamplesBeyond(samples.size(), tail.percentile);
  return tail;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) value = 0;
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, long long value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonQuote(value));
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.ToString());
  return *this;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace spatebench
