#include "speed.h"

#include <time.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "stats.h"
#include "trace.h"

namespace spatebench {

namespace {

int64_t CpuNs(clockid_t clock) {
  struct timespec ts {};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

SpeedProbe::SpeedProbe(int threads) : threads_(std::max(1, threads)) {
  // 48 KiB of CSV-shaped text from a fixed LCG: digits, commas, newlines.
  uint64_t x = 0x243F6A8885A308D3ull;
  text_.reserve(48 << 10);
  while (text_.size() < (48u << 10)) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const int len = 1 + static_cast<int>((x >> 59) % 12);
    for (int i = 0; i < len; ++i) {
      text_.push_back(static_cast<char>('0' + (x >> (8 + 4 * i)) % 10));
    }
    text_.push_back((x >> 33) % 16 == 0 ? '\n' : ',');
  }
  Slice(&sink_);  // warm caches and the allocator
}

double SpeedProbe::Slice(uint64_t* sink) const {
  const int64_t t0 = NowNs();
  // Split into heap strings (allocation, copies), as row parsing does.
  std::vector<std::string> fields;
  fields.reserve(16384);
  size_t start = 0;
  for (size_t i = 0; i < text_.size(); ++i) {
    if (text_[i] == ',' || text_[i] == '\n') {
      fields.emplace_back(text_.data() + start, i - start);
      start = i + 1;
    }
  }
  // Hash every field (ALU-bound).
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& field : fields) {
    for (unsigned char c : field) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
  }
  // LZ-style match finding: a 4-byte hash table of last positions
  // (data-dependent loads and branches, as in the codecs).
  std::vector<uint32_t> table(1 << 14, 0);
  uint64_t matched = 0;
  for (size_t i = 0; i + 4 <= text_.size(); ++i) {
    uint32_t word = 0;
    std::memcpy(&word, text_.data() + i, 4);
    const uint32_t slot = (word * 2654435761u) >> 18;
    const uint32_t prev = table[slot];
    if (prev != 0 && std::memcmp(text_.data() + prev, text_.data() + i, 4) == 0) {
      ++matched;
    }
    table[slot] = static_cast<uint32_t>(i);
  }
  // Sort (branchy compares).
  std::vector<uint64_t> keys(4096);
  for (uint64_t& key : keys) {
    h += 0x9e3779b97f4a7c15ull;
    key = h * 0xbf58476d1ce4e5b9ull;
  }
  std::sort(keys.begin(), keys.end());
  *sink += h + keys[keys.size() / 2] + matched;
  return static_cast<double>(NowNs() - t0);
}

double SpeedProbe::MedianOfThree(uint64_t* sink, int64_t* cpu_ns) const {
  const int64_t cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  const double a = Slice(sink);
  const double b = Slice(sink);
  const double c = Slice(sink);
  *cpu_ns += CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

double SpeedProbe::Sample() {
  const int64_t wall0 = NowNs();
  const int64_t process0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  double total = 0;
  int64_t probe_cpu_ns = 0;
  std::vector<double> helper_ns(threads_ - 1, 0);
  std::vector<uint64_t> helper_sinks(threads_ - 1, 0);
  std::vector<int64_t> helper_cpu_ns(threads_ - 1, 0);
  {
    std::vector<std::thread> helpers;
    for (int t = 0; t + 1 < threads_; ++t) {
      helpers.emplace_back([this, t, &helper_ns, &helper_sinks,
                            &helper_cpu_ns] {
        helper_ns[t] = MedianOfThree(&helper_sinks[t], &helper_cpu_ns[t]);
      });
    }
    total += MedianOfThree(&sink_, &probe_cpu_ns);
    for (std::thread& helper : helpers) helper.join();
  }
  for (int t = 0; t + 1 < threads_; ++t) {
    total += helper_ns[t];
    sink_ += helper_sinks[t];
    probe_cpu_ns += helper_cpu_ns[t];
  }
  const double foreign_share =
      static_cast<double>(CpuNs(CLOCK_PROCESS_CPUTIME_ID) - process0 -
                          probe_cpu_ns) /
      static_cast<double>(std::max<int64_t>(1, NowNs() - wall0));
  max_foreign_cpu_share_ = std::max(max_foreign_cpu_share_, foreign_share);
  busy_samples_ += foreign_share > kBusyCpuShare;
  const double mean = total / threads_;
  times_.push_back(NowNs());
  slice_ns_.push_back(mean);
  return mean;
}

double SpeedProbe::FactorAt(int64_t t_ns) const {
  if (times_.empty()) return 1;
  const size_t n = times_.size();
  const size_t pos = static_cast<size_t>(
      std::lower_bound(times_.begin(), times_.end(), t_ns) - times_.begin());
  size_t lo = pos >= 2 ? pos - 2 : 0;
  size_t hi = std::min(n, lo + 5);
  lo = hi >= 5 ? hi - 5 : 0;
  return kNominalSliceNs /
         Median(std::vector<double>(slice_ns_.begin() + lo,
                                    slice_ns_.begin() + hi));
}

double SpeedProbe::ScaledSeconds(const std::vector<Interval>& intervals) const {
  double seconds = 0;
  for (const Interval& i : intervals) {
    seconds += static_cast<double>(i.end_ns - i.start_ns) * 1e-9 *
               FactorAt(i.start_ns + (i.end_ns - i.start_ns) / 2);
  }
  return seconds;
}

double SpeedProbe::RawSeconds(const std::vector<Interval>& intervals) {
  double seconds = 0;
  for (const Interval& i : intervals) {
    seconds += static_cast<double>(i.end_ns - i.start_ns) * 1e-9;
  }
  return seconds;
}

double SpeedProbe::MedianFactor() const {
  return slice_ns_.empty() ? 1 : kNominalSliceNs / Median(slice_ns_);
}

}  // namespace spatebench
