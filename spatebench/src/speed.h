#ifndef SPATEBENCH_SPEED_H_
#define SPATEBENCH_SPEED_H_

// Machine-speed probe. On a shared host the same work can take 1.5-2x
// longer from one second to the next (neighbours on the same physical
// cores), which swamps any program change. The probe runs a fixed
// reference slice — string splitting, hashing, LZ-style match finding and
// sorting, code of the benchmark's own that no SPATE change touches — next
// to the timed work, and the workloads scale each measured time by
// nominal / local reference time. Alternating a fixed Execute with an
// earlier version of the slice for 60 s on a busy 4-core x86 VM, the raw
// Execute time's per-block medians spanned 55% of their median while the
// Execute/slice ratio spanned 10% (stdev 16% vs 1.7%).

#include <cstdint>
#include <string>
#include <vector>

namespace spatebench {

class SpeedProbe {
 public:
  /// Reference-slice time the scaled figures are expressed against: a
  /// round figure within the slice's range (0.6-1.2 ms, depending on the
  /// neighbours) on the 4-core x86 VM it was tuned on.
  static constexpr double kNominalSliceNs = 1e6;

  /// `threads` > 1 samples that many slices concurrently (for workloads
  /// that keep every core busy, where the number of usable cores moves
  /// with the neighbours too).
  explicit SpeedProbe(int threads = 1);

  /// Runs three reference slices now (on each probe thread) and records
  /// the median (mean over threads); returns it.
  double Sample();

  /// nominal / local slice time around steady-clock time `t_ns`: the median
  /// of the (up to) five samples nearest in time. 1 without samples.
  double FactorAt(int64_t t_ns) const;

  /// nominal / median of every sample.
  double MedianFactor() const;

  /// A sample is busy when the rest of the process used more than this
  /// share of one core while the probe ran: the program was not idle, so
  /// its work would read as a slow host and shrink the factor. Busy
  /// samples are counted (and reported in the provenance), not dropped.
  /// Starting and joining the helper threads of a 4-thread sample alone
  /// reads as 0.15-0.3 of a core on a 4-core x86 VM.
  static constexpr double kBusyCpuShare = 0.5;
  size_t samples() const { return slice_ns_.size(); }
  int busy_samples() const { return busy_samples_; }
  /// Largest share of one core the rest of the process used in a sample.
  double max_foreign_cpu_share() const { return max_foreign_cpu_share_; }

  /// A timed interval on the steady clock.
  struct Interval {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  /// Total seconds of `intervals`, each scaled by the factor at its middle.
  double ScaledSeconds(const std::vector<Interval>& intervals) const;
  static double RawSeconds(const std::vector<Interval>& intervals);

 private:
  double Slice(uint64_t* sink) const;
  /// Median of three slices; adds the calling thread's CPU ns to `cpu_ns`.
  double MedianOfThree(uint64_t* sink, int64_t* cpu_ns) const;

  const int threads_;
  std::string text_;
  uint64_t sink_ = 0;
  std::vector<int64_t> times_;  // ascending
  std::vector<double> slice_ns_;
  int busy_samples_ = 0;
  double max_foreign_cpu_share_ = 0;
};

}  // namespace spatebench

#endif  // SPATEBENCH_SPEED_H_
