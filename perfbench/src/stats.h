// Small numeric helpers shared by the benchmark's workloads: order
// statistics over latency samples, the monotonic clock, and resident
// memory.
#ifndef CONDENSA_PERFBENCH_STATS_H_
#define CONDENSA_PERFBENCH_STATS_H_

#include <sys/types.h>

#include <chrono>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty. Takes
// a copy because it partially sorts.
double Percentile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values);

// The q-quantile within each `window_s`-second window of (time offset in
// seconds, value) samples, for every window holding at least
// `min_samples` values. A median over these is robust to a burst of
// interference that a percentile over the pooled samples would report.
std::vector<double> WindowPercentiles(
    const std::vector<std::pair<double, double>>& samples, double window_s,
    double q, std::size_t min_samples);

// Peak resident set of this process (VmHWM) in MiB since the last
// ResetPeakRss(), which sets the peak to the current resident set
// (/proc/self/clear_refs). Where that is unavailable the peak is the
// process's lifetime peak (ru_maxrss).
void ResetPeakRss();
double PeakRssMb();

// Resident memory that process `pid` holds alone (Private_Clean +
// Private_Dirty in /proc/<pid>/smaps_rollup), in MiB; 0 when unreadable.
// For a worker forked without exec this excludes the pages it still
// shares with its parent, which the parent's own figure already counts.
double PrivateRssMb(pid_t pid);

}  // namespace perfbench

#endif  // CONDENSA_PERFBENCH_STATS_H_
