// Outside-in accounting for the benchmark: where a workload's timed wall
// time went, measured around the benchmark's own calls into each module.
//
//  * Registry deltas: obs::DefaultRegistry() is snapshotted around each
//    measured window and only the difference is reported, so two
//    workloads (or the fabric run and its in-process oracle) never share a
//    series.
//  * StageLedger: per-stage seconds and call counts, plus the timed wall
//    time they must cover (>= 90% or the gap is reported by name). Every
//    stage is measured on its own: a span around a public call, or the
//    sum of a registry timer that observes every call. What no stage
//    measured stays "unattributed"; it is never derived and named after a
//    layer.
//  * Trace: Chrome/Perfetto "complete" events for the benchmark's spans,
//    kept in memory and written once when the run ends.
#ifndef CONDENSA_PERFBENCH_LEDGER_H_
#define CONDENSA_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace perfbench {

// Series key ("name{labels}") -> value, from the Prometheus text dump.
// Histogram buckets are dropped; their _sum and _count are kept.
using Registry = std::map<std::string, double>;

Registry SnapshotRegistry();
Registry Delta(const Registry& before, const Registry& after);
void Accumulate(Registry& into, const Registry& delta);
// Sum over every label set of the series named exactly `name` whose key
// contains `label` (e.g. `op="submit"`; empty matches all).
double Sum(const Registry& registry, std::string_view name,
           std::string_view label = {});
std::string RegistryJson(const Registry& registry);

class StageLedger {
 public:
  // A stage with a `parent` is an "of which" row: time measured inside the
  // parent stage (a registry timer inside a call span, say). It is shown
  // under its parent and does not count toward coverage; siblings may
  // overlap.
  void Add(const std::string& stage, double seconds, std::size_t calls = 1,
           const std::string& parent = {});
  void AddTimedWall(double seconds) { timed_wall_s_ += seconds; }

  // Top-level stages over the timed wall time.
  double Coverage() const;

  // Human-readable table; names the uncovered remainder when coverage is
  // below `floor`.
  std::string Report(const std::string& workload, double floor) const;

 private:
  struct Entry {
    double seconds = 0.0;
    std::size_t calls = 0;
    std::string parent;
  };
  double Covered() const;

  std::map<std::string, Entry> stages_;
  double timed_wall_s_ = 0.0;
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Records one finished span; returns its id (0 when disabled). `tid`
  // is a small integer naming the benchmark thread.
  std::uint64_t Record(std::string_view name, int tid, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0);

  // Reserves an id for a span whose children are recorded before it ends.
  std::uint64_t NextId();
  void RecordWithId(std::uint64_t id, std::string_view name, int tid,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent = 0);

  std::string ChromeJson() const;

 private:
  struct Event {
    std::uint64_t id;
    std::uint64_t parent;
    std::string name;
    int tid;
    double ts_us;
    double dur_us;
  };
  static constexpr std::size_t kMaxEvents = 200'000;

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::uint64_t next_id_ = 1;
  std::size_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // CONDENSA_PERFBENCH_LEDGER_H_
