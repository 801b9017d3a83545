// The benchmark's four workloads (see perfbench/BENCHMARK.md):
//
//   static_release  publisher: StaticCondenser::Condense + Anonymizer::Generate
//   stream_ingest   stream server: DurableCondenser::Insert, one at a time
//   query_serve     analysts: QueryClient sessions against a QueryServer
//                   while a writer inserts and publishes snapshots
//   fabric_ingest   FabricService over forked WorkerProcess workers, checked
//                   byte for byte against ShardedStreamService
//
// Each workload derives all of its inputs from RunConfig::seed, repeats
// its unit of work (a "rep", each with its own set-up) until
// RunConfig::seconds have passed, checks every output, and reports either
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
#ifndef CONDENSA_PERFBENCH_WORKLOADS_H_
#define CONDENSA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch space for checkpoints and worker state; must exist.
  std::string work_dir;
  // Small inputs, for the checker self-test.
  bool tiny = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric lists, in print order. BENCHMARK.json names the same ones.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();
const std::vector<std::string>& WorkloadNames();

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  // name -> value for every metric of the run's list (end-to-end when
  // untraced, per-layer when traced).
  std::vector<std::pair<std::string, double>> metrics;
  std::string summary;        // human-readable lines
  std::string ledger_report;  // traced runs only
  std::string trace_json;     // traced runs only
  // Registry deltas by scope ("measured": the timed windows of traced
  // reps; "oracle": fabric_ingest's in-process reference). Traced runs.
  std::map<std::string, Registry> registry_delta;
};

// Runs one workload; returns false with `error` set for a bad name.
bool RunWorkload(const RunConfig& config, RunResult* result,
                 std::string* error);

}  // namespace perfbench

#endif  // CONDENSA_PERFBENCH_WORKLOADS_H_
