// condbench: runs one benchmark workload and prints its metrics.
//
//   condbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run also writes <work-dir>/<workload>.trace.json
// (Chrome/Perfetto) and <workload>.registry.json (registry deltas).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "workloads.h"

namespace {

int Usage(const char* error) {
  std::fprintf(stderr,
               "condbench: %s\nusage: condbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               error);
  return 2;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.work_dir = ".bench_build/run";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  // Checkpoints and worker state live in a per-process directory that is
  // removed when the run ends; reports stay in the work dir.
  const std::string out_dir = config.work_dir;
  config.work_dir = (std::filesystem::path(out_dir) /
                     ("state-" + std::to_string(::getpid())))
                        .string();
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage(("cannot create work dir " + config.work_dir).c_str());

  perfbench::RunResult result;
  std::string error;
  const bool ran = perfbench::RunWorkload(config, &result, &error);
  std::filesystem::remove_all(config.work_dir, ec);
  if (!ran) return Usage(error.c_str());

  std::fputs(result.summary.c_str(), stdout);
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  if (config.trace) {
    std::fputs(result.ledger_report.c_str(), stdout);
    const std::string base =
        (std::filesystem::path(out_dir) / config.workload).string();
    std::string registry = "{";
    for (const auto& [scope, delta] : result.registry_delta) {
      registry += (registry.size() > 1 ? ",\n\"" : "\n\"") + scope +
                  "\": " + perfbench::RegistryJson(delta);
    }
    registry += "}\n";
    if (!WriteFile(base + ".trace.json", result.trace_json) ||
        !WriteFile(base + ".registry.json", registry)) {
      std::fprintf(stderr, "condbench: cannot write %s.*.json\n", base.c_str());
      return 1;
    }
    std::printf("wrote %s.trace.json and %s.registry.json\n", base.c_str(),
                base.c_str());
  }

  const auto& specs = config.trace ? perfbench::PerLayerMetrics()
                                   : perfbench::EndToEndMetrics();
  std::string metrics;
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, raw] = result.metrics[i];
    const double value = std::isfinite(raw) ? raw : 0.0;
    std::printf("  %-42s %16.6f %s\n", name.c_str(), value, specs[i].unit);
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name.c_str(), value, specs[i].unit);
    metrics += buffer;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
