// condensa stats: runs a small synthetic pipeline through every
// instrumented subsystem (static and dynamic condensation, release
// generation, kd-tree queries, durable ingest plus recovery), then dumps
// the default metrics registry. This is the quickest way to see which
// series a deployment will emit, and doubles as a smoke test that the
// instruments fire.

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "cli/common.h"
#include "common/io.h"
#include "core/checkpointing.h"
#include "index/kdtree.h"
#include "obs/trace.h"

namespace condensa::cli {
namespace {

// Durable ingest and recovery in a throwaway checkpoint directory: half
// the batch bootstraps, the rest streams one record at a time so journal
// appends (and their fsyncs) show up in the dump.
Status DurableRoundTrip(const std::vector<linalg::Vector>& points,
                        std::size_t dim, std::size_t k, Rng& rng) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("condensa-stats-" + std::to_string(getpid()));
  std::error_code cleanup_error;
  std::filesystem::remove_all(dir, cleanup_error);
  const core::DynamicCondenserOptions options{.group_size = k};
  const core::DurabilityOptions durability{.snapshot_interval = 256};
  Status status = OkStatus();
  {
    auto durable =
        core::DurableCondenser::Open(dim, options, durability, dir.string());
    if (!durable.ok()) return durable.status();
    const std::size_t half = points.size() / 2;
    status = durable->Bootstrap(
        std::vector<linalg::Vector>(points.begin(), points.begin() + half),
        rng);
    for (std::size_t i = half; status.ok() && i < points.size(); ++i) {
      status = durable->Insert(points[i]);
    }
    if (status.ok()) status = durable->Checkpoint();
  }
  if (status.ok()) {
    status = core::DurableCondenser::Recover(dir.string(), options,
                                             durability)
                 .status();
  }
  std::filesystem::remove_all(dir, cleanup_error);
  return status;
}

int Run(FlagSet& flags) {
  std::size_t records{}, dim{}, k{};
  std::uint64_t seed{};
  MetricsFormat format{};
  std::string trace_out;
  flags.Size("records", &records, 2000, "synthetic records").Min(10);
  flags.Size("dim", &dim, 8, "record dimension").Min(1);
  flags.Size("k", &k, 10, "indistinguishability level").Min(1);
  flags.Seed("seed", &seed, 42, "RNG seed");
  flags.Enum("format", &format, MetricsFormat::kPrometheus, kMetricsFormats,
             "registry dump format");
  flags.Text("trace-out", "FILE", &trace_out, "",
             "also record a Perfetto trace");
  if (!flags.Parse()) return flags.exit_code();
  if (!trace_out.empty()) obs::StartTracing();

  // Two well-separated Gaussian blobs, labeled, so classification pools,
  // splits, and kd-tree pruning all have something to do.
  Rng rng(seed);
  data::Dataset dataset(dim, data::TaskType::kClassification);
  std::vector<linalg::Vector> points;
  points.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    linalg::Vector record(dim);
    const int label = static_cast<int>(i % 2);
    for (std::size_t d = 0; d < dim; ++d) {
      record[d] = rng.Gaussian(label == 0 ? -2.0 : 2.0, 1.0);
    }
    dataset.Add(record, label);
    points.push_back(record);
  }

  for (core::CondensationMode mode :
       {core::CondensationMode::kStatic, core::CondensationMode::kDynamic}) {
    core::CondensationEngine engine({.group_size = k, .mode = mode});
    auto result = engine.Anonymize(dataset, rng);
    if (!result.ok()) return Fail("condensation failed", result.status());
  }

  auto tree = index::KdTree::Build(points);
  if (!tree.ok()) return Fail("kd-tree build failed", tree.status());
  for (std::size_t i = 0; i < 64; ++i) {
    tree->KNearest(points[i % points.size()], 5);
  }

  Status status = DurableRoundTrip(points, dim, k, rng);
  if (!status.ok()) return Fail("durable ingest/recovery failed", status);

  if (!trace_out.empty()) {
    status = WriteFileAtomic(trace_out, obs::StopTracingAndDump());
    if (!status.ok()) return Fail("error writing " + trace_out, status);
    std::fprintf(stderr, "wrote trace to %s (load in ui.perfetto.dev)\n",
                 trace_out.c_str());
  }
  DumpMetrics(format);
  return 0;
}

}  // namespace

const Command kStatsCommand = {
    "stats", "synthetic end-to-end run + metrics dump", nullptr, Run};

}  // namespace condensa::cli
