// condensa shard: batch scatter/gather condensation (docs/scaling.md).

#include <cstdio>

#include "cli/common.h"
#include "shard/fabric.h"

namespace condensa::cli {
namespace {

int Run(FlagSet& flags) {
  shard::FabricConfig config;
  std::string input, backend_id, save_groups, output;
  std::size_t records{}, dim{};
  MetricsFormat format{};
  bool header{}, no_sync{};
  flags.Text("input", "FILE", &input, "",
             "records CSV; otherwise a synthetic two-blob Gaussian set of "
             "--records x --dim is generated");
  flags.Size("records", &records, 10000, "synthetic records").Min(1);
  flags.Size("dim", &dim, 4, "synthetic record dimension").Min(1);
  flags.Size("shards", &config.num_shards, 2, "shard count").Min(1);
  flags.Size("k", &config.group_size, 10, "indistinguishability level")
      .Min(1);
  flags.Text("backend", "ID", &backend_id,
             core::CondensedGroupSet::kDefaultBackendId,
             "anonymization backend; group construction and release "
             "regeneration both follow it");
  flags.Enum("policy", &config.policy, shard::ShardPolicy::kHash,
             kShardPolicies, "record-to-shard routing");
  flags.Enum("mode", &config.mode, shard::WorkerMode::kStaticBatch,
             {{"batch", shard::WorkerMode::kStaticBatch},
              {"stream", shard::WorkerMode::kDurableStream}},
             "in-memory batch workers, or durable streaming workers with "
             "per-shard checkpoints");
  flags.Text("checkpoint-root", "DIR", &config.checkpoint_root, "",
             "per-shard checkpoint parent directory; required with "
             "--mode=stream");
  flags.Size("snapshot-every", &config.snapshot_interval, 1024,
             "appends per snapshot")
      .Min(1);
  flags.Bool("no-sync", &no_sync, "skip fsync per journal append");
  flags.Size("threads", &config.num_threads, 0,
             "worker threads, 0 = one per hardware thread; output is "
             "identical at any thread count");
  flags.Text("save-groups", "FILE", &save_groups, "",
             "save the gathered group statistics");
  flags.Text("output", "FILE", &output, "",
             "also anonymize and write a release CSV");
  flags.Bool("header", &header, "first CSV row is a header");
  flags.Seed("seed", &config.seed, 42,
             "RNG seed; per-shard streams are derived");
  flags.Enum("format", &format, MetricsFormat::kNone, kMetricsFormats,
             "also dump the metrics registry");
  if (!flags.Parse()) return flags.exit_code();
  if (config.mode == shard::WorkerMode::kDurableStream &&
      config.checkpoint_root.empty()) {
    return UsageError("--checkpoint-root is required with --mode=stream");
  }
  core::Backend backend;
  if (int code = ResolveBackend(backend_id, &backend)) return code;
  config.backend = backend_id;
  config.sync_every_append = !no_sync;

  std::vector<linalg::Vector> data;
  if (int code = ReadStream(input, header, config.seed, records, dim, &data)) {
    return code;
  }
  // ReadStream yields at least one record (LoadCsv refuses an empty CSV).
  config.dim = data.front().dim();
  auto service = shard::FabricService::Start(config);
  if (!service.ok()) {
    return ExitFor("sharded condensation failed", service.status());
  }
  for (const linalg::Vector& record : data) {
    Status status = (*service)->Submit(record);
    if (!status.ok()) return ExitFor("sharded condensation failed", status);
  }
  auto result = (*service)->Finish();
  if (!result.ok()) {
    return ExitFor("sharded condensation failed", result.status());
  }
  // The release draws from Rng(seed) past the per-shard split (the
  // service's own split of the same seed); the shard golden pins it.
  Rng rng(config.seed);
  shard::Router::SplitStreams(rng, config.num_shards);

  for (const shard::ShardReport& report : result->shards) {
    std::printf("shard %zu: records=%zu groups=%zu min_group_size=%zu\n",
                report.shard_id, report.records, report.groups,
                report.min_group_size);
  }
  std::printf("gather: %s\n", result->gather.ToString().c_str());
  PrintGroupSummary(result->groups, "");
  if (int code = SaveGroups(result->groups, save_groups)) return code;
  if (int code = WriteGroupRelease(result->groups, backend, rng, output)) {
    return code;
  }
  DumpMetrics(format);
  return 0;
}

}  // namespace

const Command kShardCommand = {
    "shard", "batch scatter/gather condensation",
    "Routes records across N shard condensers (each condensing its "
    "partition independently), then exact-merges the shard-local aggregates "
    "into one global k-indistinguishable structure (docs/scaling.md). Fixed "
    "--seed and --shards reproduce a bit-identical release.",
    Run};

}  // namespace condensa::cli
