// condensa serve-stream: the supervised streaming runtime over a CSV or a
// synthetic stream (see the help text at the bottom).

#include <cstdio>

#include "cli/common.h"
#include "common/failpoint.h"
#include "runtime/pipeline.h"
#include "shard/fabric.h"

namespace condensa::cli {
namespace {

// Scatter/gather mode: N independent durable pipelines, each
// checkpointing under <dir>/shard-<i>, gathered into one release by exact
// moment merge (docs/scaling.md).
int RunSharded(const shard::FabricConfig& config, double chaos,
               MetricsFormat format,
               const std::vector<linalg::Vector>& stream) {
  auto service = shard::FabricService::Start(config);
  if (!service.ok()) {
    return ExitFor("error starting sharded service in " +
                       config.checkpoint_root,
                   service.status());
  }
  ArmChaos(chaos, config.seed);
  for (const linalg::Vector& record : stream) {
    Status status = (*service)->Submit(record);
    if (!status.ok()) return Fail("submit failed", status);
  }
  if (chaos > 0.0) FailPoint::Reset();
  auto result = (*service)->Finish();
  if (!result.ok()) return Fail("finish failed", result.status());
  for (const shard::ShardReport& report : result->shards) {
    std::printf("shard %zu ledger: %s\n", report.shard_id,
                report.ledger.ToString().c_str());
  }
  std::printf("gather: %s\n", result->gather.ToString().c_str());
  PrintGroupSummary(result->groups, "");
  DumpMetrics(format);
  if (!result->Balanced()) {
    std::fprintf(stderr,
                 "error: a shard ledger does not balance — records lost\n");
    return 1;
  }
  return 0;
}

int Run(FlagSet& flags) {
  runtime::StreamPipelineConfig config;
  std::string input, backend_id;
  std::size_t records{}, shards{};
  shard::ShardPolicy policy{};
  double chaos{};
  MetricsFormat format{};
  bool header{}, no_sync{};
  flags.Text("checkpoint-dir", "DIR", &config.checkpoint_dir, "",
             "checkpoint root")
      .Required();
  flags.Text("input", "FILE", &input, "",
             "records CSV; otherwise a synthetic two-blob Gaussian stream "
             "of --records x --dim is generated");
  flags.Size("records", &records, 5000, "synthetic records").Min(1);
  flags.Size("dim", &config.dim, 4, "synthetic record dimension").Min(1);
  flags.Size("shards", &shards, 1, "pipelines to scatter across").Min(1);
  flags.Enum("policy", &policy, shard::ShardPolicy::kHash, kShardPolicies,
             "record-to-shard routing");
  flags.Size("k", &config.group_size, 10, "indistinguishability level")
      .Min(1);
  flags.Text("backend", "ID", &backend_id,
             core::CondensedGroupSet::kDefaultBackendId,
             "anonymization backend");
  flags.Size("snapshot-every", &config.snapshot_interval, 256,
             "appends per snapshot")
      .Min(1);
  flags.Bool("no-sync", &no_sync, "skip fsync per journal append");
  flags.Size("queue-capacity", &config.queue_capacity, 1024,
             "bounded queue size")
      .Min(1);
  flags.Enum("backpressure", &config.backpressure,
             runtime::BackpressurePolicy::kBlock,
             {{"block", runtime::BackpressurePolicy::kBlock},
              {"drop-oldest", runtime::BackpressurePolicy::kDropOldest},
              {"reject", runtime::BackpressurePolicy::kReject}},
             "full-queue policy; single-pipeline mode only");
  flags.Size("batch-size", &config.batch_size, 32, "worker batch size")
      .Min(1);
  flags.Double("batch-deadline-ms", &config.batch_deadline_ms, 1000,
               "watchdog deadline per batch; single-pipeline mode only")
      .Above(0);
  flags.Size("retry-attempts", &config.retry.max_attempts, 4,
             "attempts per transient failure; single-pipeline mode only")
      .Min(1);
  flags.Size("retry-budget", &config.retry_budget, 10000,
             "run-wide retry cap; single-pipeline mode only");
  flags.Double("chaos", &chaos, 0,
               "arm failpoints at this probability during ingest; healed "
               "before Finish")
      .AtLeast(0)
      .Below(1);
  flags.Bool("header", &header, "first CSV row is a header");
  flags.Seed("seed", &config.seed, 42,
             "RNG seed; per-shard seeds are derived");
  flags.Enum("format", &format, MetricsFormat::kNone, kMetricsFormats,
             "also dump the metrics registry");
  if (!flags.Parse()) return flags.exit_code();
  if (int code = ResolveBackend(backend_id, &config.backend)) return code;
  config.sync_every_append = !no_sync;

  std::vector<linalg::Vector> stream;
  if (int code = ReadStream(input, header, config.seed, records, config.dim,
                            &stream)) {
    return code;
  }
  if (!stream.empty()) config.dim = stream.front().dim();
  if (shards > 1) {
    // The backpressure, retry and deadline flags tune the single
    // pipeline; shards run with the defaults.
    shard::FabricConfig sharded;
    sharded.num_shards = shards;
    sharded.policy = policy;
    sharded.dim = config.dim;
    sharded.group_size = config.group_size;
    sharded.checkpoint_root = config.checkpoint_dir;
    sharded.snapshot_interval = config.snapshot_interval;
    sharded.sync_every_append = config.sync_every_append;
    sharded.queue_capacity = config.queue_capacity;
    sharded.batch_size = config.batch_size;
    sharded.seed = config.seed;
    sharded.backend = backend_id;
    return RunSharded(sharded, chaos, format, stream);
  }

  auto pipeline = runtime::StreamPipeline::Start(config);
  if (!pipeline.ok()) {
    return ExitFor("error starting pipeline in " + config.checkpoint_dir,
                   pipeline.status());
  }
  ArmChaos(chaos, config.seed);
  for (const linalg::Vector& record : stream) {
    Status status = (*pipeline)->Submit(record);
    // kReject backpressure surfaces as kResourceExhausted; the ledger
    // counts the refusal and the producer moves on. Anything else (e.g.
    // Submit after Finish) is a programming error.
    if (!status.ok() && status.code() != StatusCode::kResourceExhausted) {
      return Fail("submit failed", status);
    }
  }
  if (chaos > 0.0) FailPoint::Reset();
  auto stats = (*pipeline)->Finish();
  if (!stats.ok()) return Fail("finish failed", stats.status());
  std::printf("ledger: %s\n", stats->ToString().c_str());
  PrintGroupSummary((*pipeline)->groups(), "");
  DumpMetrics(format);
  if (!stats->Balanced()) {
    std::fprintf(stderr, "error: ledger does not balance — records lost\n");
    return 1;
  }
  return 0;
}

}  // namespace

const Command kServeStreamCommand = {
    "serve-stream", "supervised streaming runtime",
    "Runs records through bounded-queue ingest with retry/backoff, poison "
    "quarantine, circuit breaker, and crash-safe checkpoints "
    "(docs/resilience.md). With --shards=N the stream is scattered across N "
    "independent pipelines, each with its own checkpoint directory under "
    "--checkpoint-dir, and gathered into one global release by exact moment "
    "merge (docs/scaling.md). With --chaos=P failpoints fire during ingest "
    "and heal before Finish so the spool drains; the printed ledger shows "
    "what the runtime absorbed, and the command exits 1 if it does not "
    "balance.",
    Run};

}  // namespace condensa::cli
