// condensa fabric: drives a fleet of fabric workers (scatter, supervise,
// gather).

#include <cstdio>

#include "cli/common.h"
#include "common/string_util.h"
#include "shard/fabric.h"

namespace condensa::cli {
namespace {

// Splits "host:port,host:port" into fabric endpoints.
bool ParseWorkerList(const std::string& text,
                     std::vector<shard::FabricEndpoint>* out) {
  for (const std::string& entry : Split(text, ',')) {
    shard::FabricEndpoint endpoint;
    if (!ParseEndpoint(entry, &endpoint.host, &endpoint.port)) return false;
    out->push_back(endpoint);
  }
  return !out->empty();
}

int Run(FlagSet& flags) {
  shard::FabricConfig config;
  std::string workers, input, backend_id, save_groups, output;
  std::size_t records{};
  MetricsFormat format{};
  bool header{};
  flags.Text("workers", "HOST:PORT[,HOST:PORT...]", &workers, "",
             "one endpoint per shard")
      .Required();
  flags.Text("input", "FILE", &input, "",
             "records CSV; otherwise a synthetic two-blob Gaussian stream "
             "of --records x --dim is generated");
  flags.Size("records", &records, 5000, "synthetic records").Min(1);
  flags.Size("dim", &config.dim, 4, "synthetic record dimension").Min(1);
  flags.Size("k", &config.group_size, 10, "indistinguishability level")
      .Min(2);
  flags.Text("backend", "ID", &backend_id,
             core::CondensedGroupSet::kDefaultBackendId,
             "anonymization backend, carried to every worker in the Hello");
  flags.Enum("policy", &config.policy, shard::ShardPolicy::kHash,
             kShardPolicies, "record-to-shard routing");
  flags.Size("wire-batch", &config.wire_batch, 64, "records per Submit frame")
      .Min(1);
  flags.Text("local-fallback-root", "DIR", &config.checkpoint_root, "",
             "take over unreachable shards with in-process workers over "
             "this checkpoint root (point it at the same tree the workers "
             "use)");
  flags.Double("heartbeat-interval-ms", &config.heartbeat_interval_ms, 200,
               "probe cadence")
      .Above(0);
  flags.Double("heartbeat-timeout-ms", &config.heartbeat_timeout_ms, 1500,
               "declare-dead threshold; at least --heartbeat-interval-ms");
  flags.Text("save-groups", "FILE", &save_groups, "",
             "save the gathered group statistics");
  flags.Text("output", "FILE", &output, "",
             "also anonymize and write a release CSV");
  flags.Bool("header", &header, "first CSV row is a header");
  flags.Seed("seed", &config.seed, 42,
             "RNG seed; per-shard seeds are derived");
  flags.Enum("format", &format, MetricsFormat::kNone, kMetricsFormats,
             "also dump the metrics registry");
  if (!flags.Parse()) return flags.exit_code();
  if (config.heartbeat_timeout_ms < config.heartbeat_interval_ms) {
    return UsageError("--heartbeat-timeout-ms must be at least "
                      "--heartbeat-interval-ms");
  }
  if (!ParseWorkerList(workers, &config.workers)) {
    return UsageError("--workers=HOST:PORT[,HOST:PORT...] is required");
  }
  core::Backend backend;
  if (int code = ResolveBackend(backend_id, &backend)) return code;
  config.backend = backend_id;

  std::vector<linalg::Vector> stream;
  if (int code = ReadStream(input, header, config.seed, records, config.dim,
                            &stream)) {
    return code;
  }
  if (!stream.empty()) config.dim = stream.front().dim();
  const std::uint64_t seed = config.seed;
  auto service = shard::FabricService::Start(std::move(config));
  if (!service.ok()) return ExitFor("error starting fabric", service.status());
  for (const linalg::Vector& record : stream) {
    Status status = (*service)->Submit(record);
    if (!status.ok()) return Fail("submit failed", status);
  }
  auto result = (*service)->Finish();
  if (!result.ok()) return Fail("finish failed", result.status());

  for (const shard::ShardReport& report : result->shards) {
    std::printf("shard %zu ledger: %s\n", report.shard_id,
                report.ledger.ToString().c_str());
  }
  std::printf("fabric: %s\n", result->report.ToString().c_str());
  std::printf("gather: %s\n", result->gather.ToString().c_str());
  PrintGroupSummary(result->groups, "");
  if (int code = SaveGroups(result->groups, save_groups)) return code;
  Rng rng(seed);
  if (int code = WriteGroupRelease(result->groups, backend, rng, output)) {
    return code;
  }
  DumpMetrics(format);
  if (!result->Balanced()) {
    std::fprintf(stderr,
                 "error: a shard ledger does not balance — records lost\n");
    return 1;
  }
  return 0;
}

}  // namespace

const Command kFabricCommand = {
    "fabric", "coordinate networked fabric workers",
    "Scatters a stream across standalone worker processes (condensa "
    "worker) over the framed TCP protocol, tracking liveness with "
    "heartbeats, reconnecting with exponential backoff, re-routing "
    "unacknowledged records off dead workers, and gathering the shard "
    "releases by exact moment merge (docs/fabric.md). A clean run is "
    "bit-identical to the in-process `serve-stream --shards=N` run with the "
    "same seed and shard count.",
    Run};

}  // namespace condensa::cli
