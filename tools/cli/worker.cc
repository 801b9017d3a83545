// condensa worker: runs one standalone fabric worker until a coordinator
// finishes it.

#include <cstdio>

#include "cli/common.h"
#include "shard/worker_server.h"

namespace condensa::cli {
namespace {

int Run(FlagSet& flags) {
  shard::WorkerServerConfig config;
  std::size_t port{};
  flags.Text("checkpoint-root", "DIR", &config.checkpoint_root, "",
             "shard checkpoint parent directory; shard i lives under "
             "DIR/shard-<i>")
      .Required();
  flags.Text("host", "ADDR", &config.host, "127.0.0.1", "bind address");
  flags.Size("port", &port, 0,
             "TCP port; 0 picks a free one, printed to stdout as "
             "'listening on PORT'")
      .Max(65535);
  flags.Text("worker-id", "ID", &config.worker_id, "",
             "stable metric-label identity, w<shard> when empty; keep it "
             "stable across restarts so no duplicate series appear");
  flags.Double("idle-timeout-ms", &config.idle_timeout_ms, 30000,
               "drop a silent session after this long")
      .Above(0);
  flags.Double("flush-timeout-ms", &config.flush_timeout_ms, 30000,
               "durability barrier per Submit batch")
      .Above(0);
  if (!flags.Parse()) return flags.exit_code();
  config.port = static_cast<std::uint16_t>(port);

  auto server = shard::WorkerServer::Create(std::move(config));
  if (!server.ok()) return ExitFor("error starting worker", server.status());
  std::printf("listening on %u\n", (*server)->port());
  std::fflush(stdout);
  Status run = (*server)->Run();
  if (!run.ok()) return Fail("worker failed", run);
  std::fprintf(stderr, "worker finished cleanly\n");
  return 0;
}

}  // namespace

const Command kWorkerCommand = {
    "worker", "standalone fabric worker process",
    "Listens for a coordinator (condensa fabric) and serves one shard of "
    "the networked fabric: records arrive in framed Submit batches, flow "
    "through the durable streaming runtime, and are acknowledged only once "
    "durably in custody, so a kill -9 after an ack loses nothing "
    "(docs/fabric.md). The shard id, dimension, k, and seed all arrive in "
    "the coordinator's Hello, so one worker invocation serves any shard. "
    "Restarting the worker on the same --checkpoint-root recovers its "
    "durable state and rejoins the fabric.",
    Run};

}  // namespace condensa::cli
