// condensa query-server: a long-lived read-side server that loads
// condensed state once, then answers framed Query requests until killed.

#include <cstdio>
#include <memory>

#include "cli/common.h"
#include "query/server.h"

namespace condensa::cli {
namespace {

int Run(FlagSet& flags) {
  SnapshotSource source;
  query::QueryServerConfig config;
  std::size_t port{};
  DeclareSnapshotSource(flags, &source);
  flags.Text("host", "ADDR", &config.host, "127.0.0.1", "bind address");
  flags.Size("port", &port, 0, "listen port; 0 picks a free one")
      .Max(65535);
  flags.Double("idle-timeout-ms", &config.idle_timeout_ms, 30000,
               "drop sessions silent this long")
      .Above(0);
  flags.Size("cache-capacity", &config.engine.eigen_cache_capacity, 1024,
             "bound on cached eigendecompositions")
      .Min(1);
  flags.Size("max-sessions", &config.max_sessions, 8,
             "concurrent sessions served; further connections are refused "
             "in-band with a retry-after hint")
      .Min(1);
  // "Serve with no deadline" is spelled by omitting the flag, not by 0.
  flags.Double("deadline-ms", &config.default_deadline_ms, 0,
               "deadline applied to requests that carry none; omit the "
               "flag to leave them unbounded")
      .Above(0);
  if (!flags.Parse()) return flags.exit_code();
  if (source.groups.empty() == source.checkpoint_dir.empty()) {
    return UsageError("exactly one of --groups or --checkpoint-dir is "
                      "required");
  }
  config.port = static_cast<std::uint16_t>(port);

  query::QuerySnapshot snapshot;
  if (int code = LoadSnapshot(source, &snapshot)) return code;
  auto store = std::make_shared<query::SnapshotStore>();
  store->Publish(std::move(snapshot));
  auto server = query::QueryServer::Create(std::move(config), store);
  if (!server.ok()) {
    return ExitFor("error starting query server", server.status());
  }
  std::printf("listening on %u\n", (*server)->port());
  std::fflush(stdout);
  Status run = (*server)->Run();
  if (!run.ok()) return Fail("query server failed", run);
  std::fprintf(stderr, "query server finished cleanly\n");
  return 0;
}

}  // namespace

const Command kQueryServerCommand = {
    "query-server", "serve framed mining queries from a snapshot",
    "Loads condensed state from exactly one of --groups or --checkpoint-dir "
    "once, then answers Query frames until killed. Prints `listening on "
    "PORT` when ready.",
    Run};

}  // namespace condensa::cli
