// FabricService over in-process WorkerServers (threads, not forks): the
// networked fabric must release the exact bytes the in-process sharded
// service releases, survive endpoint loss via re-routing and local
// takeover, and validate its configuration before touching the network.
// Process-level chaos (kill -9, rejoin) lives in
// tests/integration/fabric_soak_test.cc.

#include "shard/fabric.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/serialization.h"
#include "obs/metrics.h"
#include "shard/worker.h"
#include "shard/worker_server.h"

namespace condensa::shard {
namespace {

using linalg::Vector;

std::vector<Vector> MakeStream(std::size_t count, std::size_t dim,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Vector record(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      record[j] = rng.Gaussian(i % 2 == 0 ? -3.0 : 3.0, 1.0);
    }
    stream.push_back(std::move(record));
  }
  return stream;
}

// One worker server running on its own thread, as `condensa worker` would.
struct ServerHandle {
  std::unique_ptr<WorkerServer> server;
  std::thread thread;

  void Join() {
    if (thread.joinable()) thread.join();
  }
  ~ServerHandle() {
    if (server != nullptr) server->Stop();
    Join();
  }
};

std::unique_ptr<ServerHandle> StartServer(const std::string& root) {
  WorkerServerConfig config;
  config.checkpoint_root = root;
  config.poll_ms = 20.0;
  auto handle = std::make_unique<ServerHandle>();
  auto server = WorkerServer::Create(std::move(config));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  handle->server = *std::move(server);
  WorkerServer* raw = handle->server.get();
  handle->thread = std::thread([raw] { EXPECT_TRUE(raw->Run().ok()); });
  return handle;
}

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps concurrent test processes apart: ctest runs each case
    // in its own process, and under ASan every process allocates the
    // fixture at the same address.
    dir_ = std::filesystem::temp_directory_path() /
           ("condensa-fabric-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Dir(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  std::filesystem::path dir_;
};

FabricConfig BaseConfig(std::size_t dim) {
  FabricConfig config;
  config.dim = dim;
  config.group_size = 10;
  config.seed = 91;
  config.wire_batch = 32;
  config.heartbeat_interval_ms = 50.0;
  config.heartbeat_timeout_ms = 400.0;
  config.connect_timeout_ms = 500.0;
  config.reconnect.max_attempts = 2;
  config.reconnect.initial_backoff_ms = 10.0;
  return config;
}

TEST_F(FabricTest, ValidateRejectsBadConfigs) {
  FabricConfig config = BaseConfig(4);
  EXPECT_FALSE(config.Validate().ok());  // no workers

  config.workers = {{"127.0.0.1", 1}, {"", 2}};
  EXPECT_FALSE(config.Validate().ok());  // empty host

  config.workers = {{"127.0.0.1", 0}};
  EXPECT_FALSE(config.Validate().ok());  // port 0

  config.workers = {{"127.0.0.1", 1}};
  config.dim = 0;
  EXPECT_FALSE(config.Validate().ok());

  config.dim = 4;
  config.group_size = 1;
  EXPECT_FALSE(config.Validate().ok());  // streaming floor is k >= 2

  config.group_size = 10;
  config.wire_batch = 0;
  EXPECT_FALSE(config.Validate().ok());

  config.wire_batch = 8;
  config.heartbeat_timeout_ms = config.heartbeat_interval_ms / 2;
  EXPECT_FALSE(config.Validate().ok());

  config.heartbeat_timeout_ms = config.heartbeat_interval_ms * 4;
  EXPECT_TRUE(config.Validate().ok());

  config.num_shards = 2;  // disagrees with the one endpoint
  EXPECT_FALSE(config.Validate().ok());
  config.num_shards = 1;
  EXPECT_TRUE(config.Validate().ok());

  config.mode = WorkerMode::kStaticBatch;  // remote workers only stream
  EXPECT_FALSE(config.Validate().ok());
  config.mode = WorkerMode::kDurableStream;

  // The largest Submit frame a config can produce must stay under the
  // 64 MiB frame payload cap — EncodeFrame CHECK-fails past it, so a
  // config that crossed it would crash the coordinator at the first
  // full outbox instead of failing here.
  config.dim = 1024;
  config.wire_batch = 8192;  // 8192 * 1024 * 8 B = exactly 64 MiB
  EXPECT_FALSE(config.Validate().ok());
  config.wire_batch = 8191;  // one record under the cap
  EXPECT_TRUE(config.Validate().ok());

  config.wire_batch = (1u << 20) + 1;  // above the per-frame record cap
  EXPECT_FALSE(config.Validate().ok());

  config.wire_batch = 8;
  config.dim = (1u << 16) + 1;  // above the wire dim cap
  EXPECT_FALSE(config.Validate().ok());

  // The wire caps bind only records that cross the wire.
  config.workers.clear();
  config.num_shards = 2;
  config.checkpoint_root = "in-process";  // Validate reads no disk
  config.wire_batch = 0;
  EXPECT_TRUE(config.Validate().ok());
}

TEST_F(FabricTest, SubmitRejectsWrongDimensionRecord) {
  // EncodeSubmit packs config.dim doubles per record: a wrong-dimension
  // record in an outbox would make every batch it shares a frame with
  // undecodable forever (a poison pill that reads as a dead shard). It
  // must be rejected at Submit, before it takes an arrival index.
  auto server = StartServer(Dir("w0"));
  FabricConfig config = BaseConfig(4);
  config.workers = {{"127.0.0.1", server->server->port()}};
  config.wire_batch = 8;
  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();

  Vector bad(3);
  EXPECT_EQ((*fabric)->Submit(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*fabric)->records_submitted(), 0u);

  // The rejected record poisoned nothing: a full run still flows,
  // finishes, and balances.
  const std::vector<Vector> stream = MakeStream(60, 4, 9);
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  server->Join();
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
}

TEST_F(FabricTest, StartFailsWhenNothingIsReachableAndNoFallback) {
  FabricConfig config = BaseConfig(4);
  // Reserved port with nothing behind it.
  config.workers = {{"127.0.0.1", 1}};
  Status status = FabricService::Start(config).status();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
}

TEST_F(FabricTest, ReleaseIsBitIdenticalToInProcessService) {
  const std::size_t kShards = 3;
  const std::vector<Vector> stream = MakeStream(1200, 4, 5);

  // In-process reference run.
  FabricConfig reference;
  reference.num_shards = kShards;
  reference.dim = 4;
  reference.group_size = 10;
  reference.checkpoint_root = Dir("inproc");
  reference.seed = 91;
  auto in_process = FabricService::Start(reference);
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*in_process)->Submit(record).ok());
  }
  auto expected = (*in_process)->Finish();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Fabric run over three worker servers.
  std::vector<std::unique_ptr<ServerHandle>> servers;
  FabricConfig config = BaseConfig(4);
  for (std::size_t i = 0; i < kShards; ++i) {
    servers.push_back(StartServer(Dir("worker-" + std::to_string(i))));
    config.workers.push_back(
        {"127.0.0.1", servers.back()->server->port()});
  }
  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (auto& server : servers) server->Join();

  // The contract is BYTE identity of the canonical serialization, not
  // approximate statistical agreement.
  EXPECT_EQ(core::SerializeGroupSet(result->groups),
            core::SerializeGroupSet(expected->groups));
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
  EXPECT_EQ(result->report.handoffs, 0u);
  EXPECT_EQ(result->report.rerouted_records, 0u);
  ASSERT_EQ(result->shards.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(result->shards[i].ledger.accepted,
              expected->shards[i].ledger.accepted)
        << "shard " << i;
  }
}

TEST_F(FabricTest, MdavBackendRunsAcrossTheFabric) {
  const std::size_t kShards = 2;
  const std::size_t kGroupSize = 6;
  const std::vector<Vector> stream = MakeStream(400, 3, 19);

  std::vector<std::unique_ptr<ServerHandle>> servers;
  FabricConfig config = BaseConfig(3);
  config.group_size = kGroupSize;
  config.backend = "mdav";
  for (std::size_t i = 0; i < kShards; ++i) {
    servers.push_back(StartServer(Dir("mdav-worker-" + std::to_string(i))));
    config.workers.push_back(
        {"127.0.0.1", servers.back()->server->port()});
  }
  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (auto& server : servers) server->Join();

  // The workers condensed under MDAV: the gathered set carries the stamp
  // and every group meets the k floor.
  EXPECT_EQ(result->groups.backend_id(), "mdav");
  EXPECT_EQ(result->groups.backend_version(), 1);
  EXPECT_EQ(result->groups.TotalRecords(), stream.size());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
  for (const auto& group : result->groups.groups()) {
    EXPECT_GE(group.count(), kGroupSize);
  }
  // The stamp survives serialization of the gathered set.
  EXPECT_NE(core::SerializeGroupSet(result->groups).find("backend mdav 1"),
            std::string::npos);
}

TEST_F(FabricTest, ValidateRejectsUnknownBackend) {
  FabricConfig config = BaseConfig(4);
  config.workers.push_back({"127.0.0.1", 1});
  config.backend = "bogus";
  auto fabric = FabricService::Start(config);
  ASSERT_FALSE(fabric.ok());
  EXPECT_TRUE(IsNotFound(fabric.status()));
}

TEST_F(FabricTest, DeadEndpointIsRoutedAroundWithZeroLoss) {
  // Shard 1's endpoint never exists; its records must land on survivors
  // and the run must finish balanced.
  auto server0 = StartServer(Dir("w0"));
  auto server2 = StartServer(Dir("w2"));
  FabricConfig config = BaseConfig(4);
  config.workers = {{"127.0.0.1", server0->server->port()},
                    {"127.0.0.1", 1},  // nothing listens here
                    {"127.0.0.1", server2->server->port()}};
  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();

  const std::vector<Vector> stream = MakeStream(600, 4, 6);
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  server0->Join();
  server2->Join();

  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
  EXPECT_GT(result->report.rerouted_records, 0u);
  EXPECT_EQ(result->groups.TotalRecords(), stream.size());
}

TEST_F(FabricTest, TotalOutageDegradesToLocalFallbackBitIdentically) {
  // No endpoint is reachable at all, but checkpoint_root is set: the
  // run must complete entirely in-process AND still release the same
  // bytes as the healthy in-process run (takeover mirrors the same
  // routing, seeds, and gather order).
  const std::size_t kShards = 2;
  const std::vector<Vector> stream = MakeStream(800, 3, 7);

  FabricConfig reference;
  reference.num_shards = kShards;
  reference.dim = 3;
  reference.group_size = 10;
  reference.checkpoint_root = Dir("inproc");
  reference.seed = 91;
  auto in_process = FabricService::Start(reference);
  ASSERT_TRUE(in_process.ok());
  for (const Vector& record : stream) {
    ASSERT_TRUE((*in_process)->Submit(record).ok());
  }
  auto expected = (*in_process)->Finish();
  ASSERT_TRUE(expected.ok());

  FabricConfig config = BaseConfig(3);
  config.workers = {{"127.0.0.1", 1}, {"127.0.0.1", 1}};
  config.checkpoint_root = Dir("fallback");
  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok())
        << "record lost during total outage";
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->report.local_takeovers, kShards);
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(core::SerializeGroupSet(result->groups),
            core::SerializeGroupSet(expected->groups));
}

TEST_F(FabricTest, WorkerDeathAtFinishReroutesPendingRecordsBeforeGather) {
  // Regression: records still sitting in a peer's outbox when that peer
  // dies at Finish time must be delivered BEFORE any shard's groups are
  // collected. Draining orphans only after the gather loop either
  // aborted the Finish (orphan lands on an already-finished worker) or
  // silently dropped records (orphan lands on an already-gathered one).
  const std::size_t kShards = 3;
  std::vector<std::unique_ptr<ServerHandle>> servers;
  FabricConfig config = BaseConfig(4);
  // Nothing flushes during ingest: every record is still in an outbox
  // when Finish starts.
  config.wire_batch = 100000;
  config.io_timeout_ms = 500.0;
  config.ack_timeout_ms = 1000.0;
  for (std::size_t i = 0; i < kShards; ++i) {
    servers.push_back(StartServer(Dir("w" + std::to_string(i))));
    config.workers.push_back(
        {"127.0.0.1", servers.back()->server->port()});
  }
  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();

  const std::vector<Vector> stream = MakeStream(600, 4, 11);
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  // Kill worker 1 outright (listener and all) with its backlog unflushed.
  servers[1].reset();

  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (auto& server : servers) {
    if (server != nullptr) server->Join();
  }
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
  EXPECT_EQ(result->groups.TotalRecords(), stream.size());
  EXPECT_GT(result->report.rerouted_records, 0u);
}

TEST_F(FabricTest, WorkerDeathAtFinishIsTakenOverWithItsBacklog) {
  // Same shape with a fallback root: the dead shard keeps its backlog
  // via in-process takeover instead of displacing it, so the release
  // stays bit-identical to the healthy in-process run.
  const std::size_t kShards = 3;
  const std::vector<Vector> stream = MakeStream(600, 4, 11);

  FabricConfig reference;
  reference.num_shards = kShards;
  reference.dim = 4;
  reference.group_size = 10;
  reference.checkpoint_root = Dir("inproc");
  reference.seed = 91;
  auto in_process = FabricService::Start(reference);
  ASSERT_TRUE(in_process.ok());
  for (const Vector& record : stream) {
    ASSERT_TRUE((*in_process)->Submit(record).ok());
  }
  auto expected = (*in_process)->Finish();
  ASSERT_TRUE(expected.ok());

  std::vector<std::unique_ptr<ServerHandle>> servers;
  FabricConfig config = BaseConfig(4);
  config.wire_batch = 100000;
  config.io_timeout_ms = 500.0;
  config.ack_timeout_ms = 1000.0;
  config.checkpoint_root = Dir("fallback");
  for (std::size_t i = 0; i < kShards; ++i) {
    servers.push_back(StartServer(Dir("w" + std::to_string(i))));
    config.workers.push_back(
        {"127.0.0.1", servers.back()->server->port()});
  }
  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  servers[1].reset();

  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (auto& server : servers) {
    if (server != nullptr) server->Join();
  }
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), stream.size());
  EXPECT_GE(result->report.local_takeovers, 1u);
  EXPECT_EQ(result->report.rerouted_records, 0u);
  EXPECT_EQ(core::SerializeGroupSet(result->groups),
            core::SerializeGroupSet(expected->groups));
}

TEST_F(FabricTest, SubmitAfterFinishFails) {
  auto server = StartServer(Dir("w0"));
  FabricConfig config = BaseConfig(2);
  config.workers = {{"127.0.0.1", server->server->port()}};
  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok());
  for (const Vector& record : MakeStream(50, 2, 8)) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  ASSERT_TRUE((*fabric)->Finish().ok());
  server->Join();
  Vector record(2);
  EXPECT_EQ((*fabric)->Submit(record).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*fabric)->Finish().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FabricTest, WorkerIdentityLabelsBothShardSeries) {
  // Satellite contract: per-shard series carry {shard, worker} so a
  // restarted worker with a stable id keeps its series.
  WorkerOptions options;
  options.mode = WorkerMode::kStaticBatch;
  options.group_size = 4;
  options.worker_id = "stable-w9";
  auto worker = Worker::Start(9, 2, options);
  ASSERT_TRUE(worker.ok());
  Vector record(2);
  ASSERT_TRUE((*worker)->Submit(record).ok());
  const std::string dump =
      obs::DefaultRegistry().DumpPrometheusText();
  EXPECT_NE(
      dump.find(
          "condensa_shard_records_total{shard=\"9\",worker=\"stable-w9\"}"),
      std::string::npos)
      << dump;
}

}  // namespace
}  // namespace condensa::shard
