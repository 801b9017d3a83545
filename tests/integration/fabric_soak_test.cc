// Fabric chaos soak: worker PROCESSES (fork + SIGKILL), not threads.
// These tests pin the tentpole guarantees end-to-end:
//
//   * a clean multi-process run releases the exact bytes of the
//     in-process sharded service (bit-identity over the wire);
//   * kill -9 of a worker mid-ingest loses zero acked records — every
//     submitted record appears in the release, and the only multiplicity
//     is the explicitly counted duplicates from re-routed batches whose
//     ack the crash swallowed;
//   * a killed worker respawned on its original port recovers from its
//     own checkpoint directory and rejoins;
//   * with no respawn, the coordinator takes the shard over locally from
//     the shared checkpoint root;
//   * heartbeat-loss injection (the "fabric.heartbeat" probe) drives the
//     liveness machinery — misses, then recovery — without data loss.
//
// Under TSan the forking parent needs TSAN_OPTIONS=die_after_fork=0 (set
// by the CI chaos job).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/serialization.h"
#include "shard/fabric.h"
#include "shard/worker_process.h"
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

class FabricSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoint::Reset();
    dir_ = std::filesystem::temp_directory_path() /
           ("condensa-fabric-soak-" +
            std::to_string(static_cast<unsigned long>(::getpid())) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailPoint::Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string Dir(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  std::filesystem::path dir_;
};

FabricConfig SoakConfig(std::size_t dim) {
  FabricConfig config;
  config.dim = dim;
  config.group_size = 10;
  config.seed = 77;
  config.wire_batch = 16;
  config.heartbeat_interval_ms = 40.0;
  config.heartbeat_timeout_ms = 500.0;
  config.connect_timeout_ms = 500.0;
  config.io_timeout_ms = 2000.0;
  config.reconnect.max_attempts = 2;
  config.reconnect.initial_backoff_ms = 10.0;
  config.reconnect.max_backoff_ms = 100.0;
  return config;
}

// The zero-silent-loss ledger, stated end to end: every submitted record
// is in the release, and the only multiplicity is the counted duplicates
// from batches whose ack a crash swallowed.
void ExpectLedgerExact(const FabricResult& result, std::size_t submitted) {
  EXPECT_TRUE(result.Balanced());
  EXPECT_EQ(result.groups.TotalRecords(),
            submitted + result.report.duplicates_detected);
}

TEST_F(FabricSoakTest, ForkedWorkersReleaseBitIdenticalToInProcess) {
  const std::size_t kShards = 2;
  const std::vector<Vector> stream = MakeStream(900, 3, 11);

  FabricConfig reference;
  reference.num_shards = kShards;
  reference.dim = 3;
  reference.group_size = 10;
  reference.checkpoint_root = Dir("inproc");
  reference.seed = 77;
  auto in_process = FabricService::Start(reference);
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*in_process)->Submit(record).ok());
  }
  auto expected = (*in_process)->Finish();
  ASSERT_TRUE(expected.ok());

  std::vector<WorkerProcess> workers;
  FabricConfig config = SoakConfig(3);
  for (std::size_t i = 0; i < kShards; ++i) {
    WorkerServerConfig server;
    server.checkpoint_root = Dir("worker-" + std::to_string(i));
    auto spawned = WorkerProcess::Spawn(std::move(server));
    ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
    workers.push_back(*std::move(spawned));
    config.workers.push_back({"127.0.0.1", workers.back().port()});
  }

  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();
  for (const Vector& record : stream) {
    ASSERT_TRUE((*fabric)->Submit(record).ok());
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(core::SerializeGroupSet(result->groups),
            core::SerializeGroupSet(expected->groups));
  ExpectLedgerExact(*result, stream.size());
  EXPECT_EQ(result->report.duplicates_detected, 0u);
  for (WorkerProcess& worker : workers) {
    StatusOr<int> status = worker.Wait();
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    EXPECT_TRUE(WIFEXITED(*status) && WEXITSTATUS(*status) == 0);
  }
}

TEST_F(FabricSoakTest, SigkillMidIngestLosesNoAckedRecordsAndWorkerRejoins) {
  // All workers and the coordinator share one checkpoint root, as a
  // co-located deployment would: shard i's durable state lives in
  // <root>/shard-<i> no matter which process owns it.
  const std::size_t kShards = 3;
  const std::string root = Dir("shared");
  const std::vector<Vector> stream = MakeStream(1500, 3, 12);

  std::vector<WorkerProcess> workers;
  FabricConfig config = SoakConfig(3);
  for (std::size_t i = 0; i < kShards; ++i) {
    WorkerServerConfig server;
    server.checkpoint_root = root;
    auto spawned = WorkerProcess::Spawn(std::move(server));
    ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
    workers.push_back(*std::move(spawned));
    config.workers.push_back({"127.0.0.1", workers.back().port()});
  }
  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();

  // Phase 1: a third of the stream lands normally.
  std::size_t sent = 0;
  for (; sent < stream.size() / 3; ++sent) {
    ASSERT_TRUE((*fabric)->Submit(stream[sent]).ok());
  }

  // SIGKILL worker 1 mid-ingest. No shutdown path runs; whatever it
  // acked must already be durable in <root>/shard-1.
  const std::uint16_t killed_port = workers[1].port();
  workers[1].Kill();

  // Phase 2: keep ingesting through the death. The coordinator detects
  // the failure on flush or heartbeat, declares the peer dead, and
  // re-routes its in-flight records to survivors.
  for (; sent < 2 * stream.size() / 3; ++sent) {
    ASSERT_TRUE((*fabric)->Submit(stream[sent]).ok());
  }

  // Respawn on the ORIGINAL port with the same checkpoint root: the
  // worker recovers its durable shard state and rejoins on the next
  // redial (or, at the latest, Finish's last-chance handshake).
  {
    WorkerServerConfig server;
    server.checkpoint_root = root;
    server.port = killed_port;
    auto respawned = WorkerProcess::Spawn(std::move(server));
    ASSERT_TRUE(respawned.ok()) << respawned.status().ToString();
    workers[1] = *std::move(respawned);
  }
  // Give the heartbeat loop a few intervals to redial the revived port.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Phase 3: the rest of the stream.
  for (; sent < stream.size(); ++sent) {
    ASSERT_TRUE((*fabric)->Submit(stream[sent]).ok());
  }

  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExpectLedgerExact(*result, stream.size());
  EXPECT_GE(result->report.handoffs, 1u);
  // The kill was detected and the revived worker was folded back in —
  // via a live rejoin, the finish-time handshake, or (if the respawn
  // raced the declare-dead) a reconnect.
  EXPECT_GE(result->report.rejoins + result->report.reconnects, 1u);
}

TEST_F(FabricSoakTest, KilledWorkerWithoutRespawnIsTakenOverLocally) {
  const std::size_t kShards = 2;
  const std::string root = Dir("shared");
  const std::vector<Vector> stream = MakeStream(800, 3, 13);

  std::vector<WorkerProcess> workers;
  FabricConfig config = SoakConfig(3);
  config.checkpoint_root = root;  // same parent as the workers
  for (std::size_t i = 0; i < kShards; ++i) {
    WorkerServerConfig server;
    server.checkpoint_root = root;
    auto spawned = WorkerProcess::Spawn(std::move(server));
    ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
    workers.push_back(*std::move(spawned));
    config.workers.push_back({"127.0.0.1", workers.back().port()});
  }
  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();

  std::size_t sent = 0;
  for (; sent < stream.size() / 2; ++sent) {
    ASSERT_TRUE((*fabric)->Submit(stream[sent]).ok());
  }
  workers[0].Kill();  // never respawned
  for (; sent < stream.size(); ++sent) {
    ASSERT_TRUE((*fabric)->Submit(stream[sent]).ok());
  }

  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExpectLedgerExact(*result, stream.size());
  EXPECT_GE(result->report.handoffs, 1u);
  EXPECT_GE(result->report.local_takeovers, 1u);
}

TEST_F(FabricSoakTest, HeartbeatLossInjectionDrivesMissAndRecovery) {
  // In-process WorkerServer so the worker shares this process's failpoint
  // registry: an armed "fabric.heartbeat" makes the worker swallow beats
  // without replying, which the coordinator must treat as a miss.
  WorkerServerConfig server_config;
  server_config.checkpoint_root = Dir("w0");
  auto server = WorkerServer::Create(std::move(server_config));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::thread server_thread(
      [raw = server->get()] { EXPECT_TRUE(raw->Run().ok()); });

  FabricConfig config = SoakConfig(3);
  config.workers = {{"127.0.0.1", (*server)->port()}};
  // Tight liveness so the test observes misses quickly; the recv wait for
  // a swallowed beat is heartbeat_timeout_ms.
  config.heartbeat_interval_ms = 30.0;
  config.heartbeat_timeout_ms = 120.0;
  auto fabric = FabricService::Start(config);
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();

  const std::vector<Vector> stream = MakeStream(300, 3, 14);
  std::size_t sent = 0;
  for (; sent < stream.size() / 2; ++sent) {
    ASSERT_TRUE((*fabric)->Submit(stream[sent]).ok());
  }

  // Two consecutive beats vanish, then the worker behaves again.
  FailPoint::Arm("fabric.heartbeat", {.fail_at = 1, .repeat = 2});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*fabric)->report().heartbeat_misses < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE((*fabric)->report().heartbeat_misses, 1u);
  FailPoint::Reset();
  // Let the liveness loop re-establish the session before resuming.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  for (; sent < stream.size(); ++sent) {
    ASSERT_TRUE((*fabric)->Submit(stream[sent]).ok());
  }
  auto result = (*fabric)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  server_thread.join();

  ExpectLedgerExact(*result, stream.size());
  EXPECT_GE(result->report.heartbeat_misses, 1u);
}

}  // namespace
}  // namespace condensa::shard
