// ShardedCondenserTest: the in-process static-batch transport of the
// sharding service (kStaticBatch, no endpoints) — scatter, condense each
// partition at Finish, exact-merge gather.

#include "shard/fabric.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/random.h"
#include "core/serialization.h"
#include "linalg/vector.h"

namespace condensa::shard {
namespace {

using linalg::Vector;

std::vector<Vector> GaussianRecords(std::size_t count, std::size_t dim,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Vector record(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      record[j] = rng.Gaussian(static_cast<double>(j % 3), 1.0);
    }
    records.push_back(std::move(record));
  }
  return records;
}

FabricConfig BatchConfig(std::size_t shards, std::size_t k,
                         std::uint64_t seed) {
  FabricConfig config;
  config.num_shards = shards;
  config.mode = WorkerMode::kStaticBatch;
  config.group_size = k;
  config.num_threads = 1;
  config.seed = seed;
  return config;
}

// One batch run over `records`, which share one dimension.
StatusOr<FabricResult> Condense(FabricConfig config,
                                const std::vector<Vector>& records) {
  config.dim = records.front().dim();
  CONDENSA_ASSIGN_OR_RETURN(std::unique_ptr<FabricService> service,
                            FabricService::Start(config));
  for (const Vector& record : records) {
    CONDENSA_RETURN_IF_ERROR(service->Submit(record));
  }
  return service->Finish();
}

TEST(ShardedCondenserTest, ConservesRecordsAndKFloorAcrossShardCounts) {
  const std::size_t n = 600;
  const std::size_t k = 10;
  std::vector<Vector> records = GaussianRecords(n, 4, 11);
  for (std::size_t shards : {1u, 2u, 4u, 7u}) {
    auto result = Condense(BatchConfig(shards, k, 99), records);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->groups.TotalRecords(), n) << "shards=" << shards;
    EXPECT_GE(result->groups.Summary().min_group_size, k)
        << "shards=" << shards;
    EXPECT_EQ(result->gather.records_in, n);
    EXPECT_EQ(result->shards.size(), shards);
    std::size_t routed = 0;
    for (const ShardReport& report : result->shards) {
      routed += report.records;
    }
    EXPECT_EQ(routed, n);
  }
}

TEST(ShardedCondenserTest, PreservesGlobalMeanExactly) {
  // Scatter/gather must not move the global first moment: the sum of the
  // released groups' first-order sums equals the raw data sum to float
  // tolerance, whatever the shard count.
  const std::size_t n = 400;
  const std::size_t dim = 3;
  std::vector<Vector> records = GaussianRecords(n, dim, 12);
  Vector raw_sum(dim);
  for (const Vector& record : records) raw_sum += record;

  auto result = Condense(BatchConfig(4, 8, 5), records);
  ASSERT_TRUE(result.ok()) << result.status();

  Vector condensed_sum(dim);
  for (const core::GroupStatistics& group : result->groups.groups()) {
    condensed_sum += group.first_order();
  }
  for (std::size_t j = 0; j < dim; ++j) {
    EXPECT_NEAR(condensed_sum[j], raw_sum[j], 1e-9);
  }
}

TEST(ShardedCondenserTest, FixedSeedAndShardCountIsBitIdentical) {
  std::vector<Vector> records = GaussianRecords(300, 3, 13);
  const FabricConfig config = BatchConfig(4, 8, 7);
  auto first = Condense(config, records);
  auto second = Condense(config, records);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(core::SerializeGroupSet(first->groups),
            core::SerializeGroupSet(second->groups));
}

TEST(ShardedCondenserTest, ThreadCountDoesNotChangeOutput) {
  std::vector<Vector> records = GaussianRecords(300, 3, 14);
  FabricConfig config = BatchConfig(4, 8, 21);
  auto serial = Condense(config, records);
  config.num_threads = 4;
  auto parallel = Condense(config, records);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  EXPECT_EQ(core::SerializeGroupSet(serial->groups),
            core::SerializeGroupSet(parallel->groups));
}

TEST(ShardedCondenserTest, ShardSmallerThanKIsFoldedNotDropped) {
  // 4 shards, 25 records, k = 10: some partitions end below the k-floor;
  // their remainders must be folded into the global structure.
  std::vector<Vector> records = GaussianRecords(25, 2, 15);
  auto result = Condense(BatchConfig(4, 10, 3), records);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->groups.TotalRecords(), 25u);
  EXPECT_GE(result->groups.Summary().min_group_size, 10u);
}

TEST(ShardedCondenserTest, DurableStreamModeCondensesAndCheckpoints) {
  const std::string root =
      ::testing::TempDir() + "/condensa_sharded_condenser_stream";
  // Durable shards recover whatever a previous run checkpointed, so the
  // root must start empty for the record count to be this run's.
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const std::string dir = root + "/shard-" + std::to_string(shard);
    if (auto entries = ListDirectory(dir); entries.ok()) {
      for (const std::string& name : *entries) RemoveFile(dir + "/" + name);
    }
  }
  CreateDirectories(root);
  std::vector<Vector> records = GaussianRecords(200, 3, 16);
  FabricConfig config = BatchConfig(2, 5, 9);
  config.mode = WorkerMode::kDurableStream;
  config.checkpoint_root = root;
  config.sync_every_append = false;
  auto result = Condense(config, records);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->groups.TotalRecords(), 200u);
  EXPECT_GE(result->groups.Summary().min_group_size, 5u);
  // Each shard checkpointed into its own directory.
  for (std::size_t shard = 0; shard < 2; ++shard) {
    auto entries = ListDirectory(root + "/shard-" + std::to_string(shard));
    ASSERT_TRUE(entries.ok()) << entries.status();
    EXPECT_FALSE(entries->empty());
  }
}

TEST(ShardedCondenserTest, MdavBackendStampsAndBoundsGroups) {
  const std::size_t n = 300;
  const std::size_t k = 8;
  std::vector<Vector> records = GaussianRecords(n, 3, 23);
  FabricConfig config = BatchConfig(4, k, 7);
  config.num_threads = 2;
  config.backend = "mdav";
  auto result = Condense(config, records);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->groups.backend_id(), "mdav");
  EXPECT_EQ(result->groups.backend_version(), 1);
  EXPECT_EQ(result->groups.TotalRecords(), n);
  // MDAV pins every group into [k, 2k-1] per shard; the sub-k remainder
  // fold can only grow a group, never shrink one below k.
  for (const auto& group : result->groups.groups()) {
    EXPECT_GE(group.count(), k);
  }
}

TEST(ShardedCondenserTest, UnknownBackendIsRejectedBeforeWork) {
  std::vector<Vector> records = GaussianRecords(40, 2, 29);
  FabricConfig config = BatchConfig(1, 10, 1);
  config.backend = "bogus";
  auto result = Condense(config, records);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsNotFound(result.status()));
  EXPECT_NE(std::string(result.status().message()).find("available"),
            std::string::npos);
}

TEST(ShardedCondenserTest, RejectsBadConfigsAndInputs) {
  std::vector<Vector> records = GaussianRecords(50, 2, 17);

  FabricConfig zero_shards = BatchConfig(0, 10, 1);
  EXPECT_TRUE(IsInvalidArgument(Condense(zero_shards, records).status()));

  FabricConfig stream_without_root = BatchConfig(1, 10, 1);
  stream_without_root.mode = WorkerMode::kDurableStream;
  EXPECT_TRUE(
      IsInvalidArgument(Condense(stream_without_root, records).status()));

  // The service is told the record dimension up front; it cannot be 0.
  FabricConfig no_dimension = BatchConfig(1, 10, 1);
  EXPECT_TRUE(IsInvalidArgument(FabricService::Start(no_dimension).status()));

  std::vector<Vector> ragged = records;
  ragged.push_back(Vector{1.0, 2.0, 3.0});
  EXPECT_TRUE(
      IsInvalidArgument(Condense(BatchConfig(1, 10, 1), ragged).status()));
}

}  // namespace
}  // namespace condensa::shard
