// StreamServiceTest: the in-process durable-stream transport of the
// sharding service (kDurableStream, no endpoints) — one crash-safe
// pipeline per shard under <checkpoint_root>/shard-<i>.

#include "shard/fabric.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/io.h"
#include "common/random.h"
#include "core/serialization.h"
#include "linalg/vector.h"

namespace condensa::shard {
namespace {

using linalg::Vector;

void WipeTree(const std::string& root) {
  if (auto entries = ListDirectory(root); entries.ok()) {
    for (const std::string& name : *entries) {
      const std::string child = root + "/" + name;
      if (auto nested = ListDirectory(child); nested.ok()) {
        for (const std::string& inner : *nested) RemoveFile(child + "/" + inner);
      }
      RemoveFile(child);
    }
  }
}

class StreamServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/condensa_stream_service_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    WipeTree(root_);
    CreateDirectories(root_);
  }

  FabricConfig Config(std::size_t shards) const {
    FabricConfig config;
    config.num_shards = shards;
    config.dim = 3;
    config.group_size = 4;
    config.checkpoint_root = root_;
    config.sync_every_append = false;
    config.snapshot_interval = 64;
    config.seed = 77;
    return config;
  }

  std::vector<Vector> Records(std::size_t count, std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<Vector> records;
    records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      records.push_back(
          Vector{rng.Gaussian(), rng.Gaussian(2.0, 1.5), rng.Uniform(-1, 1)});
    }
    return records;
  }

  std::string root_;
};

TEST_F(StreamServiceTest, IngestsAcrossShardsWithBalancedLedgers) {
  const std::size_t n = 300;
  auto service = FabricService::Start(Config(3));
  ASSERT_TRUE(service.ok()) << service.status();
  for (const Vector& record : Records(n, 1)) {
    ASSERT_TRUE((*service)->Submit(record).ok());
  }
  EXPECT_EQ((*service)->records_submitted(), n);

  auto result = (*service)->Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->shards.size(), 3u);
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), n);
  EXPECT_EQ(result->TotalApplied(), n);
  EXPECT_EQ(result->groups.TotalRecords(), n);
  EXPECT_GE(result->groups.Summary().min_group_size, 4u);
  EXPECT_EQ(result->gather.shards_in, 3u);
}

TEST_F(StreamServiceTest, EveryShardCheckpointsInItsOwnDirectory) {
  auto service = FabricService::Start(Config(4));
  ASSERT_TRUE(service.ok()) << service.status();
  for (const Vector& record : Records(120, 2)) {
    ASSERT_TRUE((*service)->Submit(record).ok());
  }
  auto result = (*service)->Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  for (std::size_t shard = 0; shard < 4; ++shard) {
    auto entries = ListDirectory(root_ + "/shard-" + std::to_string(shard));
    ASSERT_TRUE(entries.ok()) << entries.status();
    EXPECT_FALSE(entries->empty()) << "shard " << shard;
  }
}

TEST_F(StreamServiceTest, FixedSeedAndShardCountReplaysBitIdentically) {
  std::vector<Vector> records = Records(250, 3);
  std::string first_serialized;
  for (int run = 0; run < 2; ++run) {
    WipeTree(root_);
    for (std::size_t shard = 0; shard < 2; ++shard) {
      WipeTree(root_ + "/shard-" + std::to_string(shard));
    }
    auto service = FabricService::Start(Config(2));
    ASSERT_TRUE(service.ok()) << service.status();
    for (const Vector& record : records) {
      ASSERT_TRUE((*service)->Submit(record).ok());
    }
    auto result = (*service)->Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    const std::string serialized = core::SerializeGroupSet(result->groups);
    if (run == 0) {
      first_serialized = serialized;
    } else {
      EXPECT_EQ(serialized, first_serialized);
    }
  }
}

TEST_F(StreamServiceTest, SubmitAfterFinishFailsCleanly) {
  auto service = FabricService::Start(Config(2));
  ASSERT_TRUE(service.ok()) << service.status();
  for (const Vector& record : Records(40, 4)) {
    ASSERT_TRUE((*service)->Submit(record).ok());
  }
  ASSERT_TRUE((*service)->Finish().ok());
  EXPECT_TRUE(
      IsFailedPrecondition((*service)->Submit(Vector{0.0, 0.0, 0.0})));
  auto again = (*service)->Finish();
  EXPECT_TRUE(IsFailedPrecondition(again.status()));
}

TEST_F(StreamServiceTest, ValidatesConfig) {
  FabricConfig config = Config(0);
  EXPECT_TRUE(
      IsInvalidArgument(FabricService::Start(config).status()));
  config = Config(2);
  config.dim = 0;
  EXPECT_TRUE(
      IsInvalidArgument(FabricService::Start(config).status()));
  config = Config(2);
  config.group_size = 1;
  EXPECT_TRUE(
      IsInvalidArgument(FabricService::Start(config).status()));
  config = Config(2);
  config.checkpoint_root.clear();
  EXPECT_TRUE(
      IsInvalidArgument(FabricService::Start(config).status()));
}

TEST_F(StreamServiceTest, LiveStatsCoverEveryShard) {
  auto service = FabricService::Start(Config(2));
  ASSERT_TRUE(service.ok()) << service.status();
  for (const Vector& record : Records(60, 5)) {
    ASSERT_TRUE((*service)->Submit(record).ok());
  }
  std::vector<runtime::StreamPipelineStats> live = (*service)->stats();
  ASSERT_EQ(live.size(), 2u);
  std::size_t submitted = 0;
  for (const runtime::StreamPipelineStats& stats : live) {
    submitted += stats.submitted;
  }
  EXPECT_EQ(submitted, 60u);
  ASSERT_TRUE((*service)->Finish().ok());
}

TEST_F(StreamServiceTest, WrongDimensionRecordIsQuarantinedInProcess) {
  // In-process shards accept any record and let the shard pipeline
  // quarantine a wrong-dimension one: Submit is OK and the ledger books
  // it, balanced. (The networked transport rejects it at Submit instead;
  // see FabricTest.SubmitRejectsWrongDimensionRecord.)
  auto service = FabricService::Start(Config(2));
  ASSERT_TRUE(service.ok()) << service.status();
  const std::vector<Vector> records = Records(40, 6);
  for (const Vector& record : records) {
    ASSERT_TRUE((*service)->Submit(record).ok());
  }
  ASSERT_TRUE((*service)->Submit(Vector{1.0}).ok());
  EXPECT_EQ((*service)->records_submitted(), 41u);

  auto result = (*service)->Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->Balanced());
  EXPECT_EQ(result->TotalAccepted(), 40u);
  EXPECT_EQ(result->groups.TotalRecords(), 40u);
  std::size_t quarantined = 0;
  for (const ShardReport& shard : result->shards) {
    if (shard.ledger.quarantined_dimension == 1) {
      EXPECT_NE(shard.ledger.ToString().find("quarantined 1 (dimension 1,"),
                std::string::npos)
          << shard.ledger.ToString();
    }
    quarantined += shard.ledger.quarantined_dimension;
  }
  EXPECT_EQ(quarantined, 1u);
}

}  // namespace
}  // namespace condensa::shard
