// Chaos soak for sharded condensation over in-process durable shards
// (shard/fabric.h with no worker endpoints).
//
// Two failure stories the scatter/gather design must survive:
//
//   1. A worker dies mid-ingest. Simulated two ways: failpoint-injected
//      internal condenser errors while the stream is live (the pipeline
//      "kills" and reopens its durable condenser via Recover), and a
//      torn journal tail left in ONE shard's checkpoint directory (a
//      worker that crashed mid-write). In both cases the crashed shard
//      recovers alone — the other shards' checkpoints are untouched —
//      and the per-shard zero-silent-loss ledgers still balance.
//
//   2. The disk misbehaves under load across every shard. The soak arms
//      probabilistic append/sync/snapshot/insert faults while records
//      flow, heals the disk, finishes, and asserts the global gather
//      represents exactly the applied records of every shard.
//
// Duration scales with CONDENSA_CHAOS_SOAK_SECONDS like the runtime
// chaos soak; runs under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/random.h"
#include "linalg/vector.h"
#include "shard/fabric.h"

namespace condensa::shard {
namespace {

using linalg::Vector;

double SoakSeconds() {
  if (const char* env = std::getenv("CONDENSA_CHAOS_SOAK_SECONDS")) {
    const double parsed = std::atof(env);
    if (parsed > 0.0) return parsed;
  }
  return 1.0;
}

void WipeTree(const std::string& root) {
  if (auto entries = ListDirectory(root); entries.ok()) {
    for (const std::string& name : *entries) {
      const std::string child = root + "/" + name;
      if (auto nested = ListDirectory(child); nested.ok()) {
        for (const std::string& inner : *nested) {
          RemoveFile(child + "/" + inner);
        }
      }
      RemoveFile(child);
    }
  }
}

std::string FreshRoot(const std::string& tag) {
  std::string root = ::testing::TempDir() + "/condensa_shard_soak_" + tag;
  WipeTree(root);
  CreateDirectories(root);
  return root;
}

FabricConfig SoakConfig(const std::string& root, std::size_t shards) {
  FabricConfig config;
  config.num_shards = shards;
  config.dim = 3;
  config.group_size = 5;
  config.checkpoint_root = root;
  config.snapshot_interval = 32;
  config.sync_every_append = false;
  config.queue_capacity = 64;
  config.batch_size = 8;
  config.seed = 20260805;
  return config;
}

Vector RandomRecord(Rng& rng) {
  return Vector{rng.Gaussian(), rng.Gaussian(1.0, 2.0), rng.Gaussian()};
}

TEST(ShardSoakTest, WorkerKilledMidIngestRecoversWithZeroSilentLoss) {
  FailPoint::Reset();
  const std::string root = FreshRoot("killed_worker");
  constexpr std::size_t kShards = 3;

  auto service = FabricService::Start(SoakConfig(root, kShards));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  Rng rng(1);
  std::size_t submitted = 0;
  // Healthy warm-up so every shard has live state to lose.
  for (int i = 0; i < 150; ++i, ++submitted) {
    ASSERT_TRUE((*service)->Submit(RandomRecord(rng)).ok());
  }

  // Kill phase: the condenser starts throwing internal errors, which
  // poisons a shard's in-memory state; its pipeline must rebuild via
  // Recover from that shard's own checkpoint directory and keep going.
  FailPoint::Arm("dynamic.insert", {.code = StatusCode::kInternal,
                                    .probability = 0.05,
                                    .seed = 5});
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(SoakSeconds()));
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE((*service)->Submit(RandomRecord(rng)).ok());
    ++submitted;
  }
  EXPECT_GT(FailPoint::TriggerCount("dynamic.insert"), 0u);
  FailPoint::Reset();

  // Recovery phase: the stream keeps flowing after the fault clears.
  for (int i = 0; i < 150; ++i, ++submitted) {
    ASSERT_TRUE((*service)->Submit(RandomRecord(rng)).ok());
  }

  auto result = (*service)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Zero silent loss, shard by shard: every accepted record is applied or
  // quarantined-with-reason; nothing vanished.
  std::size_t applied = 0, quarantined = 0, accepted = 0, reopens = 0;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    const runtime::StreamPipelineStats& stats = result->shards[shard].ledger;
    SCOPED_TRACE("shard " + std::to_string(shard) + ": " + stats.ToString());
    EXPECT_TRUE(stats.Balanced());
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.spool_remaining, 0u);
    applied += stats.applied;
    quarantined += stats.quarantined;
    accepted += stats.accepted;
    reopens += stats.condenser_reopens;
  }
  EXPECT_EQ(accepted, submitted);
  EXPECT_EQ(applied + quarantined, submitted);
  // The injected kills actually exercised the recovery path somewhere.
  EXPECT_GT(reopens + quarantined, 0u);

  // The global release represents exactly the applied records.
  EXPECT_EQ(result->groups.TotalRecords(), applied);
  EXPECT_GE(result->groups.Summary().min_group_size, 5u);
}

TEST(ShardSoakTest, TornJournalInOneShardRecoversAlone) {
  FailPoint::Reset();
  const std::string root = FreshRoot("torn_journal");
  constexpr std::size_t kShards = 3;
  const FabricConfig config = SoakConfig(root, kShards);

  // Run 1: ingest and checkpoint, remembering what each shard applied.
  std::vector<std::size_t> applied_run1;
  std::size_t total_run1 = 0;
  {
    auto service = FabricService::Start(config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    Rng rng(2);
    for (int i = 0; i < 240; ++i) {
      ASSERT_TRUE((*service)->Submit(RandomRecord(rng)).ok());
    }
    auto result = (*service)->Finish();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const ShardReport& report : result->shards) {
      const runtime::StreamPipelineStats& stats = report.ledger;
      EXPECT_TRUE(stats.Balanced());
      applied_run1.push_back(stats.applied);
      total_run1 += stats.applied;
    }
    EXPECT_EQ(total_run1, 240u);
  }

  // Crash shard 1 mid-write: append a torn record to its newest journal.
  // The other shards' directories are left byte-identical.
  const std::string victim_dir = root + "/shard-1";
  auto entries = ListDirectory(victim_dir);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  std::string newest_journal;
  for (const std::string& name : *entries) {
    if (name.rfind("journal-", 0) == 0 && name > newest_journal) {
      newest_journal = name;
    }
  }
  ASSERT_FALSE(newest_journal.empty());
  {
    auto torn = AppendFile::Open(victim_dir + "/" + newest_journal);
    ASSERT_TRUE(torn.ok()) << torn.status().ToString();
    ASSERT_TRUE(torn->Append("3 0.25 half-writ").ok());  // no newline: torn
    torn->Close();
  }

  // Run 2: every shard recovers from its own directory; shard 1 truncates
  // the torn tail and loses nothing that was acknowledged.
  auto service = FabricService::Start(config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  Rng rng(3);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE((*service)->Submit(RandomRecord(rng)).ok());
  }
  auto result = (*service)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::size_t applied_run2 = 0;
  for (const ShardReport& report : result->shards) {
    const runtime::StreamPipelineStats& stats = report.ledger;
    EXPECT_TRUE(stats.Balanced());
    applied_run2 += stats.applied;
  }
  EXPECT_EQ(applied_run2, 120u);

  // The gather sees run-1 state (recovered per shard) plus run-2 records:
  // every acknowledged record from before the "crash" survived it.
  EXPECT_EQ(result->groups.TotalRecords(), total_run1 + applied_run2);
  EXPECT_GE(result->groups.Summary().min_group_size, 5u);
}

TEST(ShardSoakTest, DiskChaosAcrossAllShardsKeepsLedgersBalanced) {
  FailPoint::Reset();
  const std::string root = FreshRoot("disk_chaos");
  constexpr std::size_t kShards = 2;

  auto service = FabricService::Start(SoakConfig(root, kShards));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  FailPoint::Arm("io.append", {.code = StatusCode::kUnavailable,
                               .probability = 0.04,
                               .seed = 11});
  FailPoint::Arm("io.sync", {.mode = FailPointMode::kLatency,
                             .probability = 0.05,
                             .seed = 12,
                             .latency_ms = 1.0});
  FailPoint::Arm("checkpoint.snapshot", {.code = StatusCode::kUnavailable,
                                         .probability = 0.05,
                                         .seed = 13});

  Rng rng(4);
  std::size_t submitted = 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(SoakSeconds()));
  while (std::chrono::steady_clock::now() < deadline || submitted < 200) {
    ASSERT_TRUE((*service)->Submit(RandomRecord(rng)).ok());
    if (++submitted >= 200 && std::chrono::steady_clock::now() >= deadline) {
      break;
    }
  }

  FailPoint::Reset();  // heal before Finish so the spools can drain

  auto result = (*service)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::size_t applied = 0, quarantined = 0;
  for (const ShardReport& report : result->shards) {
    const runtime::StreamPipelineStats& stats = report.ledger;
    SCOPED_TRACE(stats.ToString());
    EXPECT_TRUE(stats.Balanced());
    EXPECT_EQ(stats.spool_remaining, 0u);
    applied += stats.applied;
    quarantined += stats.quarantined;
  }
  EXPECT_EQ(applied + quarantined, submitted);
  EXPECT_EQ(result->groups.TotalRecords(), applied);
}

}  // namespace
}  // namespace condensa::shard
