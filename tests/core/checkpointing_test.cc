#include "core/checkpointing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/random.h"
#include "core/serialization.h"
#include "core/static_condenser.h"
#include "obs/metrics.h"

namespace condensa::core {
namespace {

using linalg::Vector;

Vector MakeRecord(Rng& rng, std::size_t dim, double center) {
  Vector v(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    v[j] = rng.Gaussian(center, 1.0);
  }
  return v;
}

std::vector<Vector> MakeStream(std::size_t count, std::size_t dim,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stream.push_back(MakeRecord(rng, dim, i % 2 == 0 ? 0.0 : 6.0));
  }
  return stream;
}

// Full-state fingerprint: two condensers with equal fingerprints are
// bit-identical (the serialization renders doubles with %.17g).
std::string Fingerprint(const DynamicCondenser& condenser) {
  return SerializeCondenserState(condenser.ExportState(), 0);
}

class CheckpointingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoint::Reset();
    counter_ = 0;
  }
  void TearDown() override { FailPoint::Reset(); }

  // A fresh empty directory per call.
  std::string FreshDir() {
    std::string dir = ::testing::TempDir() + "/condensa_ckpt_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      "_" + std::to_string(counter_++);
    if (PathExists(dir)) {
      auto entries = ListDirectory(dir);
      if (entries.ok()) {
        for (const std::string& name : *entries) {
          RemoveFile(dir + "/" + name).ok();
        }
      }
    }
    CreateDirectories(dir).ok();
    return dir;
  }

  std::size_t counter_ = 0;
};

TEST_F(CheckpointingTest, StateRoundTripWithoutForming) {
  DynamicCondenser condenser(3, {.group_size = 4});
  Rng rng(11);
  ASSERT_TRUE(condenser.Bootstrap(MakeStream(20, 3, 1), rng).ok());
  ASSERT_TRUE(condenser.Insert(MakeRecord(rng, 3, 0.0)).ok());

  std::size_t sequence = 0;
  auto state = DeserializeCondenserState(
      SerializeCondenserState(condenser.ExportState(), 42), &sequence);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(sequence, 42u);
  EXPECT_FALSE(state->forming.has_value());
  EXPECT_TRUE(state->bootstrapped);
  EXPECT_EQ(state->records_seen, 21u);

  auto rebuilt = DynamicCondenser::FromState(std::move(state).value(),
                                             {.group_size = 4});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(Fingerprint(*rebuilt), Fingerprint(condenser));
}

TEST_F(CheckpointingTest, StateRoundTripPreservesFormingBuffer) {
  DynamicCondenser condenser(2, {.group_size = 5});
  Rng rng(12);
  // Fewer than k records: all of them sit in the forming buffer.
  ASSERT_TRUE(condenser.Insert(MakeRecord(rng, 2, 1.0)).ok());
  ASSERT_TRUE(condenser.Insert(MakeRecord(rng, 2, 1.0)).ok());
  ASSERT_TRUE(condenser.ExportState().forming.has_value());

  auto state = DeserializeCondenserState(
      SerializeCondenserState(condenser.ExportState(), 0), nullptr);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->forming.has_value());
  EXPECT_EQ(state->forming->count(), 2u);

  auto rebuilt = DynamicCondenser::FromState(std::move(state).value(),
                                             {.group_size = 5});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(Fingerprint(*rebuilt), Fingerprint(condenser));

  // The buffered records must keep streaming correctly after the rebuild.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rebuilt->Insert(MakeRecord(rng, 2, 1.0)).ok());
  }
  EXPECT_GE(rebuilt->groups().num_groups(), 1u);
}

// Options with only the group size set (spelled out rather than as a
// designated initializer, which -Wextra flags for the hook fields).
DynamicCondenserOptions GroupSize(std::size_t k) {
  DynamicCondenserOptions options;
  options.group_size = k;
  return options;
}

GroupStatistics PinnedGroup(std::size_t n, Vector fs, double s00, double s01,
                            double s11) {
  linalg::Matrix sc(2, 2);
  sc(0, 0) = s00;
  sc(0, 1) = s01;
  sc(1, 0) = s01;
  sc(1, 1) = s11;
  return GroupStatistics::FromRawSums(n, std::move(fs), std::move(sc));
}

TEST_F(CheckpointingTest, SnapshotBytesArePinned) {
  // A fixed state whose values take every formatting path: 17-digit and
  // short decimals, both exponent signs, signed zero, subnormals, 2^53,
  // DBL_MIN/DBL_MAX, and a record count past 2^31. The expected document
  // was written by the snprintf("%.17g") serializer; snapshots must keep
  // these exact bytes.
  DynamicCondenser::State state;
  state.groups = CondensedGroupSet(2, 3);
  state.groups.AddGroup(PinnedGroup(3, Vector{0.1, -0.0}, 1.0 / 3.0,
                                    9007199254740992.0,
                                    4.9406564584124654e-310));
  state.groups.AddGroup(PinnedGroup(4, Vector{123456.789, -2.5e-5}, 1e21,
                                    1e-7, DBL_MAX));
  state.forming =
      PinnedGroup(1, Vector{DBL_MIN, -1e300}, 5e-324, 0.0, 100.0);
  state.split_count = 7;
  state.merge_count = 2;
  state.records_seen = 3000000000u;
  state.bootstrapped = true;
  EXPECT_EQ(SerializeCondenserState(state, 12),
            "condensa-snapshot v1\n"
            "seq 12 records 3000000000 splits 7 merges 2 bootstrapped 1 "
            "forming 1\n"
            "condensa-groups v1\n"
            "dim 2 k 3 groups 2\n"
            "group n 3\n"
            "fs 0.10000000000000001 -0\n"
            "sc 0.33333333333333331 9007199254740992 "
            "4.9406564584124654e-310\n"
            "group n 4\n"
            "fs 123456.789 -2.5000000000000001e-05\n"
            "sc 1e+21 9.9999999999999995e-08 1.7976931348623157e+308\n"
            "condensa-groups v1\n"
            "dim 2 k 3 groups 1\n"
            "group n 1\n"
            "fs 2.2250738585072014e-308 -1.0000000000000001e+300\n"
            "sc 4.9406564584124654e-324 0 100\n"
            "end\n");
}

// The bytes of the snapshot `durable` wrote last.
std::string LatestSnapshot(const DurableCondenser& durable) {
  char name[48];
  std::snprintf(name, sizeof(name), "/snapshot-%06zu.condensa",
                durable.snapshot_sequence());
  auto text = ReadFileToString(durable.dir() + name);
  EXPECT_TRUE(text.ok()) << text.status();
  return text.ok() ? *text : std::string();
}

// Snapshots are gathered from each group's cached text; the document must
// carry the bytes of serializing the exported state from scratch.
void ExpectSnapshotIsExportedState(const DurableCondenser& durable) {
  ASSERT_EQ(LatestSnapshot(durable),
            SerializeCondenserState(durable.condenser().ExportState(),
                                    durable.snapshot_sequence()))
      << "snapshot " << durable.snapshot_sequence();
}

TEST_F(CheckpointingTest, LiveSerializationMatchesExportedState) {
  // DurableCondenser serializes its live condenser; the bytes must be
  // those of serializing the exported copy, with and without a forming
  // buffer.
  DurabilityOptions durability;
  durability.sync_every_append = false;
  auto streaming =
      DurableCondenser::Create(2, GroupSize(5), durability, FreshDir());
  ASSERT_TRUE(streaming.ok()) << streaming.status();
  Rng rng(13);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(streaming->Insert(MakeRecord(rng, 2, 1.0)).ok());
  }
  ASSERT_TRUE(streaming->condenser().forming().has_value());
  ASSERT_TRUE(streaming->Checkpoint().ok());
  ExpectSnapshotIsExportedState(*streaming);

  auto bootstrapped =
      DurableCondenser::Create(3, GroupSize(4), durability, FreshDir());
  ASSERT_TRUE(bootstrapped.ok()) << bootstrapped.status();
  ASSERT_TRUE(bootstrapped->Bootstrap(MakeStream(40, 3, 2), rng).ok());
  for (const Vector& record : MakeStream(200, 3, 3)) {
    ASSERT_TRUE(bootstrapped->Insert(record).ok());
  }
  ASSERT_FALSE(bootstrapped->condenser().forming().has_value());
  ASSERT_TRUE(bootstrapped->Checkpoint().ok());
  ExpectSnapshotIsExportedState(*bootstrapped);
}

TEST_F(CheckpointingTest, IncrementalSnapshotsMatchFullSerialization) {
  // A randomized insert/remove stream under a small snapshot interval:
  // groups split, merge and change places (RemoveGroup swaps the last
  // group into the hole) between snapshots. Along the way a failed split
  // rebuilds memory from disk, and the instance is dropped and
  // recovered, so the cache restarts empty twice. Every snapshot file
  // must equal SerializeCondenserState of the exported state. Snapshots
  // are written from the live condenser, so this also pins the live
  // serialization against the exported copy, with a forming buffer
  // (pure-stream) and without one.
  struct Case {
    const char* label;
    const char* backend;
    bool bootstrap;
  };
  for (const Case& c : {Case{"bootstrapped", "condensation", true},
                        Case{"pure-stream", "condensation", false},
                        Case{"mdav", "mdav", true}}) {
    SCOPED_TRACE(c.label);
    DynamicCondenserOptions options = GroupSize(4);
    options.backend.id = c.backend;
    if (options.backend.id != CondensedGroupSet::kDefaultBackendId) {
      // A stamped backend brings its own construction hook to Bootstrap.
      // The paper's construction stands in for it, so the groups match
      // the default cases' and only the stamp differs.
      options.backend.construct = [](const std::vector<Vector>& points,
                                     std::size_t k, Rng& rng) {
        return StaticCondenser({.group_size = k}).Condense(points, rng);
      };
    }
    DurabilityOptions durability;
    durability.snapshot_interval = 3;
    durability.sync_every_append = false;
    const std::string dir = FreshDir();
    auto durable = DurableCondenser::Create(3, options, durability, dir);
    ASSERT_TRUE(durable.ok()) << durable.status();
    ExpectSnapshotIsExportedState(*durable);

    Rng rng(77);
    std::vector<Vector> live;
    if (c.bootstrap) {
      live = MakeStream(40, 3, 9);
      ASSERT_TRUE(durable->Bootstrap(live, rng).ok());
      ExpectSnapshotIsExportedState(*durable);
    }
    std::size_t snapshots = 0;
    bool saw_forming = false;
    auto after_op = [&](std::size_t sequence_before) {
      if (durable->snapshot_sequence() == sequence_before) return;
      ++snapshots;
      saw_forming |= LatestSnapshot(*durable).find(" forming 1\n") !=
                     std::string::npos;
      ExpectSnapshotIsExportedState(*durable);
    };
    for (int step = 0; step < 360; ++step) {
      if (step == 150) {
        // An apply failure: the split's eigensolve fails after the
        // record was folded in, so the condenser reloads from disk.
        FailPoint::Arm("eigen.jacobi", {.fail_at = 1});
        bool failed = false;
        for (int tries = 0; tries < 200 && !failed; ++tries) {
          Vector record = MakeRecord(rng, 3, 6.0 * rng.UniformIndex(3));
          const std::size_t before = durable->snapshot_sequence();
          if (durable->Insert(record).ok()) {
            live.push_back(std::move(record));
            after_op(before);
          } else {
            failed = true;
          }
        }
        FailPoint::Reset();
        ASSERT_TRUE(failed) << "no insert reached a split";
        ASSERT_TRUE(durable->Checkpoint().ok());
        ExpectSnapshotIsExportedState(*durable);
      }
      if (step == 250) {
        // Crash and recover, then keep streaming.
        durable = DurableCondenser::Recover(dir, options, durability);
        ASSERT_TRUE(durable.ok()) << durable.status();
      }
      const std::size_t before = durable->snapshot_sequence();
      if (live.size() > 8 && rng.UniformIndex(4) == 0) {
        const std::size_t victim = rng.UniformIndex(live.size());
        ASSERT_TRUE(durable->Remove(live[victim]).ok()) << "step " << step;
        live[victim] = std::move(live.back());
        live.pop_back();
      } else {
        Vector record = MakeRecord(rng, 3, 6.0 * rng.UniformIndex(3));
        ASSERT_TRUE(durable->Insert(record).ok()) << "step " << step;
        live.push_back(std::move(record));
      }
      after_op(before);
    }
    EXPECT_GT(snapshots, 100u);
    EXPECT_GT(durable->condenser().split_count(), 10u);
    EXPECT_GT(durable->condenser().merge_count(), 0u);
    EXPECT_EQ(saw_forming, !c.bootstrap);
    EXPECT_EQ(durable->groups().backend_id(), c.backend);
  }
}

TEST_F(CheckpointingTest, GroupTextCacheKeysByVersionAndCountsReuse) {
  obs::DefaultRegistry().Reset();
  CondensedGroupSet groups(2, 3);
  groups.AddGroup(PinnedGroup(3, Vector{0.1, -0.0}, 1.0, 2.0, 3.0));
  groups.AddGroup(PinnedGroup(4, Vector{2.5, 7.0}, 4.0, 5.0, 6.0));
  groups.AddGroup(PinnedGroup(5, Vector{1e21, 3.0}, 7.0, 8.0, 9.0));
  // A copy shares its source's version, and so its cached text.
  groups.AddGroup(groups.group(0));
  ASSERT_EQ(groups.group(3).version(), groups.group(0).version());

  GroupTextCache cache;
  auto render = [&cache, &groups]() {
    std::vector<std::string_view> pieces;
    cache.Render(groups, pieces);
    EXPECT_EQ(pieces.size(), groups.num_groups());
    std::string document;
    AppendGroupSetHeader(groups, document);
    for (std::string_view piece : pieces) document += piece;
    EXPECT_EQ(document, SerializeGroupSet(groups));
  };
  render();  // 3 rendered, the copy reused
  groups.mutable_group(1).Add(Vector{1.0, 1.0});
  render();  // group 1 rendered, 3 reused
  render();  // all 4 reused
  groups.RemoveGroup(0);  // the copy takes its place
  groups.mutable_group(0).Add(Vector{-1.0, 2.0});
  render();  // the old copy rendered, 2 reused

  const std::string text = obs::DefaultRegistry().DumpPrometheusText();
  EXPECT_NE(text.find("condensa_checkpoint_snapshot_groups_rendered_total 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("condensa_checkpoint_snapshot_groups_reused_total 10\n"),
            std::string::npos)
      << text;
  obs::DefaultRegistry().Reset();
}

TEST_F(CheckpointingTest, SnapshotsReuseUnchangedGroupText) {
  // Between two snapshots only the groups the stream touched re-render.
  obs::DefaultRegistry().Reset();
  const std::string dir = FreshDir();
  DurabilityOptions durability;
  durability.snapshot_interval = 5;
  auto durable = DurableCondenser::Create(3, GroupSize(4), durability, dir);
  ASSERT_TRUE(durable.ok());
  Rng rng(19);
  ASSERT_TRUE(durable->Bootstrap(MakeStream(400, 3, 6), rng).ok());
  const std::size_t groups = durable->groups().num_groups();
  obs::Counter& rendered = obs::DefaultRegistry().GetCounter(
      "condensa_checkpoint_snapshot_groups_rendered_total");
  obs::Counter& reused = obs::DefaultRegistry().GetCounter(
      "condensa_checkpoint_snapshot_groups_reused_total");
  EXPECT_EQ(rendered.value(), groups);  // the bootstrap snapshot
  EXPECT_EQ(reused.value(), 0u);

  for (const Vector& record : MakeStream(5, 3, 7)) {
    ASSERT_TRUE(durable->Insert(record).ok());
  }
  ASSERT_EQ(durable->snapshot_sequence(), 2u);
  ExpectSnapshotIsExportedState(*durable);
  // Five inserts touch at most five groups, plus two per split.
  const std::uint64_t rerendered = rendered.value() - groups;
  EXPECT_GE(rerendered, 1u);
  EXPECT_LE(rerendered, 5u + 2 * durable->condenser().split_count());
  EXPECT_EQ(rerendered + reused.value(), durable->groups().num_groups());
  obs::DefaultRegistry().Reset();
}

TEST_F(CheckpointingTest, CountersPast2To31RoundTrip) {
  // A long-lived server passes INT_MAX records; its snapshots (header
  // counters and file-name sequence numbers alike) must stay
  // recoverable.
  DynamicCondenser condenser(3, GroupSize(4));
  Rng rng(14);
  ASSERT_TRUE(condenser.Bootstrap(MakeStream(20, 3, 4), rng).ok());
  DynamicCondenser::State state = condenser.ExportState();
  state.records_seen = 3'000'000'000u;
  state.split_count = (std::size_t{1} << 32) + 5;
  state.merge_count = 2'147'483'648u;
  const std::size_t sequence = 4'000'000'000u;

  std::size_t parsed_sequence = 0;
  auto parsed = DeserializeCondenserState(
      SerializeCondenserState(state, sequence), &parsed_sequence);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed_sequence, sequence);
  EXPECT_EQ(parsed->records_seen, state.records_seen);
  EXPECT_EQ(parsed->split_count, state.split_count);
  EXPECT_EQ(parsed->merge_count, state.merge_count);

  // Recover finds the generation by its file name.
  const std::string dir = FreshDir();
  ASSERT_TRUE(WriteFileAtomic(dir + "/snapshot-4000000000.condensa",
                              SerializeCondenserState(state, sequence))
                  .ok());
  auto recovered = DurableCondenser::Recover(dir, GroupSize(4), {});
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->snapshot_sequence(), sequence);
  EXPECT_EQ(recovered->records_seen(), state.records_seen);
  EXPECT_EQ(recovered->condenser().split_count(), state.split_count);
  ASSERT_TRUE(recovered->Insert(MakeRecord(rng, 3, 0.0)).ok());
  EXPECT_EQ(recovered->records_seen(), state.records_seen + 1);
}

TEST_F(CheckpointingTest, CreateWritesInitialGenerationAndRefusesReuse) {
  const std::string dir = FreshDir();
  auto durable = DurableCondenser::Create(3, {.group_size = 4}, {}, dir);
  ASSERT_TRUE(durable.ok());
  EXPECT_TRUE(PathExists(dir + "/snapshot-000000.condensa"));
  EXPECT_TRUE(PathExists(dir + "/journal-000000.log"));

  auto second = DurableCondenser::Create(3, {.group_size = 4}, {}, dir);
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointingTest, RecoverOnDirWithoutStateIsNotFound) {
  EXPECT_TRUE(IsNotFound(
      DurableCondenser::Recover(FreshDir(), {.group_size = 4}, {}).status()));
  EXPECT_TRUE(IsNotFound(DurableCondenser::Recover(
                             ::testing::TempDir() + "/condensa_ckpt_missing",
                             {.group_size = 4}, {})
                             .status()));
}

TEST_F(CheckpointingTest, RecoveryIsBitIdenticalToInMemoryState) {
  const std::string dir = FreshDir();
  std::vector<Vector> stream = MakeStream(37, 3, 21);

  DynamicCondenser reference(3, {.group_size = 4});
  {
    auto durable = DurableCondenser::Create(
        3, {.group_size = 4}, {.snapshot_interval = 10}, dir);
    ASSERT_TRUE(durable.ok());
    for (const Vector& record : stream) {
      ASSERT_TRUE(durable->Insert(record).ok());
      ASSERT_TRUE(reference.Insert(record).ok());
    }
  }  // "crash": the handle goes away without a final checkpoint

  auto recovered =
      DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records_seen(), 37u);
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(reference));
}

TEST_F(CheckpointingTest, RecoverRefusesMismatchedBackend) {
  const std::string dir = FreshDir();
  {
    auto durable = DurableCondenser::Create(
        3, {.group_size = 4, .backend = {.id = "mdav"}}, {}, dir);
    ASSERT_TRUE(durable.ok());
    for (const Vector& record : MakeStream(19, 3, 33)) {
      ASSERT_TRUE(durable->Insert(record).ok());
    }
  }

  // Recovering under the default backend must refuse: the structure was
  // built and journaled by another grouping strategy.
  auto mismatched = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(std::string(mismatched.status().message()).find("mdav"),
            std::string::npos);

  // Same backend, wrong version: also refused.
  auto wrong_version = DurableCondenser::Recover(
      dir, {.group_size = 4, .backend = {.id = "mdav", .version = 2}}, {});
  ASSERT_FALSE(wrong_version.ok());
  EXPECT_EQ(wrong_version.status().code(), StatusCode::kFailedPrecondition);

  // The matching backend recovers cleanly and keeps the stamp.
  auto matched = DurableCondenser::Recover(
      dir, {.group_size = 4, .backend = {.id = "mdav"}}, {});
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ(matched->condenser().groups().backend_id(), "mdav");
  EXPECT_EQ(matched->records_seen(), 19u);
}

TEST_F(CheckpointingTest, SnapshotIntervalRollsAndPrunesGenerations) {
  const std::string dir = FreshDir();
  auto durable = DurableCondenser::Create(
      2, {.group_size = 3}, {.snapshot_interval = 5}, dir);
  ASSERT_TRUE(durable.ok());
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(durable->Insert(MakeRecord(rng, 2, 0.0)).ok());
  }
  EXPECT_EQ(durable->snapshot_sequence(), 2u);
  EXPECT_EQ(durable->appends_since_snapshot(), 2u);

  auto entries = ListDirectory(dir);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);  // only the live generation remains
  EXPECT_TRUE(PathExists(dir + "/snapshot-000002.condensa"));
  EXPECT_TRUE(PathExists(dir + "/journal-000002.log"));
}

TEST_F(CheckpointingTest, TornJournalTailIsTruncatedOnRecovery) {
  const std::string dir = FreshDir();
  std::vector<Vector> stream = MakeStream(9, 2, 31);
  DynamicCondenser reference(2, {.group_size = 3});
  {
    auto durable = DurableCondenser::Create(2, {.group_size = 3}, {}, dir);
    ASSERT_TRUE(durable.ok());
    for (const Vector& record : stream) {
      ASSERT_TRUE(durable->Insert(record).ok());
      ASSERT_TRUE(reference.Insert(record).ok());
    }
  }

  // Simulate a crash mid-append: an entry with no terminator or newline.
  const std::string journal = dir + "/journal-000000.log";
  {
    auto file = AppendFile::Open(journal);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("i 0.25 0.5").ok());
  }

  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records_seen(), 9u);
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(reference));

  // The torn bytes are gone: every surviving entry is complete (ends in
  // its terminator), and a second recovery replays cleanly too.
  auto content = ReadFileToString(journal);
  ASSERT_TRUE(content.ok());
  EXPECT_TRUE(content->ends_with(" .\n"));
  auto again = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Fingerprint(again->condenser()), Fingerprint(reference));
}

TEST_F(CheckpointingTest, CorruptNewestSnapshotFallsBackToOlder) {
  const std::string dir = FreshDir();

  // Build a valid generation 1 by hand.
  DynamicCondenser condenser(2, {.group_size = 3});
  Rng rng(7);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(condenser.Insert(MakeRecord(rng, 2, 0.0)).ok());
  }
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/snapshot-000001.condensa",
                      SerializeCondenserState(condenser.ExportState(), 1))
          .ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/journal-000001.log",
                              "condensa-journal v1 base 1\n")
                  .ok());
  // Generation 2's snapshot got torn mid-write (no end marker).
  ASSERT_TRUE(WriteFileAtomic(dir + "/snapshot-000002.condensa",
                              "condensa-snapshot v1\nseq 2 records 99 spl")
                  .ok());

  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->snapshot_sequence(), 1u);
  EXPECT_EQ(recovered->records_seen(), 7u);
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(condenser));
  // The unrecoverable newer snapshot is preserved: recovery never
  // destroys evidence ahead of the generation it restored, so a rerun
  // deterministically falls back to generation 1 again.
  EXPECT_TRUE(PathExists(dir + "/snapshot-000002.condensa"));
}

TEST_F(CheckpointingTest, RecoveryIsIdempotentAndOrphansNewerJournals) {
  const std::string dir = FreshDir();

  // Valid generation 1 with two journaled records.
  DynamicCondenser condenser(2, {.group_size = 3});
  Rng rng(13);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(condenser.Insert(MakeRecord(rng, 2, 0.0)).ok());
  }
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/snapshot-000001.condensa",
                      SerializeCondenserState(condenser.ExportState(), 1))
          .ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/journal-000001.log",
                              "condensa-journal v1 base 1\n"
                              "i 0.25 0.5 .\n"
                              "i 6.5 5.75 .\n")
                  .ok());
  // Generation 2: corrupt snapshot, but its journal holds records that
  // were acknowledged after the snapshot roll.
  ASSERT_TRUE(WriteFileAtomic(dir + "/snapshot-000002.condensa",
                              "condensa-snapshot v1\nseq 2 records 99 spl")
                  .ok());
  const std::string orphan_payload =
      "condensa-journal v1 base 2\n"
      "i 1.5 2.5 .\n";
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/journal-000002.log", orphan_payload).ok());

  std::string fingerprint;
  {
    auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered->snapshot_sequence(), 1u);
    EXPECT_EQ(recovered->records_seen(), 9u);  // 7 + 2 replayed
    fingerprint = Fingerprint(recovered->condenser());
  }

  // The acknowledged-but-unrestorable journal is set aside, not deleted.
  EXPECT_FALSE(PathExists(dir + "/journal-000002.log"));
  auto orphan = ReadFileToString(dir + "/journal-000002.log.orphan");
  ASSERT_TRUE(orphan.ok());
  EXPECT_EQ(*orphan, orphan_payload);

  // Snapshot the directory, byte for byte.
  auto DirState = [&]() {
    std::vector<std::pair<std::string, std::string>> files;
    auto entries = ListDirectory(dir);
    EXPECT_TRUE(entries.ok());
    for (const std::string& name : *entries) {
      auto content = ReadFileToString(dir + "/" + name);
      EXPECT_TRUE(content.ok());
      files.emplace_back(name, *content);
    }
    std::sort(files.begin(), files.end());
    return files;
  };
  const auto after_first = DirState();

  // Recovering again is a pure no-op: same state, same bytes on disk.
  {
    auto again = DurableCondenser::Recover(dir, {.group_size = 3}, {});
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->snapshot_sequence(), 1u);
    EXPECT_EQ(again->records_seen(), 9u);
    EXPECT_EQ(Fingerprint(again->condenser()), fingerprint);
  }
  EXPECT_EQ(DirState(), after_first);
}

TEST_F(CheckpointingTest, ReplayApplyFailureFailsRecoveryWithoutTruncating) {
  const std::string dir = FreshDir();
  std::vector<Vector> stream = MakeStream(9, 2, 41);
  {
    auto durable = DurableCondenser::Create(2, {.group_size = 3}, {}, dir);
    ASSERT_TRUE(durable.ok());
    for (const Vector& record : stream) {
      ASSERT_TRUE(durable->Insert(record).ok());
    }
  }
  const std::string journal = dir + "/journal-000000.log";
  auto before = ReadFileToString(journal);
  ASSERT_TRUE(before.ok());

  // A transient fault during replay must fail the recovery — truncating
  // at the failed entry would destroy the acknowledged records behind it.
  FailPoint::Arm("dynamic.insert",
                 {.fail_at = 5, .code = StatusCode::kInternal});
  auto failed = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  FailPoint::Reset();

  auto after = ReadFileToString(journal);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);

  // Once the fault clears, recovery replays everything.
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records_seen(), 9u);
}

TEST_F(CheckpointingTest, NoRecoverableSnapshotIsDataLoss) {
  const std::string dir = FreshDir();
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/snapshot-000000.condensa", "garbage").ok());
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);

  // Journal without any snapshot is equally unrecoverable.
  const std::string dir2 = FreshDir();
  ASSERT_TRUE(WriteFileAtomic(dir2 + "/journal-000000.log",
                              "condensa-journal v1 base 0\n")
                  .ok());
  EXPECT_EQ(DurableCondenser::Recover(dir2, {.group_size = 3}, {})
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST_F(CheckpointingTest, OpenCreatesThenRecoversAndChecksDimension) {
  const std::string dir = FreshDir();
  {
    auto durable = DurableCondenser::Open(3, {.group_size = 4}, {}, dir);
    ASSERT_TRUE(durable.ok());
    Rng rng(3);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(durable->Insert(MakeRecord(rng, 3, 0.0)).ok());
    }
  }
  auto reopened = DurableCondenser::Open(3, {.group_size = 4}, {}, dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->records_seen(), 5u);

  auto mismatched = DurableCondenser::Open(7, {.group_size = 4}, {}, dir);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointingTest, BootstrapBecomesDurableViaSnapshot) {
  const std::string dir = FreshDir();
  std::string fingerprint;
  {
    auto durable = DurableCondenser::Create(3, {.group_size = 4}, {}, dir);
    ASSERT_TRUE(durable.ok());
    Rng rng(17);
    ASSERT_TRUE(durable->Bootstrap(MakeStream(24, 3, 8), rng).ok());
    EXPECT_TRUE(durable->condenser().groups().num_groups() > 0);
    fingerprint = Fingerprint(durable->condenser());
  }
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records_seen(), 24u);
  EXPECT_EQ(Fingerprint(recovered->condenser()), fingerprint);
}

TEST_F(CheckpointingTest, RemoveIsJournaledAndRecovered) {
  const std::string dir = FreshDir();
  std::vector<Vector> stream = MakeStream(20, 2, 13);
  DynamicCondenser reference(2, {.group_size = 3});
  {
    auto durable = DurableCondenser::Create(2, {.group_size = 3}, {}, dir);
    ASSERT_TRUE(durable.ok());
    for (const Vector& record : stream) {
      ASSERT_TRUE(durable->Insert(record).ok());
      ASSERT_TRUE(reference.Insert(record).ok());
    }
    ASSERT_TRUE(durable->Remove(stream[4]).ok());
    ASSERT_TRUE(reference.Remove(stream[4]).ok());
  }
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 3}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(reference));
}

TEST_F(CheckpointingTest, FailedSplitDuringInsertDoesNotPoisonSnapshots) {
  // Regression test: DynamicCondenser::Insert adds the record to a group
  // *before* the 2k split runs, so a split failure (eigensolver) leaves
  // the in-memory structure partially mutated. DurableCondenser must
  // rebuild from disk, or a later Checkpoint persists a state (8-record
  // unsplit group) that journal replay can never reproduce.
  const std::string dir = FreshDir();
  std::vector<Vector> stream = MakeStream(8, 3, 41);
  auto durable = DurableCondenser::Create(
      3, {.group_size = 4}, {.snapshot_interval = 100}, dir);
  ASSERT_TRUE(durable.ok());
  DynamicCondenser reference(3, {.group_size = 4});
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    ASSERT_TRUE(durable->Insert(stream[i]).ok());
    ASSERT_TRUE(reference.Insert(stream[i]).ok());
  }

  // Record 8 fills the single group to 2k and triggers the split, whose
  // eigendecomposition we force to fail.
  FailPoint::Arm("eigen.jacobi", {.fail_at = 1});
  EXPECT_FALSE(durable->Insert(stream.back()).ok());
  FailPoint::Reset();

  // Memory was rebuilt to the durable prefix: 7 records, bit-identical.
  EXPECT_EQ(durable->records_seen(), 7u);
  EXPECT_EQ(Fingerprint(durable->condenser()), Fingerprint(reference));

  // A checkpoint now must persist a consistent state...
  ASSERT_TRUE(durable->Checkpoint().ok());
  auto recovered = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(Fingerprint(recovered->condenser()), Fingerprint(reference));

  // ...and retrying the record succeeds with the split applied.
  ASSERT_TRUE(durable->Insert(stream.back()).ok());
  ASSERT_TRUE(reference.Insert(stream.back()).ok());
  EXPECT_EQ(reference.split_count(), 1u);
  EXPECT_EQ(Fingerprint(durable->condenser()), Fingerprint(reference));
}

TEST_F(CheckpointingTest, InsertDimensionMismatchLeavesJournalClean) {
  const std::string dir = FreshDir();
  auto durable = DurableCondenser::Create(3, {.group_size = 4}, {}, dir);
  ASSERT_TRUE(durable.ok());
  Rng rng(9);
  ASSERT_TRUE(durable->Insert(MakeRecord(rng, 3, 0.0)).ok());
  EXPECT_EQ(durable->Insert(Vector(2)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(durable->Insert(MakeRecord(rng, 3, 0.0)).ok());

  auto recovered = DurableCondenser::Recover(dir, {.group_size = 4}, {});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records_seen(), 2u);
}

}  // namespace
}  // namespace condensa::core
