// Crash-recovery sweep: a durable streaming condensation is crashed at
// EVERY fault boundary it crosses — each journal append, fsync, snapshot
// write, rename, journal roll, and eigensolver call — via armed
// failpoints, in both clean-error and torn-write modes. After every
// injected crash, recovery must (a) lose no acknowledged record, (b) be
// bit-identical to an in-memory condenser fed the same durable prefix,
// and (c) resume to a final structure identical to a run that never
// crashed.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/io.h"
#include "common/random.h"
#include "core/checkpointing.h"

namespace condensa::core {
namespace {

using linalg::Vector;

constexpr std::size_t kDim = 3;
constexpr std::size_t kStreamLen = 28;

DynamicCondenserOptions CondenserOptions() { return {.group_size = 4}; }
DurabilityOptions Durability() { return {.snapshot_interval = 6}; }

// The deterministic record stream shared by every run.
const std::vector<Vector>& Stream() {
  static const std::vector<Vector>* stream = [] {
    auto* s = new std::vector<Vector>();
    Rng rng(2024);
    for (std::size_t i = 0; i < kStreamLen; ++i) {
      Vector v(kDim);
      for (std::size_t j = 0; j < kDim; ++j) {
        v[j] = rng.Gaussian(i % 2 == 0 ? 0.0 : 5.0, 1.0);
      }
      s->push_back(std::move(v));
    }
    return s;
  }();
  return *stream;
}

std::string Fingerprint(const DynamicCondenser& condenser) {
  return SerializeCondenserState(condenser.ExportState(), 0);
}

// Bit-exact state of an uninterrupted in-memory run over the first
// `count` records.
std::string PrefixFingerprint(std::size_t count) {
  DynamicCondenser reference(kDim, CondenserOptions());
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(reference.Insert(Stream()[i]).ok());
  }
  return Fingerprint(reference);
}

void WipeDir(const std::string& dir) {
  ASSERT_TRUE(CreateDirectories(dir).ok());
  auto entries = ListDirectory(dir);
  ASSERT_TRUE(entries.ok());
  for (const std::string& name : *entries) {
    ASSERT_TRUE(RemoveFile(dir + "/" + name).ok());
  }
}

// One end-to-end durable run; stops at the first failed operation (the
// injected crash). Returns how many Inserts were acknowledged.
std::size_t RunScenario(const std::string& dir) {
  auto durable =
      DurableCondenser::Create(kDim, CondenserOptions(), Durability(), dir);
  if (!durable.ok()) return 0;
  std::size_t acked = 0;
  for (std::size_t i = 0; i < kStreamLen; ++i) {
    if (!durable->Insert(Stream()[i]).ok()) break;
    ++acked;
  }
  durable->Checkpoint().ok();  // best-effort final snapshot
  return acked;
}

struct Variant {
  std::string probe;
  FailPointSpec spec;
  std::string label;
};

// GCC 12 reports a false -Wmaybe-uninitialized on the copies of
// FailPointSpec::message that these initializer lists make (the member has
// a default initializer); the suppression covers only these two lists.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
std::vector<Variant> Variants() {
  const auto torn = [](std::size_t bytes) {
    return FailPointSpec{.mode = FailPointMode::kTornWrite,
                         .torn_bytes = bytes};
  };
  const std::size_t half = static_cast<std::size_t>(-1);
  return {
      {"checkpoint.snapshot", {}, "snapshot/error"},
      {"checkpoint.journal_append", {}, "journal_append/error"},
      {"io.atomic_write", {}, "atomic_write/error"},
      {"io.atomic_write", torn(half), "atomic_write/torn-half"},
      {"io.atomic_write", torn(3), "atomic_write/torn-3"},
      {"io.atomic_rename", {}, "atomic_rename/error"},
      {"io.append", {}, "append/error"},
      {"io.append", torn(half), "append/torn-half"},
      {"io.append", torn(2), "append/torn-2"},
      {"io.sync", {}, "sync/error"},
      {"eigen.jacobi",
       {.code = StatusCode::kInternal, .message = "eigensolver diverged"},
       "eigen/non-convergence"},
      {"dynamic.insert", {}, "apply/error"},
  };
}
#pragma GCC diagnostic pop

TEST(CrashRecoveryTest, EveryWriteBoundarySurvivesInjectedCrash) {
  const std::string dir =
      ::testing::TempDir() + "/condensa_crash_recovery";
  const std::string baseline = PrefixFingerprint(kStreamLen);

  // Phase 1: one unarmed run counts the fault boundaries the scenario
  // actually crosses, per probe.
  FailPoint::Reset();
  WipeDir(dir);
  ASSERT_EQ(RunScenario(dir), kStreamLen);
  std::map<std::string, std::size_t> boundaries;
  for (const Variant& variant : Variants()) {
    boundaries[variant.probe] = FailPoint::HitCount(variant.probe);
    ASSERT_GT(boundaries[variant.probe], 0u)
        << variant.probe << " probe never reached — dead instrumentation?";
  }

  // Phase 2: re-run the scenario once per (variant, boundary), crashing
  // at exactly that boundary.
  std::size_t crashes = 0;
  for (const Variant& variant : Variants()) {
    for (std::size_t at = 1; at <= boundaries[variant.probe]; ++at) {
      SCOPED_TRACE(variant.label + " fail_at=" + std::to_string(at));
      FailPoint::Reset();
      WipeDir(dir);
      FailPointSpec spec = variant.spec;
      spec.fail_at = at;
      FailPoint::Arm(variant.probe, spec);
      const std::size_t acked = RunScenario(dir);
      FailPoint::Reset();  // the "machine" reboots with healthy hardware
      ++crashes;

      auto recovered =
          DurableCondenser::Recover(dir, CondenserOptions(), Durability());
      if (IsNotFound(recovered.status())) {
        // The crash predated any durable state; nothing was acked.
        ASSERT_EQ(acked, 0u);
        recovered = DurableCondenser::Create(kDim, CondenserOptions(),
                                             Durability(), dir);
      }
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

      // (a) no acknowledged record is lost, and (b) the recovered state
      // is bit-identical to an uninterrupted run over its prefix.
      const std::size_t durable_prefix = recovered->records_seen();
      ASSERT_GE(durable_prefix, acked);
      ASSERT_LE(durable_prefix, kStreamLen);
      ASSERT_EQ(Fingerprint(recovered->condenser()),
                PrefixFingerprint(durable_prefix));

      // (c) resuming the stream converges to the uninterrupted baseline.
      for (std::size_t i = durable_prefix; i < kStreamLen; ++i) {
        ASSERT_TRUE(recovered->Insert(Stream()[i]).ok());
      }
      ASSERT_EQ(Fingerprint(recovered->condenser()), baseline);
    }
  }
  // The sweep must actually have exercised a meaningful number of
  // distinct crash points.
  EXPECT_GT(crashes, 100u);
}

// The newest snapshot on disk must carry the bytes of serializing the
// exported state: snapshots reuse each unchanged group's cached text, and
// a failed write must not leave that cache out of step with the groups.
void ExpectSnapshotIsExportedState(const DurableCondenser& durable) {
  char name[48];
  std::snprintf(name, sizeof(name), "/snapshot-%06zu.condensa",
                durable.snapshot_sequence());
  auto text = ReadFileToString(durable.dir() + name);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_EQ(*text, SerializeCondenserState(durable.condenser().ExportState(),
                                           durable.snapshot_sequence()));
}

// The same false -Wmaybe-uninitialized as Variants() above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
TEST(CrashRecoveryTest, SnapshotFailuresAfterWarmCacheStayByteIdentical) {
  const std::string dir =
      ::testing::TempDir() + "/condensa_crash_recovery_warm_cache";
  const std::string baseline = PrefixFingerprint(kStreamLen);
  const auto torn = [](std::size_t bytes) {
    return FailPointSpec{.mode = FailPointMode::kTornWrite,
                         .torn_bytes = bytes};
  };
  const std::vector<Variant> variants = {
      {"checkpoint.snapshot", {}, "snapshot/error"},
      {"io.atomic_write", {}, "atomic_write/error"},
      {"io.atomic_write", torn(static_cast<std::size_t>(-1)),
       "atomic_write/torn-half"},
      {"io.atomic_write", torn(3), "atomic_write/torn-3"},
  };
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.label);
    FailPoint::Reset();
    WipeDir(dir);
    auto durable =
        DurableCondenser::Create(kDim, CondenserOptions(), Durability(), dir);
    ASSERT_TRUE(durable.ok());
    // Two interval snapshots warm the cache.
    std::size_t next = 0;
    while (durable->snapshot_sequence() < 2) {
      ASSERT_TRUE(durable->Insert(Stream()[next++]).ok());
    }
    ExpectSnapshotIsExportedState(*durable);

    // The next snapshot fails; its record is still acknowledged and the
    // snapshot is retried on the following append, which must write the
    // same bytes as a from-scratch serialization.
    FailPoint::Arm(variant.probe, variant.spec);
    const std::size_t failed_at = durable->snapshot_sequence();
    while (durable->appends_since_snapshot() < Durability().snapshot_interval) {
      ASSERT_TRUE(durable->Insert(Stream()[next++]).ok());
    }
    FailPoint::Reset();
    ASSERT_EQ(durable->snapshot_sequence(), failed_at);
    ASSERT_TRUE(durable->Insert(Stream()[next++]).ok());
    ASSERT_EQ(durable->snapshot_sequence(), failed_at + 1);
    ExpectSnapshotIsExportedState(*durable);

    // Crash with the cache warm, recover bit-identically, and resume: the
    // recovered instance refills its cache from nothing.
    const std::size_t acked = next;
    durable = DurableCondenser::Recover(dir, CondenserOptions(), Durability());
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    ASSERT_EQ(durable->records_seen(), acked);
    ASSERT_EQ(Fingerprint(durable->condenser()), PrefixFingerprint(acked));
    for (std::size_t i = acked; i < kStreamLen; ++i) {
      const std::size_t before = durable->snapshot_sequence();
      ASSERT_TRUE(durable->Insert(Stream()[i]).ok());
      if (durable->snapshot_sequence() != before) {
        ExpectSnapshotIsExportedState(*durable);
      }
    }
    ASSERT_TRUE(durable->Checkpoint().ok());
    ExpectSnapshotIsExportedState(*durable);
    ASSERT_EQ(Fingerprint(durable->condenser()), baseline);
  }
}
#pragma GCC diagnostic pop

TEST(CrashRecoveryTest, RepeatedCrashesDuringRecoveryStillConverge) {
  // Crash, recover, crash again mid-resume, recover again — state must
  // never regress.
  const std::string dir =
      ::testing::TempDir() + "/condensa_crash_recovery_repeat";
  FailPoint::Reset();
  WipeDir(dir);

  FailPoint::Arm("io.append", {.fail_at = 9});
  std::size_t acked = RunScenario(dir);
  FailPoint::Reset();
  ASSERT_LT(acked, kStreamLen);

  std::size_t last_prefix = 0;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto recovered =
        DurableCondenser::Recover(dir, CondenserOptions(), Durability());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_GE(recovered->records_seen(), last_prefix);
    last_prefix = recovered->records_seen();
    // Resume, crashing a little further along each round.
    FailPoint::Arm("io.append",
                   {.fail_at = 4 + static_cast<std::size_t>(round)});
    for (std::size_t i = last_prefix; i < kStreamLen; ++i) {
      if (!recovered->Insert(Stream()[i]).ok()) break;
    }
    FailPoint::Reset();
  }

  auto final_state =
      DurableCondenser::Recover(dir, CondenserOptions(), Durability());
  ASSERT_TRUE(final_state.ok());
  ASSERT_GE(final_state->records_seen(), last_prefix);
  EXPECT_EQ(Fingerprint(final_state->condenser()),
            PrefixFingerprint(final_state->records_seen()));
}

}  // namespace
}  // namespace condensa::core
