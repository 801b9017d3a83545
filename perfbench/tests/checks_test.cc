// Self-test for the benchmark's output checkers.
//
// Builds real outputs at tiny sizes, confirms each checker accepts them,
// then corrupts them one way at a time and confirms the checker rejects
// the result: a sub-k group, a dropped record, a fabric release differing
// by one byte, and a wrong aggregate count. It also shows that the stage
// ledger reports a gap when a stage leaves wall time uncovered. Finally
// every workload runs end to end at tiny size and must report zero
// failures. Without this, a zero error rate from the benchmark would
// prove nothing.
//
// Run: python3 perfbench/run.py --selftest   (exit code 0 = all pass)
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "checks.h"
#include "common/random.h"
#include "ledger.h"
#include "core/anonymizer.h"
#include "core/serialization.h"
#include "core/static_condenser.h"
#include "query/engine.h"
#include "query/snapshot.h"
#include "shard/fabric.h"
#include "shard/stream_service.h"
#include "shard/worker_process.h"
#include "workloads.h"

namespace {

using condensa::Rng;
using condensa::core::CondensedGroupSet;
using condensa::core::GroupStatistics;
using condensa::linalg::Vector;
using perfbench::CheckLog;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<Vector> Cloud(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> points;
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(4);
    for (std::size_t j = 0; j < 4; ++j) p[j] = 100.0 + rng.Gaussian(0.0, 5.0);
    points.push_back(std::move(p));
  }
  return points;
}

// A copy of `groups` with group `index` replaced by one of `count` records
// and the same centroid and covariance.
CondensedGroupSet Resize(const CondensedGroupSet& groups, std::size_t index,
                         std::size_t count) {
  CondensedGroupSet out(groups.dim(), groups.indistinguishability_level());
  for (std::size_t i = 0; i < groups.num_groups(); ++i) {
    const GroupStatistics& g = groups.group(i);
    out.AddGroup(i == index ? GroupStatistics::FromMoments(
                                  count, g.Centroid(), g.Covariance())
                            : g);
  }
  return out;
}

void TestGroupChecks() {
  const std::size_t k = 5, n = 403;
  const std::vector<Vector> points = Cloud(n, 1);
  Rng rng(2);
  auto groups = condensa::core::StaticCondenser({.group_size = k})
                    .Condense(points, rng);
  Expect(groups.ok(), "static condense at n=403");
  if (!groups.ok()) return;

  CheckLog clean;
  perfbench::CheckGroups(*groups, k, n, "clean", clean);
  Expect(clean.failed() == 0, "CheckGroups accepts a real condensation");

  // Sub-k group: group 0 shrunk to k-1 records.
  CheckLog sub_k;
  const CondensedGroupSet shrunk = Resize(*groups, 0, k - 1);
  perfbench::CheckGroups(shrunk, k, shrunk.TotalRecords(), "sub-k", sub_k);
  Expect(sub_k.failed() == 1, "CheckGroups rejects a sub-k group");

  // Dropped record: the largest group loses one record but stays >= k.
  std::size_t largest = 0;
  for (std::size_t i = 0; i < groups->num_groups(); ++i) {
    if (groups->group(i).count() > groups->group(largest).count()) largest = i;
  }
  CheckLog dropped;
  perfbench::CheckGroups(
      Resize(*groups, largest, groups->group(largest).count() - 1), k, n,
      "dropped", dropped);
  Expect(dropped.failed() == 1, "CheckGroups rejects a dropped record");

  auto release = condensa::core::Anonymizer().Generate(*groups, rng);
  Expect(release.ok(), "generate a release");
  if (!release.ok()) return;
  CheckLog size_ok, size_bad;
  perfbench::CheckReleaseSize(release->size(), n, "clean", size_ok);
  release->pop_back();
  perfbench::CheckReleaseSize(release->size(), n, "dropped", size_bad);
  Expect(size_ok.failed() == 0 && size_bad.failed() == 1,
         "CheckReleaseSize rejects a release missing one record");
}

void TestFabricCheck(const std::string& dir) {
  const std::size_t n = 600, dim = 4, k = 5;
  const std::vector<Vector> stream = Cloud(n, 3);

  condensa::shard::ShardedStreamConfig inproc;
  inproc.num_shards = 2;
  inproc.dim = dim;
  inproc.group_size = k;
  inproc.checkpoint_root = dir + "/inproc";
  inproc.sync_every_append = false;
  inproc.seed = 11;
  auto service = condensa::shard::ShardedStreamService::Start(inproc);
  Expect(service.ok(), "start the in-process sharded service");
  if (!service.ok()) return;
  for (const Vector& r : stream) (void)(*service)->Submit(r);
  auto reference = (*service)->Finish();
  Expect(reference.ok(), "in-process finish");
  if (!reference.ok()) return;

  std::vector<condensa::shard::WorkerProcess> workers;
  condensa::shard::FabricConfig config;
  config.dim = dim;
  config.group_size = k;
  config.seed = 11;
  config.sync_every_append = false;
  for (int w = 0; w < 2; ++w) {
    condensa::shard::WorkerServerConfig server;
    server.checkpoint_root = dir + "/worker-" + std::to_string(w);
    auto spawned = condensa::shard::WorkerProcess::Spawn(std::move(server));
    Expect(spawned.ok(), "spawn fabric worker");
    if (!spawned.ok()) return;
    workers.push_back(*std::move(spawned));
    config.workers.push_back({"127.0.0.1", workers.back().port()});
  }
  auto fabric = condensa::shard::FabricService::Start(config);
  Expect(fabric.ok(), "start the fabric");
  if (!fabric.ok()) return;
  for (const Vector& r : stream) (void)(*fabric)->Submit(r);
  auto result = (*fabric)->Finish();
  Expect(result.ok(), "fabric finish");
  if (!result.ok()) return;

  const std::string want =
      condensa::core::SerializeGroupSet(reference->groups);
  std::string got = condensa::core::SerializeGroupSet(result->groups);
  CheckLog clean, corrupt;
  perfbench::CheckIdenticalRelease(got, want, "clean", clean);
  got[got.size() / 2] ^= 0x01;
  perfbench::CheckIdenticalRelease(got, want, "one byte", corrupt);
  Expect(clean.failed() == 0,
         "CheckIdenticalRelease accepts the real fabric release");
  Expect(corrupt.failed() == 1,
         "CheckIdenticalRelease rejects a release differing by one byte");
}

void TestAnswerCheck() {
  const std::vector<Vector> points = Cloud(300, 4);
  Rng rng(5);
  auto groups =
      condensa::core::StaticCondenser({.group_size = 5}).Condense(points, rng);
  if (!groups.ok()) {
    Expect(false, "condense for the query check");
    return;
  }
  // Two labelled pools, so classify has classes to choose from.
  condensa::query::QuerySnapshot snapshot;
  snapshot.dim = groups->dim();
  snapshot.version = 7;
  snapshot.pools.push_back({0, *groups});
  auto other = condensa::core::StaticCondenser({.group_size = 5})
                   .Condense(Cloud(300, 6), rng);
  if (!other.ok()) {
    Expect(false, "condense the second pool");
    return;
  }
  snapshot.pools.push_back({1, *std::move(other)});
  condensa::query::QueryEngine engine;

  condensa::query::Query aggregate;
  aggregate.kind = condensa::query::QueryKind::kAggregate;
  auto served = engine.Execute(snapshot, aggregate);
  auto local = engine.Execute(snapshot, aggregate);
  if (!served.ok() || !local.ok()) {
    Expect(false, "aggregate query");
    return;
  }
  CheckLog clean, wrong_count, wrong_version;
  perfbench::CheckSameAnswer(*served, *local, "clean", clean);
  condensa::query::QueryResult corrupt = *served;
  corrupt.aggregate.records += 1;
  perfbench::CheckSameAnswer(corrupt, *local, "count", wrong_count);
  corrupt = *served;
  corrupt.snapshot_version += 1;
  perfbench::CheckSameAnswer(corrupt, *local, "version", wrong_version);
  Expect(clean.failed() == 0, "CheckSameAnswer accepts identical answers");
  Expect(wrong_count.failed() == 1,
         "CheckSameAnswer rejects a wrong aggregate count");
  Expect(wrong_version.failed() == 1,
         "CheckSameAnswer rejects an answer from another snapshot version");

  condensa::query::Query classify;
  classify.kind = condensa::query::QueryKind::kClassify;
  classify.classify.points = {points[0], points[1]};
  auto labels = engine.Execute(snapshot, classify);
  if (labels.ok()) {
    condensa::query::QueryResult flipped = *labels;
    flipped.classify.labels[0] += 1;
    CheckLog bad;
    perfbench::CheckSameAnswer(flipped, *labels, "label", bad);
    Expect(bad.failed() == 1, "CheckSameAnswer rejects a wrong class label");
  } else {
    Expect(false, "classify query: " + labels.status().ToString());
  }
}

bool HasGap(const perfbench::StageLedger& ledger) {
  return ledger.Report("selftest", 0.9).find("LEDGER GAP") != std::string::npos;
}

void TestLedger() {
  // Stages covering 95% of the wall: no gap.
  perfbench::StageLedger covered;
  covered.AddTimedWall(1.0);
  covered.Add("a", 0.60, 10);
  covered.Add("b", 0.35, 5);
  Expect(!HasGap(covered), "ledger reports no gap at 95% coverage");

  // One stage stops being measured: 40% of the wall is uncovered.
  perfbench::StageLedger uncovered;
  uncovered.AddTimedWall(1.0);
  uncovered.Add("a", 0.60, 10);
  Expect(HasGap(uncovered) && uncovered.Coverage() < 0.61,
         "ledger reports LEDGER GAP when a stage leaves 40% uncovered");

  // "Of which" rows sit inside their parent and do not add coverage.
  perfbench::StageLedger nested;
  nested.AddTimedWall(1.0);
  nested.Add("a", 0.60, 10);
  nested.Add("a.inner", 0.50, 10, "a");
  Expect(HasGap(nested) && nested.Coverage() < 0.61,
         "nested ledger rows do not count toward coverage");
}

void TestWorkloadsEndToEnd(const std::string& dir) {
  for (const std::string& name : perfbench::WorkloadNames()) {
    for (bool trace : {false, true}) {
      perfbench::RunConfig config;
      config.workload = name;
      config.seed = 3;
      config.seconds = 0.3;
      config.trace = trace;
      config.tiny = true;
      config.work_dir = dir;
      perfbench::RunResult result;
      std::string error;
      const bool ran = perfbench::RunWorkload(config, &result, &error);
      for (const std::string& f : result.failures) {
        std::printf("      %s\n", f.c_str());
      }
      Expect(ran && result.failed == 0 && result.attempted > 0,
             name + (trace ? " (traced)" : "") +
                 " runs at tiny size with no failures (" +
                 std::to_string(result.attempted) + " attempted)");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Scratch directory for checkpoints and worker state (removed after).
  const std::string dir =
      argc > 1 ? argv[1]
               : (std::filesystem::current_path() / "perfbench-selftest").string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);

  TestGroupChecks();
  TestFabricCheck(dir);
  TestAnswerCheck();
  TestLedger();
  TestWorkloadsEndToEnd(dir);

  std::filesystem::remove_all(dir, ec);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "OK" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
