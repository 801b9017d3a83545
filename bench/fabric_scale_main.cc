// Fabric scale bench: networked ingest through forked worker processes
// versus the in-process sharded service, at matched (seed, shard count).
//
// The fabric's contract is that distribution is free of statistical
// cost: the gather merge is exact and the seed/routing mirroring makes
// the release BIT-IDENTICAL to the single-process run. This bench pins
// that equivalence on every cell and measures what the wire actually
// costs — framing, CRC, a synchronous ack per batch — as the ratio of
// fabric ingest time to in-process ingest time.
//
// Presets:
//   --preset=smoke   n = 6k, workers {1, 2}; the CI perf-smoke job runs
//                    this one.
//   --preset=full    n = 50k, d = 8, k = 10, workers {1, 2, 4, 8}.
//
// Emits BENCH_fabric_scale.json with one row per worker count and a
// bit_identical scalar (1.0 = every cell matched byte for byte).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "common/check.h"
#include "common/random.h"
#include "core/serialization.h"
#include "linalg/vector.h"
#include "obs/timing.h"
#include "shard/fabric.h"
#include "shard/worker_process.h"

namespace {

using condensa::Rng;
using condensa::linalg::Vector;
using condensa::shard::FabricConfig;
using condensa::shard::FabricService;
using condensa::shard::WorkerProcess;
using condensa::shard::WorkerServerConfig;

std::vector<Vector> MakeStream(std::size_t n, std::size_t dim,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector record(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      record[j] = rng.Gaussian(i % 2 == 0 ? -3.0 : 3.0, 1.0);
    }
    stream.push_back(std::move(record));
  }
  return stream;
}

struct CellTimes {
  double in_process_seconds = 0.0;
  double fabric_seconds = 0.0;
  bool bit_identical = false;
};

CellTimes RunCell(const std::vector<Vector>& stream, std::size_t workers,
                  std::size_t dim, std::size_t k, const std::string& root) {
  CellTimes cell;
  std::error_code cleanup_error;

  // In-process reference (also the bit-identity oracle).
  std::string reference_release;
  {
    const std::string inproc_root = root + "/inproc";
    std::filesystem::remove_all(inproc_root, cleanup_error);
    FabricConfig config;
    config.num_shards = workers;
    config.dim = dim;
    config.group_size = k;
    config.checkpoint_root = inproc_root;
    config.sync_every_append = false;
    config.snapshot_interval = 1u << 30;
    config.seed = 4242;
    condensa::obs::Timer timer;
    auto service = FabricService::Start(config);
    CONDENSA_CHECK(service.ok());
    for (const Vector& record : stream) {
      CONDENSA_CHECK((*service)->Submit(record).ok());
    }
    auto result = (*service)->Finish();
    cell.in_process_seconds = timer.ElapsedSeconds();
    CONDENSA_CHECK(result.ok());
    CONDENSA_CHECK(result->Balanced());
    reference_release = condensa::core::SerializeGroupSet(result->groups);
    std::filesystem::remove_all(inproc_root, cleanup_error);
  }

  // Fabric run over forked worker processes on loopback.
  {
    std::vector<WorkerProcess> processes;
    FabricConfig config;
    config.dim = dim;
    config.group_size = k;
    config.seed = 4242;
    config.sync_every_append = false;
    config.snapshot_interval = 1u << 30;
    config.wire_batch = 64;
    for (std::size_t i = 0; i < workers; ++i) {
      const std::string worker_root =
          root + "/worker-" + std::to_string(i);
      std::filesystem::remove_all(worker_root, cleanup_error);
      WorkerServerConfig server;
      server.checkpoint_root = worker_root;
      auto spawned = WorkerProcess::Spawn(std::move(server));
      CONDENSA_CHECK(spawned.ok());
      processes.push_back(*std::move(spawned));
      config.workers.push_back({"127.0.0.1", processes.back().port()});
    }

    condensa::obs::Timer timer;
    auto fabric = FabricService::Start(config);
    CONDENSA_CHECK(fabric.ok());
    for (const Vector& record : stream) {
      CONDENSA_CHECK((*fabric)->Submit(record).ok());
    }
    auto result = (*fabric)->Finish();
    cell.fabric_seconds = timer.ElapsedSeconds();
    CONDENSA_CHECK(result.ok());
    CONDENSA_CHECK(result->Balanced());
    cell.bit_identical =
        condensa::core::SerializeGroupSet(result->groups) ==
        reference_release;
    for (std::size_t i = 0; i < workers; ++i) {
      std::filesystem::remove_all(root + "/worker-" + std::to_string(i),
                                  cleanup_error);
    }
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::string preset = "smoke";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--preset=", 9) == 0) {
      preset = argv[i] + 9;
    } else {
      std::fprintf(stderr, "usage: %s [--preset=smoke|full]\n", argv[0]);
      return 1;
    }
  }
  const bool full = preset == "full";
  if (!full && preset != "smoke") {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 1;
  }

  const std::size_t n = full ? 50'000 : 6'000;
  const std::size_t dim = 8;
  const std::size_t k = 10;
  const std::vector<std::size_t> worker_counts =
      full ? std::vector<std::size_t>{1, 2, 4, 8}
           : std::vector<std::size_t>{1, 2};
  const std::string root =
      (std::filesystem::temp_directory_path() / "condensa_fabric_scale")
          .string();

  const std::vector<Vector> stream = MakeStream(n, dim, 2026);

  condensa::bench::BenchReporter reporter("fabric_scale");
  reporter.AddScalar("full_preset", full ? 1.0 : 0.0);
  reporter.AddScalar("n", static_cast<double>(n));
  reporter.AddScalar("dim", static_cast<double>(dim));
  reporter.AddScalar("k", static_cast<double>(k));
  reporter.SetRowSchema({"workers", "n", "fabric_seconds",
                         "in_process_seconds", "wire_overhead_ratio",
                         "records_per_sec", "bit_identical"});

  bool all_identical = true;
  std::printf("%8s %12s %12s %10s %8s\n", "workers", "fabric_s", "inproc_s",
              "overhead", "bitid");
  for (std::size_t workers : worker_counts) {
    CellTimes cell = RunCell(stream, workers, dim, k, root);
    all_identical = all_identical && cell.bit_identical;
    const double overhead =
        cell.in_process_seconds > 0.0
            ? cell.fabric_seconds / cell.in_process_seconds
            : 0.0;
    std::printf("%8zu %12.3f %12.3f %10.2f %8s\n", workers,
                cell.fabric_seconds, cell.in_process_seconds, overhead,
                cell.bit_identical ? "yes" : "NO");
    reporter.AddRow({static_cast<double>(workers), static_cast<double>(n),
                     cell.fabric_seconds, cell.in_process_seconds, overhead,
                     static_cast<double>(n) / cell.fabric_seconds,
                     cell.bit_identical ? 1.0 : 0.0});
  }
  reporter.AddScalar("bit_identical", all_identical ? 1.0 : 0.0);

  if (!reporter.Finish()) return 1;
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: fabric release diverged from the in-process "
                 "release on at least one cell\n");
    return 1;
  }
  return 0;
}
