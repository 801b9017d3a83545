// Shard scale-out bench: sharded durable streaming ingest at 1/2/4/8
// shards, with the quality side of the ledger measured on every cell.
//
// Dynamic condensation's per-record cost grows with the number of live
// groups G, so scattering one stream across N shards also cuts each
// shard's G by ~N: the speedups mix parallelism with that per-record
// cost, which is a defect to remove, not a sharding win
// (docs/scaling.md). The gather step is an exact moment merge, so the
// bench also checks that covariance compatibility (mu) and 1-NN
// accuracy on the released data stay within 2% of the 1-shard baseline,
// and that a fixed (seed, shard count) reproduces a bit-identical
// release.
//
// Presets:
//   --preset=smoke   n = 10k, shards {1, 4}; the CI perf-smoke job
//                    runs this one.
//   --preset=full    n = 100k, d = 10, k = 10, shards {1, 2, 4, 8} —
//                    the configuration the acceptance criterion uses
//                    (>= 3x ingest throughput at 8 shards).
//
// Emits BENCH_shard_scale.json with one row per shard count and
// speedup_shards<N> scalars relative to the 1-shard baseline.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/anonymizer.h"
#include "core/condensed_group_set.h"
#include "core/serialization.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "metrics/compatibility.h"
#include "mining/knn.h"
#include "obs/timing.h"
#include "shard/fabric.h"

namespace {

using condensa::Rng;
using condensa::core::CondensedGroupSet;
using condensa::data::Dataset;
using condensa::data::TaskType;
using condensa::linalg::Vector;
using condensa::shard::FabricConfig;
using condensa::shard::FabricService;

// The paper's two-class setting: well-separated Gaussian blobs, one
// stream per class so the released records keep their labels.
struct Workload {
  std::vector<Vector> train[2];
  Dataset train_raw{0};
  Dataset test{0};
};

Workload MakeWorkload(std::size_t n, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.train_raw = Dataset(dim, TaskType::kClassification);
  w.test = Dataset(dim, TaskType::kClassification);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    Vector record(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      record[j] = rng.Gaussian(label == 0 ? -3.0 : 3.0, 1.0);
    }
    if (i % 5 == 4) {
      w.test.Add(std::move(record), label);
    } else {
      w.train_raw.Add(record, label);
      w.train[label].push_back(std::move(record));
    }
  }
  return w;
}

struct CellResult {
  double ingest_seconds = 0.0;
  CondensedGroupSet groups[2] = {CondensedGroupSet(0, 0),
                                 CondensedGroupSet(0, 0)};
  std::size_t num_groups = 0;
  std::size_t min_group_size = 0;
};

// Ingests both class streams through fresh sharded services and returns
// the per-class gathered group sets plus wall time spent inside
// Submit + Finish (the ingest path the speedup claim is about).
CellResult RunCell(const Workload& w, std::size_t shards, std::size_t dim,
                   std::size_t k, const std::string& root) {
  CellResult cell;
  cell.min_group_size = static_cast<std::size_t>(-1);
  for (int label = 0; label < 2; ++label) {
    const std::string class_root = root + "/class-" + std::to_string(label);
    std::error_code cleanup_error;
    std::filesystem::remove_all(class_root, cleanup_error);

    FabricConfig config;
    config.num_shards = shards;
    config.dim = dim;
    config.group_size = k;
    config.checkpoint_root = class_root;
    // The bench measures the condensation path, not the disk: journal
    // appends stay buffered and snapshots are effectively disabled.
    config.sync_every_append = false;
    config.snapshot_interval = 1u << 30;
    config.queue_capacity = 4096;
    config.batch_size = 64;
    config.seed = 42 + static_cast<std::uint64_t>(label);

    condensa::obs::Timer timer;
    auto service = FabricService::Start(config);
    CONDENSA_CHECK(service.ok());
    for (const Vector& record : w.train[label]) {
      CONDENSA_CHECK((*service)->Submit(record).ok());
    }
    auto result = (*service)->Finish();
    cell.ingest_seconds += timer.ElapsedSeconds();
    CONDENSA_CHECK(result.ok());
    CONDENSA_CHECK(result->Balanced());
    CONDENSA_CHECK_EQ(result->groups.TotalRecords(),
                      w.train[label].size());
    cell.num_groups += result->groups.num_groups();
    const std::size_t min_size = result->groups.Summary().min_group_size;
    if (min_size < cell.min_group_size) cell.min_group_size = min_size;
    cell.groups[label] = std::move(result->groups);

    std::filesystem::remove_all(class_root, cleanup_error);
  }
  return cell;
}

// Regenerates a labeled release from the per-class group sets and scores
// it: covariance compatibility against the raw training data, and 1-NN
// accuracy on the held-out original test records.
void ScoreRelease(const Workload& w, const CellResult& cell,
                  std::size_t dim, double* mu, double* accuracy) {
  condensa::core::Anonymizer anonymizer;
  Dataset release(dim, TaskType::kClassification);
  for (int label = 0; label < 2; ++label) {
    Rng rng(1000 + static_cast<std::uint64_t>(label));
    auto points = anonymizer.Generate(cell.groups[label], rng);
    CONDENSA_CHECK(points.ok());
    for (Vector& point : *points) {
      release.Add(std::move(point), label);
    }
  }

  auto compatibility =
      condensa::metrics::CovarianceCompatibility(w.train_raw, release);
  CONDENSA_CHECK(compatibility.ok());
  *mu = *compatibility;

  condensa::mining::KnnClassifier knn({.k = 1});
  CONDENSA_CHECK(knn.Fit(release).ok());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < w.test.size(); ++i) {
    if (knn.Predict(w.test.record(i)) == w.test.label(i)) ++correct;
  }
  *accuracy = static_cast<double>(correct) /
              static_cast<double>(w.test.size());
}

std::string FingerprintCell(const CellResult& cell) {
  return condensa::core::SerializeGroupSet(cell.groups[0]) +
         condensa::core::SerializeGroupSet(cell.groups[1]);
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

  const std::size_t n = full ? 100'000 : 10'000;
  const std::size_t dim = 10;
  const std::size_t k = 10;
  const std::vector<std::size_t> shard_counts =
      full ? std::vector<std::size_t>{1, 2, 4, 8}
           : std::vector<std::size_t>{1, 4};
  const std::string root =
      (std::filesystem::temp_directory_path() / "condensa_shard_scale")
          .string();

  Workload w = MakeWorkload(n, dim, 2026);

  condensa::bench::BenchReporter reporter("shard_scale");
  reporter.AddScalar("full_preset", full ? 1.0 : 0.0);
  reporter.AddScalar("n", static_cast<double>(n));
  reporter.AddScalar("dim", static_cast<double>(dim));
  reporter.AddScalar("k", static_cast<double>(k));
  reporter.SetRowSchema({"shards", "n", "seconds", "records_per_sec", "mu",
                         "accuracy", "groups", "min_group_size"});

  const double ingested =
      static_cast<double>(w.train[0].size() + w.train[1].size());
  double baseline_seconds = 0.0, baseline_mu = 0.0, baseline_accuracy = 0.0;
  for (std::size_t shards : shard_counts) {
    CellResult cell = RunCell(w, shards, dim, k, root);

    // Fixed (seed, shard count) must reproduce the release bit for bit;
    // rerunning the smallest cell keeps the check cheap in full preset.
    if (!full || shards == shard_counts.front()) {
      CellResult replay = RunCell(w, shards, dim, k, root);
      CONDENSA_CHECK(FingerprintCell(cell) == FingerprintCell(replay));
    }

    double mu = 0.0, accuracy = 0.0;
    ScoreRelease(w, cell, dim, &mu, &accuracy);

    if (shards == shard_counts.front()) {
      baseline_seconds = cell.ingest_seconds;
      baseline_mu = mu;
      baseline_accuracy = accuracy;
    } else {
      // The gather is exact, so quality must ride flat across the sweep.
      CONDENSA_CHECK(mu >= baseline_mu - 0.02);
      CONDENSA_CHECK(accuracy >= baseline_accuracy - 0.02);
      reporter.AddScalar("speedup_shards" + std::to_string(shards),
                         baseline_seconds / cell.ingest_seconds);
    }

    reporter.AddRow({static_cast<double>(shards), ingested,
                     cell.ingest_seconds, ingested / cell.ingest_seconds, mu,
                     accuracy, static_cast<double>(cell.num_groups),
                     static_cast<double>(cell.min_group_size)});
    std::printf(
        "shards=%zu: ingest %.3fs (%.0f rec/s)  mu=%.4f  acc=%.4f  "
        "groups=%zu  min=%zu  speedup=%.2fx\n",
        shards, cell.ingest_seconds, ingested / cell.ingest_seconds, mu,
        accuracy, cell.num_groups, cell.min_group_size,
        baseline_seconds / cell.ingest_seconds);
  }

  std::error_code cleanup_error;
  std::filesystem::remove_all(root, cleanup_error);
  return reporter.Finish() ? 0 : 1;
}
