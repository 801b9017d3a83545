#include "cli/common.h"

#include <cstdio>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "core/anonymizer.h"
#include "core/checkpointing.h"
#include "core/serialization.h"
#include "data/csv.h"
#include "obs/metrics.h"

namespace condensa::cli {

int UsageError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  return 1;
}

int ExitFor(const std::string& what, const Status& status) {
  Fail(what, status);
  return status.code() == StatusCode::kInvalidArgument ? 2 : 1;
}

bool ParseEndpoint(const std::string& text, std::string* host,
                   std::uint16_t* port) {
  const std::size_t colon = text.rfind(':');
  std::size_t parsed = 0;
  if (colon == std::string::npos || colon == 0 ||
      !ParseSize(text.substr(colon + 1), &parsed) || parsed < 1 ||
      parsed > 65535) {
    return false;
  }
  *host = text.substr(0, colon);
  *port = static_cast<std::uint16_t>(parsed);
  return true;
}

int ResolveBackend(const std::string& id, core::Backend* out) {
  StatusOr<core::Backend> resolved = backend::Resolve(id);
  if (!resolved.ok()) {
    std::fprintf(stderr, "error: %s\n", resolved.status().message().c_str());
    return 2;
  }
  *out = *std::move(resolved);
  return 0;
}

int LoadCsv(const std::string& path, data::TaskType task, bool header,
            int label_column, data::Dataset* out) {
  data::CsvReadOptions options;
  options.task = task;
  options.has_header = header;
  options.label_column = label_column;
  StatusOr<data::CsvReadResult> result = data::ReadCsv(path, options);
  if (!result.ok()) return Fail("error reading " + path, result.status());
  *out = std::move(result->dataset);
  return 0;
}

int ReadStream(const std::string& input, bool header, std::uint64_t seed,
               std::size_t records, std::size_t dim,
               std::vector<linalg::Vector>* out) {
  if (!input.empty()) {
    data::Dataset dataset(0);
    if (int code =
            LoadCsv(input, data::TaskType::kUnlabeled, header, -1, &dataset)) {
      return code;
    }
    *out = dataset.records();
    return 0;
  }
  Rng rng(seed + 1);
  out->reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    linalg::Vector record(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      record[d] = rng.Gaussian(i % 2 == 0 ? -3.0 : 3.0, 1.0);
    }
    out->push_back(record);
  }
  return 0;
}

void ArmChaos(double probability, std::uint64_t seed) {
  if (probability <= 0.0) return;
  // The disk starts lying only after startup (the initial snapshot and
  // the quarantine header are deterministic), the same discipline as the
  // chaos soak test.
  FailPoint::Arm("io.append", {.code = StatusCode::kUnavailable,
                               .probability = probability,
                               .seed = seed + 1});
  FailPoint::Arm("io.sync", {.mode = FailPointMode::kLatency,
                             .probability = probability,
                             .seed = seed + 2,
                             .latency_ms = 1.0});
  FailPoint::Arm("dynamic.insert", {.code = StatusCode::kInternal,
                                    .probability = probability / 5.0,
                                    .seed = seed + 3});
  std::fprintf(stderr,
               "chaos armed: io.append/io.sync/dynamic.insert at p=%.3f\n",
               probability);
}

void DumpMetrics(MetricsFormat format) {
  if (format == MetricsFormat::kNone) return;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  std::fputs(format == MetricsFormat::kJson
                 ? registry.DumpJson().c_str()
                 : registry.DumpPrometheusText().c_str(),
             stdout);
}

void PrintGroupSummary(const core::CondensedGroupSet& groups,
                       const char* indent) {
  core::PrivacySummary summary = groups.Summary();
  std::printf("%sdimension             : %zu\n", indent, groups.dim());
  std::printf("%sconfigured k          : %zu\n", indent,
              groups.indistinguishability_level());
  std::printf("%sgroups                : %zu\n", indent, summary.num_groups);
  std::printf("%srecords represented   : %zu\n", indent,
              summary.total_records);
  std::printf("%sgroup size min/avg/max: %zu / %.2f / %zu\n", indent,
              summary.min_group_size, summary.average_group_size,
              summary.max_group_size);
}

namespace {

int ReportSave(const Status& status, const std::string& path) {
  if (!status.ok()) return Fail("error saving " + path, status);
  std::fprintf(stderr, "saved group statistics to %s\n", path.c_str());
  return 0;
}

}  // namespace

int SaveGroups(const core::CondensedGroupSet& groups,
               const std::string& path) {
  return path.empty() ? 0 : ReportSave(core::SaveGroupSet(groups, path), path);
}

int SavePools(const core::CondensedPools& pools, const std::string& path) {
  return path.empty() ? 0 : ReportSave(core::SavePools(pools, path), path);
}

int WriteRelease(const data::Dataset& release, const std::string& path) {
  Status status = data::WriteCsv(release, path);
  if (!status.ok()) return Fail("error writing " + path, status);
  std::fprintf(stderr, "wrote %zu anonymized records to %s\n",
               release.size(), path.c_str());
  return 0;
}

int WriteGroupRelease(const core::CondensedGroupSet& groups,
                      const core::Backend& backend, Rng& rng,
                      const std::string& path) {
  if (path.empty()) return 0;
  core::AnonymizerOptions options;
  options.backend = backend;
  auto records = core::Anonymizer(options).Generate(groups, rng);
  if (!records.ok()) return Fail("release generation failed", records.status());
  data::Dataset release(groups.dim());
  for (linalg::Vector& record : *records) release.Add(std::move(record));
  return WriteRelease(release, path);
}

void DeclareSnapshotSource(FlagSet& flags, SnapshotSource* source) {
  flags.Text("groups", "FILE", &source->groups, "",
             "saved pool statistics or bare group file");
  flags.Text("checkpoint-dir", "DIR", &source->checkpoint_dir, "",
             "recover a durable condenser's state");
  flags.Size("k", &source->k, 10,
             "group size for --checkpoint-dir recovery")
      .Min(1);
}

int LoadSnapshot(const SnapshotSource& source,
                 query::QuerySnapshot* snapshot) {
  if (!source.groups.empty()) {
    // Accept either a condensa-pools file or a bare group-set file,
    // mirroring `inspect`.
    auto pools = core::LoadPools(source.groups);
    if (pools.ok()) {
      *snapshot = query::SnapshotFromPools(*pools);
      return 0;
    }
    auto groups = core::LoadGroupSet(source.groups);
    if (!groups.ok()) {
      return Fail("error reading " + source.groups, groups.status());
    }
    *snapshot = query::SnapshotFromGroupSet(*groups);
    return 0;
  }
  const core::DynamicCondenserOptions options{.group_size = source.k};
  auto durable = core::DurableCondenser::Recover(
      source.checkpoint_dir, options, core::DurabilityOptions{});
  if (!durable.ok()) {
    return Fail("recovery from " + source.checkpoint_dir + " failed",
                durable.status());
  }
  *snapshot = query::SnapshotFromGroupSet(durable->groups());
  snapshot->records_seen = durable->records_seen();
  return 0;
}

}  // namespace condensa::cli
