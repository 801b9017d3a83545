// Helpers shared by the condensa CLI's command files.
//
// A helper that can fail prints its own error and returns the process
// exit code (0 ok, 1 runtime error, 2 usage error), so a command reads
//   if (int code = Helper(...)) return code;

#ifndef CONDENSA_TOOLS_CLI_COMMON_H_
#define CONDENSA_TOOLS_CLI_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "backend/registry.h"
#include "cli/flags.h"
#include "common/random.h"
#include "common/status.h"
#include "core/backend_hooks.h"
#include "core/condensed_group_set.h"
#include "core/engine.h"
#include "data/dataset.h"
#include "linalg/vector.h"
#include "query/snapshot.h"
#include "shard/router.h"

namespace condensa::cli {

// The command table: one entry per file in tools/cli/.
extern const Command kCondenseCommand;
extern const Command kGenerateCommand;
extern const Command kIngestCommand;
extern const Command kServeStreamCommand;
extern const Command kShardCommand;
extern const Command kWorkerCommand;
extern const Command kFabricCommand;
extern const Command kRecoverCommand;
extern const Command kQueryCommand;
extern const Command kQueryServerCommand;
extern const Command kInspectCommand;
extern const Command kEvaluateCommand;
extern const Command kStatsCommand;

// Choice lists for the enum flags more than one command takes.
enum class MetricsFormat { kNone, kPrometheus, kJson };
inline const std::vector<std::pair<const char*, MetricsFormat>>
    kMetricsFormats = {{"prometheus", MetricsFormat::kPrometheus},
                       {"json", MetricsFormat::kJson}};
inline const std::vector<std::pair<const char*, shard::ShardPolicy>>
    kShardPolicies = {{"hash", shard::ShardPolicy::kHash},
                      {"round-robin", shard::ShardPolicy::kRoundRobin}};
inline const std::vector<std::pair<const char*, data::TaskType>> kTasks = {
    {"classification", data::TaskType::kClassification},
    {"regression", data::TaskType::kRegression},
    {"none", data::TaskType::kUnlabeled}};

// Prints `error: <message>` and returns 2, for cross-flag rules.
int UsageError(const std::string& message);

// Prints `<what>: <status>` and returns 1.
int Fail(const std::string& what, const Status& status);

// Prints `<what>: <status>` and returns 2 when the status blames the
// arguments (kInvalidArgument), else 1.
int ExitFor(const std::string& what, const Status& status);

// Splits "HOST:PORT" (port 1..65535); false when malformed.
bool ParseEndpoint(const std::string& text, std::string* host,
                   std::uint16_t* port);

// Resolves --backend into `out`. On an unknown id, prints the
// registry's message (which lists every registered id) and returns 2.
int ResolveBackend(const std::string& id, core::Backend* out);

int LoadCsv(const std::string& path, data::TaskType task, bool header,
            int label_column, data::Dataset* out);

// The records of an unlabeled CSV, or, when `input` is empty, `records`
// synthetic points of dimension `dim` alternating between two unit
// Gaussian blobs at -3 and +3, drawn from Rng(seed + 1).
int ReadStream(const std::string& input, bool header, std::uint64_t seed,
               std::size_t records, std::size_t dim,
               std::vector<linalg::Vector>* out);

// Arms the io.append, io.sync and dynamic.insert failpoints at
// `probability` (no-op at 0). The caller heals them with
// FailPoint::Reset() before Finish so spooled records drain.
void ArmChaos(double probability, std::uint64_t seed);

// Writes the default metrics registry to stdout (no-op for kNone).
void DumpMetrics(MetricsFormat format);

void PrintGroupSummary(const core::CondensedGroupSet& groups,
                       const char* indent);

// Save group statistics to `path`; no-ops when `path` is empty.
int SaveGroups(const core::CondensedGroupSet& groups, const std::string& path);
int SavePools(const core::CondensedPools& pools, const std::string& path);

int WriteRelease(const data::Dataset& release, const std::string& path);

// Regenerates a release from `groups` with `backend`'s sampler and
// writes it; no-op when `path` is empty.
int WriteGroupRelease(const core::CondensedGroupSet& groups,
                      const core::Backend& backend, Rng& rng,
                      const std::string& path);

// Where `query` and `query-server` read condensed state from: a saved
// groups file or a checkpoint directory.
struct SnapshotSource {
  std::string groups;
  std::string checkpoint_dir;
  std::size_t k{};
};
void DeclareSnapshotSource(FlagSet& flags, SnapshotSource* source);
int LoadSnapshot(const SnapshotSource& source,
                 query::QuerySnapshot* snapshot);

}  // namespace condensa::cli

#endif  // CONDENSA_TOOLS_CLI_COMMON_H_
