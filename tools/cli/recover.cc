// condensa recover: restores a condenser from its checkpoint directory
// (newest valid snapshot plus journal replay) and reports what survived.

#include <cstdio>

#include "cli/common.h"
#include "core/checkpointing.h"

namespace condensa::cli {
namespace {

int Run(FlagSet& flags) {
  core::DynamicCondenserOptions options;
  std::string dir, save_groups, backend_id;
  flags.Text("checkpoint-dir", "DIR", &dir, "", "directory to recover from")
      .Required();
  flags.Text("save-groups", "FILE", &save_groups, "",
             "save the recovered group statistics");
  flags.Size("k", &options.group_size, 10,
             "group size the state was built with")
      .Min(1);
  flags.Text("backend", "ID", &backend_id,
             core::CondensedGroupSet::kDefaultBackendId,
             "backend the state was built with; a mismatched checkpoint "
             "refuses to load");
  if (!flags.Parse()) return flags.exit_code();
  if (int code = ResolveBackend(backend_id, &options.backend)) return code;

  auto durable = core::DurableCondenser::Recover(dir, options,
                                                 core::DurabilityOptions{});
  if (!durable.ok()) {
    return Fail("recovery from " + dir + " failed", durable.status());
  }
  std::printf("checkpoint directory  : %s\n", dir.c_str());
  std::printf("snapshot sequence     : %zu\n", durable->snapshot_sequence());
  std::printf("journal records replayed: %zu\n",
              durable->appends_since_snapshot());
  std::printf("records ingested      : %zu\n", durable->records_seen());
  PrintGroupSummary(durable->groups(), "");
  return SaveGroups(durable->groups(), save_groups);
}

}  // namespace

const Command kRecoverCommand = {
    "recover", "restore a condenser from its checkpoints", nullptr, Run};

}  // namespace condensa::cli
