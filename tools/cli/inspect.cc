// condensa inspect: prints the privacy summary of a saved group
// statistics file.

#include <cstdio>

#include "cli/common.h"
#include "core/serialization.h"

namespace condensa::cli {
namespace {

int Run(FlagSet& flags) {
  std::string path;
  flags.Text("groups", "FILE", &path, "",
             "pool statistics (engine output) or bare group statistics file")
      .Required();
  if (!flags.Parse()) return flags.exit_code();

  auto pools = core::LoadPools(path);
  if (pools.ok()) {
    const char* task_name = "none";
    for (const auto& [name, task] : kTasks) {
      if (task == pools->task) task_name = name;
    }
    std::printf("pool statistics file  : %s\n", path.c_str());
    std::printf("task                  : %s\n", task_name);
    std::printf("feature dimension     : %zu\n", pools->feature_dim);
    std::printf("pools                 : %zu\n", pools->pools.size());
    for (const auto& pool : pools->pools) {
      std::printf("- pool label %d (splits: %zu)\n", pool.label,
                  pool.splits);
      PrintGroupSummary(pool.groups, "    ");
    }
    return 0;
  }
  auto groups = core::LoadGroupSet(path);
  if (!groups.ok()) return Fail("error reading " + path, groups.status());
  std::printf("group statistics file : %s\n", path.c_str());
  PrintGroupSummary(*groups, "");
  return 0;
}

}  // namespace

const Command kInspectCommand = {
    "inspect", "print the privacy summary of a saved file", nullptr, Run};

}  // namespace condensa::cli
