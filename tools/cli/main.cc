// condensa — command-line anonymizer.
//
// Condenses a table with the paper's static or dynamic condensation,
// keeps the group statistics, and regenerates releases from them later;
// also serves the streaming, sharded, fabric and query planes. Each
// command lives in its own file in this directory and declares its flags
// once (cli/flags.h); `condensa <command> --help` prints them.
//
// Exit codes: 0 ok (and every --help), 1 runtime error, 2 usage error
// (unknown command or flag, bad value, missing required flag), detected
// before any work starts.

#include <cstdio>
#include <string>
#include <vector>

#include "backend/registry.h"
#include "cli/common.h"
#include "cli/flags.h"

namespace condensa::cli {
namespace {

const Command* const kCommands[] = {
    &kCondenseCommand,    &kGenerateCommand, &kIngestCommand,
    &kServeStreamCommand, &kShardCommand,    &kWorkerCommand,
    &kFabricCommand,      &kRecoverCommand,  &kQueryCommand,
    &kQueryServerCommand, &kInspectCommand,  &kEvaluateCommand,
    &kStatsCommand,
};

void PrintUsage(std::FILE* out) {
  std::fputs(
      "usage: condensa <command> [--flag=value ...]\n"
      "       condensa <command> --help\n"
      "\n"
      "commands:\n",
      out);
  for (const Command* command : kCommands) {
    FlagSet flags(*command);
    command->run(flags);
    std::fputs(flags.Synopsis().c_str(), out);
  }
  std::fputs(
      "\nanonymization backends (--backend=ID; default condensation):\n",
      out);
  for (const backend::RegistryEntry& entry : backend::Registry()) {
    std::fprintf(out, "  %-12s %s\n", entry.backend.id.c_str(),
                 entry.summary.c_str());
  }
  std::fputs(
      "\n`condensa <command> --help` describes one command's flags in "
      "detail.\n",
      out);
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  const std::string name = argv[1];
  if (name == "help" || name == "--help" || name == "-h") {
    PrintUsage(stdout);
    return 0;
  }
  for (const Command* command : kCommands) {
    if (name == command->name) {
      FlagSet flags(*command, std::vector<std::string>(argv + 2, argv + argc));
      return command->run(flags);
    }
  }
  std::fprintf(stderr, "error: unknown command '%s'\n", name.c_str());
  PrintUsage(stderr);
  return 2;
}

}  // namespace
}  // namespace condensa::cli

int main(int argc, char** argv) { return condensa::cli::Main(argc, argv); }
