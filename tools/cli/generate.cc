// condensa generate: regenerates a fresh release from saved pool
// statistics, with no raw data needed ever again.

#include <cstdio>

#include "cli/common.h"
#include "core/serialization.h"

namespace condensa::cli {
namespace {

int Run(FlagSet& flags) {
  std::string groups_path, output;
  std::uint64_t seed{};
  flags.Text("groups", "FILE", &groups_path, "",
             "pool statistics from condense --save-groups; the backend "
             "recorded in the file drives regeneration")
      .Required();
  flags.Text("output", "FILE", &output, "", "anonymized release CSV")
      .Required();
  flags.Seed("seed", &seed, 42, "RNG seed");
  if (!flags.Parse()) return flags.exit_code();

  auto pools = core::LoadPools(groups_path);
  if (!pools.ok()) return Fail("error reading " + groups_path, pools.status());
  // The groups file records which backend built it; regenerate with
  // that backend's sampler. The default condensation stamp keeps the
  // built-in eigendecomposition sampler, byte-for-byte.
  core::AnonymizerOptions anonymizer_options;
  if (!pools->pools.empty()) {
    const core::CondensedGroupSet& groups = pools->pools.front().groups;
    auto resolved = backend::Resolve(groups.backend_id());
    if (!resolved.ok()) {
      std::fprintf(stderr,
                   "error: %s was written by a backend this build cannot "
                   "regenerate: %s\n",
                   groups_path.c_str(), resolved.status().message().c_str());
      return 1;
    }
    Status stamp = resolved->CheckStamp(groups);
    if (!stamp.ok()) return Fail("cannot regenerate " + groups_path, stamp);
    anonymizer_options.backend = *std::move(resolved);
  }
  Rng rng(seed);
  auto result = core::GenerateRelease(*pools, rng, anonymizer_options);
  if (!result.ok()) return Fail("release generation failed", result.status());
  if (int code = WriteRelease(result->anonymized, output)) return code;
  std::fprintf(stderr, "indistinguishability level: %zu\n",
               result->AchievedIndistinguishability());
  return 0;
}

}  // namespace

const Command kGenerateCommand = {
    "generate", "regenerate a release from saved statistics", nullptr, Run};

}  // namespace condensa::cli
