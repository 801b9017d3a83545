// condensa condense: CSV in -> condensation -> anonymized CSV out.

#include <cstdio>

#include "cli/common.h"

namespace condensa::cli {
namespace {

int Run(FlagSet& flags) {
  core::CondensationConfig engine_config;
  std::string input, output, backend_id, save_groups;
  data::TaskType task{};
  std::uint64_t seed{};
  int label_column{};
  bool header{};
  flags.Text("input", "FILE", &input, "", "raw records CSV").Required();
  flags.Text("output", "FILE", &output, "", "anonymized release CSV")
      .Required();
  flags.Size("k", &engine_config.group_size, 10, "indistinguishability level")
      .Min(1);
  flags.Enum("mode", &engine_config.mode, core::CondensationMode::kStatic,
             {{"static", core::CondensationMode::kStatic},
              {"dynamic", core::CondensationMode::kDynamic}},
             "whole-batch split condensation, or one-at-a-time streaming "
             "maintenance");
  flags.Enum("task", &task, data::TaskType::kClassification, kTasks,
             "label handling; labeled tasks condense each class pool "
             "separately");
  flags.Text("backend", "ID", &backend_id,
             core::CondensedGroupSet::kDefaultBackendId,
             "anonymization backend (docs/backends.md); `condensa --help` "
             "lists the registered ids");
  flags.Int("label-column", &label_column, -1,
            "0-based label column; negative counts from the end");
  flags.Bool("header", &header, "first CSV row is a header");
  flags.Seed("seed", &seed, 42,
             "RNG seed; a fixed seed gives an identical release");
  flags.Text("save-groups", "FILE", &save_groups, "",
             "also save pool statistics for `generate`");
  if (!flags.Parse()) return flags.exit_code();
  // Fail an unknown backend before any file I/O: a usage error, exit 2.
  if (int code = ResolveBackend(backend_id, &engine_config.backend)) {
    return code;
  }

  data::Dataset dataset(0);
  if (int code = LoadCsv(input, task, header, label_column, &dataset)) {
    return code;
  }
  std::fprintf(stderr, "loaded %zu records x %zu attributes from %s\n",
               dataset.size(), dataset.dim(), input.c_str());

  Rng rng(seed);
  auto pools = core::CondensationEngine(engine_config).Condense(dataset, rng);
  if (!pools.ok()) return Fail("condensation failed", pools.status());
  if (int code = SavePools(*pools, save_groups)) return code;

  core::AnonymizerOptions anonymizer_options;
  anonymizer_options.backend = engine_config.backend;
  auto result = core::GenerateRelease(*pools, rng, anonymizer_options);
  if (!result.ok()) return Fail("release generation failed", result.status());
  if (int code = WriteRelease(result->anonymized, output)) return code;
  std::fprintf(stderr,
               "achieved indistinguishability level: %zu\n"
               "average group size: %.2f\n",
               result->AchievedIndistinguishability(),
               result->AverageGroupSize());
  return 0;
}

}  // namespace

const Command kCondenseCommand = {
    "condense", "CSV in -> condensation -> anonymized CSV out", nullptr, Run};

}  // namespace condensa::cli
