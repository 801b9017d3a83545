// condensa evaluate: compares an original and an anonymized CSV (mu,
// linkage, verbatim leakage).

#include <cstdio>

#include "cli/common.h"
#include "metrics/compatibility.h"
#include "metrics/privacy.h"

namespace condensa::cli {
namespace {

int Run(FlagSet& flags) {
  std::string original_path, anonymized_path;
  data::TaskType task{};
  int label_column{};
  bool header{};
  flags.Text("original", "FILE", &original_path, "", "raw records CSV")
      .Required();
  flags.Text("anonymized", "FILE", &anonymized_path, "", "release CSV")
      .Required();
  flags.Enum("task", &task, data::TaskType::kClassification, kTasks,
             "label handling");
  flags.Bool("header", &header, "first CSV row is a header");
  flags.Int("label-column", &label_column, -1,
            "0-based label column; negative counts from the end");
  if (!flags.Parse()) return flags.exit_code();

  data::Dataset original(0), anonymized(0);
  if (int code =
          LoadCsv(original_path, task, header, label_column, &original)) {
    return code;
  }
  if (int code =
          LoadCsv(anonymized_path, task, header, label_column, &anonymized)) {
    return code;
  }
  auto mu = metrics::CovarianceCompatibility(original, anonymized);
  auto linkage = metrics::EvaluateLinkage(original, anonymized);
  auto leakage = metrics::ExactLeakageRate(original, anonymized, 1e-9);
  if (!mu.ok() || !linkage.ok() || !leakage.ok()) {
    std::fprintf(stderr, "evaluation failed (dimension mismatch?)\n");
    return 1;
  }
  std::printf("records (original / anonymized): %zu / %zu\n",
              original.size(), anonymized.size());
  std::printf("covariance compatibility (mu)  : %.4f\n", *mu);
  std::printf("linkage distance gain          : %.3f\n",
              linkage->distance_gain);
  std::printf("pinpointed fraction            : %.4f\n",
              linkage->pinpointed_fraction);
  std::printf("verbatim leakage rate          : %.4f\n", *leakage);
  return 0;
}

}  // namespace

const Command kEvaluateCommand = {
    "evaluate", "compare an original and an anonymized CSV", nullptr, Run};

}  // namespace condensa::cli
