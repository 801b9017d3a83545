#include "index/deletion_aware.h"

#include <algorithm>

#include "obs/metrics.h"

namespace condensa::index {
namespace {

struct DeletionAwareMetrics {
  obs::Counter& builds = obs::DefaultRegistry().GetCounter(
      "condensa_static_index_builds_total");
  obs::Counter& collapses = obs::DefaultRegistry().GetCounter(
      "condensa_static_index_collapses_total");
  obs::Counter& queries = obs::DefaultRegistry().GetCounter(
      "condensa_static_index_queries_total");

  static DeletionAwareMetrics& Get() {
    static DeletionAwareMetrics metrics;
    return metrics;
  }
};

}  // namespace

StatusOr<DeletionAwareKdTree> DeletionAwareKdTree::Build(
    const std::vector<linalg::Vector>& points) {
  CONDENSA_ASSIGN_OR_RETURN(KdTree tree, KdTree::Build(points));
  DeletionAwareMetrics::Get().builds.Increment();
  return DeletionAwareKdTree(std::move(tree));
}

void DeletionAwareKdTree::Erase(std::size_t original_index) {
  if (tree_.Erase(original_index)) {
    DeletionAwareMetrics::Get().collapses.Increment();
  }
}

std::vector<std::pair<double, std::size_t>>
DeletionAwareKdTree::KNearestAlive(const linalg::Vector& query,
                                   std::size_t k) const {
  DeletionAwareMetrics::Get().queries.Increment();
  const std::size_t need = std::min(k, alive_count());
  if (need == 0) return {};
  // The tree holds only alive points, indexed by original index, so the
  // key is the identity: candidates rank by (squared distance, original
  // index), the same key the brute-force scan sorts by.
  return tree_.KNearestKeyed(query, need, [](std::size_t i) { return i; });
}

}  // namespace condensa::index
