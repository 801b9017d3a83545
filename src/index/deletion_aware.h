// Deletion-aware k-NN index for the static condenser's gather loop.
//
// Static condensation (paper Fig. 1) repeatedly removes a seed record and
// its k-1 nearest survivors from the database. This wrapper drives a
// KdTree that erases in place (KdTree::Erase): each erased record leaves
// its leaf, and a subtree thinned to a leaf's worth of survivors folds
// into one leaf, so the tree is built once per condensation run and never
// rebuilt. The tree holds exactly the alive points; erasing an index
// twice trips KdTree::Erase's DCHECK.
//
// Result parity with the brute-force scan is exact, not approximate: the
// tree holds only alive points and ranks candidates by (squared
// distance, original index), keeping equal-distance boundary candidates
// in play until the index decides. The brute-force path selects by the
// same key, so both pick identical neighbour sets even on
// duplicate-heavy data where distances tie.

#ifndef CONDENSA_INDEX_DELETION_AWARE_H_
#define CONDENSA_INDEX_DELETION_AWARE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/kdtree.h"
#include "linalg/vector.h"

namespace condensa::index {

class DeletionAwareKdTree {
 public:
  // Indexes `points`; the array is only read during Build.
  static StatusOr<DeletionAwareKdTree> Build(
      const std::vector<linalg::Vector>& points);

  std::size_t alive_count() const { return tree_.size(); }

  // Removes one point (must currently be alive) from the tree in place.
  void Erase(std::size_t original_index);

  // The k nearest alive points to `query`, as (squared distance,
  // original index) pairs in increasing (distance, index) order — ties
  // broken by original index, matching the brute-force scan exactly.
  // k is clamped to alive_count().
  std::vector<std::pair<double, std::size_t>> KNearestAlive(
      const linalg::Vector& query, std::size_t k) const;

 private:
  explicit DeletionAwareKdTree(KdTree tree) : tree_(std::move(tree)) {}

  // Holds exactly the alive points, so its size is the alive count.
  KdTree tree_;
};

}  // namespace condensa::index

#endif  // CONDENSA_INDEX_DELETION_AWARE_H_
