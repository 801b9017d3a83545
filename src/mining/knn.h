// k-nearest-neighbour classification and regression.
//
// The paper's demonstration algorithm: a nearest-neighbour classifier
// cannot be adapted to the perturbation approach (which only reconstructs
// per-dimension distributions) but runs unchanged on condensed data.

#ifndef CONDENSA_MINING_KNN_H_
#define CONDENSA_MINING_KNN_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "index/kdtree.h"
#include "mining/model.h"
#include "simd/record_block.h"

namespace condensa::mining {

// How neighbour queries are answered.
enum class SearchStrategy {
  // Pick per training set: k-d tree for low-dimensional data where it
  // wins, linear scan otherwise.
  kAuto = 0,
  kBruteForce = 1,
  kKdTree = 2,
};

struct KnnOptions {
  // Number of neighbours consulted. Must be >= 1.
  std::size_t k = 1;
  SearchStrategy strategy = SearchStrategy::kAuto;
};

// Majority vote among the k nearest training records (Euclidean metric);
// ties break toward the nearer neighbour set (lowest total distance, then
// smaller label for determinism).
class KnnClassifier : public Classifier {
 public:
  explicit KnnClassifier(KnnOptions options = {}) : options_(options) {}

  Status Fit(const data::Dataset& train) override;
  int Predict(const linalg::Vector& record) const override;

  const KnnOptions& options() const { return options_; }
  // True when neighbour queries use the k-d tree (set after Fit).
  bool uses_index() const { return index_.has_value(); }

 private:
  KnnOptions options_;
  data::Dataset train_ = data::Dataset(0);
  // Blocked-SoA copy of the training records, built once in Fit: the
  // brute-force path answers each Predict with one batch-distance call.
  simd::RecordBlock block_{0};
  std::optional<index::KdTree> index_;
};

// Mean target of the k nearest training records.
class KnnRegressor : public Regressor {
 public:
  explicit KnnRegressor(KnnOptions options = {}) : options_(options) {}

  Status Fit(const data::Dataset& train) override;
  double Predict(const linalg::Vector& record) const override;

  const KnnOptions& options() const { return options_; }
  bool uses_index() const { return index_.has_value(); }

 private:
  KnnOptions options_;
  data::Dataset train_ = data::Dataset(0);
  simd::RecordBlock block_{0};  // see KnnClassifier::block_
  std::optional<index::KdTree> index_;
};

// Shared helper: indices of the k nearest records of `dataset` to `query`
// in increasing distance order (k clamped to dataset size).
std::vector<std::size_t> NearestNeighbors(const data::Dataset& dataset,
                                          const linalg::Vector& query,
                                          std::size_t k);

// Same selection with the squared distances kept: one batch-kernel call
// over pre-blocked records, returning the k nearest as (squared distance,
// record index) sorted ascending — ties on distance break toward the
// smaller index, exactly the order NearestNeighbors' (d², i) sort
// produces. Callers that need both the neighbour set and its distances
// (the k-NN vote) use this instead of recomputing per neighbour.
std::vector<std::pair<double, std::size_t>> NearestNeighborsWithDistances(
    const simd::RecordBlock& records, const linalg::Vector& query,
    std::size_t k);

}  // namespace condensa::mining

#endif  // CONDENSA_MINING_KNN_H_
