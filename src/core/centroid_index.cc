#include "core/centroid_index.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"

namespace condensa::core {
namespace {

struct CentroidIndexMetrics {
  obs::Counter& rebuilds = obs::DefaultRegistry().GetCounter(
      "condensa_centroid_index_rebuilds_total");
  obs::Counter& queries = obs::DefaultRegistry().GetCounter(
      "condensa_centroid_index_queries_total");
  obs::Counter& scan_fallbacks = obs::DefaultRegistry().GetCounter(
      "condensa_centroid_index_scan_fallbacks_total");

  static CentroidIndexMetrics& Get() {
    static CentroidIndexMetrics metrics;
    return metrics;
  }
};

}  // namespace

void CentroidIndex::MakeStale(std::size_t entry) {
  group_of_entry_[entry] = kNone;
  ++stale_entries_;
}

void CentroidIndex::EraseDirty(std::size_t pos) {
  const std::size_t moved = dirty_.back();
  dirty_[pos] = moved;
  slots_[moved].dirty_pos = pos;
  dirty_.pop_back();
}

bool CentroidIndex::TrackAppended(std::size_t num_groups) {
  if (slots_.size() > num_groups) return false;
  while (slots_.size() < num_groups) {
    slots_.push_back(Slot{kNone, dirty_.size()});
    dirty_.push_back(slots_.size() - 1);
  }
  return true;
}

void CentroidIndex::NoteGroupUpdated(std::size_t group_id) {
  // Ids past the tracked count are appended groups, dirty already.
  if (!tree_ || group_id >= slots_.size()) return;
  Slot& slot = slots_[group_id];
  if (slot.entry == kNone) return;  // dirty already
  MakeStale(slot.entry);
  slot.entry = kNone;
  slot.dirty_pos = dirty_.size();
  dirty_.push_back(group_id);
}

void CentroidIndex::NoteGroupRemoved(const CondensedGroupSet& groups,
                                     std::size_t group_id) {
  if (!tree_) return;
  // RemoveGroup moved the group that was last (id num_groups()) into
  // `group_id`; appended groups up to it must be tracked first.
  const std::size_t last = groups.num_groups();
  if (group_id > last || !TrackAppended(last + 1)) {
    Invalidate();
    return;
  }
  // Retire the removed group's entry or dirty-list slot ...
  const Slot removed = slots_[group_id];
  if (removed.entry != kNone) {
    MakeStale(removed.entry);
  } else {
    EraseDirty(removed.dirty_pos);
  }
  // ... and renumber the moved one, wherever it lives.
  if (group_id != last) {
    const Slot moved = slots_[last];
    slots_[group_id] = moved;
    if (moved.entry != kNone) {
      group_of_entry_[moved.entry] = group_id;
    } else {
      dirty_[moved.dirty_pos] = group_id;
    }
  }
  slots_.pop_back();
}

void CentroidIndex::Invalidate() {
  tree_.reset();
  group_of_entry_.clear();
  slots_.clear();
  dirty_.clear();
  stale_entries_ = 0;
  compares_since_rebuild_ = 0;
}

bool CentroidIndex::NeedsRebuild() const {
  const std::size_t snapshot = tree_->size();
  return compares_since_rebuild_ >= kRebuildWorkMultiple * snapshot ||
         dirty_.size() * 4 >= snapshot || stale_entries_ * 4 >= snapshot;
}

void CentroidIndex::Rebuild(const CondensedGroupSet& groups) {
  std::vector<linalg::Vector> centroids;
  centroids.reserve(groups.num_groups());
  for (const GroupStatistics& group : groups.groups()) {
    centroids.push_back(group.Centroid());
  }
  StatusOr<index::KdTree> tree = index::KdTree::Build(centroids);
  CONDENSA_CHECK(tree.ok());  // non-empty, consistent dims by construction
  tree_ = std::make_unique<index::KdTree>(std::move(*tree));
  const std::size_t n = tree_->size();
  group_of_entry_.resize(n);
  slots_.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    group_of_entry_[id] = id;
    slots_[id] = Slot{id, kNone};
  }
  dirty_.clear();
  stale_entries_ = 0;
  compares_since_rebuild_ = 0;
  CentroidIndexMetrics::Get().rebuilds.Increment();
}

std::size_t CentroidIndex::NearestGroup(const CondensedGroupSet& groups,
                                        const linalg::Vector& point) {
  CentroidIndexMetrics& metrics = CentroidIndexMetrics::Get();
  metrics.queries.Increment();
  const std::size_t num_groups = groups.num_groups();
  if (num_groups < kMinGroupsForIndex) {
    metrics.scan_fallbacks.Increment();
    return groups.NearestGroup(point);
  }
  if (!tree_ || !TrackAppended(num_groups) || NeedsRebuild()) {
    Rebuild(groups);
  }

  // One filtered traversal finds the best clean group under the key
  // (squared snapshot distance, current group id); stale entries are
  // skipped and dirty groups are compared exactly below.
  std::vector<std::pair<double, std::size_t>> clean = tree_->KNearestKeyed(
      point, 1, [this](std::size_t entry) { return group_of_entry_[entry]; });
  if (clean.empty()) {
    // Every entry stale (only possible for tiny snapshots given the
    // rebuild rule); the scan is the answer.
    metrics.scan_fallbacks.Increment();
    return groups.NearestGroup(point);
  }

  // Candidates: the clean winner plus every dirty group. Compare them
  // all with the same arithmetic the linear scan uses, lowest group id
  // winning ties, so the result is bit-identical to
  // groups.NearestGroup(point).
  std::size_t best = num_groups;
  double best_distance = 0.0;
  auto consider = [&](std::size_t id) {
    double distance = groups.group(id).SquaredDistanceToCentroid(point);
    if (best == num_groups || distance < best_distance ||
        (distance == best_distance && id < best)) {
      best = id;
      best_distance = distance;
    }
  };
  consider(clean.front().second);
  for (std::size_t id : dirty_) consider(id);
  compares_since_rebuild_ += 1 + dirty_.size();
  CONDENSA_DCHECK_LT(best, num_groups);
  return best;
}

}  // namespace condensa::core
