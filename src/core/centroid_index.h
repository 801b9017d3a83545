// Nearest-centroid acceleration for CondensedGroupSet::NearestGroup hot
// paths (static leftover absorption, dynamic insert/remove routing, the
// shard coordinator's fold loop).
//
// The group set's own NearestGroup is a linear scan over every centroid,
// which is the per-record cost of the dynamic condenser. This index keeps
// a kd-tree over a snapshot of the centroids and stays valid while the
// set churns, so a split costs O(1) index upkeep rather than a rebuild.
//
// Invariants between rebuilds:
//   - Every current group id is either clean — its snapshot entry holds
//     its exact current centroid — or dirty, listed in a dirty-id list.
//   - Each snapshot entry is keyed by the current id of the group it
//     shows, or is stale (that group has since moved or been removed)
//     and skipped by the tree.
// The caller reports churn right after each mutation of the set:
//   NoteGroupUpdated  one group's aggregate changed in place (Add,
//                     Remove, Merge moved its centroid): it turns dirty
//                     and its snapshot entry stale.
//   NoteGroupRemoved  CondensedGroupSet::RemoveGroup ran; mirrors its
//                     swap-with-last rule, so the group that was last
//                     keeps its entry (or dirty-list slot) under its new
//                     id.
//   (appends)         groups appended with AddGroup/Absorb need no call:
//                     ids beyond the tracked count are dirty.
//   Invalidate        the set was replaced wholesale (Bootstrap,
//                     TakeGroups): drop everything.
//
// NearestGroup rebuilds the snapshot once the exact-compare work spent on
// dirty groups since the last rebuild reaches kRebuildWorkMultiple times
// the snapshot size, or a quarter of the snapshot is dirty or stale. That
// keeps both the per-query dirty scan and the amortized rebuild cost far
// below the O(G) scan.
//
// The answer is bit-for-bit the one the linear scan would give, including
// tie-breaks (lowest group id wins): the tree only proposes the best
// clean group under the key (snapshot distance, current id); it and
// every dirty group are then compared with
// GroupStatistics::SquaredDistanceToCentroid — the same arithmetic the
// scan uses. Small sets skip the tree entirely.

#ifndef CONDENSA_CORE_CENTROID_INDEX_H_
#define CONDENSA_CORE_CENTROID_INDEX_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "core/condensed_group_set.h"
#include "index/kdtree.h"
#include "linalg/vector.h"

namespace condensa::core {

class CentroidIndex {
 public:
  CentroidIndex() = default;

  // Index of the group whose centroid is nearest to `point` — identical
  // to groups.NearestGroup(point) in every case. `groups` must be the
  // same set as on previous calls unless the index was invalidated; the
  // caller reports mutations as described above.
  std::size_t NearestGroup(const CondensedGroupSet& groups,
                           const linalg::Vector& point);

  // Group `group_id`'s aggregate changed in place. O(1).
  void NoteGroupUpdated(std::size_t group_id);

  // Call right after groups.RemoveGroup(group_id). O(1).
  void NoteGroupRemoved(const CondensedGroupSet& groups,
                        std::size_t group_id);

  // The set was replaced wholesale. Drops the snapshot; the next query
  // rebuilds it.
  void Invalidate();

 private:
  // Below this many groups a linear scan beats tree upkeep.
  static constexpr std::size_t kMinGroupsForIndex = 32;
  // Exact compares of dirty groups allowed per snapshot entry between
  // rebuilds.
  static constexpr std::size_t kRebuildWorkMultiple = 8;
  static constexpr std::size_t kNone = index::KdTree::kSkipPoint;

  // Where a current group id lives: its clean snapshot entry, or (when
  // entry == kNone) its position in dirty_.
  struct Slot {
    std::size_t entry = kNone;
    std::size_t dirty_pos = kNone;
  };

  void Rebuild(const CondensedGroupSet& groups);
  bool NeedsRebuild() const;
  // Tracks ids up to `num_groups`, listing the newly appended ones as
  // dirty. False when the set holds fewer groups than tracked (a removal
  // went unreported), so the bookkeeping cannot be trusted.
  bool TrackAppended(std::size_t num_groups);
  void MakeStale(std::size_t entry);
  void EraseDirty(std::size_t pos);

  // Tree over the centroids at the last rebuild (the snapshot); its
  // point indices are snapshot entries.
  std::unique_ptr<index::KdTree> tree_;
  // Per snapshot entry: the current id of the group it shows, or kNone
  // when stale (the tree's skip sentinel).
  std::vector<std::size_t> group_of_entry_;
  std::vector<Slot> slots_;          // per tracked group id
  std::vector<std::size_t> dirty_;   // dirty group ids, unordered
  std::size_t stale_entries_ = 0;
  std::size_t compares_since_rebuild_ = 0;
};

}  // namespace condensa::core

#endif  // CONDENSA_CORE_CENTROID_INDEX_H_
