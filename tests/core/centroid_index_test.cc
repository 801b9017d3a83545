#include "core/centroid_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/condensed_group_set.h"
#include "core/split.h"
#include "linalg/vector.h"
#include "obs/metrics.h"

namespace condensa::core {
namespace {

using linalg::Vector;

// A set of `n` single-record groups at Gaussian positions.
CondensedGroupSet RandomGroups(std::size_t n, std::size_t dim, Rng& rng) {
  CondensedGroupSet set(dim, 1);
  for (std::size_t g = 0; g < n; ++g) {
    GroupStatistics group(dim);
    Vector p(dim);
    for (std::size_t j = 0; j < dim; ++j) p[j] = rng.Gaussian();
    group.Add(p);
    set.AddGroup(std::move(group));
  }
  return set;
}

Vector RandomPoint(std::size_t dim, Rng& rng) {
  Vector p(dim);
  for (std::size_t j = 0; j < dim; ++j) p[j] = rng.Gaussian();
  return p;
}

TEST(CentroidIndexTest, MatchesScanOnSmallSets) {
  // Below kMinGroupsForIndex the index is a pass-through scan; answers
  // must still match exactly.
  Rng rng(1);
  CondensedGroupSet groups = RandomGroups(8, 3, rng);
  CentroidIndex index;
  for (int trial = 0; trial < 25; ++trial) {
    Vector q = RandomPoint(3, rng);
    EXPECT_EQ(index.NearestGroup(groups, q), groups.NearestGroup(q));
  }
}

TEST(CentroidIndexTest, MatchesScanOnLargeSets) {
  Rng rng(2);
  CondensedGroupSet groups = RandomGroups(200, 4, rng);
  CentroidIndex index;
  for (int trial = 0; trial < 50; ++trial) {
    Vector q = RandomPoint(4, rng);
    EXPECT_EQ(index.NearestGroup(groups, q), groups.NearestGroup(q));
  }
}

TEST(CentroidIndexTest, TracksUpdatedGroupCentroids) {
  // Moving a group's centroid via Add must be visible right after
  // NoteGroupUpdated, without an explicit rebuild.
  Rng rng(3);
  CondensedGroupSet groups = RandomGroups(64, 2, rng);
  CentroidIndex index;
  Vector q = RandomPoint(2, rng);
  ASSERT_EQ(index.NearestGroup(groups, q), groups.NearestGroup(q));

  // Drag group 5 right on top of the query point.
  for (int i = 0; i < 200; ++i) groups.mutable_group(5).Add(q);
  index.NoteGroupUpdated(5);
  EXPECT_EQ(groups.NearestGroup(q), 5u);
  EXPECT_EQ(index.NearestGroup(groups, q), 5u);

  // And drag it far away again: a stale snapshot entry must not keep
  // proposing it.
  Vector far(2);
  far[0] = 1e4;
  far[1] = 1e4;
  for (int i = 0; i < 100000; ++i) groups.mutable_group(5).Add(far);
  index.NoteGroupUpdated(5);
  EXPECT_EQ(index.NearestGroup(groups, q), groups.NearestGroup(q));
}

TEST(CentroidIndexTest, ManyDirtyGroupsStayExact) {
  // Dirty more than the rebuild threshold's worth of groups between
  // queries; every answer must still match the scan.
  Rng rng(4);
  CondensedGroupSet groups = RandomGroups(100, 3, rng);
  CentroidIndex index;
  Vector probe = RandomPoint(3, rng);
  ASSERT_EQ(index.NearestGroup(groups, probe), groups.NearestGroup(probe));
  for (std::size_t g = 0; g < 60; ++g) {
    groups.mutable_group(g).Add(RandomPoint(3, rng));
    index.NoteGroupUpdated(g);
  }
  for (int trial = 0; trial < 25; ++trial) {
    Vector q = RandomPoint(3, rng);
    EXPECT_EQ(index.NearestGroup(groups, q), groups.NearestGroup(q));
  }
}

TEST(CentroidIndexTest, InvalidateHandlesStructuralChurn) {
  // RemoveGroup swaps in the last group, renumbering ids; after
  // Invalidate the index must agree with the scan again.
  Rng rng(5);
  CondensedGroupSet groups = RandomGroups(80, 2, rng);
  CentroidIndex index;
  Vector q = RandomPoint(2, rng);
  ASSERT_EQ(index.NearestGroup(groups, q), groups.NearestGroup(q));

  std::size_t nearest = groups.NearestGroup(q);
  groups.RemoveGroup(nearest);
  index.Invalidate();
  for (int trial = 0; trial < 20; ++trial) {
    Vector probe = RandomPoint(2, rng);
    EXPECT_EQ(index.NearestGroup(groups, probe), groups.NearestGroup(probe));
  }
}

TEST(CentroidIndexTest, TieBreaksByLowestGroupId) {
  // Several groups share one centroid: NearestGroup's contract is that
  // the lowest id wins, and the index must reproduce that.
  CondensedGroupSet groups(2, 1);
  for (int g = 0; g < 40; ++g) {
    GroupStatistics group(2);
    group.Add(g < 3 ? Vector{1.0, 1.0}
                    : Vector{10.0 + g, -5.0});
    groups.AddGroup(std::move(group));
  }
  CentroidIndex index;
  Vector q{1.0, 1.0};
  EXPECT_EQ(groups.NearestGroup(q), 0u);
  EXPECT_EQ(index.NearestGroup(groups, q), 0u);
}

// Every kind of churn the index's callers produce, in random order:
//   insert  — Add a record to the nearest group (the dynamic condenser's
//             insert), splitting at 2k: RemoveGroup + 2x AddGroup;
//   remove  — drop a whole group (a Remove that empties it);
//   merge   — move a group out, RemoveGroup, Merge it into its nearest
//             group (Remove's k-floor repair), splitting at 2k;
//   fold    — the same with the lowest-id undersized group as the victim
//             (the shard coordinator's Gather fold);
//   append  — AddGroup a fresh group, or an exact copy of an existing
//             one so centroids tie and the lowest id must win.
// Inputs sit on a coarse grid so distances tie often. The target group
// count swings between ~10 and ~150, crossing kMinGroupsForIndex (32) in
// both directions. After every step the index must agree with the
// linear scan on fresh probes, including probes placed exactly on an
// existing centroid. Splits, removals and merges must not force
// rebuilds: the index absorbs them, so rebuilds stay a small fraction of
// splits (an index that rebuilt on every structural change would do at
// least one per split).
TEST(CentroidIndexTest, StaysExactAcrossMergeRemoveSplitChurn) {
  Rng rng(7);
  const std::size_t dim = 2;
  const std::size_t k = 4;
  CondensedGroupSet groups(dim, k);
  auto grid_point = [&rng]() {
    Vector p(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = static_cast<double>(rng.UniformIndex(9)) - 4.0;
    }
    return p;
  };
  auto add_group = [&](std::size_t records) {
    GroupStatistics group(dim);
    for (std::size_t i = 0; i < records; ++i) group.Add(grid_point());
    groups.AddGroup(std::move(group));
  };
  for (std::size_t g = 0; g < 40; ++g) add_group(1 + g % k);

  CentroidIndex index;
  obs::Counter& rebuilds = obs::DefaultRegistry().GetCounter(
      "condensa_centroid_index_rebuilds_total");
  const std::uint64_t rebuilds_before = rebuilds.value();
  std::size_t steps = 0, splits = 0;
  auto expect_consistent = [&](const char* stage) {
    ++steps;
    Vector on_centroid =
        groups.group(rng.UniformIndex(groups.num_groups())).Centroid();
    for (const Vector& q : {grid_point(), on_centroid}) {
      ASSERT_EQ(index.NearestGroup(groups, q), groups.NearestGroup(q))
          << "index diverged from scan after " << stage << " at step "
          << steps << " with " << groups.num_groups() << " groups";
    }
  };
  auto maybe_split = [&](std::size_t id) {
    if (groups.group(id).count() < 2 * k) return;
    StatusOr<SplitResult> split =
        SplitGroupStatistics(groups.group(id), SplitRule::kMomentConsistent);
    ASSERT_TRUE(split.ok()) << split.status();
    groups.RemoveGroup(id);
    index.NoteGroupRemoved(groups, id);
    groups.AddGroup(std::move(split->lower));
    groups.AddGroup(std::move(split->upper));
    ++splits;
  };
  auto merge_away = [&](std::size_t victim) {
    GroupStatistics moved = std::move(groups.mutable_group(victim));
    groups.RemoveGroup(victim);
    index.NoteGroupRemoved(groups, victim);
    const std::size_t target = index.NearestGroup(groups, moved.Centroid());
    ASSERT_EQ(target, groups.NearestGroup(moved.Centroid()));
    groups.mutable_group(target).Merge(moved);
    index.NoteGroupUpdated(target);
    maybe_split(target);
  };

  std::size_t target_groups = 150;
  std::size_t crossings = 0;
  bool above = groups.num_groups() >= 32;
  for (int step = 0; step < 12000; ++step) {
    if (groups.num_groups() >= target_groups) target_groups = 10;
    if (groups.num_groups() <= target_groups) target_groups = 150;
    const bool growing = target_groups == 150;
    const std::size_t op = rng.UniformIndex(10);
    if (op < 4) {
      const Vector p = grid_point();
      const std::size_t nearest = index.NearestGroup(groups, p);
      ASSERT_EQ(nearest, groups.NearestGroup(p));
      groups.mutable_group(nearest).Add(p);
      index.NoteGroupUpdated(nearest);
      maybe_split(nearest);
      expect_consistent("insert");
    } else if (op < 6 && !growing) {
      const std::size_t victim = rng.UniformIndex(groups.num_groups());
      groups.RemoveGroup(victim);
      index.NoteGroupRemoved(groups, victim);
      expect_consistent("remove");
    } else if (op < 8 && !growing) {
      merge_away(rng.UniformIndex(groups.num_groups()));
      expect_consistent("merge");
    } else if (op < 9 && !growing) {
      std::size_t victim = 0;
      while (victim + 1 < groups.num_groups() &&
             groups.group(victim).count() >= k) {
        ++victim;
      }
      merge_away(victim);
      expect_consistent("fold");
    } else if (rng.UniformIndex(2) == 0) {
      // Exact copy: its centroid ties with the original's bit for bit.
      groups.AddGroup(groups.group(rng.UniformIndex(groups.num_groups())));
      expect_consistent("append copy");
    } else {
      add_group(1 + rng.UniformIndex(k));
      expect_consistent("append");
    }
    if ((groups.num_groups() >= 32) != above) {
      above = !above;
      ++crossings;
    }
  }
  EXPECT_GE(steps, 10000u);
  EXPECT_GE(crossings, 4u);
  ASSERT_GT(splits, 1000u);
  const std::uint64_t rebuilt = rebuilds.value() - rebuilds_before;
  EXPECT_LT(rebuilt * 4, splits)
      << rebuilt << " rebuilds for " << splits << " splits";
}

TEST(CentroidIndexTest, SingleGroupSet) {
  Rng rng(6);
  CondensedGroupSet groups = RandomGroups(1, 2, rng);
  CentroidIndex index;
  EXPECT_EQ(index.NearestGroup(groups, RandomPoint(2, rng)), 0u);
}

}  // namespace
}  // namespace condensa::core
