#include "index/deletion_aware.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "linalg/vector.h"
#include "obs/metrics.h"

namespace condensa::index {
namespace {

using linalg::Vector;

std::vector<Vector> RandomCloud(std::size_t n, std::size_t dim, Rng& rng) {
  std::vector<Vector> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = rng.Gaussian();
    }
    points.push_back(std::move(p));
  }
  return points;
}

// The reference the wrapper must match bit-for-bit: scan the alive
// points, order by (squared distance, original index).
std::vector<std::pair<double, std::size_t>> BruteKNearest(
    const std::vector<Vector>& points, const std::vector<bool>& alive,
    const Vector& query, std::size_t k) {
  std::vector<std::pair<double, std::size_t>> hits;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!alive[i]) continue;
    hits.emplace_back(linalg::SquaredDistance(points[i], query), i);
  }
  std::sort(hits.begin(), hits.end());
  if (hits.size() > k) hits.resize(k);
  return hits;
}

TEST(DeletionAwareKdTreeTest, RejectsEmptyInput) {
  EXPECT_FALSE(DeletionAwareKdTree::Build({}).ok());
}

TEST(DeletionAwareKdTreeTest, MatchesBruteForceWithoutDeletions) {
  Rng rng(1);
  std::vector<Vector> points = RandomCloud(200, 3, rng);
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->alive_count(), 200u);
  std::vector<bool> alive(points.size(), true);
  for (int trial = 0; trial < 20; ++trial) {
    Vector query{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
    EXPECT_EQ(tree->KNearestAlive(query, 7),
              BruteKNearest(points, alive, query, 7));
  }
}

TEST(DeletionAwareKdTreeTest, MatchesBruteForceUnderInterleavedDeletions) {
  // Erase points between queries, through many subtree collapses, and
  // check every answer against the alive-only scan.
  Rng rng(2);
  std::vector<Vector> points = RandomCloud(300, 4, rng);
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  std::vector<bool> alive(points.size(), true);
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);

  std::size_t erased = 0;
  for (std::size_t round = 0; round < 28; ++round) {
    for (std::size_t j = 0; j < 10; ++j) {
      std::size_t victim = order[erased++];
      tree->Erase(victim);
      alive[victim] = false;
    }
    ASSERT_EQ(tree->alive_count(), points.size() - erased);
    Vector query(4);
    for (std::size_t d = 0; d < 4; ++d) query[d] = rng.Gaussian();
    EXPECT_EQ(tree->KNearestAlive(query, 9),
              BruteKNearest(points, alive, query, 9))
        << "after erasing " << erased << " points";
  }
}

TEST(DeletionAwareKdTreeTest, ErasedPointNeverReturned) {
  Rng rng(3);
  std::vector<Vector> points = RandomCloud(50, 2, rng);
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  Vector query = points[17];
  auto before = tree->KNearestAlive(query, 1);
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].second, 17u);
  tree->Erase(17);
  EXPECT_EQ(tree->alive_count(), 49u);
  for (const auto& [dist, idx] : tree->KNearestAlive(query, 49)) {
    EXPECT_NE(idx, 17u);
  }
}

TEST(DeletionAwareKdTreeTest, TiesBreakByOriginalIndex) {
  // Many coincident points: every distance ties, so ordering must come
  // from the original index alone.
  std::vector<Vector> points(20, Vector{1.0, 1.0});
  points.push_back(Vector{5.0, 5.0});
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  auto hits = tree->KNearestAlive(Vector{1.0, 1.0}, 5);
  ASSERT_EQ(hits.size(), 5u);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].first, 0.0);
    EXPECT_EQ(hits[i].second, i);
  }
  // Erasing low indices shifts the selection to the next-lowest ones.
  tree->Erase(0);
  tree->Erase(2);
  auto after = tree->KNearestAlive(Vector{1.0, 1.0}, 3);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0].second, 1u);
  EXPECT_EQ(after[1].second, 3u);
  EXPECT_EQ(after[2].second, 4u);
}

TEST(DeletionAwareKdTreeTest, KClampsToAliveCount) {
  Rng rng(4);
  std::vector<Vector> points = RandomCloud(10, 2, rng);
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  tree->Erase(0);
  tree->Erase(1);
  auto hits = tree->KNearestAlive(Vector{0.0, 0.0}, 100);
  EXPECT_EQ(hits.size(), 8u);
}

TEST(DeletionAwareKdTreeTest, SurvivesErasingAllButOne) {
  // Drives collapses up to the root and ends on a single-point tree.
  Rng rng(5);
  std::vector<Vector> points = RandomCloud(128, 3, rng);
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  for (std::size_t i = 0; i + 1 < points.size(); ++i) {
    tree->Erase(i);
  }
  EXPECT_EQ(tree->alive_count(), 1u);
  auto hits = tree->KNearestAlive(Vector{0.0, 0.0, 0.0}, 5);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].second, points.size() - 1);
}

TEST(DeletionAwareKdTreeTest, WrapperSurvivesMove) {
  // The condenser moves the wrapper out of StatusOr; the tree's internal
  // pointers must stay valid afterwards.
  Rng rng(6);
  std::vector<Vector> points = RandomCloud(64, 2, rng);
  auto built = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(built.ok());
  DeletionAwareKdTree tree = std::move(built).value();
  tree.Erase(10);
  std::vector<bool> alive(points.size(), true);
  alive[10] = false;
  Vector query{0.1, -0.2};
  EXPECT_EQ(tree.KNearestAlive(query, 6),
            BruteKNearest(points, alive, query, 6));
}

// Points on a grid of three levels per axis: distances tie all over,
// and in low dimensions many points coincide (oversized leaves).
std::vector<Vector> GridCloud(std::size_t n, std::size_t dim, Rng& rng) {
  std::vector<Vector> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector p(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      p[j] = static_cast<double>(rng.UniformIndex(3)) - 1.0;
    }
    points.push_back(std::move(p));
  }
  return points;
}

TEST(DeletionAwareKdTreeTest, CondenserShapedDrainMatchesBruteForce) {
  // The static condenser's loop: erase a random alive seed, gather its
  // k-1 nearest alive points, erase them, until nothing is left. Every
  // gather must match the (distance, index) scan while leaves compact
  // and thinned subtrees fold into leaves.
  std::uint64_t seed = 100;
  for (std::size_t n : {40u, 500u, 3000u}) {
    for (std::size_t dim : {1u, 2u, 3u, 10u}) {
      for (bool grid : {false, true}) {
        Rng rng(++seed);
        const std::vector<Vector> points =
            grid ? GridCloud(n, dim, rng) : RandomCloud(n, dim, rng);
        auto tree = DeletionAwareKdTree::Build(points);
        ASSERT_TRUE(tree.ok());
        std::vector<bool> alive(n, true);
        std::vector<std::size_t> survivors(n);
        for (std::size_t i = 0; i < n; ++i) survivors[i] = i;
        auto erase = [&](std::size_t i) {
          tree->Erase(i);
          alive[i] = false;
          survivors.erase(
              std::find(survivors.begin(), survivors.end(), i));
        };
        std::size_t round = 0;
        while (!survivors.empty()) {
          const std::string where =
              "n=" + std::to_string(n) + " d=" + std::to_string(dim) +
              (grid ? " grid" : " gaussian") + " round " +
              std::to_string(round++);
          const std::size_t k = 1 + rng.UniformIndex(12);
          const std::size_t seed_index =
              survivors[rng.UniformIndex(survivors.size())];
          erase(seed_index);
          ASSERT_EQ(tree->alive_count(), survivors.size()) << where;
          const auto hits = tree->KNearestAlive(points[seed_index], k - 1);
          ASSERT_EQ(hits,
                    BruteKNearest(points, alive, points[seed_index], k - 1))
              << where << " k=" << k;
          for (const auto& [dist, idx] : hits) erase(idx);
          ASSERT_EQ(tree->alive_count(), survivors.size()) << where;
        }
        EXPECT_TRUE(tree->KNearestAlive(points[0], 1).empty());
      }
    }
  }
}

TEST(DeletionAwareKdTreeTest, ThinnedTreeFoldsAtTheHighestNode) {
  // 66 points on a line build a root over a 32-point leaf (indices
  // 0..31) and a 34-point subtree. Erasing in index order empties the
  // leaf first; then the root and its right child fall to 32 live
  // points on the same erase, and the root, the higher of the two,
  // folds into one leaf. The whole drain collapses exactly once.
  obs::DefaultRegistry().Reset();
  std::vector<Vector> points;
  for (std::size_t i = 0; i < 66; ++i) {
    points.push_back(Vector{static_cast<double>(i)});
  }
  auto tree = DeletionAwareKdTree::Build(points);
  ASSERT_TRUE(tree.ok());
  for (std::size_t i = 0; i < points.size(); ++i) {
    tree->Erase(i);
    if (i + 1 < points.size()) {
      const auto hits = tree->KNearestAlive(Vector{0.0}, 1);
      ASSERT_EQ(hits.size(), 1u);
      EXPECT_EQ(hits[0].second, i + 1);
    }
  }
  EXPECT_EQ(tree->alive_count(), 0u);
  const std::string text = obs::DefaultRegistry().DumpPrometheusText();
  EXPECT_NE(text.find("condensa_static_index_collapses_total 1\n"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace condensa::index
