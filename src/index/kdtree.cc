#include "index/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/timing.h"

namespace condensa::index {
namespace {

struct KdTreeMetrics {
  obs::Counter& builds =
      obs::DefaultRegistry().GetCounter("condensa_kdtree_builds_total");
  obs::Counter& indexed_points = obs::DefaultRegistry().GetCounter(
      "condensa_kdtree_indexed_points_total");
  obs::Counter& queries =
      obs::DefaultRegistry().GetCounter("condensa_kdtree_queries_total");
  obs::Counter& nodes_visited = obs::DefaultRegistry().GetCounter(
      "condensa_kdtree_nodes_visited_total");
  obs::Histogram& build_seconds =
      obs::DefaultRegistry().GetHistogram("condensa_kdtree_build_seconds");

  static KdTreeMetrics& Get() {
    static KdTreeMetrics metrics;
    return metrics;
  }
};

}  // namespace

namespace internal {

std::vector<double>& KdLeafScratch() {
  thread_local std::vector<double> scratch;
  return scratch;
}

}  // namespace internal

StatusOr<KdTree> KdTree::Build(const std::vector<linalg::Vector>& points) {
  if (points.empty()) {
    return InvalidArgumentError("cannot index an empty point set");
  }
  const std::size_t dim = points.front().dim();
  if (dim == 0) {
    return InvalidArgumentError("cannot index zero-dimensional points");
  }
  for (const linalg::Vector& p : points) {
    if (p.dim() != dim) {
      return InvalidArgumentError("points have inconsistent dimensions");
    }
  }

  KdTreeMetrics& metrics = KdTreeMetrics::Get();
  obs::ScopedTimer build_timer(metrics.build_seconds);
  KdTree tree;
  tree.size_ = points.size();
  tree.dim_ = dim;
  tree.order_.resize(points.size());
  std::iota(tree.order_.begin(), tree.order_.end(), 0);
  tree.nodes_.reserve(2 * points.size() / kLeafSize + 4);
  tree.root_ = tree.BuildRecursive(points, 0, points.size());
  // Flatten the points into blocked SoA storage in final order_ order so
  // leaf scans are one vectorized batch-kernel call per leaf.
  tree.coords_ = simd::RecordBlock(dim);
  tree.coords_.Reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    tree.coords_.Append(points[tree.order_[i]].data());
  }
  metrics.builds.Increment();
  metrics.indexed_points.Increment(points.size());
  return tree;
}

std::size_t KdTree::BuildRecursive(const std::vector<linalg::Vector>& points,
                                   std::size_t begin, std::size_t end) {
  CONDENSA_DCHECK_LT(begin, end);
  const std::size_t node_id = nodes_.size();
  nodes_.emplace_back();
  nodes_[node_id].begin = begin;
  nodes_[node_id].end = end;
  if (end - begin <= kLeafSize) return node_id;

  // Split on the dimension with the widest value spread in this cell.
  // One pass over the points, tracking per-dimension min/max as we go:
  // each point's coordinates are contiguous, so this touches every
  // record once instead of chasing the same pointers once per dimension.
  std::vector<double>& lo = build_lo_;
  std::vector<double>& hi = build_hi_;
  lo.assign(dim_, std::numeric_limits<double>::infinity());
  hi.assign(dim_, -std::numeric_limits<double>::infinity());
  for (std::size_t i = begin; i < end; ++i) {
    const double* p = points[order_[i]].data();
    for (std::size_t d = 0; d < dim_; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  std::size_t best_dim = 0;
  double best_spread = -1.0;
  for (std::size_t d = 0; d < dim_; ++d) {
    if (hi[d] - lo[d] > best_spread) {
      best_spread = hi[d] - lo[d];
      best_dim = d;
    }
  }
  // All points in the cell coincide: make it a leaf regardless of size.
  if (best_spread <= 0.0) return node_id;

  // Near-median split, rounded down so the partition point stays a
  // multiple of the SoA lane width. Every node's begin is then
  // lane-aligned (inductively: the root starts at 0 and both children
  // inherit alignment from an aligned mid), and every node's end is
  // aligned except on the rightmost spine — so almost every leaf scan is
  // whole blocks for the batch kernel, no edge-lane handling. Any
  // partition point strictly inside the range builds a correct tree;
  // end - begin > kLeafSize >= 2 * kLane keeps the rounded mid interior.
  std::size_t mid = begin + (end - begin) / 2;
  mid -= (mid - begin) % simd::RecordBlock::kLane;
  std::nth_element(order_.begin() + begin, order_.begin() + mid,
                   order_.begin() + end,
                   [&points, best_dim](std::size_t a, std::size_t b) {
                     return points[a][best_dim] < points[b][best_dim];
                   });
  const double split_value = points[order_[mid]][best_dim];

  // Fill fields after recursion: BuildRecursive may reallocate nodes_.
  std::size_t left = BuildRecursive(points, begin, mid);
  std::size_t right = BuildRecursive(points, mid, end);
  Node& node = nodes_[node_id];
  node.split_dim = best_dim;
  node.split_value = split_value;
  node.left = left;
  node.right = right;
  return node_id;
}

void KdTree::InitEraseBookkeeping() {
  // Node ids are handed out in preorder, so children come after their
  // parent: one reverse pass sums live counts bottom-up.
  live_.resize(nodes_.size());
  parent_.resize(nodes_.size());
  leaf_of_.resize(order_.size());
  parent_[root_] = root_;
  for (std::size_t id = nodes_.size(); id-- > 0;) {
    const Node& node = nodes_[id];
    if (node.split_dim == Node::kLeaf) {
      live_[id] = node.end - node.begin;
      std::fill(leaf_of_.begin() + node.begin, leaf_of_.begin() + node.end,
                id);
    } else {
      live_[id] = live_[node.left] + live_[node.right];
      parent_[node.left] = id;
      parent_[node.right] = id;
    }
  }
  position_of_.resize(order_.size());
  for (std::size_t pos = 0; pos < order_.size(); ++pos) {
    position_of_[order_[pos]] = pos;
  }
}

void KdTree::MoveRecord(std::size_t from, std::size_t to, std::size_t leaf) {
  coords_.CopyRecord(from, to);
  order_[to] = order_[from];
  position_of_[order_[to]] = to;
  leaf_of_[to] = leaf;
}

std::size_t KdTree::CompactSubtree(std::size_t node_id, std::size_t leaf,
                                   std::size_t cursor) {
  const Node& node = nodes_[node_id];
  if (node.split_dim != Node::kLeaf) {
    cursor = CompactSubtree(node.left, leaf, cursor);
    return CompactSubtree(node.right, leaf, cursor);
  }
  // Leaves come left to right with ascending ranges, so the cursor never
  // passes the record it copies.
  for (std::size_t pos = node.begin; pos < node.end; ++pos, ++cursor) {
    if (pos != cursor) {
      MoveRecord(pos, cursor, leaf);
    } else {
      leaf_of_[cursor] = leaf;
    }
  }
  return cursor;
}

bool KdTree::Erase(std::size_t index) {
  if (live_.empty()) InitEraseBookkeeping();
  CONDENSA_DCHECK_LT(index, position_of_.size());
  const std::size_t pos = position_of_[index];
  const std::size_t leaf = leaf_of_[pos];
  CONDENSA_DCHECK(pos >= nodes_[leaf].begin && pos < nodes_[leaf].end &&
                  order_[pos] == index);
  const std::size_t last = --nodes_[leaf].end;
  if (pos != last) MoveRecord(last, pos, leaf);
  --size_;

  constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);
  std::size_t collapse = kNoNode;
  for (std::size_t id = leaf;; id = parent_[id]) {
    --live_[id];
    if (nodes_[id].split_dim != Node::kLeaf && live_[id] <= kLeafSize) {
      collapse = id;
    }
    if (id == root_) break;
  }
  std::size_t top = leaf;
  if (collapse != kNoNode) {
    Node& node = nodes_[collapse];
    node.end = CompactSubtree(collapse, collapse, node.begin);
    node.split_dim = Node::kLeaf;
    top = collapse;
  }
  // Only the counts on this path moved, so checking it keeps the whole
  // tree's invariant: every internal node holds > kLeafSize live points.
  for (std::size_t id = top;; id = parent_[id]) {
    CONDENSA_DCHECK(nodes_[id].split_dim == Node::kLeaf ||
                    live_[id] > kLeafSize);
    CONDENSA_DCHECK(nodes_[id].split_dim != Node::kLeaf ||
                    live_[id] == nodes_[id].end - nodes_[id].begin);
    if (id == root_) break;
  }
  return collapse != kNoNode;
}

void KdTree::SearchKNearest(std::size_t node_id, const linalg::Vector& query,
                            std::size_t k, std::vector<HeapEntry>& heap,
                            double bound_sq, std::vector<double>& excess,
                            std::size_t& visited) const {
  ++visited;
  const Node& node = nodes_[node_id];

  if (node.split_dim == Node::kLeaf) {
    // One bounded batch-kernel call per leaf: abandoned records come
    // back +inf (they were already beyond the k-th best at leaf entry),
    // finite values are bit-identical to the scalar loop.
    const double bound = heap.size() == k
                             ? heap.front().distance_sq
                             : std::numeric_limits<double>::infinity();
    std::vector<double>& dist = internal::KdLeafScratch();
    const std::size_t count = node.end - node.begin;
    if (dist.size() < count) dist.resize(count);
    simd::SquaredDistanceBatchRange(coords_, query.data(), node.begin,
                                    node.end, bound, dist.data());
    for (std::size_t i = node.begin; i < node.end; ++i) {
      const double distance_sq = dist[i - node.begin];
      if (heap.size() < k) {
        heap.push_back({distance_sq, order_[i]});
        std::push_heap(heap.begin(), heap.end());
      } else if (distance_sq < heap.front().distance_sq) {
        // (equal distances lose here, so the +inf abandoned lanes and
        // everything past the k-th best drop without touching order_)
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = {distance_sq, order_[i]};
        std::push_heap(heap.begin(), heap.end());
      }
    }
    return;
  }

  const double diff = query[node.split_dim] - node.split_value;
  const std::size_t near = diff < 0.0 ? node.left : node.right;
  const std::size_t far = diff < 0.0 ? node.right : node.left;
  SearchKNearest(near, query, k, heap, bound_sq, excess, visited);
  // Visit the far side only if its region bound stays under the current
  // k-th best (see the declaration for the incremental-bound scheme).
  const double old_excess = excess[node.split_dim];
  const double far_bound = bound_sq - old_excess * old_excess + diff * diff;
  if (heap.size() < k || far_bound < heap.front().distance_sq) {
    excess[node.split_dim] = diff < 0.0 ? -diff : diff;
    SearchKNearest(far, query, k, heap, far_bound, excess, visited);
    excess[node.split_dim] = old_excess;
  }
}

std::vector<std::size_t> KdTree::KNearest(const linalg::Vector& query,
                                          std::size_t k) const {
  CONDENSA_CHECK_EQ(query.dim(), dim_);
  CONDENSA_CHECK_GT(k, 0u);
  k = std::min(k, size());

  std::vector<HeapEntry> heap;
  heap.reserve(k + 1);
  std::vector<double> excess(dim_, 0.0);
  std::size_t visited = 0;
  SearchKNearest(root_, query, k, heap, 0.0, excess, visited);
  KdTreeMetrics& metrics = KdTreeMetrics::Get();
  metrics.queries.Increment();
  metrics.nodes_visited.Increment(visited);
  std::sort_heap(heap.begin(), heap.end());

  std::vector<std::size_t> out;
  out.reserve(heap.size());
  for (const HeapEntry& entry : heap) {
    out.push_back(entry.index);
  }
  return out;
}

std::size_t KdTree::Nearest(const linalg::Vector& query) const {
  return KNearest(query, 1).front();
}

void KdTree::SearchRadius(std::size_t node_id, const linalg::Vector& query,
                          double radius_sq, std::vector<std::size_t>& out,
                          double bound_sq, std::vector<double>& excess,
                          std::size_t& visited) const {
  ++visited;
  const Node& node = nodes_[node_id];

  if (node.split_dim == Node::kLeaf) {
    // Bounded batch kernel with the radius as the bound: abandoned
    // records are strictly outside the radius, finite values exact, so
    // the <= comparison matches the scalar loop on boundary ties.
    std::vector<double>& dist = internal::KdLeafScratch();
    const std::size_t count = node.end - node.begin;
    if (dist.size() < count) dist.resize(count);
    simd::SquaredDistanceBatchRange(coords_, query.data(), node.begin,
                                    node.end, radius_sq, dist.data());
    for (std::size_t i = node.begin; i < node.end; ++i) {
      if (dist[i - node.begin] <= radius_sq) {
        out.push_back(order_[i]);
      }
    }
    return;
  }

  const double diff = query[node.split_dim] - node.split_value;
  const std::size_t near = diff < 0.0 ? node.left : node.right;
  const std::size_t far = diff < 0.0 ? node.right : node.left;
  SearchRadius(near, query, radius_sq, out, bound_sq, excess, visited);
  const double old_excess = excess[node.split_dim];
  const double far_bound = bound_sq - old_excess * old_excess + diff * diff;
  if (far_bound <= radius_sq) {
    excess[node.split_dim] = diff < 0.0 ? -diff : diff;
    SearchRadius(far, query, radius_sq, out, far_bound, excess, visited);
    excess[node.split_dim] = old_excess;
  }
}

std::vector<std::size_t> KdTree::RadiusSearch(const linalg::Vector& query,
                                              double radius) const {
  CONDENSA_CHECK_GE(radius, 0.0);
  return RadiusSearchSquared(query, radius * radius);
}

std::vector<std::size_t> KdTree::RadiusSearchSquared(
    const linalg::Vector& query, double radius_sq) const {
  CONDENSA_CHECK_EQ(query.dim(), dim_);
  CONDENSA_CHECK_GE(radius_sq, 0.0);
  std::vector<std::size_t> out;
  std::vector<double> excess(dim_, 0.0);
  std::size_t visited = 0;
  SearchRadius(root_, query, radius_sq, out, 0.0, excess, visited);
  KdTreeMetrics& metrics = KdTreeMetrics::Get();
  metrics.queries.Increment();
  metrics.nodes_visited.Increment(visited);
  return out;
}

void KdTree::RecordQueryMetrics(std::size_t visited) const {
  KdTreeMetrics& metrics = KdTreeMetrics::Get();
  metrics.queries.Increment();
  metrics.nodes_visited.Increment(visited);
}

}  // namespace condensa::index
