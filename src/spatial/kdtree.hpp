// Balanced kd-tree over 3-D points for the point-correlation, k-NN and
// min/max-distance traversal benchmarks.  Median splits on the widest axis;
// nodes carry bounding boxes (for pruning) in flat SoA columns, and leaf
// points are stored permuted and contiguous so the data-parallel base case
// is a dense loop.
//
// The box distances the traversals prune with are written once, over
// V = float (one query against one node) and V = simd::batch<float, W> (W
// lanes, each box gathered per lane or one node broadcast to all), so every
// execution layer runs the same IEEE op sequence per (query, node) pair.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "simd/aligned.hpp"
#include "simd/batch.hpp"
#include "spatial/bodies.hpp"

namespace tb::spatial {

template <class V>
struct Box {
  Point<V> lo, hi;
};

// The box loaders (KdTree::box) and both distances are forced inline: out
// of line, every lockstep node step passes a W-lane box through memory, and
// the scalar recursion pays a call per child.
//
// Squared distance from p to the nearest point of b (0 when p is inside).
template <class V>
[[gnu::always_inline]] inline V near_dist2(const Box<V>& b, const Point<V>& p) {
  const V zero = simd::splat<V>(0.0f);
  const V dx = simd::max(simd::max(b.lo.x - p.x, zero), p.x - b.hi.x);
  const V dy = simd::max(simd::max(b.lo.y - p.y, zero), p.y - b.hi.y);
  const V dz = simd::max(simd::max(b.lo.z - p.z, zero), p.z - b.hi.z);
  return dx * dx + dy * dy + dz * dz;
}

// Squared distance from p to the farthest corner of b.
template <class V>
[[gnu::always_inline]] inline V far_dist2(const Box<V>& b, const Point<V>& p) {
  const V dx = simd::max(p.x - b.lo.x, b.hi.x - p.x);
  const V dy = simd::max(p.y - b.lo.y, b.hi.y - p.y);
  const V dz = simd::max(p.z - b.lo.z, b.hi.z - p.z);
  return dx * dx + dy * dy + dz * dz;
}

class KdTree {
public:
  static constexpr std::int32_t kNoChild = -1;

  // Node columns (index = node id).
  simd::aligned_vector<float> min_x, min_y, min_z, max_x, max_y, max_z;
  std::vector<std::int32_t> left, right;
  std::vector<std::int32_t> leaf_begin, leaf_end;  // point range for leaves
  // Leaf point storage, permuted into contiguous ranges.
  simd::aligned_vector<float> px, py, pz;
  std::vector<std::int32_t> point_index;  // permuted original ids
  std::int32_t root = 0;

  int num_nodes() const { return static_cast<int>(left.size()); }
  bool is_leaf(std::int32_t node) const {
    return leaf_begin[static_cast<std::size_t>(node)] >= 0;
  }

  // The node's box: its bounds as floats, or broadcast to every lane when V
  // is a simd::batch.
  template <class V = float>
  [[gnu::always_inline]] Box<V> box(std::int32_t node) const {
    const auto i = static_cast<std::size_t>(node);
    return {{simd::splat<V>(min_x[i]), simd::splat<V>(min_y[i]), simd::splat<V>(min_z[i])},
            {simd::splat<V>(max_x[i]), simd::splat<V>(max_y[i]), simd::splat<V>(max_z[i])}};
  }

  // One node's box per lane.
  template <int W>
  [[gnu::always_inline]] Box<simd::batch<float, W>> box(
      const simd::batch<std::int32_t, W>& node) const {
    return {{simd::gather(min_x.data(), node), simd::gather(min_y.data(), node),
             simd::gather(min_z.data(), node)},
            {simd::gather(max_x.data(), node), simd::gather(max_y.data(), node),
             simd::gather(max_z.data(), node)}};
  }

  static KdTree build(const Bodies& pts, int leaf_capacity = 16) {
    KdTree t;
    const std::size_t n = pts.size();
    std::vector<std::int32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    t.px.reserve(n);
    t.py.reserve(n);
    t.pz.reserve(n);
    t.point_index.reserve(n);
    t.root = t.build_node(pts, ids, 0, static_cast<std::int32_t>(n), leaf_capacity);
    return t;
  }

private:
  std::int32_t new_node() {
    const auto id = static_cast<std::int32_t>(left.size());
    min_x.push_back(0);
    min_y.push_back(0);
    min_z.push_back(0);
    max_x.push_back(0);
    max_y.push_back(0);
    max_z.push_back(0);
    left.push_back(kNoChild);
    right.push_back(kNoChild);
    leaf_begin.push_back(-1);
    leaf_end.push_back(-1);
    return id;
  }

  std::int32_t build_node(const Bodies& pts, std::vector<std::int32_t>& ids,
                          std::int32_t begin, std::int32_t end, int leaf_capacity) {
    const std::int32_t id = new_node();
    float lo[3] = {std::numeric_limits<float>::max(), std::numeric_limits<float>::max(),
                   std::numeric_limits<float>::max()};
    float hi[3] = {std::numeric_limits<float>::lowest(), std::numeric_limits<float>::lowest(),
                   std::numeric_limits<float>::lowest()};
    for (std::int32_t i = begin; i < end; ++i) {
      const auto p = static_cast<std::size_t>(ids[static_cast<std::size_t>(i)]);
      lo[0] = std::min(lo[0], pts.x[p]);
      hi[0] = std::max(hi[0], pts.x[p]);
      lo[1] = std::min(lo[1], pts.y[p]);
      hi[1] = std::max(hi[1], pts.y[p]);
      lo[2] = std::min(lo[2], pts.z[p]);
      hi[2] = std::max(hi[2], pts.z[p]);
    }
    const auto i = static_cast<std::size_t>(id);
    min_x[i] = lo[0];
    min_y[i] = lo[1];
    min_z[i] = lo[2];
    max_x[i] = hi[0];
    max_y[i] = hi[1];
    max_z[i] = hi[2];

    if (end - begin <= leaf_capacity) {
      leaf_begin[i] = static_cast<std::int32_t>(px.size());
      for (std::int32_t j = begin; j < end; ++j) {
        const auto p = static_cast<std::size_t>(ids[static_cast<std::size_t>(j)]);
        px.push_back(pts.x[p]);
        py.push_back(pts.y[p]);
        pz.push_back(pts.z[p]);
        point_index.push_back(ids[static_cast<std::size_t>(j)]);
      }
      leaf_end[i] = static_cast<std::int32_t>(px.size());
      return id;
    }

    int axis = 0;
    if (hi[1] - lo[1] > hi[axis] - lo[axis]) axis = 1;
    if (hi[2] - lo[2] > hi[axis] - lo[axis]) axis = 2;
    const float* coord = axis == 0 ? pts.x.data() : axis == 1 ? pts.y.data() : pts.z.data();
    const std::int32_t mid = begin + (end - begin) / 2;
    std::nth_element(ids.begin() + begin, ids.begin() + mid, ids.begin() + end,
                     [&](std::int32_t a, std::int32_t b) {
                       return coord[static_cast<std::size_t>(a)] <
                              coord[static_cast<std::size_t>(b)];
                     });
    const std::int32_t l = build_node(pts, ids, begin, mid, leaf_capacity);
    const std::int32_t r = build_node(pts, ids, mid, end, leaf_capacity);
    left[i] = l;
    right[i] = r;
    return id;
  }
};

}  // namespace tb::spatial
