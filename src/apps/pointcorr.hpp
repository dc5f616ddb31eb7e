// Point correlation (Table 1 row 10): for every point, count the points
// within radius r — the two-point correlation kernel.
//
// Three nesting levels, as the paper describes: a data-parallel outer loop
// over query points (one root task per query), a task-parallel recursive
// kd-tree descent (children are spawned only when the query ball intersects
// their bounding box), and a data-parallel base case (a dense count over
// the leaf's points, vectorized in the SIMD layer).
#pragma once

#include <bit>
#include <cstdint>

#include "apps/kdquery.hpp"
#include "simd/batch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"

namespace tb::apps {

struct PointCorrProgram : KdQuery<PointCorrProgram> {
  float rad2 = 0.01f;

  void leaf(const Task& t, Result& r) const {
    const auto q = static_cast<std::size_t>(t.query);
    const auto n = static_cast<std::size_t>(t.node);
    const float qx = points->x[q], qy = points->y[q], qz = points->z[q];
    std::uint64_t count = 0;
    for (std::int32_t j = tree->leaf_begin[n]; j < tree->leaf_end[n]; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const float dx = tree->px[jj] - qx;
      const float dy = tree->py[jj] - qy;
      const float dz = tree->pz[jj] - qz;
      count += (dx * dx + dy * dy + dz * dz <= rad2) ? 1u : 0u;
    }
    r += count;
  }

  // Dense vectorized count over a leaf's contiguous points.
  void leaf_simd(const Task& t, Result& r) const {
    const auto q = static_cast<std::size_t>(t.query);
    const auto n = static_cast<std::size_t>(t.node);
    const BF qx = BF::broadcast(points->x[q]);
    const BF qy = BF::broadcast(points->y[q]);
    const BF qz = BF::broadcast(points->z[q]);
    const BF r2 = BF::broadcast(rad2);
    const std::int32_t b = tree->leaf_begin[n];
    const std::int32_t e = tree->leaf_end[n];
    std::uint64_t count = 0;
    std::int32_t j = b;
    for (; j + simd_width <= e; j += simd_width) {
      const auto jj = static_cast<std::size_t>(j);
      const BF dx = BF::loadu(tree->px.data() + jj) - qx;
      const BF dy = BF::loadu(tree->py.data() + jj) - qy;
      const BF dz = BF::loadu(tree->pz.data() + jj) - qz;
      count += std::popcount(simd::cmp_le(dx * dx + dy * dy + dz * dz, r2));
    }
    for (; j < e; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const float dx = tree->px[jj] - points->x[q];
      const float dy = tree->py[jj] - points->y[q];
      const float dz = tree->pz[jj] - points->z[q];
      count += (dx * dx + dy * dy + dz * dz <= rad2) ? 1u : 0u;
    }
    r += count;
  }

  // The count for the live lanes of a query batch at one leaf: the leaf's
  // points stream against every live lane at once.
  template <int W>
  [[gnu::always_inline]] void lane_leaf(std::int32_t node, const simd::batch<std::int32_t, W>&,
                                        const spatial::Point<simd::batch<float, W>>& q,
                                        std::uint32_t live, Result& r) const {
    using V = simd::batch<float, W>;
    const V r2 = V::broadcast(rad2);
    const auto n = static_cast<std::size_t>(node);
    for (std::int32_t j = tree->leaf_begin[n]; j < tree->leaf_end[n]; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const V dx = V::broadcast(tree->px[jj]) - q.x;
      const V dy = V::broadcast(tree->py[jj]) - q.y;
      const V dz = V::broadcast(tree->pz[jj]) - q.z;
      const V d2 = dx * dx + dy * dy + dz * dz;
      r += static_cast<Result>(std::popcount(live & simd::cmp_le(d2, r2)));
    }
  }

  // The squared radius, the same for every query.
  template <class V, class I>
  V bounds(const I&) const {
    return simd::splat<V>(rad2);
  }

  // Descend while the box meets the query ball (a box at exactly the radius
  // can hold a point that counts).
  template <class V>
  [[gnu::always_inline]] static std::uint32_t descends(const spatial::Box<V>& box,
                                                       const spatial::Point<V>& q, const V& r2) {
    return simd::cmp_le(spatial::near_dist2(box, q), r2);
  }
};

inline std::uint64_t pointcorr_sequential_one(const PointCorrProgram& prog,
                                              const PointCorrProgram::Task& t) {
  return prog.sequential(t);
}

inline std::uint64_t pointcorr_sequential(const PointCorrProgram& prog) {
  return prog.sequential();
}

// Brute-force oracle.
inline std::uint64_t pointcorr_bruteforce(const spatial::Bodies& pts, float rad2) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      const float dx = pts.x[i] - pts.x[j];
      const float dy = pts.y[i] - pts.y[j];
      const float dz = pts.z[i] - pts.z[j];
      total += (dx * dx + dy * dy + dz * dz <= rad2) ? 1u : 0u;
    }
  }
  return total;
}

}  // namespace tb::apps
