// Point correlation (Table 1 row 10): for every point, count the points
// within radius r — the two-point correlation kernel.
//
// Three nesting levels, as the paper describes: a data-parallel outer loop
// over query points (one root task per query), a task-parallel recursive
// kd-tree descent (children are spawned only when the query ball intersects
// their bounding box), and a data-parallel base case (a dense count over
// the leaf's points, which the lockstep kernels stream against every live
// lane).
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

  PointCorrProgram() = default;
  PointCorrProgram(const spatial::Bodies* pts, const spatial::KdTree* t, float r2)
      : KdQuery(pts, t), rad2(r2) {}

  // The count for the live lanes of one query or a query batch at one leaf:
  // the leaf's points stream against every live lane at once.
  template <class V, class I>
  [[gnu::always_inline]] void lane_leaf(std::int32_t node, const I&, const spatial::Point<V>& q,
                                        std::uint32_t live, Result& r) const {
    const V r2 = simd::splat<V>(rad2);
    const auto n = static_cast<std::size_t>(node);
    for (std::int32_t j = tree->leaf_begin[n]; j < tree->leaf_end[n]; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const V dx = simd::splat<V>(tree->px[jj]) - q.x;
      const V dy = simd::splat<V>(tree->py[jj]) - q.y;
      const V dz = simd::splat<V>(tree->pz[jj]) - q.z;
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
