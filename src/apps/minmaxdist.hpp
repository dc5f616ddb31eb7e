// minmaxdist — per-query nearest/farthest extremes over a kd-tree: for
// every point, the squared distance to its nearest and to its farthest
// other point, found in a single traversal with dual-bound pruning.
//
// The workload extends the traversal family (pointcorr, knn, Barnes-Hut)
// with a different divergence profile: a subtree is descended only when its
// bounding box could still *improve* either extreme — its nearest point
// below the query's current minimum (knn-style lower-bound pruning) or its
// farthest corner above its current maximum (the mirrored upper-bound
// test).  Early in the traversal almost everything descends; once both
// bounds tighten, lanes prune on different sides of the tree, which is
// exactly the divergence the blocked re-expansion engine compacts away.
//
// Nesting matches the paper's three levels: a data-parallel outer loop over
// queries (one root task per point), a task-parallel recursive descent, and
// a data-parallel base case streaming a leaf's points.
//
// Like knn, the per-query bounds are shared mutable state: monotone floats
// updated with relaxed CAS loops, so concurrent sibling subtrees may read
// stale bounds — weaker pruning, never wrong answers.  The final (min, max)
// pair per query is order-independent (min/max over the same candidate
// set), so every scheduler produces bit-identical state digests; only the
// visit counts are schedule-dependent.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "apps/kdquery.hpp"
#include "simd/batch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"

namespace tb::apps {

// Shared mutable per-query extremes.  min starts at +inf, max at -1 (any
// real squared distance beats both), and each only moves one way.
class MinmaxDistState {
public:
  explicit MinmaxDistState(std::size_t queries)
      : min_d2_(queries, std::numeric_limits<float>::infinity()),
        max_d2_(queries, -1.0f) {}

  // atomic_ref<const T> lands in C++26; until then reads go through a
  // const_cast (the referenced floats are always mutable vector storage).
  float min_bound(std::int32_t query) const {
    return std::atomic_ref<float>(
               const_cast<float&>(min_d2_[static_cast<std::size_t>(query)]))
        .load(std::memory_order_relaxed);
  }
  float max_bound(std::int32_t query) const {
    return std::atomic_ref<float>(
               const_cast<float&>(max_d2_[static_cast<std::size_t>(query)]))
        .load(std::memory_order_relaxed);
  }

  // Offer a candidate squared distance (the caller already excluded self).
  void offer(std::int32_t query, float d2) {
    const auto q = static_cast<std::size_t>(query);
    std::atomic_ref<float> mn(min_d2_[q]);
    float cur = mn.load(std::memory_order_relaxed);
    while (d2 < cur &&
           !mn.compare_exchange_weak(cur, d2, std::memory_order_relaxed)) {
    }
    std::atomic_ref<float> mx(max_d2_[q]);
    cur = mx.load(std::memory_order_relaxed);
    while (d2 > cur &&
           !mx.compare_exchange_weak(cur, d2, std::memory_order_relaxed)) {
    }
  }

  std::size_t queries() const { return min_d2_.size(); }

private:
  std::vector<float> min_d2_;
  std::vector<float> max_d2_;
};

// Order-independent fingerprint of the final per-query extremes.  Raw float
// bits are hashed (min/max over a fixed candidate set is exact, so every
// correct schedule produces the same bits — including the +inf/-1 sentinels
// of a 1-point instance).
inline std::string minmaxdist_digest(const MinmaxDistState& state) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t q = 0; q < state.queries(); ++q) {
    const auto mn = static_cast<std::uint64_t>(
        std::bit_cast<std::uint32_t>(state.min_bound(static_cast<std::int32_t>(q))));
    const auto mx = static_cast<std::uint64_t>(
        std::bit_cast<std::uint32_t>(state.max_bound(static_cast<std::int32_t>(q))));
    h = (h ^ (mn | (mx << 32))) * 1099511628211ull;
  }
  return std::to_string(h);
}

struct MinmaxDistProgram : KdQuery<MinmaxDistProgram> {
  MinmaxDistState* state = nullptr;

  void leaf(const Task& t, Result& r) const {
    r += 1;
    const auto q = static_cast<std::size_t>(t.query);
    const auto n = static_cast<std::size_t>(t.node);
    const float qx = points->x[q], qy = points->y[q], qz = points->z[q];
    for (std::int32_t j = tree->leaf_begin[n]; j < tree->leaf_end[n]; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      if (tree->point_index[jj] == t.query) continue;  // self
      const float dx = tree->px[jj] - qx;
      const float dy = tree->py[jj] - qy;
      const float dz = tree->pz[jj] - qz;
      state->offer(t.query, dx * dx + dy * dy + dz * dz);
    }
  }

  template <class V>
  struct Extremes {
    V min, max;
  };

  // The query's current nearest and farthest squared distances.
  template <class V, class I>
  Extremes<V> bounds(const I& query) const {
    return {simd::per_lane<V>(query, [this](std::int32_t q) { return state->min_bound(q); }),
            simd::per_lane<V>(query, [this](std::int32_t q) { return state->max_bound(q); })};
  }

  // Descend only where the box could improve one of the two extremes.
  template <class V>
  [[gnu::always_inline]] static std::uint32_t descends(const spatial::Box<V>& box,
                                                       const spatial::Point<V>& q,
                                                       const Extremes<V>& e) {
    return simd::cmp_lt(spatial::near_dist2(box, q), e.min) |
           simd::cmp_gt(spatial::far_dist2(box, q), e.max);
  }
};

inline void minmaxdist_sequential_one(const MinmaxDistProgram& prog,
                                      const MinmaxDistProgram::Task& t) {
  (void)prog.sequential(t);
}

inline void minmaxdist_sequential(const MinmaxDistProgram& prog) { (void)prog.sequential(); }

// Brute-force extremes for one query: {min_d2, max_d2} over all other points.
inline std::pair<float, float> minmaxdist_bruteforce(const spatial::Bodies& pts,
                                                     std::int32_t query) {
  float mn = std::numeric_limits<float>::infinity();
  float mx = -1.0f;
  for (std::size_t j = 0; j < pts.size(); ++j) {
    if (static_cast<std::int32_t>(j) == query) continue;
    const float dx = pts.x[j] - pts.x[static_cast<std::size_t>(query)];
    const float dy = pts.y[j] - pts.y[static_cast<std::size_t>(query)];
    const float dz = pts.z[j] - pts.z[static_cast<std::size_t>(query)];
    const float d2 = dx * dx + dy * dy + dz * dz;
    mn = std::min(mn, d2);
    mx = std::max(mx, d2);
  }
  return {mn, mx};
}

}  // namespace tb::apps
