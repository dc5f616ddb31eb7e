// knn — k-nearest-neighbor search over a kd-tree (Table 1 row 11).
//
// Each query maintains a k-best list (sorted squared distances plus ids)
// guarded by a per-query spinlock, and a monotonically shrinking pruning
// bound (an atomic float holding the current k-th distance).  Traversal
// tasks prune children whose bounding box lies beyond the bound; because
// sibling subtrees execute in parallel, reads of the bound may be stale —
// that only weakens pruning, never correctness, which is exactly the
// trade-off the paper's task-parallel traversals make.
//
// Note the consequence for verification: the *result* (the k nearest
// neighbors) is schedule-independent, but the visit counts are not, so
// tests compare the k-best lists against brute force rather than the
// traversal fingerprint.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "apps/kdquery.hpp"
#include "simd/aligned.hpp"
#include "simd/batch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"

namespace tb::apps {

// Shared mutable k-NN state for all queries.
class KnnState {
public:
  KnnState(std::size_t queries, int k)
      : k_(k),
        best_d2_(queries * static_cast<std::size_t>(k),
                 std::numeric_limits<float>::infinity()),
        best_id_(queries * static_cast<std::size_t>(k), -1),
        bound_(std::make_unique<std::atomic<float>[]>(queries)),
        lock_(std::make_unique<std::atomic<std::uint8_t>[]>(queries)) {
    for (std::size_t q = 0; q < queries; ++q) {
      bound_[q].store(std::numeric_limits<float>::infinity(), std::memory_order_relaxed);
      lock_[q].store(0, std::memory_order_relaxed);
    }
  }

  int k() const { return k_; }

  float bound(std::int32_t query) const {
    return bound_[static_cast<std::size_t>(query)].load(std::memory_order_relaxed);
  }

  // Offer a candidate neighbor; inserts into the query's sorted k-best list
  // if it improves on the current k-th distance.
  void offer(std::int32_t query, std::int32_t id, float d2) {
    const auto q = static_cast<std::size_t>(query);
    if (d2 >= bound(query)) return;  // fast reject (bound only shrinks)
    auto& lk = lock_[q];
    std::uint8_t expected = 0;
    while (!lk.compare_exchange_weak(expected, 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      expected = 0;
    }
    float* d = best_d2_.data() + q * static_cast<std::size_t>(k_);
    std::int32_t* ids = best_id_.data() + q * static_cast<std::size_t>(k_);
    if (d2 < d[k_ - 1]) {
      int pos = k_ - 1;
      while (pos > 0 && d[pos - 1] > d2) {
        d[pos] = d[pos - 1];
        ids[pos] = ids[pos - 1];
        --pos;
      }
      d[pos] = d2;
      ids[pos] = id;
      bound_[q].store(d[k_ - 1], std::memory_order_relaxed);
    }
    lk.store(0, std::memory_order_release);
  }

  // Sorted squared distances of a query's current k-best list.
  std::vector<float> distances(std::int32_t query) const { return row(best_d2_, query); }

  // The point ids of a query's current k-best list, in distances() order
  // (-1 where the list is not yet full).
  std::vector<std::int32_t> ids(std::int32_t query) const { return row(best_id_, query); }

private:
  template <class V>
  std::vector<typename V::value_type> row(const V& v, std::int32_t query) const {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(query) * k_;
    return {begin, begin + k_};
  }

  int k_;
  simd::aligned_vector<float> best_d2_;
  std::vector<std::int32_t> best_id_;
  std::unique_ptr<std::atomic<float>[]> bound_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> lock_;
};

struct KnnProgram : KdQuery<KnnProgram> {
  KnnState* state = nullptr;

  void leaf(const Task& t, Result& r) const {
    r += 1;
    const auto q = static_cast<std::size_t>(t.query);
    const auto n = static_cast<std::size_t>(t.node);
    const float qx = points->x[q], qy = points->y[q], qz = points->z[q];
    for (std::int32_t j = tree->leaf_begin[n]; j < tree->leaf_end[n]; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const std::int32_t id = tree->point_index[jj];
      if (id == t.query) continue;  // self
      const float dx = tree->px[jj] - qx;
      const float dy = tree->py[jj] - qy;
      const float dz = tree->pz[jj] - qz;
      state->offer(t.query, id, dx * dx + dy * dy + dz * dz);
    }
  }

  // The same base case for the live lanes of a query batch at one leaf: a
  // lane is offered a point only when the point beats the lane's cached
  // k-th bound, in leaf order, and the bound is re-read after each offer.
  // The cache never sits below the shared bound, which only shrinks, so
  // each query sees exactly the offers `leaf` would make, in its order.
  template <int W>
  [[gnu::always_inline]] void lane_leaf(std::int32_t node,
                                        const simd::batch<std::int32_t, W>& query,
                                        const spatial::Point<simd::batch<float, W>>& q,
                                        std::uint32_t live, Result& r) const {
    using V = simd::batch<float, W>;
    r += static_cast<Result>(std::popcount(live));
    V kth = bounds<V>(query);
    const auto n = static_cast<std::size_t>(node);
    for (std::int32_t j = tree->leaf_begin[n]; j < tree->leaf_end[n]; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const std::int32_t id = tree->point_index[jj];
      const V dx = V::broadcast(tree->px[jj]) - q.x;
      const V dy = V::broadcast(tree->py[jj]) - q.y;
      const V dz = V::broadcast(tree->pz[jj]) - q.z;
      const V d2 = dx * dx + dy * dy + dz * dz;
      std::uint32_t m = live & simd::cmp_lt(d2, kth) & ~simd::cmp_eq(query, id);
      for (; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        state->offer(query[l], id, d2[l]);
        kth.set(l, state->bound(query[l]));
      }
    }
  }

  // The query's current k-th best distance (it shrinks concurrently).
  template <class V, class I>
  V bounds(const I& query) const {
    return simd::per_lane<V>(query, [this](std::int32_t q) { return state->bound(q); });
  }

  // Descend while the box could hold a point nearer than the k-th best.
  template <class V>
  [[gnu::always_inline]] static std::uint32_t descends(const spatial::Box<V>& box,
                                                       const spatial::Point<V>& q, const V& kth) {
    return simd::cmp_lt(spatial::near_dist2(box, q), kth);
  }
};

inline void knn_sequential_one(const KnnProgram& prog, const KnnProgram::Task& t) {
  (void)prog.sequential(t);
}

inline void knn_sequential(const KnnProgram& prog) { (void)prog.sequential(); }

// Brute-force k-NN distances for one query (sorted ascending).
inline std::vector<float> knn_bruteforce(const spatial::Bodies& pts, std::int32_t query,
                                         int k) {
  std::vector<float> d2;
  d2.reserve(pts.size());
  for (std::size_t j = 0; j < pts.size(); ++j) {
    if (static_cast<std::int32_t>(j) == query) continue;
    const float dx = pts.x[j] - pts.x[static_cast<std::size_t>(query)];
    const float dy = pts.y[j] - pts.y[static_cast<std::size_t>(query)];
    const float dz = pts.z[j] - pts.z[static_cast<std::size_t>(query)];
    d2.push_back(dx * dx + dy * dy + dz * dz);
  }
  std::sort(d2.begin(), d2.end());
  d2.resize(static_cast<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(k), d2.size())));
  return d2;
}

}  // namespace tb::apps
