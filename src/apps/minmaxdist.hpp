// minmaxdist — per-query nearest/farthest extremes over a kd-tree: for
// every point, the squared distance to its nearest and to its farthest
// other point, found in a single traversal with dual-bound pruning.
//
// The workload extends the traversal family (pointcorr, knn, Barnes-Hut)
// with a different divergence profile: a subtree is descended only when its
// bounding box could still *improve* either extreme — box_dist2 below the
// query's current minimum (knn-style lower-bound pruning) or box_maxdist2
// above its current maximum (the mirrored upper-bound test).  Early in the
// traversal almost everything descends; once both bounds tighten, lanes
// prune on different sides of the tree, which is exactly the divergence the
// blocked re-expansion engine compacts away.
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

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/program.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"
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

struct MinmaxDistProgram {
  struct Task {
    std::int32_t query;
    std::int32_t node;
  };
  using Result = std::uint64_t;  // leaf visits (work metric; schedule-dependent)
  static constexpr int max_children = 2;

  const spatial::Bodies* points = nullptr;
  const spatial::KdTree* tree = nullptr;
  MinmaxDistState* state = nullptr;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  bool is_base(const Task& t) const { return tree->is_leaf(t.node); }

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

  // Descend only where the box could improve one of the two bounds.
  bool improves(std::int32_t node, float qx, float qy, float qz, float cur_min,
                float cur_max) const {
    return tree->box_dist2(node, qx, qy, qz) < cur_min ||
           tree->box_maxdist2(node, qx, qy, qz) > cur_max;
  }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    const auto q = static_cast<std::size_t>(t.query);
    const float qx = points->x[q], qy = points->y[q], qz = points->z[q];
    const auto n = static_cast<std::size_t>(t.node);
    const float cur_min = state->min_bound(t.query);
    const float cur_max = state->max_bound(t.query);
    const std::int32_t kids[2] = {tree->left[n], tree->right[n]};
    for (int s = 0; s < 2; ++s) {
      if (kids[s] != spatial::KdTree::kNoChild &&
          improves(kids[s], qx, qy, qz, cur_min, cur_max)) {
        emit(s, Task{t.query, kids[s]});
      }
    }
  }

  // ---- SoA layer -------------------------------------------------------------
  using Block = simd::SoaBlock<std::int32_t, std::int32_t>;
  static Task task_at(const Block& b, std::size_t i) {
    const auto [q, n] = b.row(i);
    return Task{q, n};
  }
  static void append_task(Block& b, const Task& t) { b.push_back(t.query, t.node); }

  // ---- SIMD layer ------------------------------------------------------------
  static constexpr int simd_width = simd::natural_width<float>;

  using BF = simd::batch<float, simd_width>;
  using BI = simd::batch<std::int32_t, simd_width>;

  // Vectorized dual-bound test: bit i set when node i's box could improve
  // lane i's min (box min-distance below it) or max (box max-distance above).
  std::uint32_t improves_mask(const BI& node, const BF& qx, const BF& qy, const BF& qz,
                              const BF& cur_min, const BF& cur_max) const {
    const BF zero = BF::zero();
    const BF lox = simd::gather(tree->min_x.data(), node) - qx;
    const BF hix = qx - simd::gather(tree->max_x.data(), node);
    const BF loy = simd::gather(tree->min_y.data(), node) - qy;
    const BF hiy = qy - simd::gather(tree->max_y.data(), node);
    const BF loz = simd::gather(tree->min_z.data(), node) - qz;
    const BF hiz = qz - simd::gather(tree->max_z.data(), node);
    const BF dx = BF::max(BF::max(lox, hix), zero);
    const BF dy = BF::max(BF::max(loy, hiy), zero);
    const BF dz = BF::max(BF::max(loz, hiz), zero);
    const std::uint32_t near_gain =
        simd::cmp_lt(dx * dx + dy * dy + dz * dz, cur_min);
    // Farthest corner: per-dim the larger of the two one-sided offsets
    // (-lox = qx - min_x, -hix = max_x - qx).
    const BF fx = BF::max(-lox, -hix);
    const BF fy = BF::max(-loy, -hiy);
    const BF fz = BF::max(-loz, -hiz);
    const std::uint32_t far_gain =
        simd::cmp_gt(fx * fx + fy * fy + fz * fz, cur_max);
    return near_gain | far_gain;
  }

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 2>& outs, Result& r, std::uint64_t& leaves) const {
    const std::int32_t* query_p = in.data<0>();
    const std::int32_t* node_p = in.data<1>();
    constexpr std::uint32_t full = simd::mask_all<simd_width>;
    std::uint64_t leaf_tasks = 0;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const BI query = BI::loadu(query_p + i);
      const BI node = BI::loadu(node_p + i);
      const BI lb = simd::gather(tree->leaf_begin.data(), node);
      const std::uint32_t leafy = simd::cmp_ge(lb, BI::zero()) & full;
      leaf_tasks += std::popcount(leafy);
      std::uint32_t mset = leafy;
      while (mset != 0) {
        const int l = std::countr_zero(mset);
        mset &= mset - 1;
        Task t{query[l], node[l]};
        Result dummy = 0;
        leaf(t, dummy);
      }
      const std::uint32_t rec = ~leafy & full;
      if (rec == 0) continue;
      const BF qx = simd::gather(points->x.data(), query);
      const BF qy = simd::gather(points->y.data(), query);
      const BF qz = simd::gather(points->z.data(), query);
      BF cur_min, cur_max;
      for (int l = 0; l < simd_width; ++l) {
        cur_min.set(l, state->min_bound(query[l]));
        cur_max.set(l, state->max_bound(query[l]));
      }
      const BI lkid = simd::gather(tree->left.data(), node);
      const BI rkid = simd::gather(tree->right.data(), node);
      const std::uint32_t lmask =
          rec & improves_mask(lkid, qx, qy, qz, cur_min, cur_max);
      const std::uint32_t rmask =
          rec & improves_mask(rkid, qx, qy, qz, cur_min, cur_max);
      if (lmask != 0) outs[0]->append_compact(lmask, query, lkid);
      if (rmask != 0) outs[1]->append_compact(rmask, query, rkid);
    }
    r += leaf_tasks;
    leaves += leaf_tasks;
  }

  // One root task per query point (§5 data-parallel outer loop).
  std::vector<Task> roots() const {
    std::vector<Task> out;
    out.reserve(points->size());
    for (std::size_t q = 0; q < points->size(); ++q) {
      out.push_back(Task{static_cast<std::int32_t>(q), tree->root});
    }
    return out;
  }
};

inline void minmaxdist_sequential_one(const MinmaxDistProgram& prog,
                                      const MinmaxDistProgram::Task& t) {
  if (prog.is_base(t)) {
    MinmaxDistProgram::Result dummy = 0;
    prog.leaf(t, dummy);
    return;
  }
  prog.expand(t, [&](int, const MinmaxDistProgram::Task& c) {
    minmaxdist_sequential_one(prog, c);
  });
}

inline void minmaxdist_sequential(const MinmaxDistProgram& prog) {
  for (const auto& t : prog.roots()) minmaxdist_sequential_one(prog, t);
}

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
