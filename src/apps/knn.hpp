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
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/program.hpp"
#include "runtime/forkjoin.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"
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
  std::vector<float> distances(std::int32_t query) const {
    const auto q = static_cast<std::size_t>(query);
    return {best_d2_.begin() + static_cast<std::ptrdiff_t>(q * static_cast<std::size_t>(k_)),
            best_d2_.begin() +
                static_cast<std::ptrdiff_t>((q + 1) * static_cast<std::size_t>(k_))};
  }

private:
  int k_;
  simd::aligned_vector<float> best_d2_;
  std::vector<std::int32_t> best_id_;
  std::unique_ptr<std::atomic<float>[]> bound_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> lock_;
};

struct KnnProgram {
  struct Task {
    std::int32_t query;
    std::int32_t node;
  };
  using Result = std::uint64_t;  // leaf visits (work metric; schedule-dependent)
  static constexpr int max_children = 2;

  const spatial::Bodies* points = nullptr;
  const spatial::KdTree* tree = nullptr;
  KnnState* state = nullptr;

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
      const std::int32_t id = tree->point_index[jj];
      if (id == t.query) continue;  // self
      const float dx = tree->px[jj] - qx;
      const float dy = tree->py[jj] - qy;
      const float dz = tree->pz[jj] - qz;
      state->offer(t.query, id, dx * dx + dy * dy + dz * dz);
    }
  }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    const auto q = static_cast<std::size_t>(t.query);
    const float qx = points->x[q], qy = points->y[q], qz = points->z[q];
    const auto n = static_cast<std::size_t>(t.node);
    const float bound = state->bound(t.query);
    const std::int32_t kids[2] = {tree->left[n], tree->right[n]};
    for (int s = 0; s < 2; ++s) {
      if (kids[s] != spatial::KdTree::kNoChild &&
          tree->box_dist2(kids[s], qx, qy, qz) < bound) {
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

  // Vectorized "box within pruning bound" test; the per-lane bound is read
  // through atomic_refs (it shrinks concurrently).
  std::uint32_t within_bound_mask(const BI& node, const BF& qx, const BF& qy, const BF& qz,
                                  const BF& bound) const {
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
    return simd::cmp_lt(dx * dx + dy * dy + dz * dz, bound);
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
      BF bound;
      for (int l = 0; l < simd_width; ++l) bound.set(l, state->bound(query[l]));
      const BI lkid = simd::gather(tree->left.data(), node);
      const BI rkid = simd::gather(tree->right.data(), node);
      const std::uint32_t lmask = rec & within_bound_mask(lkid, qx, qy, qz, bound);
      const std::uint32_t rmask = rec & within_bound_mask(rkid, qx, qy, qz, bound);
      if (lmask != 0) outs[0]->append_compact(lmask, query, lkid);
      if (rmask != 0) outs[1]->append_compact(rmask, query, rkid);
    }
    r += leaf_tasks;
    leaves += leaf_tasks;
  }

  std::vector<Task> roots() const {
    std::vector<Task> out;
    out.reserve(points->size());
    for (std::size_t q = 0; q < points->size(); ++q) {
      out.push_back(Task{static_cast<std::int32_t>(q), tree->root});
    }
    return out;
  }
};

inline void knn_sequential_one(const KnnProgram& prog, const KnnProgram::Task& t) {
  if (prog.is_base(t)) {
    KnnProgram::Result dummy = 0;
    prog.leaf(t, dummy);
    return;
  }
  prog.expand(t, [&](int, const KnnProgram::Task& c) { knn_sequential_one(prog, c); });
}

inline void knn_sequential(const KnnProgram& prog) {
  for (const auto& t : prog.roots()) knn_sequential_one(prog, t);
}

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
