// Point correlation (Table 1 row 10): for every point, count the points
// within radius r — the two-point correlation kernel.
//
// Three nesting levels, as the paper describes: a data-parallel outer loop
// over query points (one root task per query), a task-parallel recursive
// kd-tree descent (children are spawned only when the query ball intersects
// their bounding box), and a data-parallel base case (a dense count over
// the leaf's points, vectorized in the SIMD layer).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/program.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"

namespace tb::apps {

struct PointCorrProgram {
  struct Task {
    std::int32_t query;
    std::int32_t node;
  };
  using Result = std::uint64_t;  // total in-radius count over all queries
  static constexpr int max_children = 2;

  const spatial::Bodies* points = nullptr;
  const spatial::KdTree* tree = nullptr;
  float rad2 = 0.01f;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  bool is_base(const Task& t) const { return tree->is_leaf(t.node); }

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

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    const auto q = static_cast<std::size_t>(t.query);
    const float qx = points->x[q], qy = points->y[q], qz = points->z[q];
    const auto n = static_cast<std::size_t>(t.node);
    const std::int32_t kids[2] = {tree->left[n], tree->right[n]};
    for (int s = 0; s < 2; ++s) {
      if (kids[s] != spatial::KdTree::kNoChild &&
          tree->box_dist2(kids[s], qx, qy, qz) <= rad2) {
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

  // Vectorized box–ball overlap test for a vector of node ids.
  std::uint32_t overlap_mask(const BI& node, const BF& qx, const BF& qy, const BF& qz) const {
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
    const BF d2 = dx * dx + dy * dy + dz * dz;
    return simd::cmp_le(d2, BF::broadcast(rad2));
  }

  // Dense vectorized count over a leaf's contiguous points.
  std::uint64_t leaf_count(std::int32_t query, std::int32_t node) const {
    const auto q = static_cast<std::size_t>(query);
    const auto n = static_cast<std::size_t>(node);
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
    return count;
  }

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 2>& outs, Result& r, std::uint64_t& leaves) const {
    const std::int32_t* query_p = in.data<0>();
    const std::int32_t* node_p = in.data<1>();
    constexpr std::uint32_t full = simd::mask_all<simd_width>;
    std::uint64_t count = 0;
    std::uint64_t leaf_tasks = 0;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const BI query = BI::loadu(query_p + i);
      const BI node = BI::loadu(node_p + i);
      const BF qx = simd::gather(points->x.data(), query);
      const BF qy = simd::gather(points->y.data(), query);
      const BF qz = simd::gather(points->z.data(), query);
      const BI lb = simd::gather(tree->leaf_begin.data(), node);
      const std::uint32_t leafy = simd::cmp_ge(lb, BI::zero()) & full;
      leaf_tasks += std::popcount(leafy);
      std::uint32_t mset = leafy;
      while (mset != 0) {
        const int l = std::countr_zero(mset);
        mset &= mset - 1;
        count += leaf_count(query[l], node[l]);
      }
      const std::uint32_t rec = ~leafy & full;
      if (rec == 0) continue;
      const BI lkid = simd::gather(tree->left.data(), node);
      const BI rkid = simd::gather(tree->right.data(), node);
      const std::uint32_t lmask = rec & overlap_mask(lkid, qx, qy, qz);
      const std::uint32_t rmask = rec & overlap_mask(rkid, qx, qy, qz);
      if (lmask != 0) outs[0]->append_compact(lmask, query, lkid);
      if (rmask != 0) outs[1]->append_compact(rmask, query, rkid);
    }
    r += count;
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

inline std::uint64_t pointcorr_sequential_one(const PointCorrProgram& prog,
                                              const PointCorrProgram::Task& t) {
  if (prog.is_base(t)) {
    std::uint64_t r = 0;
    prog.leaf(t, r);
    return r;
  }
  std::uint64_t total = 0;
  prog.expand(t, [&](int, const PointCorrProgram::Task& c) {
    total += pointcorr_sequential_one(prog, c);
  });
  return total;
}

inline std::uint64_t pointcorr_sequential(const PointCorrProgram& prog) {
  std::uint64_t total = 0;
  for (const auto& t : prog.roots()) total += pointcorr_sequential_one(prog, t);
  return total;
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
