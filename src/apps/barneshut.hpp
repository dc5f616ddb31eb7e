// Barnes-Hut force computation (Table 1 row 9; paper Fig. 2).
//
// The outer data-parallel loop over bodies (§5) becomes the root task set:
// one task (body, root-node, d²) per body, strip-mined into initial blocks.
// A task either terminates — the cell is far enough for its center-of-mass
// approximation (dr² ≥ d²), or it is a tree leaf (direct sum over the
// leaf's bodies: the nested data-parallel base case) — or it spawns one
// task per occupied octant with d²/4, exactly the paper's c_f.
//
// The opening threshold d² is a function of the level alone (cells at tree
// depth L share a size), so it stays uniform across a block.  Forces
// accumulate into per-body arrays (`acc_*`, the "update p using reduction"
// of Fig. 2) with relaxed atomic float adds: per interaction in the
// task-block layers (leaf, direct_sum, expand_simd), where no worker owns a
// body.  A lockstep run (lockstep/kernels.hpp) sums each body's forces in
// its kernel copy — one per hybrid slot — and adds that total once per run
// and slot, so a body walked in one slot receives a single add.  Two
// classic, blocked or static-partition hybrid runs on accumulators nobody
// zeroed in between therefore read exactly twice one run's force (x + x is
// exact).  The monoid result counts terminal interactions, which is
// schedule-independent and exact — the tests use it as a cross-variant
// fingerprint.
//
// Every interaction — the leaf's direct sum, a far cell's center of mass,
// the SIMD layer's far-field kick and both lockstep kernel sites
// (lockstep/kernels.hpp) — evaluates the one force law, `pull`, written
// once over float and simd::batch<float, W>.  Its square root and divide
// are correctly rounded at every width, so a lane computes the same bits as
// the scalar interaction.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

#include "core/program.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"
#include "spatial/bodies.hpp"
#include "spatial/octree.hpp"

namespace tb::apps {

struct BarnesHutProgram {
  struct Task {
    std::int32_t body;
    std::int32_t node;
    float d2;  // opening threshold for this level: (2·half/θ)² / 4^level
  };
  using Result = std::uint64_t;  // terminal interactions (verification fingerprint)
  static constexpr int max_children = 8;

  const spatial::Bodies* bodies = nullptr;
  const spatial::Octree* tree = nullptr;
  float* acc_x = nullptr;  // per-body force accumulators
  float* acc_y = nullptr;
  float* acc_z = nullptr;
  float eps2 = 1e-4f;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  float root_d2(float theta) const {
    const float d = 2.0f * tree->half[static_cast<std::size_t>(tree->root)] / theta;
    return d * d;
  }

  float dist2(const Task& t) const {
    const auto n = static_cast<std::size_t>(t.node);
    const auto b = static_cast<std::size_t>(t.body);
    const float dx = tree->com_x[n] - bodies->x[b];
    const float dy = tree->com_y[n] - bodies->y[b];
    const float dz = tree->com_z[n] - bodies->z[b];
    return dx * dx + dy * dy + dz * dz;
  }

  bool is_base(const Task& t) const {
    return tree->is_leaf(t.node) || dist2(t) >= t.d2;
  }

  // The force law: the pull toward mass m at squared distance d2, softened
  // by eps2, per unit of displacement (the force is pull · (dx, dy, dz)):
  // ((m · inv) · inv) · inv with inv = 1 / sqrt(d2 + eps2).  V is float for
  // one interaction or simd::batch<float, W> for one per lane.
  template <class V>
  [[gnu::always_inline]] V pull(const V& m, const V& d2) const {
    const V inv = simd::splat<V>(1.0f) / simd::sqrt(d2 + eps2);
    return m * inv * inv * inv;
  }

  void add_force(std::int32_t body, float fx, float fy, float fz) const {
    std::atomic_ref<float>(acc_x[body]).fetch_add(fx, std::memory_order_relaxed);
    std::atomic_ref<float>(acc_y[body]).fetch_add(fy, std::memory_order_relaxed);
    std::atomic_ref<float>(acc_z[body]).fetch_add(fz, std::memory_order_relaxed);
  }

  // Direct sum of the leaf's bodies against the query body — the nested
  // data-parallel loop inside the base case, vectorized over leaf points.
  void direct_sum(std::int32_t body, std::int32_t node) const {
    const auto nn = static_cast<std::size_t>(node);
    const auto qb = static_cast<std::size_t>(body);
    const float qx = bodies->x[qb], qy = bodies->y[qb], qz = bodies->z[qb];
    float fx = 0, fy = 0, fz = 0;
    for (std::int32_t j = tree->leaf_begin[nn]; j < tree->leaf_end[nn]; ++j) {
      const auto bj = static_cast<std::size_t>(tree->body_index[static_cast<std::size_t>(j)]);
      if (static_cast<std::int32_t>(bj) == body) continue;
      const float dx = bodies->x[bj] - qx;
      const float dy = bodies->y[bj] - qy;
      const float dz = bodies->z[bj] - qz;
      const float f = pull(bodies->mass[bj], dx * dx + dy * dy + dz * dz);
      fx += f * dx;
      fy += f * dy;
      fz += f * dz;
    }
    add_force(body, fx, fy, fz);
  }

  void leaf(const Task& t, Result& r) const {
    r += 1;
    const auto n = static_cast<std::size_t>(t.node);
    const float dr2 = dist2(t);
    if (dr2 >= t.d2) {
      // Far cell: single interaction with the center of mass.
      const auto b = static_cast<std::size_t>(t.body);
      const float dx = tree->com_x[n] - bodies->x[b];
      const float dy = tree->com_y[n] - bodies->y[b];
      const float dz = tree->com_z[n] - bodies->z[b];
      const float f = pull(tree->mass[n], dr2);
      add_force(t.body, f * dx, f * dy, f * dz);
    } else {
      direct_sum(t.body, t.node);
    }
  }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    const auto& kids = tree->children[static_cast<std::size_t>(t.node)];
    const float d2 = t.d2 * 0.25f;
    for (int oct = 0; oct < 8; ++oct) {
      if (kids[static_cast<std::size_t>(oct)] != spatial::Octree::kNoChild) {
        emit(oct, Task{t.body, kids[static_cast<std::size_t>(oct)], d2});
      }
    }
  }

  // ---- SoA layer -------------------------------------------------------------
  using Block = simd::SoaBlock<std::int32_t, std::int32_t, float>;
  static Task task_at(const Block& b, std::size_t i) {
    const auto [body, node, d2] = b.row(i);
    return Task{body, node, d2};
  }
  static void append_task(Block& b, const Task& t) { b.push_back(t.body, t.node, t.d2); }

  // ---- SIMD layer ------------------------------------------------------------
  static constexpr int simd_width = simd::natural_width<float>;

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 8>& outs, Result& r, std::uint64_t& leaves) const {
    using BF = simd::batch<float, simd_width>;
    using BI = simd::batch<std::int32_t, simd_width>;
    const std::int32_t* body_p = in.data<0>();
    const std::int32_t* node_p = in.data<1>();
    const float* d2_p = in.data<2>();
    constexpr std::uint32_t full = simd::mask_all<simd_width>;
    const std::int32_t* child_flat = tree->children.data()->data();
    std::uint64_t base_count = 0;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const BI body = BI::loadu(body_p + i);
      const BI node = BI::loadu(node_p + i);
      const BF d2 = BF::loadu(d2_p + i);
      const BF nx = simd::gather(tree->com_x.data(), node);
      const BF ny = simd::gather(tree->com_y.data(), node);
      const BF nz = simd::gather(tree->com_z.data(), node);
      const BF qx = simd::gather(bodies->x.data(), body);
      const BF qy = simd::gather(bodies->y.data(), body);
      const BF qz = simd::gather(bodies->z.data(), body);
      const BF dx = nx - qx;
      const BF dy = ny - qy;
      const BF dz = nz - qz;
      const BF dr2 = dx * dx + dy * dy + dz * dz;
      const BI lb = simd::gather(tree->leaf_begin.data(), node);
      const std::uint32_t leafy = simd::cmp_ge(lb, BI::zero());
      const std::uint32_t far = simd::cmp_ge(dr2, d2);
      const std::uint32_t base = (leafy | far) & full;
      base_count += std::popcount(base);

      if ((far & full) != 0) {
        // Vectorized far-field kick; scalar scatter-add (two lanes may share
        // a body).
        const BF f = pull(simd::gather(tree->mass.data(), node), dr2);
        const BF fx = f * dx, fy = f * dy, fz = f * dz;
        std::uint32_t mset = far & full;
        while (mset != 0) {
          const int l = std::countr_zero(mset);
          mset &= mset - 1;
          add_force(body[l], fx[l], fy[l], fz[l]);
        }
      }
      std::uint32_t near_leaf = leafy & ~far & full;
      while (near_leaf != 0) {
        const int l = std::countr_zero(near_leaf);
        near_leaf &= near_leaf - 1;
        direct_sum(body[l], node[l]);
      }

      const std::uint32_t rec = ~base & full;
      if (rec == 0) continue;
      const BF d2q = d2 * BF::broadcast(0.25f);
      const BI node8 = node << 3;  // flat index into the children table
      for (int oct = 0; oct < 8; ++oct) {
        const BI child = simd::gather(child_flat, node8 + BI::broadcast(oct));
        const std::uint32_t has =
            rec & ~simd::cmp_eq(child, BI::broadcast(spatial::Octree::kNoChild)) & full;
        if (has == 0) continue;
        outs[static_cast<std::size_t>(oct)]->append_compact(has, body, child, d2q);
      }
    }
    r += base_count;
    leaves += base_count;
  }

  // One root task per body — the §5 data-parallel outer loop.
  std::vector<Task> roots(float theta) const {
    std::vector<Task> out;
    out.reserve(bodies->size());
    const float d2 = root_d2(theta);
    for (std::size_t b = 0; b < bodies->size(); ++b) {
      out.push_back(Task{static_cast<std::int32_t>(b), tree->root, d2});
    }
    return out;
  }
};

// Sequential recursive traversal for one body — the Ts baseline.
inline std::uint64_t barneshut_sequential_body(const BarnesHutProgram& prog,
                                               const BarnesHutProgram::Task& t) {
  if (prog.is_base(t)) {
    std::uint64_t r = 0;
    prog.leaf(t, r);
    return r;
  }
  std::uint64_t total = 0;
  prog.expand(t, [&](int, const BarnesHutProgram::Task& c) {
    total += barneshut_sequential_body(prog, c);
  });
  return total;
}

inline std::uint64_t barneshut_sequential(const BarnesHutProgram& prog, float theta) {
  std::uint64_t total = 0;
  for (const auto& t : prog.roots(theta)) total += barneshut_sequential_body(prog, t);
  return total;
}

}  // namespace tb::apps
