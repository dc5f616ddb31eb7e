// Barnes-Hut force computation (Table 1 row 9; paper Fig. 2).
//
// The outer data-parallel loop over bodies (§5) becomes the root task set:
// one task (body, root-node, d²) per body, strip-mined into initial blocks.
// A task either terminates — the cell is far enough for its center-of-mass
// approximation (dr² ≥ d²), or it is a tree leaf (direct sum over the
// leaf's bodies: the nested data-parallel base case) — or it spawns one
// task per occupied octant with d²/4, exactly the paper's c_f.
//
// The program states that method once, as four rules written over V = float
// (one task) and V = simd::batch<float, W> (W lanes).  A rule reads a cell
// or a body as floats, broadcast to every lane (one id) or gathered per lane
// (a batch of ids), as KdTree::box loads kd boxes:
//   far_from(node, q, d2, d, dr2)
//                               the cell test: the lanes where dr² ≥ d², with
//                               d the displacement from the body at q to the
//                               cell's center of mass and dr² = |d|²;
//   kick(node, d, dr2, m, f)    the far-field interaction, added to f: the
//                               cell's mass at its center of mass, through
//                               the force law `pull`;
//   leaf_sum(node, b, q, live, f)
//                               the leaf's direct sum, added to f in each
//                               live lane, the lane's own body masked out;
//   octants(node, visit), quarter(d2)
//                               the child rule: the occupied octants, in
//                               octant order, each at a quarter of d².
// Every layer calls them: the recursion and the AoS/SoA layers through
// is_base, leaf and expand; expand_simd runs the gathered cell test, kick
// and child rule on a W-chunk and the one-lane leaf sum per near leaf lane;
// the lockstep kernel (lockstep/kernels.hpp) runs the broadcast cell test,
// kick and the W-lane leaf sum.  The force law's square root and divide are
// correctly rounded at every width, so a lane computes the same bits as the
// scalar interaction.
//
// The opening threshold d² is a function of the level alone (cells at tree
// depth L share a size), so it stays uniform across a block.  Forces
// accumulate into per-body arrays (`acc_*`, the "update p using reduction"
// of Fig. 2) with relaxed atomic float adds: once per terminal interaction
// in the task-block layers (leaf, expand_simd), where no worker owns a body.
// A lockstep run sums each body's forces in its kernel copy — one per
// hybrid slot — and adds that total once per run and slot, so a body walked
// in one slot receives a single add.  Two classic, blocked or
// static-partition hybrid runs on accumulators nobody zeroed in between
// therefore read exactly twice one run's force (x + x is exact).  The
// monoid result counts terminal interactions, which is schedule-independent
// and exact — the tests use it as a cross-variant fingerprint.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <type_traits>

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

  // ---- the rules ---------------------------------------------------------------
  // All forced inline, like the kd-tree box distances: out of line, a
  // lockstep node step would pass W-lane values through memory.

  // Entry i of a column as V: one value for one id (broadcast when V is a
  // batch), one per lane for a batch of ids.
  template <class V, class T, class I>
  [[gnu::always_inline]] static V at(const T* col, const I& i) {
    if constexpr (!std::is_integral_v<I>) {
      return simd::gather(col, i);
    } else if constexpr (std::is_arithmetic_v<V>) {
      return col[i];
    } else {
      return V::broadcast(col[i]);
    }
  }

  // The position of body b.
  template <class V, class I>
  [[gnu::always_inline]] spatial::Point<V> point(const I& b) const {
    return {at<V>(bodies->x.data(), b), at<V>(bodies->y.data(), b), at<V>(bodies->z.data(), b)};
  }

  // The cell test: the lanes where the cell's center of mass is far enough
  // from the body at q to stand for the cell (dr² ≥ d²), with d set to the
  // displacement from q to the center of mass and dr2 to |d|².
  template <class V, class I>
  [[gnu::always_inline]] std::uint32_t far_from(const I& node, const spatial::Point<V>& q,
                                                const V& d2, spatial::Point<V>& d,
                                                V& dr2) const {
    d.x = at<V>(tree->com_x.data(), node) - q.x;
    d.y = at<V>(tree->com_y.data(), node) - q.y;
    d.z = at<V>(tree->com_z.data(), node) - q.z;
    dr2 = d.x * d.x + d.y * d.y + d.z * d.z;
    return simd::cmp_ge(dr2, d2);
  }

  // The force law: the pull toward mass m at squared distance d2, softened
  // by eps2, per unit of displacement (the force is pull · (dx, dy, dz)):
  // ((m · inv) · inv) · inv with inv = 1 / sqrt(d2 + eps2).
  template <class V>
  [[gnu::always_inline]] V pull(const V& m, const V& d2) const {
    const V inv = simd::splat<V>(1.0f) / simd::sqrt(d2 + eps2);
    return m * inv * inv * inv;
  }

  // The far-field interaction, added to f: the cell's whole mass at its
  // center of mass, seen at d (dr2 = |d|²), in the lanes of m.  The other
  // lanes add 0·d = ±0, which leaves a sum that starts at +0 unchanged
  // (such a sum is never -0): one blend, of the pull, instead of three (a
  // blend is a lane loop below W = 16).
  template <class V, class I>
  [[gnu::always_inline]] void kick(const I& node, const spatial::Point<V>& d, const V& dr2,
                                   std::uint32_t m, spatial::Point<V>& f) const {
    const V mass = at<V>(tree->mass.data(), node);
    const V g = simd::select(m, pull(mass, dr2), simd::splat<V>(0.0f));
    f.x += g * d.x;
    f.y += g * d.y;
    f.z += g * d.z;
  }

  // The leaf's direct sum — the nested data-parallel loop inside the base
  // case — added to f: in each lane of `live`, the pull of every body of
  // the leaf `node` on the lane's body b at q, b's own excepted.  The lanes
  // outside a body's mask keep their sums, as adding +0 would.  Blending
  // the sum, not the addend, keeps it in one register at W = 16, where GCC
  // splits the running sum of a blended addend into 16 scalar adds.  The
  // sums, q and the columns sit in locals: GCC keeps an aggregate of
  // batches above 136 bytes (a W = 16 Point) in memory, and reloads what
  // it reads through `this` at every body.
  template <class V, class I>
  [[gnu::always_inline]] void leaf_sum(std::int32_t node, const I& b, const spatial::Point<V>& q,
                                       std::uint32_t live, spatial::Point<V>& f) const {
    V fx = f.x, fy = f.y, fz = f.z;
    const V qx = q.x, qy = q.y, qz = q.z;
    const float *bx = bodies->x.data(), *by = bodies->y.data(), *bz = bodies->z.data();
    const float* bm = bodies->mass.data();
    const auto n = static_cast<std::size_t>(node);
    for (std::int32_t j = tree->leaf_begin[n]; j < tree->leaf_end[n]; ++j) {
      const std::int32_t bj = tree->body_index[static_cast<std::size_t>(j)];
      const std::uint32_t m = live & ~simd::cmp_eq(b, bj);
      if (m == 0) continue;
      const V dx = at<V>(bx, bj) - qx, dy = at<V>(by, bj) - qy, dz = at<V>(bz, bj) - qz;
      const V g = pull(at<V>(bm, bj), dx * dx + dy * dy + dz * dz);
      fx = simd::select(m, fx + g * dx, fx);
      fy = simd::select(m, fy + g * dy, fy);
      fz = simd::select(m, fz + g * dz, fz);
    }
    f = {fx, fy, fz};
  }

  // The child rule: visit(oct, kid, lanes) for each occupied octant of
  // `node` in octant order (for a batch of nodes, each lane's child and the
  // lanes where it is one; an empty octant reads Octree::kNoChild, −1).  A
  // child cell is half as wide, so its threshold is a quarter.
  template <class I, class Visit>
  [[gnu::always_inline]] void octants(const I& node, Visit&& visit) const {
    for (int oct = 0; oct < 8; ++oct) {
      const I kid = at<I>(tree->children.data()->data(), node * 8 + oct);
      const std::uint32_t has = simd::cmp_ge(kid, 0);
      if (has != 0) visit(oct, kid, has);
    }
  }
  template <class V>
  [[gnu::always_inline]] static V quarter(const V& d2) { return d2 * 0.25f; }

  // ---- the task program --------------------------------------------------------
  void add_force(std::int32_t body, const spatial::Point<float>& f) const {
    std::atomic_ref<float>(acc_x[body]).fetch_add(f.x, std::memory_order_relaxed);
    std::atomic_ref<float>(acc_y[body]).fetch_add(f.y, std::memory_order_relaxed);
    std::atomic_ref<float>(acc_z[body]).fetch_add(f.z, std::memory_order_relaxed);
  }

  bool is_base(const Task& t) const {
    spatial::Point<float> d{};
    float dr2 = 0.0f;
    return tree->is_leaf(t.node) || far_from(t.node, point<float>(t.body), t.d2, d, dr2) != 0;
  }

  void leaf(const Task& t, Result& r) const {
    r += 1;
    const spatial::Point<float> q = point<float>(t.body);
    spatial::Point<float> d{}, f{};
    float dr2 = 0.0f;
    if (far_from(t.node, q, t.d2, d, dr2) != 0) {
      kick(t.node, d, dr2, 1u, f);
    } else {
      leaf_sum(t.node, t.body, q, 1u, f);
    }
    add_force(t.body, f);
  }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    const float d2 = quarter(t.d2);
    octants(t.node, [&](int oct, std::int32_t kid, std::uint32_t) {
      emit(oct, Task{t.body, kid, d2});
    });
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
    constexpr std::uint32_t full = simd::mask_all<simd_width>;
    std::uint64_t base_count = 0;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const BI body = BI::loadu(in.data<0>() + i);
      const BI node = BI::loadu(in.data<1>() + i);
      const BF d2 = BF::loadu(in.data<2>() + i);
      spatial::Point<BF> d{};
      BF dr2{};
      const std::uint32_t far = far_from(node, point<BF>(body), d2, d, dr2) & full;
      const std::uint32_t leafy = simd::cmp_ge(at<BI>(tree->leaf_begin.data(), node), 0) & full;
      base_count += std::popcount(leafy | far);
      if (far != 0) {
        // Scalar scatter-add: two lanes may share a body.
        const BF zero = BF::zero();
        spatial::Point<BF> f{zero, zero, zero};
        kick(node, d, dr2, far, f);
        for (std::uint32_t m = far; m != 0; m &= m - 1) {
          const int l = std::countr_zero(m);
          add_force(body[l], {f.x[l], f.y[l], f.z[l]});
        }
      }
      for (std::uint32_t m = leafy & ~far; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        spatial::Point<float> f{};
        leaf_sum(node[l], body[l], point<float>(body[l]), 1u, f);
        add_force(body[l], f);
      }
      const std::uint32_t rec = ~(leafy | far) & full;
      if (rec == 0) continue;
      const BF d2q = quarter(d2);
      octants(node, [&](int oct, const BI& kid, std::uint32_t has) {
        const std::uint32_t m = has & rec;
        if (m != 0) outs[static_cast<std::size_t>(oct)]->append_compact(m, body, kid, d2q);
      });
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
