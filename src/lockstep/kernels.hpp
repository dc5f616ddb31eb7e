// The four traversal workloads, each written once as a width-templated
// kernel for the blocked engine (lockstep/blocked.hpp has the interface).
// Every entry point — classic lockstep, blocked, hybrid, serving — derives
// from these through lockstep/drivers.hpp, and simd/dispatch_table.ipp
// binds those drivers per ISA width.
//
// One query per lane, one shared tree walk: the node is uniform across
// lanes, so node data is broadcast against the lanes' query state.  Final
// results are schedule-independent — the pruning criterion per (query,
// node) pair is the same in every model, and knn/minmaxdist leaves run the
// program's scalar base case, so their states are bit-identical to the
// sequential recursion; only visit counts depend on the schedule.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "apps/barneshut.hpp"
#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "simd/batch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"
#include "spatial/octree.hpp"

namespace tb::lockstep {

// Shared half of the kd-tree kernels (knn, pointcorr, minmaxdist): the
// points are the queries, their coordinates are the State, and every one of
// them prunes with the broadcast box distance.
template <int W>
struct KdTreeKernel {
  using BF = simd::batch<float, W>;
  using BI = simd::batch<std::int32_t, W>;
  using Payload = char;
  static constexpr int width = W;

  struct State {
    BF qx, qy, qz;
  };

  const spatial::Bodies* points;
  const spatial::KdTree* tree;

  std::int32_t root() const { return tree->root; }
  std::int32_t queries() const { return static_cast<std::int32_t>(points->size()); }
  static Payload root_payload() { return 0; }
  static Payload descend(Payload p) { return p; }

  int children(std::int32_t node, std::int32_t* out) const {
    const auto nn = static_cast<std::size_t>(node);
    int c = 0;
    if (tree->left[nn] != spatial::KdTree::kNoChild) out[c++] = tree->left[nn];
    if (tree->right[nn] != spatial::KdTree::kNoChild) out[c++] = tree->right[nn];
    return c;
  }

  State load(const BI& qid) const {
    return {simd::gather(points->x.data(), qid), simd::gather(points->y.data(), qid),
            simd::gather(points->z.data(), qid)};
  }
  static void flush(const BI&, State&, std::uint32_t) {}

  // Squared distance from each lane's query to `node`'s box, its bounds
  // broadcast across lanes (0 inside the box).  `far2`, when given,
  // receives the squared distance to the box's farthest corner.  The
  // gather-form twins for node vectors live in the apps' SIMD layers.
  BF box_dist2(std::int32_t node, const State& s, BF* far2 = nullptr) const {
    const auto nn = static_cast<std::size_t>(node);
    const BF lox = BF::broadcast(tree->min_x[nn]) - s.qx;
    const BF hix = s.qx - BF::broadcast(tree->max_x[nn]);
    const BF loy = BF::broadcast(tree->min_y[nn]) - s.qy;
    const BF hiy = s.qy - BF::broadcast(tree->max_y[nn]);
    const BF loz = BF::broadcast(tree->min_z[nn]) - s.qz;
    const BF hiz = s.qz - BF::broadcast(tree->max_z[nn]);
    if (far2 != nullptr) {
      // Per dimension the larger one-sided offset (-lox = qx - min_x,
      // -hix = max_x - qx).
      const BF fx = BF::max(-lox, -hix);
      const BF fy = BF::max(-loy, -hiy);
      const BF fz = BF::max(-loz, -hiz);
      *far2 = fx * fx + fy * fy + fz * fz;
    }
    const BF zero = BF::zero();
    const BF dx = BF::max(BF::max(lox, hix), zero);
    const BF dy = BF::max(BF::max(loy, hiy), zero);
    const BF dz = BF::max(BF::max(loz, hiz), zero);
    return dx * dx + dy * dy + dz * dz;
  }

  // The program's scalar base case for every live lane at leaf `node`.
  template <class Program>
  static void leaf_lanes(const Program& prog, std::int32_t node, const BI& qid,
                         std::uint32_t live) {
    while (live != 0) {
      const int l = std::countr_zero(live);
      live &= live - 1;
      typename Program::Result dummy = 0;
      prog.leaf(typename Program::Task{qid[l], node}, dummy);
    }
  }
};

// k-nearest neighbours: each lane's pruning bound (its current k-th best
// distance) shrinks as leaves are offered, so it is reloaded at every node
// and a lane benefits from its own earlier leaf visits exactly as the
// recursive traversal does.
template <int W>
struct KnnKernel : KdTreeKernel<W> {
  using typename KdTreeKernel<W>::BF;
  using typename KdTreeKernel<W>::BI;
  using typename KdTreeKernel<W>::State;

  const apps::KnnProgram* prog;

  explicit KnnKernel(const apps::KnnProgram& p) : KdTreeKernel<W>{p.points, p.tree}, prog(&p) {}

  std::uint32_t step(std::int32_t node, const BI& qid, State& s, std::uint32_t mask,
                     char) const {
    BF bound;
    for (int l = 0; l < W; ++l) bound.set(l, prog->state->bound(qid[l]));
    const std::uint32_t live = mask & simd::cmp_lt(this->box_dist2(node, s), bound);
    if (live == 0 || !this->tree->is_leaf(node)) return live;
    this->leaf_lanes(*prog, node, qid, live);
    return 0;
  }
};

// Point correlation: counts the (query, point) pairs within the radius; a
// leaf's points stream against all live lanes at once.
template <int W>
struct PointCorrKernel : KdTreeKernel<W> {
  using typename KdTreeKernel<W>::BF;
  using typename KdTreeKernel<W>::BI;
  using typename KdTreeKernel<W>::State;

  const apps::PointCorrProgram* prog;
  std::uint64_t result = 0;

  explicit PointCorrKernel(const apps::PointCorrProgram& p)
      : KdTreeKernel<W>{p.points, p.tree}, prog(&p) {}

  std::uint32_t step(std::int32_t node, const BI&, State& s, std::uint32_t mask, char) {
    const BF r2 = BF::broadcast(prog->rad2);
    const std::uint32_t live = mask & simd::cmp_le(this->box_dist2(node, s), r2);
    if (live == 0 || !this->tree->is_leaf(node)) return live;
    const spatial::KdTree& tree = *this->tree;
    const auto nn = static_cast<std::size_t>(node);
    for (std::int32_t j = tree.leaf_begin[nn]; j < tree.leaf_end[nn]; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      const BF dx = BF::broadcast(tree.px[jj]) - s.qx;
      const BF dy = BF::broadcast(tree.py[jj]) - s.qy;
      const BF dz = BF::broadcast(tree.pz[jj]) - s.qz;
      result += std::popcount(live & simd::cmp_le(dx * dx + dy * dy + dz * dz, r2));
    }
    return 0;
  }
};

// min/max-extent search (apps/minmaxdist.hpp): each lane carries two
// monotone bounds (nearest-so-far shrinks, farthest-so-far grows), reloaded
// at every node; a lane descends only while the node's box could improve
// one of them.  Early on every lane descends everywhere; late in the walk
// the min-bound prunes near the query while the max-bound prunes the middle
// of the tree — a different divergence shape from pointcorr and knn.
template <int W>
struct MinmaxDistKernel : KdTreeKernel<W> {
  using typename KdTreeKernel<W>::BF;
  using typename KdTreeKernel<W>::BI;
  using typename KdTreeKernel<W>::State;

  const apps::MinmaxDistProgram* prog;

  explicit MinmaxDistKernel(const apps::MinmaxDistProgram& p)
      : KdTreeKernel<W>{p.points, p.tree}, prog(&p) {}

  std::uint32_t step(std::int32_t node, const BI& qid, State& s, std::uint32_t mask,
                     char) const {
    BF cur_min, cur_max;
    for (int l = 0; l < W; ++l) {
      cur_min.set(l, prog->state->min_bound(qid[l]));
      cur_max.set(l, prog->state->max_bound(qid[l]));
    }
    BF far2;
    const BF near2 = this->box_dist2(node, s, &far2);
    const std::uint32_t live =
        mask & (simd::cmp_lt(near2, cur_min) | simd::cmp_gt(far2, cur_max));
    if (live == 0 || !this->tree->is_leaf(node)) return live;
    this->leaf_lanes(*prog, node, qid, live);
    return 0;
  }
};

// Barnes-Hut forces: one body per lane over the octree; the payload is the
// opening threshold d², which divides by 4 per level.  At each cell, lanes
// far enough for the center-of-mass approximation take it and leave the
// subtree; near lanes descend, and at a leaf direct-sum its bodies.  Forces
// accumulate in State and scatter in flush.  The terminal-interaction count
// (`result`) is bit-identical to the recursive formulation; forces agree to
// reassociation tolerance, since the summation order differs.
template <int W>
struct BarnesHutKernel {
  using BF = simd::batch<float, W>;
  using BI = simd::batch<std::int32_t, W>;
  using Payload = float;
  static constexpr int width = W;

  struct State {
    BF qx, qy, qz;
    BF fx, fy, fz;
    std::uint32_t touched;  // lanes with a force to flush
  };

  const apps::BarnesHutProgram* prog;
  float theta;
  std::uint64_t result = 0;

  BarnesHutKernel(const apps::BarnesHutProgram& p, float th) : prog(&p), theta(th) {}

  std::int32_t root() const { return prog->tree->root; }
  std::int32_t queries() const { return static_cast<std::int32_t>(prog->bodies->size()); }
  Payload root_payload() const { return prog->root_d2(theta); }
  static Payload descend(Payload d2) { return d2 * 0.25f; }

  int children(std::int32_t node, std::int32_t* out) const {
    int c = 0;
    for (const std::int32_t kid : prog->tree->children[static_cast<std::size_t>(node)]) {
      if (kid != spatial::Octree::kNoChild) out[c++] = kid;
    }
    return c;
  }

  State load(const BI& qid) const {
    const spatial::Bodies& bodies = *prog->bodies;
    return {simd::gather(bodies.x.data(), qid),
            simd::gather(bodies.y.data(), qid),
            simd::gather(bodies.z.data(), qid),
            BF::zero(),
            BF::zero(),
            BF::zero(),
            0};
  }

  std::uint32_t step(std::int32_t node, const BI& qid, State& s, std::uint32_t mask,
                     float d2) {
    const spatial::Octree& tree = *prog->tree;
    const spatial::Bodies& bodies = *prog->bodies;
    const BF eps2 = BF::broadcast(prog->eps2);
    const BF zero = BF::zero();
    const auto nn = static_cast<std::size_t>(node);
    const BF dx = BF::broadcast(tree.com_x[nn]) - s.qx;
    const BF dy = BF::broadcast(tree.com_y[nn]) - s.qy;
    const BF dz = BF::broadcast(tree.com_z[nn]) - s.qz;
    const BF dr2 = dx * dx + dy * dy + dz * dz;
    const std::uint32_t far = mask & simd::cmp_ge(dr2, BF::broadcast(d2));
    if (far != 0) {
      // Far lanes: one interaction with the cell's center of mass.
      result += std::popcount(far);
      const BF r2 = dr2 + eps2;
      BF f;
      for (int l = 0; l < W; ++l) {
        const float inv = 1.0f / std::sqrt(r2[l]);
        f.set(l, tree.mass[nn] * inv * inv * inv);
      }
      // The other lanes add 0·d = ±0, which leaves their sums unchanged;
      // one blend instead of three (a blend is a lane loop below W=16).
      f = simd::select(far, f, zero);
      s.fx += f * dx;
      s.fy += f * dy;
      s.fz += f * dz;
      s.touched |= far;
    }
    const std::uint32_t near_lanes = mask & ~far;
    if (near_lanes == 0 || !tree.is_leaf(node)) return near_lanes;
    // Leaf: direct sum of the leaf's bodies against the near lanes, in
    // locals — State sits behind a reference the body loads may alias.
    result += std::popcount(near_lanes);
    s.touched |= near_lanes;
    BF fx = s.fx, fy = s.fy, fz = s.fz;
    for (std::int32_t j = tree.leaf_begin[nn]; j < tree.leaf_end[nn]; ++j) {
      const auto bj = static_cast<std::size_t>(tree.body_index[static_cast<std::size_t>(j)]);
      const BF bx = BF::broadcast(bodies.x[bj]) - s.qx;
      const BF by = BF::broadcast(bodies.y[bj]) - s.qy;
      const BF bz = BF::broadcast(bodies.z[bj]) - s.qz;
      const BF r2 = bx * bx + by * by + bz * bz + eps2;
      // Mask out the self lane (a body never attracts itself).
      const std::uint32_t m =
          near_lanes & ~simd::cmp_eq(qid, BI::broadcast(static_cast<std::int32_t>(bj)));
      if (m == 0) continue;
      BF f;
      for (int l = 0; l < W; ++l) {
        const float inv = 1.0f / std::sqrt(r2[l]);
        f.set(l, bodies.mass[bj] * inv * inv * inv);
      }
      fx += simd::select(m, f * bx, zero);
      fy += simd::select(m, f * by, zero);
      fz += simd::select(m, f * bz, zero);
    }
    s.fx = fx;
    s.fy = fy;
    s.fz = fz;
    return 0;
  }

  void flush(const BI& qid, State& s, std::uint32_t mask) const {
    std::uint32_t m = mask & s.touched;
    while (m != 0) {
      const int l = std::countr_zero(m);
      m &= m - 1;
      prog->add_force(qid[l], s.fx[l], s.fy[l], s.fz[l]);
    }
  }
};

}  // namespace tb::lockstep
