// The four traversal workloads, each written once as a width-templated
// kernel for the blocked engine (lockstep/blocked.hpp has the interface).
// Every entry point — classic lockstep, blocked, hybrid, serving — derives
// from these through lockstep/drivers.hpp, and simd/dispatch_table.ipp
// binds those drivers per ISA width.
//
// One query per lane, one shared tree walk: the node is uniform across
// lanes, so node data is broadcast against the lanes' query state, and a
// step costs one vector operation where a scalar traversal costs W.  Final
// results are schedule-independent — the kd-tree kernels prune with the
// program's own rule (apps/kdquery.hpp), the one the task-block layers'
// expand and expand_simd call, so a (query, node) pair prunes the same way
// in every model; at a leaf they run the program's lane leaf, which streams
// the leaf's points against every live lane and leaves each query's state
// bit-identical to the sequential recursion's; only visit counts depend on
// the schedule.
#pragma once

#include <bit>
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

// The kd-tree kernels (knn, pointcorr, minmaxdist): the points are the
// queries and their coordinates the State.  A lane stays live at `node`
// while the program's own pruning rule (apps/kdquery.hpp) passes for the
// node's box, broadcast across lanes, against the lane's query and bounds —
// the bounds reloaded at every node, so a lane benefits from its own earlier
// leaf visits exactly as the recursive traversal does.  At a leaf, the
// program's lane leaf streams the leaf's points against all live lanes at
// once.
template <int W, class Program>
struct KdTreeKernel {
  using BF = simd::batch<float, W>;
  using BI = simd::batch<std::int32_t, W>;
  using Payload = char;
  using State = spatial::Point<BF>;
  static constexpr int width = W;

  const Program* prog;

  explicit KdTreeKernel(const Program& p) : prog(&p) {}

  std::int32_t root() const { return prog->tree->root; }
  std::int32_t queries() const { return static_cast<std::int32_t>(prog->points->size()); }
  static Payload root_payload() { return 0; }
  static Payload descend(Payload p) { return p; }

  int children(std::int32_t node, std::int32_t* out) const {
    const spatial::KdTree& tree = *prog->tree;
    const auto nn = static_cast<std::size_t>(node);
    int c = 0;
    if (tree.left[nn] != spatial::KdTree::kNoChild) out[c++] = tree.left[nn];
    if (tree.right[nn] != spatial::KdTree::kNoChild) out[c++] = tree.right[nn];
    return c;
  }

  State load(const BI& qid) const { return prog->point(qid); }
  static void flush(const BI&, State&, std::uint32_t) {}

  // The lanes of `mask` whose query descends into `node`.
  std::uint32_t live_at(std::int32_t node, const BI& qid, const State& s,
                        std::uint32_t mask) const {
    return mask &
           prog->descends(prog->tree->template box<BF>(node), s, prog->template bounds<BF>(qid));
  }

  // knn and minmaxdist count leaf visits in their Result; nothing reads them.
  std::uint32_t step(std::int32_t node, const BI& qid, State& s, std::uint32_t mask,
                     char) const {
    typename Program::Result visits = 0;
    return visit(node, qid, s, mask, visits);
  }

  // The lanes of `mask` that descend below `node`; at a leaf, the live
  // lanes' lane leaf, which adds to `r`.
  std::uint32_t visit(std::int32_t node, const BI& qid, const State& s, std::uint32_t mask,
                      typename Program::Result& r) const {
    const std::uint32_t m = live_at(node, qid, s, mask);
    if (m == 0 || !prog->tree->is_leaf(node)) return m;
    prog->lane_leaf(node, qid, s, m, r);
    return 0;
  }
};

template <int W>
using KnnKernel = KdTreeKernel<W, apps::KnnProgram>;

template <int W>
using MinmaxDistKernel = KdTreeKernel<W, apps::MinmaxDistProgram>;

// Point correlation counts the (query, point) pairs within the radius: its
// kernel keeps the lane leaves' counts as its result.
template <int W>
struct PointCorrKernel : KdTreeKernel<W, apps::PointCorrProgram> {
  using Base = KdTreeKernel<W, apps::PointCorrProgram>;
  using Base::Base;

  std::uint64_t result = 0;

  std::uint32_t step(std::int32_t node, const typename Base::BI& qid, typename Base::State& s,
                     std::uint32_t mask, char) {
    return this->visit(node, qid, s, mask, result);
  }
};

// Barnes-Hut forces: one body per lane over the octree; the payload is the
// opening threshold d², which divides by 4 per level.  At each cell, lanes
// far enough for the center-of-mass approximation take it and leave the
// subtree; near lanes descend, and at a leaf direct-sum its bodies.  Every
// interaction is the program's force law (`pull`) over all W lanes at once.
// Forces accumulate in State and scatter in flush.  The terminal-interaction
// count (`result`) is bit-identical to the recursive formulation; forces
// agree to reassociation tolerance, since the summation order differs.
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
      // The other lanes add 0·d = ±0, which leaves their sums unchanged;
      // one blend instead of three (a blend is a lane loop below W=16).
      const BF f = simd::select(far, prog->pull(BF::broadcast(tree.mass[nn]), dr2), zero);
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
      // Mask out the self lane (a body never attracts itself).
      const std::uint32_t m =
          near_lanes & ~simd::cmp_eq(qid, BI::broadcast(static_cast<std::int32_t>(bj)));
      if (m == 0) continue;
      const BF f = prog->pull(BF::broadcast(bodies.mass[bj]), bx * bx + by * by + bz * bz);
      // The other lanes keep their sums, as adding +0 would (a sum that
      // starts at +0 is never -0).  Blending the sum, not the addend, keeps
      // it in one register at W=16, where GCC splits the running sum of a
      // blended addend into 16 scalar adds.
      fx = simd::select(m, fx + f * bx, fx);
      fy = simd::select(m, fy + f * by, fy);
      fz = simd::select(m, fz + f * bz, fz);
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
