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
// program's own rule (apps/kdquery.hpp), the one KdQuery's spawn calls in
// the recursion and the task-block layers, so a (query, node) pair prunes
// the same way in every model; knn's kernel also hands the program's
// child-order rule to the engine (`reverses`), so each lane visits a
// node's children in the recursion's order; at a leaf they run the
// program's lane leaf on every live lane, the base case the recursion
// runs on one lane, which streams the leaf's points against the lanes and
// leaves each query's state bit-identical to the sequential recursion's;
// only visit counts depend on the schedule.  The Barnes-Hut kernel likewise computes
// nothing of its own: its step runs the program's cell test, far-field
// kick and W-lane leaf sum (apps/barneshut.hpp), the rules the recursion
// and the task-block layers call, and its children are the program's
// child rule.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

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
// leaf visits exactly as the recursive traversal does.  A program with a
// child-order rule (knn) gets the `reverses` hook, which the engine uses to
// walk each lane's children in that order.  At a leaf, the program's lane
// leaf streams the leaf's points against all live lanes at once.
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

  // The lanes of `mask` that visit the internal `node`'s right child first,
  // by the program's order rule; a program without one has no hook, and
  // every lane takes the left child first.
  std::uint32_t reverses(std::int32_t node, const BI&, const State& s, std::uint32_t mask) const
    requires apps::OrdersChildren<Program>
  {
    const spatial::KdTree& tree = *prog->tree;
    const auto nn = static_cast<std::size_t>(node);
    return mask & Program::right_first(tree.template box<BF>(tree.left[nn]),
                                       tree.template box<BF>(tree.right[nn]), s);
  }

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
// opening threshold d².  Every piece of arithmetic is a rule of the program
// (apps/barneshut.hpp): at each cell, the cell test broadcasts the cell
// against the lanes, the far lanes take its kick and leave the subtree, and
// the near lanes descend by the child rule; at a leaf they take the W-lane
// leaf sum.  The kernel keeps the plumbing: forces accumulate in State;
// flush adds a chunk's lanes to this kernel copy's per-body sums with plain
// adds, and finish hands each body's sum to the program once per run.
// Every kernel copy runs on one thread at a time (one copy per hybrid slot,
// lockstep/drivers.hpp), so the sums need no atomics.  The
// terminal-interaction count (`result`) is bit-identical to the recursive
// formulation; forces agree to reassociation tolerance, since the summation
// order differs.
template <int W>
struct BarnesHutKernel {
  using BF = simd::batch<float, W>;
  using BI = simd::batch<std::int32_t, W>;
  using Payload = float;
  static constexpr int width = W;

  struct State {
    spatial::Point<BF> q;  // the lanes' bodies
    spatial::Point<BF> f;  // the forces they took since load
    std::uint32_t touched;  // lanes that took an interaction since load
  };

  const apps::BarnesHutProgram* prog;
  float theta;
  std::uint64_t result = 0;
  std::vector<float> sum_x, sum_y, sum_z;  // per-body force sums of this run

  BarnesHutKernel(const apps::BarnesHutProgram& p, float th)
      : prog(&p),
        theta(th),
        sum_x(p.bodies->size()),
        sum_y(p.bodies->size()),
        sum_z(p.bodies->size()) {}

  std::int32_t root() const { return prog->tree->root; }
  std::int32_t queries() const { return static_cast<std::int32_t>(prog->bodies->size()); }
  Payload root_payload() const { return prog->root_d2(theta); }
  static Payload descend(Payload d2) { return apps::BarnesHutProgram::quarter(d2); }

  // Forced inline: through the child rule's lambda it exceeds GCC's early
  // inlining budget, which moved the engine's inlining (at W = 8 main_loop
  // took the donor's `take` inline).
  [[gnu::always_inline]] int children(std::int32_t node, std::int32_t* out) const {
    int c = 0;
    prog->octants(node, [&](int, std::int32_t kid, std::uint32_t) { out[c++] = kid; });
    return c;
  }

  State load(const BI& qid) const {
    const BF zero = BF::zero();
    return {prog->point<BF>(qid), {zero, zero, zero}, 0};
  }

  std::uint32_t step(std::int32_t node, const BI& qid, State& s, std::uint32_t mask,
                     float d2) {
    spatial::Point<BF> d{};
    BF dr2{};
    const std::uint32_t far = mask & prog->far_from(node, s.q, BF::broadcast(d2), d, dr2);
    if (far != 0) {
      result += std::popcount(far);
      prog->kick(node, d, dr2, far, s.f);
      s.touched |= far;
    }
    const std::uint32_t near_lanes = mask & ~far;
    if (near_lanes == 0 || !prog->tree->is_leaf(node)) return near_lanes;
    result += std::popcount(near_lanes);
    s.touched |= near_lanes;
    prog->leaf_sum(node, qid, s.q, near_lanes, s.f);
    return 0;
  }

  void flush(const BI& qid, State& s, std::uint32_t mask) {
    std::uint32_t m = mask & s.touched;
    while (m != 0) {
      const int l = std::countr_zero(m);
      m &= m - 1;
      const auto b = static_cast<std::size_t>(qid[l]);
      sum_x[b] += s.f.x[l];
      sum_y[b] += s.f.y[l];
      sum_z[b] += s.f.z[l];
    }
  }

  // Adds each body's sum to the program's accumulators and zeroes it for
  // the next run.  The sums start at +0, so a body none of this copy's
  // lanes touched reads 0 and is skipped.
  void finish() {
    for (std::size_t b = 0; b < sum_x.size(); ++b) {
      if (sum_x[b] == 0.0f && sum_y[b] == 0.0f && sum_z[b] == 0.0f) continue;
      prog->add_force(static_cast<std::int32_t>(b), {sum_x[b], sum_y[b], sum_z[b]});
      sum_x[b] = sum_y[b] = sum_z[b] = 0.0f;
    }
  }
};

}  // namespace tb::lockstep
