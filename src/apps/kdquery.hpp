// The kd-tree query program shared by knn, pointcorr and minmaxdist, in the
// paper's three nesting levels: a data-parallel outer loop over query
// points (one root task per query), a task-parallel recursive descent that
// spawns a child only when its bounding box passes the program's pruning
// rule, and a data-parallel base case over a leaf's contiguous points.
//
// A program derives from KdQuery<Program> and adds its state (after the
// `points` and `tree` members, so `Program{points, tree, state}` still
// initializes it positionally) and four members:
//   leaf(t, r)            the scalar base case;
//   lane_leaf(node, query, q, live, r)
//                         the same base case for the `live` lanes of a
//                         W-lane query batch (ids `query`, coordinates `q`)
//                         at one leaf, the lockstep kernels' leaf: it
//                         streams the leaf's points against every live lane
//                         and leaves each query's state, and `r`, as `leaf`
//                         run lane by lane would (tests/kdquery_test.cpp pins
//                         the two); defined in-class and forced inline;
//   bounds<V>(query)      the query's pruning bounds as V: for one task
//                         (V = float, an int32 id) or for W lanes
//                         (V = simd::batch<float, W>, a batch of ids), read
//                         once per task, W-chunk or lockstep node step;
//   descends(box, q, b)   the pruning rule: whether a query at q with bounds
//                         b descends into a node with box `box`, written
//                         once over V = float and V = simd::batch (a lane
//                         mask), and forced inline like the box distances
//                         (spatial/kdtree.hpp says why).
// Optionally it also adds leaf_simd(t, r), the base case the SIMD layer runs
// for each leaf lane (the scalar leaf otherwise).  expand, expand_simd and
// the lockstep kernels (lockstep/kernels.hpp) all call that one rule on the
// one box distance (spatial/kdtree.hpp), so a (query, node) pair prunes the
// same way in every execution model.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "simd/batch.hpp"
#include "simd/soa.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"

namespace tb::apps {

template <class Program>
struct KdQuery {
  struct Task {
    std::int32_t query;
    std::int32_t node;
  };
  // Leaf visits for knn and minmaxdist (schedule-dependent), the in-radius
  // count for pointcorr.
  using Result = std::uint64_t;
  static constexpr int max_children = 2;

  const spatial::Bodies* points = nullptr;
  const spatial::KdTree* tree = nullptr;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  bool is_base(const Task& t) const { return tree->is_leaf(t.node); }

  // The query's coordinates, one query or gathered per lane.
  spatial::Point<float> point(std::int32_t query) const {
    const auto q = static_cast<std::size_t>(query);
    return {points->x[q], points->y[q], points->z[q]};
  }
  template <int W>
  spatial::Point<simd::batch<float, W>> point(const simd::batch<std::int32_t, W>& query) const {
    return {simd::gather(points->x.data(), query), simd::gather(points->y.data(), query),
            simd::gather(points->z.data(), query)};
  }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    const Program& p = self();
    const spatial::Point<float> q = point(t.query);
    const auto b = p.template bounds<float>(t.query);
    const auto n = static_cast<std::size_t>(t.node);
    const std::int32_t kids[2] = {tree->left[n], tree->right[n]};
    for (int s = 0; s < 2; ++s) {
      if (kids[s] != spatial::KdTree::kNoChild && p.descends(tree->box(kids[s]), q, b)) {
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

  void leaf_simd(const Task& t, Result& r) const { self().leaf(t, r); }

  // Per W-chunk: the leaf lanes run their base case first, then the other
  // lanes' children that pass the rule go to slot 0 (left) and 1 (right).
  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 2>& outs, Result& r, std::uint64_t& leaves) const {
    const Program& p = self();
    const std::int32_t* query_p = in.data<0>();
    const std::int32_t* node_p = in.data<1>();
    constexpr std::uint32_t full = simd::mask_all<simd_width>;
    Result acc = identity();
    std::uint64_t leaf_tasks = 0;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const BI query = BI::loadu(query_p + i);
      const BI node = BI::loadu(node_p + i);
      const BI lb = simd::gather(tree->leaf_begin.data(), node);
      const std::uint32_t leafy = simd::cmp_ge(lb, BI::zero()) & full;
      leaf_tasks += std::popcount(leafy);
      for (std::uint32_t m = leafy; m != 0; m &= m - 1) {
        const int l = std::countr_zero(m);
        p.leaf_simd(Task{query[l], node[l]}, acc);
      }
      const std::uint32_t rec = ~leafy & full;
      if (rec == 0) continue;
      const spatial::Point<BF> q = point(query);
      const auto b = p.template bounds<BF>(query);
      const BI lkid = simd::gather(tree->left.data(), node);
      const BI rkid = simd::gather(tree->right.data(), node);
      const std::uint32_t lmask = rec & p.descends(tree->box(lkid), q, b);
      const std::uint32_t rmask = rec & p.descends(tree->box(rkid), q, b);
      if (lmask != 0) outs[0]->append_compact(lmask, query, lkid);
      if (rmask != 0) outs[1]->append_compact(rmask, query, rkid);
    }
    r += acc;
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

  // The sequential recursion from t, and from every root: the reference
  // every scheduler's results are checked against.
  Result sequential(const Task& t) const {
    Result r = identity();
    if (is_base(t)) {
      self().leaf(t, r);
      return r;
    }
    expand(t, [&](int, const Task& c) { r += sequential(c); });
    return r;
  }
  Result sequential() const {
    Result r = identity();
    for (const Task& t : roots()) r += sequential(t);
    return r;
  }

private:
  const Program& self() const { return static_cast<const Program&>(*this); }
};

}  // namespace tb::apps
