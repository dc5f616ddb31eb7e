// The kd-tree query program shared by knn, pointcorr and minmaxdist, in the
// paper's three nesting levels: a data-parallel outer loop over query
// points (one root task per query), a task-parallel recursive descent that
// spawns a child only when its bounding box passes the program's pruning
// rule, and a data-parallel base case over a leaf's contiguous points.
//
// KdQuery is a TaskRule program (task_rule.hpp) over the row KdRow<W> =
// {query, node}: it states TaskRule's three rules once over lane width —
// `base` (the leaf lanes), `reduce` (each leaf lane's base case, in lane
// order) and `spawn` (the children that pass the pruning rule, each lane's
// first child in slot 0) — and TaskRule derives from them the scalar
// is_base/leaf/expand, the SoA block and expand_simd.
//
// A program derives from KdQuery<Program>, adds its state, a default
// constructor and a positional one, `Program(points, tree, state)` (the
// TaskRule base rules out aggregate initialization), and three members:
//   lane_leaf(node, query, q, live, r)
//                         the base case for the `live` lanes of a query batch
//                         (ids `query`, coordinates `q`) at one leaf, written
//                         once over (V, I) = (float, int32), one task, and
//                         (simd::batch<float, W>, simd::batch<int32, W>): it
//                         streams the leaf's points against every live lane
//                         and leaves each query's state, and `r`, as the
//                         one-lane form run lane by lane would
//                         (tests/kdquery_test.cpp pins both against reference
//                         leaves); the recursion and the task-block layers
//                         run it on one lane, the lockstep kernels on every
//                         live lane; defined in-class and forced inline;
//   bounds<V>(query)      the query's pruning bounds as V: for one task
//                         (V = float, an int32 id) or for W lanes
//                         (V = simd::batch<float, W>, a batch of ids), read
//                         once per task, W-chunk or lockstep node step;
//   descends(box, q, b)   the pruning rule: whether a query at q with bounds
//                         b descends into a node with box `box`, written
//                         once over V = float and V = simd::batch (a lane
//                         mask), and forced inline like the box distances
//                         (spatial/kdtree.hpp says why).
// Optionally it also adds
//   right_first(l, r, q)  the child-order rule: whether a query at q visits
//                         the right child (box r) before the left (box l),
//                         written once over V = float and V = simd::batch
//                         like `descends` and forced inline.  Without it
//                         every query takes the left child first.
// The task-block layers and the lockstep kernels (lockstep/kernels.hpp) all
// call those rules on the one box distance (spatial/kdtree.hpp), so a
// (query, node) pair prunes the same way in every execution model, and a
// query visits a node's children in the same order: spawn puts each task's
// first child in slot 0, and the kernels hand the rule to the engine as
// their `reverses` hook.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <tuple>
#include <vector>

#include "apps/task_rule.hpp"
#include "simd/batch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"

namespace tb::apps {

// A kd-tree query program that states a child-order rule (right_first).
template <class Program>
concept OrdersChildren = requires(const spatial::Box<float>& b, const spatial::Point<float>& q) {
  { Program::right_first(b, b, q) } -> std::convertible_to<std::uint32_t>;
};

// A (query, node) pair per lane; KdRow<1> is the program's Task.
template <int W>
struct KdRow {
  simd::lanes<std::int32_t, W> query, node;
  auto fields() const { return std::tie(query, node); }
};

template <class Program>
struct KdQuery : TaskRule<Program, KdRow> {
  using Task = KdRow<1>;
  // Leaf visits for knn and minmaxdist (schedule-dependent), the in-radius
  // count for pointcorr.
  using Result = std::uint64_t;
  static constexpr int max_children = 2;

  const spatial::Bodies* points = nullptr;
  const spatial::KdTree* tree = nullptr;

  KdQuery() = default;
  KdQuery(const spatial::Bodies* pts, const spatial::KdTree* t) : points(pts), tree(t) {}

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

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

  // The lanes at a leaf.
  template <int W>
  [[gnu::always_inline]] std::uint32_t base(const KdRow<W>& t) const {
    return simd::cmp_ge(simd::gather(tree->leaf_begin.data(), t.node), 0);
  }

  // Each leaf lane of m runs the program's lane leaf on its own, in lane
  // order.
  template <int W>
  [[gnu::always_inline]] void reduce(const KdRow<W>& t, std::uint32_t m, Result& r) const {
    for (; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const std::int32_t query = simd::lane(t.query, l);
      self().lane_leaf(simd::lane(t.node, l), query, point(query), 1u, r);
    }
  }

  // The children that pass the rule: each lane's first child (in the
  // program's order) to slot 0, its second to slot 1.
  template <int W, class Emit>
  [[gnu::always_inline]] void spawn(const KdRow<W>& t, std::uint32_t live, Emit&& emit) const {
    using V = simd::lanes<float, W>;
    const Program& p = self();
    const spatial::Point<V> q = point(t.query);
    const auto b = p.template bounds<V>(t.query);
    // A lane outside `live` (a leaf: KdTree::kNoChild) reads its own
    // node's box, so every gather stays in bounds.
    const auto lkid = simd::select(live, simd::gather(tree->left.data(), t.node), t.node);
    const auto rkid = simd::select(live, simd::gather(tree->right.data(), t.node), t.node);
    const spatial::Box<V> lbox = tree->box(lkid);
    const spatial::Box<V> rbox = tree->box(rkid);
    const std::uint32_t lmask = live & p.descends(lbox, q, b);
    const std::uint32_t rmask = live & p.descends(rbox, q, b);
    std::uint32_t rf = 0;  // the lanes that visit the right child first
    if constexpr (OrdersChildren<Program>) rf = live & Program::right_first(lbox, rbox, q);
    if (const std::uint32_t m = (lmask & ~rf) | (rmask & rf)) {
      emit(0, m, KdRow<W>{t.query, simd::select(rf, rkid, lkid)});
    }
    if (const std::uint32_t m = (rmask & ~rf) | (lmask & rf)) {
      emit(1, m, KdRow<W>{t.query, simd::select(rf, lkid, rkid)});
    }
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
    if (this->is_base(t)) {
      this->leaf(t, r);
      return r;
    }
    this->expand(t, [&](int, const Task& c) { r += sequential(c); });
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
