// The kd-tree pruning and child-order rules at their boundaries.  Each
// program (knn, pointcorr, minmaxdist) states its descend rule once, and
// knn its child-order rule (apps/kdquery.hpp); these tests pin what the
// rules decide at a tie, inside a box and under the initial bounds, in all
// three forms a traversal evaluates them:
//   * scalar   — the children `expand` emits for one task, and their slots;
//   * gathered — the children SimdExec::expand_into emits for a block of
//                the same tasks (one node per lane), and their slots;
//   * broadcast — the lockstep kernel's `step` mask at the child node, and
//                its `reverses` hook at the parent.
//
// Hand-placed instance: eight tree points in two unit squares on z = 0,
// built with leaf capacity 2, so the root's children are internal nodes
// with boxes L = [0,1]×[0,1]×{0} and R = [3,4]×[0,1]×{0}.  Three queries:
//   q0 = (2, 0.5, 0), midway: nearest-point distance² 1 to both boxes,
//        farthest-corner distance² 4.25 to both;
//   q1 = (0.5, 0.5, 0), inside L: near 0 / far 0.5 to L, near 6.25 /
//        far 12.5 to R;
//   q2 = (3.5, 0.5, 0), inside R: q1 mirrored, near 6.25 / far 12.5 to L,
//        near 0 / far 0.5 to R.
// Every one of those values is exact in float.  knn visits the nearer
// child first, so q2 takes R first and q0, at a tie, keeps L first;
// pointcorr and minmaxdist have no order rule and keep L first.
//
// KdLeafLanes pins the other half of the kernels' node step: at a leaf,
// each program's lane leaf must leave the state its scalar leaf leaves when
// run lane by lane.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "core/program.hpp"
#include "lockstep/blocked.hpp"
#include "lockstep/kernels.hpp"
#include "simd/batch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"
#include "tests/support/harness.hpp"
#include "tests/support/rng.hpp"

namespace {

using namespace tb;

spatial::Bodies bodies(const std::vector<std::array<float, 3>>& xyz) {
  spatial::Bodies b;
  b.resize(xyz.size());
  for (std::size_t i = 0; i < xyz.size(); ++i) {
    b.x[i] = xyz[i][0];
    b.y[i] = xyz[i][1];
    b.z[i] = xyz[i][2];
    b.mass[i] = 1.0f;
  }
  return b;
}

struct Instance {
  spatial::Bodies tree_points = bodies({{0, 0, 0},
                                        {1, 0, 0},
                                        {0, 1, 0},
                                        {1, 1, 0},
                                        {3, 0, 0},
                                        {4, 0, 0},
                                        {3, 1, 0},
                                        {4, 1, 0}});
  spatial::KdTree tree = spatial::KdTree::build(tree_points, 2);
  spatial::Bodies queries =
      bodies({{2.0f, 0.5f, 0.0f}, {0.5f, 0.5f, 0.0f}, {3.5f, 0.5f, 0.0f}});
  std::int32_t left = tree.left[static_cast<std::size_t>(tree.root)];
  std::int32_t right = tree.right[static_cast<std::size_t>(tree.root)];
};

// Which of the root's children queries q0, q1 and q2 descend into.
struct Children {
  bool left, right;
};
constexpr int kQueries = 3;
using Want = std::array<Children, kQueries>;

// The queries that visit R before L: bit q for query q.
constexpr std::uint32_t kLeftFirst = 0;
constexpr std::uint32_t kNearerFirst = 1u << 2;  // q2, inside R

// Lane l of a block or kernel batch carries query l % 3.
template <int W>
simd::batch<std::int32_t, W> alternating_queries() {
  simd::batch<std::int32_t, W> qid;
  for (int l = 0; l < W; ++l) qid.set(l, l % kQueries);
  return qid;
}

// The lanes whose query's bit is set in `queries`.
template <int W>
std::uint32_t lane_mask(std::uint32_t queries) {
  std::uint32_t m = 0;
  for (int l = 0; l < W; ++l) m |= ((queries >> (l % kQueries)) & 1u) << l;
  return m;
}

template <int W>
std::uint32_t want_mask(const Want& want, bool Children::*side) {
  std::uint32_t queries = 0;
  for (int q = 0; q < kQueries; ++q) {
    queries |= (want[static_cast<std::size_t>(q)].*side ? 1u : 0u) << q;
  }
  return lane_mask<W>(queries);
}

template <template <int> class Kernel, int W, class P>
void expect_lockstep(const Instance& inst, const P& prog, const Want& want,
                     std::uint32_t right_first) {
  SCOPED_TRACE("lockstep W=" + std::to_string(W));
  Kernel<W> k(prog);
  const auto qid = alternating_queries<W>();
  auto s = k.load(qid);
  constexpr std::uint32_t full = simd::mask_all<W>;
  EXPECT_EQ(k.step(inst.left, qid, s, full, 0), want_mask<W>(want, &Children::left));
  EXPECT_EQ(k.step(inst.right, qid, s, full, 0), want_mask<W>(want, &Children::right));
  if constexpr (lockstep::ReversesChildren<Kernel<W>>) {
    EXPECT_EQ(k.reverses(inst.tree.root, qid, s, full), lane_mask<W>(right_first));
    EXPECT_EQ(k.reverses(inst.tree.root, qid, s, 1u), lane_mask<W>(right_first) & 1u);
  } else {
    EXPECT_EQ(right_first, kLeftFirst) << "a kernel without the hook walks L first";
  }
}

// Checks the rules' outcome for every query at the root's children in the
// scalar, gathered and broadcast forms: the children that pass, and each
// query's first child in slot 0 (R for the queries of `right_first`).
template <template <int> class Kernel, class P>
void expect_children(const Instance& inst, const P& prog, const Want& want,
                     std::uint32_t right_first = kLeftFirst) {
  using Task = typename P::Task;
  // The children query q visits that pass, in slot order.
  const auto slotted = [&](std::int32_t q) {
    const auto& w = want[static_cast<std::size_t>(q)];
    const bool rf = ((right_first >> q) & 1u) != 0;
    const std::pair<std::int32_t, bool> order[2] = {
        {rf ? inst.right : inst.left, rf ? w.right : w.left},
        {rf ? inst.left : inst.right, rf ? w.left : w.right}};
    std::vector<std::pair<int, std::int32_t>> out;
    for (int slot = 0; slot < 2; ++slot) {
      if (order[slot].second) out.emplace_back(slot, order[slot].first);
    }
    return out;
  };
  for (std::int32_t q = 0; q < kQueries; ++q) {
    SCOPED_TRACE("expand q" + std::to_string(q));
    std::vector<std::pair<int, std::int32_t>> got;
    prog.expand(Task{q, inst.tree.root}, [&](int slot, const Task& c) {
      EXPECT_EQ(c.query, q);
      got.emplace_back(slot, c.node);
    });
    EXPECT_EQ(got, slotted(q));
  }
  {
    SCOPED_TRACE("SimdExec::expand_into");
    constexpr int W = P::simd_width;
    typename P::Block in;
    std::array<typename P::Block, 2> out;
    for (std::int32_t l = 0; l < W; ++l) P::append_task(in, Task{l % kQueries, inst.tree.root});
    typename P::Result r = P::identity();
    std::uint64_t leaves = 0;
    core::SimdExec<P>::expand_into(prog, in, 0, in.size(), {&out[0], &out[1]}, r, leaves);
    EXPECT_EQ(leaves, 0u);
    for (int slot = 0; slot < 2; ++slot) {
      SCOPED_TRACE("slot " + std::to_string(slot));
      std::vector<std::pair<std::int32_t, std::int32_t>> got, expected;
      for (std::size_t i = 0; i < out[static_cast<std::size_t>(slot)].size(); ++i) {
        const Task t = P::task_at(out[static_cast<std::size_t>(slot)], i);
        got.emplace_back(t.query, t.node);
      }
      for (std::int32_t l = 0; l < W; ++l) {
        for (const auto& [s, node] : slotted(l % kQueries)) {
          if (s == slot) expected.emplace_back(l % kQueries, node);
        }
      }
      EXPECT_EQ(got, expected);
    }
  }
  expect_lockstep<Kernel, 4>(inst, prog, want, right_first);
  expect_lockstep<Kernel, 8>(inst, prog, want, right_first);
}

constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(KdQueryPruning, InstanceHasTheHandPlacedBoxes) {
  const Instance inst;
  ASSERT_FALSE(inst.tree.is_leaf(inst.left));
  ASSERT_FALSE(inst.tree.is_leaf(inst.right));
  const auto l = inst.tree.box(inst.left);
  const auto r = inst.tree.box(inst.right);
  EXPECT_EQ(l.lo.x, 0.0f);
  EXPECT_EQ(l.hi.x, 1.0f);
  EXPECT_EQ(r.lo.x, 3.0f);
  EXPECT_EQ(r.hi.x, 4.0f);
  EXPECT_EQ(l.hi.y, 1.0f);
  EXPECT_EQ(r.hi.z, 0.0f);
}

// The one box distance, scalar, gathered (a node per lane) and broadcast
// (one node in every lane).
TEST(KdQueryPruning, BoxDistancesAgreeInEveryForm) {
  const Instance inst;
  using BF = simd::batch<float, 4>;
  using BI = simd::batch<std::int32_t, 4>;
  const spatial::Point<float> q0{2.0f, 0.5f, 0.0f}, q1{0.5f, 0.5f, 0.0f};
  EXPECT_EQ(spatial::near_dist2(inst.tree.box(inst.left), q0), 1.0f);
  EXPECT_EQ(spatial::near_dist2(inst.tree.box(inst.right), q0), 1.0f);
  EXPECT_EQ(spatial::far_dist2(inst.tree.box(inst.left), q0), 4.25f);
  EXPECT_EQ(spatial::far_dist2(inst.tree.box(inst.right), q0), 4.25f);
  EXPECT_EQ(spatial::near_dist2(inst.tree.box(inst.left), q1), 0.0f);  // inside
  EXPECT_EQ(spatial::near_dist2(inst.tree.box(inst.right), q1), 6.25f);
  EXPECT_EQ(spatial::far_dist2(inst.tree.box(inst.left), q1), 0.5f);
  EXPECT_EQ(spatial::far_dist2(inst.tree.box(inst.right), q1), 12.5f);

  // Lanes: (q0, L), (q0, R), (q1, L), (q1, R).
  BI node;
  for (int l = 0; l < 4; ++l) node.set(l, l % 2 == 0 ? inst.left : inst.right);
  const spatial::Point<BF> q{BF::broadcast(2.0f), BF::broadcast(0.5f), BF::zero()};
  spatial::Point<BF> lanes = q;
  lanes.x.set(2, 0.5f);
  lanes.x.set(3, 0.5f);
  const BF near = spatial::near_dist2(inst.tree.box(node), lanes);
  const BF far = spatial::far_dist2(inst.tree.box(node), lanes);
  const float want_near[4] = {1.0f, 1.0f, 0.0f, 6.25f};
  const float want_far[4] = {4.25f, 4.25f, 0.5f, 12.5f};
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(near[l], want_near[l]) << "gathered lane " << l;
    EXPECT_EQ(far[l], want_far[l]) << "gathered lane " << l;
  }
  const BF near_l = spatial::near_dist2(inst.tree.box<BF>(inst.left), q);
  const BF far_r = spatial::far_dist2(inst.tree.box<BF>(inst.right), q);
  for (int l = 0; l < 4; ++l) {
    EXPECT_EQ(near_l[l], 1.0f) << "broadcast lane " << l;
    EXPECT_EQ(far_r[l], 4.25f) << "broadcast lane " << l;
  }
}

// pointcorr counts a point at exactly the radius, so it descends into a box
// at exactly the radius.
TEST(KdQueryPruning, PointCorrDescendsAtTheRadius) {
  const Instance inst;
  const apps::PointCorrProgram prog{&inst.queries, &inst.tree, 1.0f};
  expect_children<lockstep::PointCorrKernel>(
      inst, prog, Want{{{true, true}, {true, false}, {false, true}}});
}

// Inside a box the distance is 0, which a zero radius still reaches.
TEST(KdQueryPruning, PointCorrQueryInsideBoxIsAtDistanceZero) {
  const Instance inst;
  const apps::PointCorrProgram prog{&inst.queries, &inst.tree, 0.0f};
  expect_children<lockstep::PointCorrKernel>(
      inst, prog, Want{{{false, false}, {true, false}, {false, true}}});
}

// knn needs a strictly nearer point: a box at exactly the k-th best
// distance cannot improve the list.
TEST(KdQueryPruning, KnnDoesNotDescendAtItsBound) {
  const Instance inst;
  apps::KnnState state(kQueries, 1);
  state.offer(0, 100, 1.0f);   // q0: k-th best 1 = its distance to both boxes
  state.offer(1, 100, 6.25f);  // q1: k-th best 6.25 = its distance to R
  state.offer(2, 100, 6.25f);  // q2: k-th best 6.25 = its distance to L
  const apps::KnnProgram prog{&inst.queries, &inst.tree, &state};
  expect_children<lockstep::KnnKernel>(inst, prog,
                                       Want{{{false, false}, {true, false}, {false, true}}},
                                       kNearerFirst);
}

TEST(KdQueryPruning, KnnInitialBoundDescendsEverywhere) {
  const Instance inst;
  apps::KnnState state(kQueries, 3);
  ASSERT_EQ(state.bound(0), kInf);
  const apps::KnnProgram prog{&inst.queries, &inst.tree, &state};
  expect_children<lockstep::KnnKernel>(inst, prog,
                                       Want{{{true, true}, {true, true}, {true, true}}},
                                       kNearerFirst);
}

// minmaxdist descends only where the box strictly improves an extreme:
// nearest point below the minimum, or farthest corner above the maximum.
TEST(KdQueryPruning, MinmaxDistDescendsOnlyOnStrictImprovement) {
  const Instance inst;
  {
    SCOPED_TRACE("ties on both extremes");
    apps::MinmaxDistState state(kQueries);
    state.offer(0, 1.0f);  // q0: min 1, max 4.25 — both boxes tie on both
    state.offer(0, 4.25f);
    state.offer(1, 6.25f);  // q1: min 6.25, max 12.5 — R ties; L is nearer
    state.offer(1, 12.5f);
    state.offer(2, 6.25f);  // q2: mirrored — L ties; R is nearer
    state.offer(2, 12.5f);
    const apps::MinmaxDistProgram prog{&inst.queries, &inst.tree, &state};
    expect_children<lockstep::MinmaxDistKernel>(
        inst, prog, Want{{{false, false}, {true, false}, {false, true}}});
  }
  {
    SCOPED_TRACE("min just above the near distance");
    apps::MinmaxDistState state(kQueries);
    state.offer(0, std::nextafter(1.0f, kInf));
    state.offer(0, 4.25f);
    state.offer(1, std::nextafter(6.25f, kInf));
    state.offer(1, 12.5f);
    state.offer(2, std::nextafter(6.25f, kInf));
    state.offer(2, 12.5f);
    const apps::MinmaxDistProgram prog{&inst.queries, &inst.tree, &state};
    expect_children<lockstep::MinmaxDistKernel>(
        inst, prog, Want{{{true, true}, {true, true}, {true, true}}});
  }
  {
    SCOPED_TRACE("max just below the far distance");
    apps::MinmaxDistState state(kQueries);
    state.offer(0, 1.0f);
    state.offer(0, std::nextafter(4.25f, 0.0f));
    state.offer(1, 6.25f);
    state.offer(1, std::nextafter(12.5f, 0.0f));
    state.offer(2, 6.25f);
    state.offer(2, std::nextafter(12.5f, 0.0f));
    const apps::MinmaxDistProgram prog{&inst.queries, &inst.tree, &state};
    expect_children<lockstep::MinmaxDistKernel>(
        inst, prog, Want{{{true, true}, {true, true}, {true, true}}});
  }
}

TEST(KdQueryPruning, MinmaxDistInitialBoundsDescendEverywhere) {
  const Instance inst;
  apps::MinmaxDistState state(kQueries);
  ASSERT_EQ(state.min_bound(0), kInf);
  ASSERT_EQ(state.max_bound(0), -1.0f);
  const apps::MinmaxDistProgram prog{&inst.queries, &inst.tree, &state};
  expect_children<lockstep::MinmaxDistKernel>(
      inst, prog, Want{{{true, true}, {true, true}, {true, true}}});
}

// knn's order rule itself: R first only when it is strictly nearer, one
// query or one per lane.  pointcorr and minmaxdist state no rule, so their
// kernels have no hook and the engine walks every lane L first.
TEST(KdQueryPruning, KnnVisitsTheNearerChildFirst) {
  const Instance inst;
  const auto l = inst.tree.box(inst.left);
  const auto r = inst.tree.box(inst.right);
  const spatial::Point<float> q0{2.0f, 0.5f, 0.0f}, q1{0.5f, 0.5f, 0.0f}, q2{3.5f, 0.5f, 0.0f};
  EXPECT_EQ(apps::KnnProgram::right_first(l, r, q0), 0u);  // tie
  EXPECT_EQ(apps::KnnProgram::right_first(l, r, q1), 0u);  // inside L
  EXPECT_EQ(apps::KnnProgram::right_first(l, r, q2), 1u);  // inside R
  using BF = simd::batch<float, 4>;
  const spatial::Point<BF> q{BF::broadcast(2.0f), BF::broadcast(0.5f), BF::zero()};
  spatial::Point<BF> lanes = q;
  lanes.x.set(1, 0.5f);
  lanes.x.set(2, 3.5f);
  lanes.x.set(3, 3.5f);
  EXPECT_EQ(apps::KnnProgram::right_first(inst.tree.box<BF>(inst.left),
                                          inst.tree.box<BF>(inst.right), lanes),
            0b1100u);
  static_assert(apps::OrdersChildren<apps::KnnProgram>);
  static_assert(!apps::OrdersChildren<apps::PointCorrProgram>);
  static_assert(!apps::OrdersChildren<apps::MinmaxDistProgram>);
  static_assert(lockstep::ReversesChildren<lockstep::KnnKernel<8>>);
  static_assert(!lockstep::ReversesChildren<lockstep::PointCorrKernel<8>>);
  static_assert(!lockstep::ReversesChildren<lockstep::MinmaxDistKernel<8>>);
  static_assert(!lockstep::ReversesChildren<lockstep::BarnesHutKernel<8>>);
}

// ---- lane leaves ---------------------------------------------------------------
//
// At a leaf, the lockstep kernels' step runs the program's lane leaf over
// the live lanes.  Each case below runs it on one copy of a program's
// state and the scalar leaf lane by lane, in lane order, on another; the
// two copies and the two Results must end equal: knn's k-best lists (raw
// distance bits and ids), minmaxdist's extremes, pointcorr's count.

// Where the states start before the leaf.
enum class Bounds {
  fresh,    // initial bounds: every candidate improves the state
  partial,  // each lane's query has already seen one other leaf
  tight,    // bounds no point beats: the leaf offers nothing
};

struct KnnCase {
  apps::KnnState state;
  apps::KnnProgram prog;
  KnnCase(const spatial::Bodies& pts, const spatial::KdTree& tree)
      : state(pts.size(), 3), prog{&pts, &tree, &state} {}
  void tighten(std::int32_t q) {  // a k-th best distance of 0
    for (int i = 0; i < state.k(); ++i) state.offer(q, q, 0.0f);
  }
  void expect_same(const KnnCase& o) const {
    for (std::int32_t q = 0; q < static_cast<std::int32_t>(prog.points->size()); ++q) {
      const auto bits = [](const std::vector<float>& d) {
        std::vector<std::uint32_t> b;
        for (const float x : d) b.push_back(std::bit_cast<std::uint32_t>(x));
        return b;
      };
      EXPECT_EQ(bits(state.distances(q)), bits(o.state.distances(q))) << "query " << q;
      EXPECT_EQ(state.ids(q), o.state.ids(q)) << "query " << q;
    }
  }
};

struct MinmaxDistCase {
  apps::MinmaxDistState state;
  apps::MinmaxDistProgram prog;
  MinmaxDistCase(const spatial::Bodies& pts, const spatial::KdTree& tree)
      : state(pts.size()), prog{&pts, &tree, &state} {}
  void tighten(std::int32_t q) { state.offer(q, 0.0f, std::numeric_limits<float>::infinity()); }
  void expect_same(const MinmaxDistCase& o) const {
    for (std::int32_t q = 0; q < static_cast<std::int32_t>(state.queries()); ++q) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(state.min_bound(q)),
                std::bit_cast<std::uint32_t>(o.state.min_bound(q)))
          << "query " << q;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(state.max_bound(q)),
                std::bit_cast<std::uint32_t>(o.state.max_bound(q)))
          << "query " << q;
    }
  }
};

struct PointCorrCase {
  apps::PointCorrProgram prog;
  PointCorrCase(const spatial::Bodies& pts, const spatial::KdTree& tree)
      : prog{&pts, &tree, 0.05f} {}
  void expect_same(const PointCorrCase&) const {}  // stateless: the Results carry the count
};

// The first leaf after `node` in id order, wrapping (`node` if it is alone).
std::int32_t other_leaf(const spatial::KdTree& tree, std::int32_t node) {
  for (std::int32_t i = 1; i <= tree.num_nodes(); ++i) {
    const std::int32_t n = (node + i) % tree.num_nodes();
    if (tree.is_leaf(n)) return n;
  }
  return node;
}

template <class Case, int W>
void expect_lane_leaf(const spatial::Bodies& pts, const spatial::KdTree& tree, Bounds bounds,
                      std::int32_t node, const simd::batch<std::int32_t, W>& qid,
                      std::uint32_t live) {
  SCOPED_TRACE("W=" + std::to_string(W) + " node=" + std::to_string(node) +
               " live=" + std::to_string(live) + " bounds=" +
               std::to_string(static_cast<int>(bounds)));
  Case lanes(pts, tree), scalar(pts, tree), before(pts, tree);
  for (Case* c : {&lanes, &scalar, &before}) {
    std::uint64_t r = 0;
    for (int l = 0; l < W; ++l) {
      if constexpr (requires { c->tighten(qid[l]); }) {
        if (bounds == Bounds::tight) c->tighten(qid[l]);
      }
      if (bounds == Bounds::partial) c->prog.leaf({qid[l], other_leaf(tree, node)}, r);
    }
  }
  std::uint64_t r_lanes = 0, r_scalar = 0;
  lanes.prog.lane_leaf(node, qid, lanes.prog.point(qid), live, r_lanes);
  for (std::uint32_t m = live; m != 0; m &= m - 1) {
    scalar.prog.leaf({qid[std::countr_zero(m)], node}, r_scalar);
  }
  EXPECT_EQ(r_lanes, r_scalar);
  lanes.expect_same(scalar);
  if (bounds == Bounds::tight) lanes.expect_same(before);
}

// Full, partial and single-lane masks at every leaf of the tree, for lanes
// carrying the distinct queries `qid`.
template <class Case, int W>
void expect_lane_leaves(const spatial::Bodies& pts, const spatial::KdTree& tree, Bounds bounds,
                        const simd::batch<std::int32_t, W>& qid, std::uint64_t salt) {
  auto rng = tbtest::golden_rng(salt);
  constexpr std::uint32_t full = simd::mask_all<W>;
  for (std::int32_t node = 0; node < tree.num_nodes(); ++node) {
    if (!tree.is_leaf(node)) continue;
    const auto partial = static_cast<std::uint32_t>(rng() % (full - 1)) + 1;  // not full
    const std::uint32_t single = 1u << (rng() % W);
    for (const std::uint32_t live : {full, partial, single}) {
      expect_lane_leaf<Case, W>(pts, tree, bounds, node, qid, live);
    }
  }
}

// The hand-placed points as their own queries: at W = 8 lane l holds point
// l, so every leaf holds the queries of two lanes (self); at W = 4 the lanes
// hold points 0-3.
template <class Case>
void hand_placed(Bounds bounds) {
  const Instance inst;
  expect_lane_leaves<Case, 8>(inst.tree_points, inst.tree, bounds,
                              simd::batch<std::int32_t, 8>::iota(0), 1);
  expect_lane_leaves<Case, 4>(inst.tree_points, inst.tree, bounds,
                              simd::batch<std::int32_t, 4>::iota(0), 2);
}

// Random points, W distinct random queries per round: each query's own
// leaf is among the leaves visited, so every round has self lanes.
template <class Case, int W>
void random_leaves(Bounds bounds, std::uint64_t salt) {
  const spatial::Bodies pts = spatial::Bodies::uniform_cube(300, salt);
  const spatial::KdTree tree = spatial::KdTree::build(pts, 16);
  auto rng = tbtest::golden_rng(salt);
  for (int round = 0; round < 3; ++round) {
    simd::batch<std::int32_t, W> qid;
    std::vector<bool> used(pts.size(), false);
    for (int l = 0; l < W; ++l) {
      std::size_t q = rng() % pts.size();
      while (used[q]) q = (q + 1) % pts.size();
      used[q] = true;
      qid.set(l, static_cast<std::int32_t>(q));
    }
    expect_lane_leaves<Case, W>(pts, tree, bounds, qid, salt + static_cast<std::uint64_t>(round));
  }
}

template <class Case>
void random_leaves_every_width(Bounds bounds) {
  random_leaves<Case, 4>(bounds, 11);
  random_leaves<Case, 8>(bounds, 12);
  random_leaves<Case, 16>(bounds, 13);
}

TEST(KdLeafLanes, KnnHandPlaced) {
  hand_placed<KnnCase>(Bounds::fresh);
  hand_placed<KnnCase>(Bounds::partial);
}

TEST(KdLeafLanes, MinmaxDistHandPlaced) {
  hand_placed<MinmaxDistCase>(Bounds::fresh);
  hand_placed<MinmaxDistCase>(Bounds::partial);
}

TEST(KdLeafLanes, PointCorrHandPlaced) { hand_placed<PointCorrCase>(Bounds::fresh); }

TEST(KdLeafLanes, KnnRandomLeaves) {
  random_leaves_every_width<KnnCase>(Bounds::fresh);
  random_leaves_every_width<KnnCase>(Bounds::partial);
}

TEST(KdLeafLanes, MinmaxDistRandomLeaves) {
  random_leaves_every_width<MinmaxDistCase>(Bounds::fresh);
  random_leaves_every_width<MinmaxDistCase>(Bounds::partial);
}

TEST(KdLeafLanes, PointCorrRandomLeaves) {
  random_leaves_every_width<PointCorrCase>(Bounds::fresh);
}

// When no leaf point improves a lane, the lane leaf leaves the state
// untouched, as the scalar leaf does.
TEST(KdLeafLanes, TightBoundsOfferNothing) {
  const Instance inst;
  expect_lane_leaves<KnnCase, 8>(inst.tree_points, inst.tree, Bounds::tight,
                                 simd::batch<std::int32_t, 8>::iota(0), 3);
  expect_lane_leaves<MinmaxDistCase, 8>(inst.tree_points, inst.tree, Bounds::tight,
                                        simd::batch<std::int32_t, 8>::iota(0), 4);
  random_leaves_every_width<KnnCase>(Bounds::tight);
  random_leaves_every_width<MinmaxDistCase>(Bounds::tight);
}

// ---- execution layers on leaves at two depths ------------------------------------
//
// 1,056 uniform points at leaf capacity 16 put the kd-tree's leaves at
// depths 6 and 7, so the SIMD layer's W-chunks mix leaf and internal tasks.
// A leaf task has no children (KdTree::kNoChild): expand_simd must read no
// child box for it, an out-of-bounds gather that an address-sanitized
// TASKBATCH_NATIVE=OFF build reports (its W = 4 gathers are plain loads).
// Every (policy × threshold preset) run of the SoA and SIMD layers must
// leave each program's results equal to its sequential recursion's.

struct TwoDepthTree {
  spatial::Bodies pts = spatial::Bodies::uniform_cube(1056, 26);
  spatial::KdTree tree = spatial::KdTree::build(pts, 16);
};

std::set<int> leaf_depths(const spatial::KdTree& tree) {
  std::set<int> depths;
  std::vector<std::pair<std::int32_t, int>> stack{{tree.root, 0}};
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    if (tree.is_leaf(node)) {
      depths.insert(depth);
      continue;
    }
    stack.emplace_back(tree.left[static_cast<std::size_t>(node)], depth + 1);
    stack.emplace_back(tree.right[static_cast<std::size_t>(node)], depth + 1);
  }
  return depths;
}

constexpr unsigned kBlockLayers = tbtest::kSoa | tbtest::kSimd;

TEST(KdQueryLayers, TreeHasLeavesAtTwoDepths) {
  const TwoDepthTree t;
  EXPECT_EQ(leaf_depths(t.tree), (std::set<int>{6, 7}));
}

TEST(KdQueryLayers, KnnMatchesSequential) {
  const TwoDepthTree t;
  KnnCase seq(t.pts, t.tree), run(t.pts, t.tree);
  apps::knn_sequential(seq.prog);
  const auto roots = run.prog.roots();
  for (const auto& th : tbtest::threshold_presets()) {
    SCOPED_TRACE(tbtest::threshold_name(th));
    tbtest::for_each_seq_result(
        run.prog, std::span<const apps::KnnProgram::Task>(roots), th, kBlockLayers,
        [&](std::uint64_t) { run.expect_same(seq); },
        [&] { run.state = apps::KnnState(t.pts.size(), seq.state.k()); });
  }
}

TEST(KdQueryLayers, PointCorrMatchesSequential) {
  const TwoDepthTree t;
  const PointCorrCase c(t.pts, t.tree);
  const std::uint64_t want = apps::pointcorr_sequential(c.prog);
  const auto roots = c.prog.roots();
  for (const auto& th : tbtest::threshold_presets()) {
    SCOPED_TRACE(tbtest::threshold_name(th));
    tbtest::for_each_seq_result(
        c.prog, std::span<const apps::PointCorrProgram::Task>(roots), th, kBlockLayers,
        [&](std::uint64_t got) { EXPECT_EQ(got, want); }, [] {});
  }
}

TEST(KdQueryLayers, MinmaxDistMatchesSequential) {
  const TwoDepthTree t;
  MinmaxDistCase seq(t.pts, t.tree), run(t.pts, t.tree);
  apps::minmaxdist_sequential(seq.prog);
  const auto roots = run.prog.roots();
  for (const auto& th : tbtest::threshold_presets()) {
    SCOPED_TRACE(tbtest::threshold_name(th));
    tbtest::for_each_seq_result(
        run.prog, std::span<const apps::MinmaxDistProgram::Task>(roots), th, kBlockLayers,
        [&](std::uint64_t) { run.expect_same(seq); },
        [&] { run.state = apps::MinmaxDistState(t.pts.size()); });
  }
}

}  // namespace
