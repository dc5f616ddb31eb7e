// The kd-tree pruning rules at their boundaries.  Each program (knn,
// pointcorr, minmaxdist) states its descend rule once (apps/kdquery.hpp);
// these tests pin what that rule decides at a tie, inside a box and under
// the initial bounds, in all three forms a traversal evaluates it:
//   * scalar   — the children `expand` emits for one task;
//   * gathered — the children SimdExec::expand_into emits for a block of
//                the same tasks (one node per lane);
//   * broadcast — the lockstep kernel's `step` mask at the child node.
//
// Hand-placed instance: eight tree points in two unit squares on z = 0,
// built with leaf capacity 2, so the root's children are internal nodes
// with boxes L = [0,1]×[0,1]×{0} and R = [3,4]×[0,1]×{0}.  Two queries:
//   q0 = (2, 0.5, 0), midway: nearest-point distance² 1 to both boxes,
//        farthest-corner distance² 4.25 to both;
//   q1 = (0.5, 0.5, 0), inside L: near 0 / far 0.5 to L, near 6.25 /
//        far 12.5 to R.
// Every one of those values is exact in float.
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
#include <vector>

#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "core/program.hpp"
#include "lockstep/kernels.hpp"
#include "simd/batch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"
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
  spatial::Bodies queries = bodies({{2.0f, 0.5f, 0.0f}, {0.5f, 0.5f, 0.0f}});
  std::int32_t left = tree.left[static_cast<std::size_t>(tree.root)];
  std::int32_t right = tree.right[static_cast<std::size_t>(tree.root)];
};

// Which of the root's children query q0 and query q1 descend into.
struct Children {
  bool left, right;
};
using Want = std::array<Children, 2>;

// Lane l of a block or kernel batch carries query l % 2.
template <int W>
simd::batch<std::int32_t, W> alternating_queries() {
  simd::batch<std::int32_t, W> qid;
  for (int l = 0; l < W; ++l) qid.set(l, l % 2);
  return qid;
}

template <int W>
std::uint32_t want_mask(const Want& want, bool Children::*side) {
  std::uint32_t m = 0;
  for (int l = 0; l < W; ++l) m |= (want[static_cast<std::size_t>(l % 2)].*side ? 1u : 0u) << l;
  return m;
}

template <template <int> class Kernel, int W, class P>
void expect_lockstep(const Instance& inst, const P& prog, const Want& want) {
  SCOPED_TRACE("lockstep W=" + std::to_string(W));
  Kernel<W> k(prog);
  const auto qid = alternating_queries<W>();
  auto s = k.load(qid);
  constexpr std::uint32_t full = simd::mask_all<W>;
  EXPECT_EQ(k.step(inst.left, qid, s, full, 0), want_mask<W>(want, &Children::left));
  EXPECT_EQ(k.step(inst.right, qid, s, full, 0), want_mask<W>(want, &Children::right));
}

// Checks the rule's outcome for both queries at the root's children in the
// scalar, gathered and broadcast forms.
template <template <int> class Kernel, class P>
void expect_children(const Instance& inst, const P& prog, const Want& want) {
  using Task = typename P::Task;
  for (std::int32_t q = 0; q < 2; ++q) {
    SCOPED_TRACE("expand q" + std::to_string(q));
    std::vector<std::pair<int, std::int32_t>> got;
    prog.expand(Task{q, inst.tree.root}, [&](int slot, const Task& c) {
      EXPECT_EQ(c.query, q);
      got.emplace_back(slot, c.node);
    });
    std::vector<std::pair<int, std::int32_t>> expected;
    if (want[static_cast<std::size_t>(q)].left) expected.emplace_back(0, inst.left);
    if (want[static_cast<std::size_t>(q)].right) expected.emplace_back(1, inst.right);
    EXPECT_EQ(got, expected);
  }
  {
    SCOPED_TRACE("SimdExec::expand_into");
    constexpr int W = P::simd_width;
    typename P::Block in, out_left, out_right;
    for (std::int32_t l = 0; l < W; ++l) P::append_task(in, Task{l % 2, inst.tree.root});
    typename P::Result r = P::identity();
    std::uint64_t leaves = 0;
    core::SimdExec<P>::expand_into(prog, in, 0, in.size(), {&out_left, &out_right}, r, leaves);
    EXPECT_EQ(leaves, 0u);
    const auto expect_block = [&](const typename P::Block& out, bool Children::*side,
                                  std::int32_t node) {
      std::vector<std::int32_t> got, expected;
      for (std::size_t i = 0; i < out.size(); ++i) {
        const Task t = P::task_at(out, i);
        EXPECT_EQ(t.node, node);
        got.push_back(t.query);
      }
      for (std::int32_t l = 0; l < W; ++l) {
        if (want[static_cast<std::size_t>(l % 2)].*side) expected.push_back(l % 2);
      }
      EXPECT_EQ(got, expected);
    };
    expect_block(out_left, &Children::left, inst.left);
    expect_block(out_right, &Children::right, inst.right);
  }
  expect_lockstep<Kernel, 4>(inst, prog, want);
  expect_lockstep<Kernel, 8>(inst, prog, want);
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
  expect_children<lockstep::PointCorrKernel>(inst, prog, Want{{{true, true}, {true, false}}});
}

// Inside a box the distance is 0, which a zero radius still reaches.
TEST(KdQueryPruning, PointCorrQueryInsideBoxIsAtDistanceZero) {
  const Instance inst;
  const apps::PointCorrProgram prog{&inst.queries, &inst.tree, 0.0f};
  expect_children<lockstep::PointCorrKernel>(inst, prog, Want{{{false, false}, {true, false}}});
}

// knn needs a strictly nearer point: a box at exactly the k-th best
// distance cannot improve the list.
TEST(KdQueryPruning, KnnDoesNotDescendAtItsBound) {
  const Instance inst;
  apps::KnnState state(2, 1);
  state.offer(0, 100, 1.0f);   // q0: k-th best 1 = its distance to both boxes
  state.offer(1, 100, 6.25f);  // q1: k-th best 6.25 = its distance to R
  const apps::KnnProgram prog{&inst.queries, &inst.tree, &state};
  expect_children<lockstep::KnnKernel>(inst, prog, Want{{{false, false}, {true, false}}});
}

TEST(KdQueryPruning, KnnInitialBoundDescendsEverywhere) {
  const Instance inst;
  apps::KnnState state(2, 3);
  ASSERT_EQ(state.bound(0), kInf);
  const apps::KnnProgram prog{&inst.queries, &inst.tree, &state};
  expect_children<lockstep::KnnKernel>(inst, prog, Want{{{true, true}, {true, true}}});
}

// minmaxdist descends only where the box strictly improves an extreme:
// nearest point below the minimum, or farthest corner above the maximum.
TEST(KdQueryPruning, MinmaxDistDescendsOnlyOnStrictImprovement) {
  const Instance inst;
  {
    SCOPED_TRACE("ties on both extremes");
    apps::MinmaxDistState state(2);
    state.offer(0, 1.0f);  // q0: min 1, max 4.25 — both boxes tie on both
    state.offer(0, 4.25f);
    state.offer(1, 6.25f);  // q1: min 6.25, max 12.5 — R ties; L is nearer
    state.offer(1, 12.5f);
    const apps::MinmaxDistProgram prog{&inst.queries, &inst.tree, &state};
    expect_children<lockstep::MinmaxDistKernel>(inst, prog,
                                                Want{{{false, false}, {true, false}}});
  }
  {
    SCOPED_TRACE("min just above the near distance");
    apps::MinmaxDistState state(2);
    state.offer(0, std::nextafter(1.0f, kInf));
    state.offer(0, 4.25f);
    state.offer(1, std::nextafter(6.25f, kInf));
    state.offer(1, 12.5f);
    const apps::MinmaxDistProgram prog{&inst.queries, &inst.tree, &state};
    expect_children<lockstep::MinmaxDistKernel>(inst, prog, Want{{{true, true}, {true, true}}});
  }
  {
    SCOPED_TRACE("max just below the far distance");
    apps::MinmaxDistState state(2);
    state.offer(0, 1.0f);
    state.offer(0, std::nextafter(4.25f, 0.0f));
    state.offer(1, 6.25f);
    state.offer(1, std::nextafter(12.5f, 0.0f));
    const apps::MinmaxDistProgram prog{&inst.queries, &inst.tree, &state};
    expect_children<lockstep::MinmaxDistKernel>(inst, prog, Want{{{true, true}, {true, true}}});
  }
}

TEST(KdQueryPruning, MinmaxDistInitialBoundsDescendEverywhere) {
  const Instance inst;
  apps::MinmaxDistState state(2);
  ASSERT_EQ(state.min_bound(0), kInf);
  ASSERT_EQ(state.max_bound(0), -1.0f);
  const apps::MinmaxDistProgram prog{&inst.queries, &inst.tree, &state};
  expect_children<lockstep::MinmaxDistKernel>(inst, prog, Want{{{true, true}, {true, true}}});
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

}  // namespace
