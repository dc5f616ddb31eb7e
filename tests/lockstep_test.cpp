// Tests for the lockstep (data-parallel-only) traversal baseline: exact
// agreement with the recursive formulations where the model guarantees it
// (point-correlation counts, k-NN result lists, Barnes-Hut interaction
// fingerprints), force agreement within reassociation tolerance, engine
// statistics, and the divergence behaviour the paper's schedulers remove.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/barneshut.hpp"
#include "apps/knn.hpp"
#include "apps/pointcorr.hpp"
#include "lockstep/drivers.hpp"
#include "simd/dispatch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"
#include "spatial/octree.hpp"

namespace {

using namespace tb;
using lockstep::LockstepStats;

// ---- engine -------------------------------------------------------------------------
//
// The classic model is the blocked engine's masked mode (run_classic); these
// pin its walk on synthetic trees with a stateless kernel.

// What a synthetic walk saw, one entry per step.
struct WalkLog {
  std::vector<std::int32_t> nodes;
  std::vector<std::uint32_t> masks;
  std::vector<int> payloads;
};

// W=4 kernel over an inline tree: the 3-level perfect binary tree (nodes
// 0..6, children of v are 2v+1, 2v+2) or the chain 0 -> 1 -> 2.  The
// payload starts at 1 and doubles per level; the visit of `prune_at`
// returns a zero mask.
struct SyntheticKernel {
  using BI = simd::batch<std::int32_t, 4>;
  using Payload = int;
  static constexpr int width = 4;
  struct State {};

  WalkLog* log;
  std::int32_t n = 4;
  bool chain = false;
  std::int32_t prune_at = -1;

  std::int32_t root() const { return 0; }
  std::int32_t queries() const { return n; }
  static int root_payload() { return 1; }
  static int descend(int p) { return p * 2; }
  int children(std::int32_t node, std::int32_t* out) const {
    if (chain) {
      if (node >= 2) return 0;
      out[0] = node + 1;
      return 1;
    }
    if (node >= 3) return 0;
    out[0] = 2 * node + 1;
    out[1] = 2 * node + 2;
    return 2;
  }
  static State load(const BI&) { return {}; }
  static void flush(const BI&, State&, std::uint32_t) {}
  std::uint32_t step(std::int32_t node, const BI&, State&, std::uint32_t mask, int payload) {
    log->nodes.push_back(node);
    log->masks.push_back(mask);
    log->payloads.push_back(payload);
    return node == prune_at ? 0u : mask;
  }
};

TEST(LockstepEngine, VisitsEveryNodeOnceWithFullMask) {
  WalkLog log;
  lockstep::run_classic(SyntheticKernel{&log});
  EXPECT_EQ(log.nodes.size(), 7u);
  for (const std::uint32_t mask : log.masks) EXPECT_EQ(mask, 0xFu);
  // Depth-first, left child first.
  EXPECT_EQ(log.nodes, (std::vector<std::int32_t>{0, 1, 3, 4, 2, 5, 6}));
}

TEST(LockstepEngine, ZeroMaskPrunesSubtree) {
  WalkLog log;
  SyntheticKernel k{&log};
  k.prune_at = 1;  // kill the left subtree below node 1
  lockstep::run_classic(k);
  // Node 1's children (3, 4) are never visited.
  EXPECT_EQ(log.nodes, (std::vector<std::int32_t>{0, 1, 2, 5, 6}));
}

TEST(LockstepEngine, StatsCountLaneOccupancy) {
  WalkLog log;
  SyntheticKernel k{&log};
  k.n = 2;  // only 2 of 4 lanes live
  LockstepStats st;
  lockstep::run_classic(k, &st);
  for (const std::uint32_t mask : log.masks) EXPECT_EQ(mask, 0x3u);
  EXPECT_EQ(st.node_visits, 7u);
  EXPECT_EQ(st.lane_visits, 7u * 4u);
  EXPECT_EQ(st.active_lane_visits, 7u * 2u);
  EXPECT_DOUBLE_EQ(st.occupancy(), 0.5);
}

TEST(LockstepEngine, PayloadThreadsDownTheTraversal) {
  WalkLog log;
  SyntheticKernel k{&log};
  k.chain = true;
  lockstep::run_classic(k);
  EXPECT_EQ(log.payloads, (std::vector<int>{1, 2, 4}));
}

// ---- point correlation ----------------------------------------------------------------

class LockstepPointCorr : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LockstepPointCorr, CountMatchesRecursiveTraversal) {
  const std::size_t n = GetParam();
  const auto pts = spatial::Bodies::uniform_cube(n, /*seed=*/11);
  const auto tree = spatial::KdTree::build(pts, 16);
  const apps::PointCorrProgram prog{&pts, &tree, 0.03f};
  LockstepStats st;
  EXPECT_EQ(simd::kernels().lockstep_pointcorr(prog, &st), apps::pointcorr_sequential(prog));
  EXPECT_GT(st.node_visits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LockstepPointCorr,
                         ::testing::Values(1u, 7u, 64u, 500u, 3000u),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(LockstepPointCorrDetail, DivergenceShowsUpInOccupancy) {
  // Uniform points with a small radius: lanes prune different subtrees, so
  // occupancy sits strictly between the degenerate extremes.
  const auto pts = spatial::Bodies::uniform_cube(4000, 5);
  const auto tree = spatial::KdTree::build(pts, 16);
  const apps::PointCorrProgram prog{&pts, &tree, 0.01f};
  LockstepStats st;
  (void)simd::kernels().lockstep_pointcorr(prog, &st);
  EXPECT_GT(st.occupancy(), 0.05);
  EXPECT_LT(st.occupancy(), 0.95);
}

// ---- knn ----------------------------------------------------------------------------

class LockstepKnn : public ::testing::TestWithParam<int> {};

TEST_P(LockstepKnn, NeighborListsMatchRecursiveTraversal) {
  const int k = GetParam();
  const auto pts = spatial::Bodies::uniform_cube(1500, 23);
  const auto tree = spatial::KdTree::build(pts, 16);

  apps::KnnState seq_state(pts.size(), k);
  apps::KnnProgram seq_prog{&pts, &tree, &seq_state};
  apps::knn_sequential(seq_prog);

  apps::KnnState ls_state(pts.size(), k);
  apps::KnnProgram ls_prog{&pts, &tree, &ls_state};
  simd::kernels().lockstep_knn(ls_prog, nullptr);

  for (std::int32_t q = 0; q < static_cast<std::int32_t>(pts.size()); ++q) {
    const auto ls = ls_state.distances(q);
    const auto seq = seq_state.distances(q);
    ASSERT_EQ(ls.size(), seq.size()) << "query " << q;
    for (std::size_t i = 0; i < ls.size(); ++i) {
      EXPECT_EQ(ls[i], seq[i]) << "query " << q << " slot " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, LockstepKnn, ::testing::Values(1, 4, 8),
                         [](const auto& info) { return "k" + std::to_string(info.param); });

TEST(LockstepKnnDetail, MatchesBruteForce) {
  const auto pts = spatial::Bodies::uniform_cube(400, 31);
  const auto tree = spatial::KdTree::build(pts, 8);
  apps::KnnState state(pts.size(), 4);
  apps::KnnProgram prog{&pts, &tree, &state};
  simd::kernels().lockstep_knn(prog, nullptr);
  for (const std::int32_t q : {0, 57, 233, 399}) {
    const auto expect = apps::knn_bruteforce(pts, q, 4);
    const auto got = state.distances(q);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_FLOAT_EQ(got[i], expect[i]) << "query " << q << " rank " << i;
    }
  }
}

// ---- barnes-hut -----------------------------------------------------------------------

TEST(LockstepBarnesHut, InteractionFingerprintMatchesRecursive) {
  const auto bodies = spatial::Bodies::plummer(3000, 17);
  const auto tree = spatial::Octree::build(bodies, 8);
  const float theta = 0.5f;

  std::vector<float> ax(bodies.size(), 0), ay(bodies.size(), 0), az(bodies.size(), 0);
  apps::BarnesHutProgram prog{&bodies, &tree, ax.data(), ay.data(), az.data()};
  const std::uint64_t seq_interactions = apps::barneshut_sequential(prog, theta);

  std::vector<float> lx(bodies.size(), 0), ly(bodies.size(), 0), lz(bodies.size(), 0);
  apps::BarnesHutProgram ls_prog{&bodies, &tree, lx.data(), ly.data(), lz.data()};
  LockstepStats st;
  const std::uint64_t ls_interactions = simd::kernels().lockstep_barneshut(ls_prog, theta, &st);

  EXPECT_EQ(ls_interactions, seq_interactions);
  EXPECT_GT(st.node_visits, 0u);

  // Forces agree to reassociation tolerance.
  double max_rel = 0;
  for (std::size_t b = 0; b < bodies.size(); ++b) {
    const double mag = std::sqrt(static_cast<double>(ax[b]) * ax[b] +
                                 static_cast<double>(ay[b]) * ay[b] +
                                 static_cast<double>(az[b]) * az[b]);
    const double dx = static_cast<double>(lx[b]) - ax[b];
    const double dy = static_cast<double>(ly[b]) - ay[b];
    const double dz = static_cast<double>(lz[b]) - az[b];
    const double diff = std::sqrt(dx * dx + dy * dy + dz * dz);
    if (mag > 1e-6) max_rel = std::max(max_rel, diff / mag);
  }
  EXPECT_LT(max_rel, 1e-3);
}

TEST(LockstepBarnesHut, TighterThetaMeansMoreInteractions) {
  const auto bodies = spatial::Bodies::plummer(1200, 3);
  const auto tree = spatial::Octree::build(bodies, 8);
  std::vector<float> ax(bodies.size(), 0), ay(bodies.size(), 0), az(bodies.size(), 0);
  apps::BarnesHutProgram prog{&bodies, &tree, ax.data(), ay.data(), az.data()};
  const auto loose = simd::kernels().lockstep_barneshut(prog, 0.8f, nullptr);
  const auto tight = simd::kernels().lockstep_barneshut(prog, 0.3f, nullptr);
  EXPECT_GT(tight, loose);
}

// The forces as raw bits, x then y then z.
std::vector<std::uint32_t> force_bits(const std::vector<float>& x, const std::vector<float>& y,
                                      const std::vector<float>& z) {
  std::vector<std::uint32_t> bits;
  for (const std::vector<float>* v : {&x, &y, &z}) {
    for (const float f : *v) bits.push_back(std::bit_cast<std::uint32_t>(f));
  }
  return bits;
}

TEST(LockstepBarnesHut, SingleStrapOfBodies) {
  // Fewer bodies than the SIMD width: exercises the partial-lane path.  The
  // tree is a single leaf, so each lane sums the leaf in the recursion's
  // order, and classic and blocked t_reexp = 0 runs on every table match
  // the recursion's forces bit for bit.
  const auto bodies = spatial::Bodies::plummer(3, 9);
  const auto tree = spatial::Octree::build(bodies, 4);
  ASSERT_TRUE(tree.is_leaf(tree.root));
  std::vector<float> ax(3, 0), ay(3, 0), az(3, 0);
  apps::BarnesHutProgram prog{&bodies, &tree, ax.data(), ay.data(), az.data()};
  const std::uint64_t seq = apps::barneshut_sequential(prog, 0.5f);
  const std::vector<std::uint32_t> seq_bits = force_bits(ax, ay, az);
  int tables = 0;
  const simd::KernelTable* const* table = simd::available_tables(tables);
  for (int t = 0; t < tables; ++t) {
    SCOPED_TRACE(table[t]->name);
    for (const bool classic : {true, false}) {
      std::fill(ax.begin(), ax.end(), 0.0f);
      std::fill(ay.begin(), ay.end(), 0.0f);
      std::fill(az.begin(), az.end(), 0.0f);
      EXPECT_EQ(classic ? table[t]->lockstep_barneshut(prog, 0.5f, nullptr)
                        : table[t]->blocked_barneshut(prog, 0.5f, 0, nullptr),
                seq)
          << (classic ? "classic" : "blocked");
      EXPECT_EQ(force_bits(ax, ay, az), seq_bits) << (classic ? "classic" : "blocked");
    }
  }
}

}  // namespace
