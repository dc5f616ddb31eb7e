// Tests for the spatial substrate (octree, kd-tree, generators) and the
// three tree-traversal benchmarks (Barnes-Hut, point correlation, k-NN),
// checked against brute-force oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "apps/barneshut.hpp"
#include "apps/knn.hpp"
#include "apps/pointcorr.hpp"
#include "core/driver.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"
#include "spatial/octree.hpp"
#include "tests/support/harness.hpp"

namespace {

using namespace tb;
using core::SeqPolicy;
using core::Thresholds;
using tbtest::for_each_policy;

// ---- generators ---------------------------------------------------------------

TEST(Bodies, UniformCubeInRange) {
  const auto b = spatial::Bodies::uniform_cube(500, 3);
  ASSERT_EQ(b.size(), 500u);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_GE(b.x[i], -1.0f);
    EXPECT_LE(b.x[i], 1.0f);
    EXPECT_GT(b.mass[i], 0.0f);
  }
}

TEST(Bodies, PlummerIsClusteredAndTruncated) {
  const auto b = spatial::Bodies::plummer(2000, 5);
  double mean_r = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double r = std::sqrt(static_cast<double>(b.x[i]) * b.x[i] +
                               static_cast<double>(b.y[i]) * b.y[i] +
                               static_cast<double>(b.z[i]) * b.z[i]);
    EXPECT_LE(r, 16.001);
    mean_r += r;
  }
  mean_r /= static_cast<double>(b.size());
  // Plummer half-mass radius ≈ 1.3; the truncated mean stays small.
  EXPECT_LT(mean_r, 4.0);
  EXPECT_GT(mean_r, 0.5);
}

TEST(Bodies, GeneratorsAreDeterministic) {
  const auto a = spatial::Bodies::plummer(100, 9);
  const auto b = spatial::Bodies::plummer(100, 9);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.x[i], b.x[i]);
}

// ---- octree --------------------------------------------------------------------

TEST(Octree, EveryBodyInExactlyOneLeaf) {
  const auto b = spatial::Bodies::uniform_cube(777, 4);
  const auto t = spatial::Octree::build(b, 8);
  std::vector<int> seen(b.size(), 0);
  for (int n = 0; n < t.num_nodes(); ++n) {
    if (!t.is_leaf(n)) continue;
    for (std::int32_t j = t.leaf_begin[static_cast<std::size_t>(n)];
         j < t.leaf_end[static_cast<std::size_t>(n)]; ++j) {
      seen[static_cast<std::size_t>(t.body_index[static_cast<std::size_t>(j)])] += 1;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1) << "body " << i;
}

TEST(Octree, RootAggregatesTotalMass) {
  const auto b = spatial::Bodies::uniform_cube(1000, 5);
  const auto t = spatial::Octree::build(b, 4);
  float total = 0;
  for (std::size_t i = 0; i < b.size(); ++i) total += b.mass[i];
  EXPECT_NEAR(t.mass[static_cast<std::size_t>(t.root)], total, 1e-3f);
}

TEST(Octree, ChildCellsHalveTheWidth) {
  const auto b = spatial::Bodies::uniform_cube(512, 6);
  const auto t = spatial::Octree::build(b, 4);
  for (int n = 0; n < t.num_nodes(); ++n) {
    for (const auto c : t.children[static_cast<std::size_t>(n)]) {
      if (c != spatial::Octree::kNoChild) {
        EXPECT_FLOAT_EQ(t.half[static_cast<std::size_t>(c)],
                        t.half[static_cast<std::size_t>(n)] * 0.5f);
      }
    }
  }
}

TEST(Octree, SingleBodyTree) {
  spatial::Bodies b;
  b.resize(1);
  b.x[0] = b.y[0] = b.z[0] = 0.25f;
  b.mass[0] = 2.0f;
  const auto t = spatial::Octree::build(b, 8);
  EXPECT_TRUE(t.is_leaf(t.root));
  EXPECT_FLOAT_EQ(t.mass[static_cast<std::size_t>(t.root)], 2.0f);
}

// ---- kd-tree -------------------------------------------------------------------

TEST(KdTree, LeavesPartitionThePoints) {
  const auto p = spatial::Bodies::uniform_cube(900, 8);
  const auto t = spatial::KdTree::build(p, 16);
  std::vector<int> seen(p.size(), 0);
  for (int n = 0; n < t.num_nodes(); ++n) {
    if (!t.is_leaf(n)) continue;
    for (std::int32_t j = t.leaf_begin[static_cast<std::size_t>(n)];
         j < t.leaf_end[static_cast<std::size_t>(n)]; ++j) {
      seen[static_cast<std::size_t>(t.point_index[static_cast<std::size_t>(j)])] += 1;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1);
}

TEST(KdTree, BoundingBoxesContainTheirPoints) {
  const auto p = spatial::Bodies::uniform_cube(300, 9);
  const auto t = spatial::KdTree::build(p, 8);
  for (int n = 0; n < t.num_nodes(); ++n) {
    if (!t.is_leaf(n)) continue;
    const auto i = static_cast<std::size_t>(n);
    for (std::int32_t j = t.leaf_begin[i]; j < t.leaf_end[i]; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      EXPECT_GE(t.px[jj], t.min_x[i]);
      EXPECT_LE(t.px[jj], t.max_x[i]);
      EXPECT_GE(t.py[jj], t.min_y[i]);
      EXPECT_LE(t.py[jj], t.max_y[i]);
      EXPECT_GE(t.pz[jj], t.min_z[i]);
      EXPECT_LE(t.pz[jj], t.max_z[i]);
    }
  }
}

TEST(KdTree, BoxDistZeroInsideBox) {
  const auto p = spatial::Bodies::uniform_cube(100, 10);
  const auto t = spatial::KdTree::build(p, 8);
  EXPECT_FLOAT_EQ(spatial::near_dist2(t.box(t.root), {0.0f, 0.0f, 0.0f}), 0.0f);
  // A faraway point has a positive distance to the root box.
  EXPECT_GT(spatial::near_dist2(t.box(t.root), {100.0f, 0.0f, 0.0f}), 0.0f);
}

// ---- point correlation -----------------------------------------------------------

TEST(PointCorr, MatchesBruteForce) {
  const auto p = spatial::Bodies::uniform_cube(600, 11);
  const auto t = spatial::KdTree::build(p, 16);
  apps::PointCorrProgram prog{&p, &t, 0.05f};
  EXPECT_EQ(apps::pointcorr_sequential(prog), apps::pointcorr_bruteforce(p, 0.05f));
}

TEST(PointCorr, AllSchedulerVariantsMatchBruteForce) {
  const auto p = spatial::Bodies::uniform_cube(400, 12);
  const auto t = spatial::KdTree::build(p, 8);
  apps::PointCorrProgram prog{&p, &t, 0.08f};
  const auto roots = prog.roots();
  const std::uint64_t expected = apps::pointcorr_bruteforce(p, 0.08f);
  tbtest::expect_seq_matrix(prog, roots, Thresholds{8, 256, 128, 32}, expected);
}

TEST(PointCorr, ParallelSchedulersMatch) {
  rt::ForkJoinPool pool(4);
  const auto p = spatial::Bodies::plummer(500, 13);
  const auto t = spatial::KdTree::build(p, 16);
  apps::PointCorrProgram prog{&p, &t, 0.2f};
  const auto roots = prog.roots();
  const std::uint64_t expected = apps::pointcorr_bruteforce(p, 0.2f);
  const Thresholds th{8, 256, 128, 32};
  EXPECT_EQ(core::run_par_reexp<core::SimdExec<apps::PointCorrProgram>>(pool, prog, roots, th),
            expected);
  EXPECT_EQ(core::run_par_restart<core::SimdExec<apps::PointCorrProgram>>(pool, prog, roots, th),
            expected);
  EXPECT_EQ(core::run_cilk(pool, prog, roots), expected);
}

// ---- Barnes-Hut -----------------------------------------------------------------

// Brute-force O(n^2) forces with the same softening.
void brute_forces(const spatial::Bodies& b, float eps2, std::vector<float>& fx,
                  std::vector<float>& fy, std::vector<float>& fz) {
  const std::size_t n = b.size();
  fx.assign(n, 0);
  fy.assign(n, 0);
  fz.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const float dx = b.x[j] - b.x[i];
      const float dy = b.y[j] - b.y[i];
      const float dz = b.z[j] - b.z[i];
      const float r2 = dx * dx + dy * dy + dz * dz + eps2;
      const float inv = 1.0f / std::sqrt(r2);
      const float f = b.mass[j] * inv * inv * inv;
      fx[i] += f * dx;
      fy[i] += f * dy;
      fz[i] += f * dz;
    }
  }
}

struct BhSetup {
  spatial::Bodies bodies;
  spatial::Octree tree;
  std::vector<float> ax, ay, az;
  apps::BarnesHutProgram prog;

  explicit BhSetup(std::size_t n, std::uint64_t seed)
      : bodies(spatial::Bodies::plummer(n, seed)),
        tree(spatial::Octree::build(bodies, 8)),
        ax(n, 0),
        ay(n, 0),
        az(n, 0),
        prog{&bodies, &tree, ax.data(), ay.data(), az.data()} {}

  void reset() {
    std::fill(ax.begin(), ax.end(), 0.0f);
    std::fill(ay.begin(), ay.end(), 0.0f);
    std::fill(az.begin(), az.end(), 0.0f);
  }
};

TEST(BarnesHut, ApproximatesBruteForce) {
  BhSetup s(800, 21);
  const float theta = 0.5f;
  (void)apps::barneshut_sequential(s.prog, theta);
  std::vector<float> bx, by, bz;
  brute_forces(s.bodies, s.prog.eps2, bx, by, bz);
  double err = 0, norm = 0;
  for (std::size_t i = 0; i < s.bodies.size(); ++i) {
    const double dx = s.ax[i] - bx[i];
    const double dy = s.ay[i] - by[i];
    const double dz = s.az[i] - bz[i];
    err += dx * dx + dy * dy + dz * dz;
    norm += static_cast<double>(bx[i]) * bx[i] + static_cast<double>(by[i]) * by[i] +
            static_cast<double>(bz[i]) * bz[i];
  }
  // Relative RMS force error for theta=0.5 is well under a few percent.
  EXPECT_LT(std::sqrt(err / norm), 0.05);
}

TEST(BarnesHut, InteractionFingerprintIdenticalAcrossVariants) {
  BhSetup s(500, 22);
  const float theta = 0.6f;
  const std::uint64_t expected = apps::barneshut_sequential(s.prog, theta);
  const auto roots = s.prog.roots(theta);
  tbtest::expect_seq_matrix(s.prog, roots, Thresholds{8, 256, 128, 32}, expected,
                            tbtest::kAllLayers, [&] { s.reset(); });
}

// Every task-block layer (AoS, SoA, SIMD) under every policy takes the
// recursion's interactions, in its own summation order, so each body's
// force stays within 1e-5 of the recursion's, relative to its norm (the
// bound of DispatchEquivalence.BarnesHut).
TEST(BarnesHut, BlockedForcesMatchSequentialTraversal) {
  BhSetup s(600, 23);
  const float theta = 0.5f;
  const std::uint64_t expected = apps::barneshut_sequential(s.prog, theta);
  const std::vector<float> ref_x = s.ax, ref_y = s.ay, ref_z = s.az;
  const auto roots = s.prog.roots(theta);
  tbtest::for_each_seq_result(
      s.prog, roots, Thresholds{8, 512, 256, 64}, tbtest::kAllLayers,
      [&](std::uint64_t r) {
        EXPECT_EQ(r, expected);
        double worst = 0.0;
        for (std::size_t i = 0; i < s.bodies.size(); ++i) {
          const double dx = double{s.ax[i]} - ref_x[i], dy = double{s.ay[i]} - ref_y[i],
                       dz = double{s.az[i]} - ref_z[i];
          const double norm = std::sqrt(double{ref_x[i]} * ref_x[i] +
                                        double{ref_y[i]} * ref_y[i] + double{ref_z[i]} * ref_z[i]);
          worst = std::max(worst, std::sqrt(dx * dx + dy * dy + dz * dz) / norm);
        }
        EXPECT_LE(worst, 1e-5);
      },
      [&] { s.reset(); });
}

TEST(BarnesHut, ParallelSchedulersKeepFingerprint) {
  rt::ForkJoinPool pool(4);
  BhSetup s(400, 24);
  const float theta = 0.6f;
  const std::uint64_t expected = apps::barneshut_sequential(s.prog, theta);
  const auto roots = s.prog.roots(theta);
  const Thresholds th{8, 256, 128, 32};
  s.reset();
  EXPECT_EQ(
      core::run_par_reexp<core::SimdExec<apps::BarnesHutProgram>>(pool, s.prog, roots, th),
      expected);
  s.reset();
  EXPECT_EQ(
      core::run_par_restart<core::SimdExec<apps::BarnesHutProgram>>(pool, s.prog, roots, th),
      expected);
  s.reset();
  EXPECT_EQ(core::run_cilk(pool, s.prog, roots), expected);
}

// ---- knn ------------------------------------------------------------------------

TEST(Knn, SequentialMatchesBruteForce) {
  const auto p = spatial::Bodies::uniform_cube(500, 31);
  const auto t = spatial::KdTree::build(p, 16);
  const int k = 4;
  apps::KnnState state(p.size(), k);
  apps::KnnProgram prog{&p, &t, &state};
  apps::knn_sequential(prog);
  for (std::int32_t q = 0; q < 50; ++q) {
    const auto got = state.distances(q);
    const auto want = apps::knn_bruteforce(p, q, k);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-6f) << "query " << q << " rank " << i;
    }
  }
}

TEST(Knn, AllSchedulerVariantsFindTheNeighbors) {
  const auto p = spatial::Bodies::plummer(400, 32);
  const auto t = spatial::KdTree::build(p, 8);
  const int k = 3;
  const Thresholds th{8, 256, 128, 32};
  for_each_policy([&](SeqPolicy pol) {
    apps::KnnState state(p.size(), k);
    apps::KnnProgram prog{&p, &t, &state};
    const auto roots = prog.roots();
    (void)core::run_seq<core::SimdExec<apps::KnnProgram>>(prog, roots, pol, th);
    for (std::int32_t q = 0; q < static_cast<std::int32_t>(p.size()); q += 17) {
      const auto got = state.distances(q);
      const auto want = apps::knn_bruteforce(p, q, k);
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_NEAR(got[i], want[i], 1e-6f) << "query " << q << " rank " << i;
      }
    }
  });
}

TEST(Knn, ParallelSchedulersFindTheNeighbors) {
  rt::ForkJoinPool pool(4);
  const auto p = spatial::Bodies::uniform_cube(300, 33);
  const auto t = spatial::KdTree::build(p, 8);
  const int k = 4;
  apps::KnnState state(p.size(), k);
  apps::KnnProgram prog{&p, &t, &state};
  const auto roots = prog.roots();
  const Thresholds th{8, 128, 64, 16};
  (void)core::run_par_restart<core::SimdExec<apps::KnnProgram>>(pool, prog, roots, th);
  for (std::int32_t q = 0; q < static_cast<std::int32_t>(p.size()); q += 11) {
    const auto got = state.distances(q);
    const auto want = apps::knn_bruteforce(p, q, k);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-6f) << "query " << q << " rank " << i;
    }
  }
}

TEST(Knn, CilkVariantFindsTheNeighbors) {
  rt::ForkJoinPool pool(4);
  const auto p = spatial::Bodies::uniform_cube(250, 34);
  const auto t = spatial::KdTree::build(p, 8);
  apps::KnnState state(p.size(), 2);
  apps::KnnProgram prog{&p, &t, &state};
  (void)core::run_cilk(pool, prog, prog.roots());
  for (std::int32_t q = 0; q < static_cast<std::int32_t>(p.size()); q += 13) {
    const auto got = state.distances(q);
    const auto want = apps::knn_bruteforce(p, q, 2);
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-6f);
  }
}

}  // namespace
