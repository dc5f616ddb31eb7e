// Stress suite for the hybrid vector×multicore executor, picked up by the
// weekly TSan soak (label `stress`, tsan-soak.yml): oversubscribed pools,
// repeated dynamic-partition runs (different steal interleavings each
// time), and the shared-mutable-state apps — knn's spinlocked k-best lists
// and atomic bounds, minmaxdist's CAS loops, Barnes-Hut's atomic force
// scatter — all driven through per-worker engines concurrently.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/barneshut.hpp"
#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "core/driver.hpp"
#include "lockstep/drivers.hpp"
#include "lockstep/kernels.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"
#include "spatial/octree.hpp"

namespace {

using namespace tb;
using lockstep::BarnesHutKernel;
using lockstep::KnnKernel;
using lockstep::MinmaxDistKernel;
using lockstep::PointCorrKernel;
using lockstep::run_hybrid;

constexpr std::size_t kPoints = 4000;
constexpr int kWorkers = 8;  // oversubscribes typical CI hosts: steals mid-run
constexpr int kRepeats = 3;

struct Fixture {
  spatial::Bodies pts = spatial::Bodies::uniform_cube(kPoints, 41);
  spatial::KdTree kdtree = spatial::KdTree::build(pts, 16);
  spatial::Bodies bodies = spatial::Bodies::plummer(kPoints, 43);
  spatial::Octree octree = spatial::Octree::build(bodies, 8);
};

Fixture& fix() {
  static Fixture f;
  return f;
}

rt::HybridOptions opts(std::size_t t_reexp, std::int32_t grain, bool donation = false) {
  rt::HybridOptions o;
  o.t_reexp = t_reexp;
  o.grain = grain;  // small grain: many spawned ranges, heavy stealing
  o.donation = donation;
  return o;
}

TEST(HybridStress, PointCorrRepeatedDynamicRuns) {
  auto& f = fix();
  const apps::PointCorrProgram prog{&f.pts, &f.kdtree, 0.02f};
  const std::uint64_t expected = apps::pointcorr_sequential(prog);
  rt::ForkJoinPool pool(kWorkers);
  for (int r = 0; r < kRepeats; ++r) {
    for (const std::size_t t : {std::size_t{0}, std::size_t{32}}) {
      EXPECT_EQ(run_hybrid(pool, PointCorrKernel<8>(prog), opts(t, 64)), expected);
    }
  }
}

TEST(HybridStress, KnnSharedStateUnderStealing) {
  auto& f = fix();
  const int k = 4;
  apps::KnnState oracle(f.pts.size(), k);
  {
    apps::KnnProgram prog{&f.pts, &f.kdtree, &oracle};
    apps::knn_sequential(prog);
  }
  rt::ForkJoinPool pool(kWorkers);
  for (int r = 0; r < kRepeats; ++r) {
    apps::KnnState state(f.pts.size(), k);
    apps::KnnProgram prog{&f.pts, &f.kdtree, &state};
    run_hybrid(pool, KnnKernel<8>(prog), opts(16, 32));
    for (const std::int32_t q : {0, 999, 2500, 3999}) {
      EXPECT_EQ(state.distances(q), oracle.distances(q)) << "query " << q;
    }
  }
}

TEST(HybridStress, MinmaxDistCasLoopsUnderStealing) {
  auto& f = fix();
  apps::MinmaxDistState oracle(f.pts.size());
  {
    apps::MinmaxDistProgram prog{&f.pts, &f.kdtree, &oracle};
    apps::minmaxdist_sequential(prog);
  }
  const std::string expected = apps::minmaxdist_digest(oracle);
  rt::ForkJoinPool pool(kWorkers);
  for (int r = 0; r < kRepeats; ++r) {
    apps::MinmaxDistState state(f.pts.size());
    apps::MinmaxDistProgram prog{&f.pts, &f.kdtree, &state};
    run_hybrid(pool, MinmaxDistKernel<8>(prog), opts(16, 32));
    EXPECT_EQ(apps::minmaxdist_digest(state), expected);
  }
}

TEST(HybridStress, BarnesHutAtomicForceScatter) {
  auto& f = fix();
  const float theta = 0.5f;
  const std::size_t n = f.bodies.size();
  std::vector<float> ax(n, 0), ay(n, 0), az(n, 0);
  apps::BarnesHutProgram seq_prog{&f.bodies, &f.octree, ax.data(), ay.data(), az.data()};
  const std::uint64_t expected = apps::barneshut_sequential(seq_prog, theta);
  rt::ForkJoinPool pool(kWorkers);
  for (int r = 0; r < kRepeats; ++r) {
    std::vector<float> hx(n, 0), hy(n, 0), hz(n, 0);
    apps::BarnesHutProgram prog{&f.bodies, &f.octree, hx.data(), hy.data(), hz.data()};
    EXPECT_EQ(run_hybrid(pool, BarnesHutKernel<8>(prog, theta), opts(32, 64)), expected);
  }
}

// Frame-level donation under oversubscribed stealing: a huge grain keeps
// the range in a handful of pieces, so most workers are hungry and the
// loaded engines donate bottom frames continuously — concurrent donated
// subtrees hammer the same shared per-query state (knn spinlocks,
// minmaxdist CAS loops, Barnes-Hut atomic adds) from both sides.
TEST(HybridStress, DonationStormKeepsSharedStateCorrect) {
  auto& f = fix();
  rt::ForkJoinPool pool(kWorkers);
  const auto big_grain = static_cast<std::int32_t>(kPoints / 2);
  const apps::PointCorrProgram pc_prog{&f.pts, &f.kdtree, 0.02f};
  const std::uint64_t pc_expected = apps::pointcorr_sequential(pc_prog);
  apps::KnnState knn_oracle(f.pts.size(), 4);
  {
    apps::KnnProgram prog{&f.pts, &f.kdtree, &knn_oracle};
    apps::knn_sequential(prog);
  }
  apps::MinmaxDistState mmd_oracle(f.pts.size());
  {
    apps::MinmaxDistProgram prog{&f.pts, &f.kdtree, &mmd_oracle};
    apps::minmaxdist_sequential(prog);
  }
  const std::string mmd_expected = apps::minmaxdist_digest(mmd_oracle);
  for (int r = 0; r < kRepeats; ++r) {
    EXPECT_EQ(run_hybrid(pool, PointCorrKernel<8>(pc_prog), opts(16, big_grain, true)),
              pc_expected);
    apps::KnnState knn_state(f.pts.size(), 4);
    apps::KnnProgram knn_prog{&f.pts, &f.kdtree, &knn_state};
    run_hybrid(pool, KnnKernel<8>(knn_prog), opts(16, big_grain, true));
    for (const std::int32_t q : {0, 999, 2500, 3999}) {
      EXPECT_EQ(knn_state.distances(q), knn_oracle.distances(q)) << "query " << q;
    }
    apps::MinmaxDistState mmd_state(f.pts.size());
    apps::MinmaxDistProgram mmd_prog{&f.pts, &f.kdtree, &mmd_state};
    run_hybrid(pool, MinmaxDistKernel<8>(mmd_prog), opts(16, big_grain, true));
    EXPECT_EQ(apps::minmaxdist_digest(mmd_state), mmd_expected);
  }
}

// Mixed W=4/W=8 hybrid runs interleaved on one pool — engine contexts are
// per-invocation, so alternating widths must not interfere.
TEST(HybridStress, AlternatingLaneWidths) {
  auto& f = fix();
  const apps::PointCorrProgram prog{&f.pts, &f.kdtree, 0.02f};
  const std::uint64_t expected = apps::pointcorr_sequential(prog);
  rt::ForkJoinPool pool(kWorkers);
  for (int r = 0; r < kRepeats; ++r) {
    EXPECT_EQ(run_hybrid(pool, PointCorrKernel<4>(prog), opts(8, 48)), expected);
    EXPECT_EQ(run_hybrid(pool, PointCorrKernel<8>(prog), opts(8, 48)), expected);
  }
}

}  // namespace
