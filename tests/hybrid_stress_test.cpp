// Stress suite for the hybrid vector×multicore executor, picked up by the
// weekly TSan soak (label `stress`, tsan-soak.yml): oversubscribed pools,
// repeated dynamic-partition runs (different steal interleavings each
// time), and the shared-mutable-state apps — knn's spinlocked k-best lists
// and atomic bounds, minmaxdist's CAS loops, Barnes-Hut's per-slot force
// sums and their once-per-run atomic hand-over — all driven through
// per-worker engines concurrently.  Each checks the apps' results, not only
// their counts: a race on Barnes-Hut's plain per-slot sums would corrupt
// forces and leave the interaction count intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

constexpr float kTheta = 0.5f;

// Per-body force accumulators for one Barnes-Hut run over the fixture.
struct Forces {
  std::vector<float> x, y, z;
  Forces() : x(kPoints, 0.0f), y(kPoints, 0.0f), z(kPoints, 0.0f) {}
  apps::BarnesHutProgram program() {
    return {&fix().bodies, &fix().octree, x.data(), y.data(), z.data()};
  }
};

// The largest per-body |f - ref| / |ref|.
double max_relative_error(const Forces& f, const Forces& ref) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.x.size(); ++i) {
    const double dx = double{f.x[i]} - ref.x[i], dy = double{f.y[i]} - ref.y[i],
                 dz = double{f.z[i]} - ref.z[i];
    const double norm = std::sqrt(double{ref.x[i]} * ref.x[i] + double{ref.y[i]} * ref.y[i] +
                                  double{ref.z[i]} * ref.z[i]);
    worst = std::max(worst, std::sqrt(dx * dx + dy * dy + dz * dz) / norm);
  }
  return worst;
}

// The sequential recursion's forces and interaction count.
struct BarnesHutOracle {
  Forces forces;
  std::uint64_t count = 0;
  BarnesHutOracle() { count = apps::barneshut_sequential(forces.program(), kTheta); }
};

constexpr double kForceTolerance = 1e-5;

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

// Many small ranges per slot under heavy stealing: each slot's kernel copy
// sums the forces of whichever ranges its worker runs, then hands them over
// once the pool has joined.
TEST(HybridStress, BarnesHutAtomicForceScatter) {
  const BarnesHutOracle oracle;
  rt::ForkJoinPool pool(kWorkers);
  for (int r = 0; r < kRepeats; ++r) {
    Forces forces;
    EXPECT_EQ(run_hybrid(pool, BarnesHutKernel<8>(forces.program(), kTheta), opts(32, 64)),
              oracle.count);
    EXPECT_LE(max_relative_error(forces, oracle.forces), kForceTolerance);
  }
}

// Frame-level donation under oversubscribed stealing: a huge grain keeps
// the range in a handful of pieces, so most workers are hungry and the
// loaded engines donate bottom frames continuously — concurrent donated
// subtrees hammer the same shared per-query state (knn spinlocks,
// minmaxdist CAS loops) from both sides, and split a body's Barnes-Hut
// interactions over several slots' sums, which the hand-over then adds.
TEST(HybridStress, DonationStormKeepsSharedStateCorrect) {
  auto& f = fix();
  rt::ForkJoinPool pool(kWorkers);
  const BarnesHutOracle bh_oracle;
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
    Forces bh_forces;
    EXPECT_EQ(run_hybrid(pool, BarnesHutKernel<8>(bh_forces.program(), kTheta),
                         opts(16, big_grain, true)),
              bh_oracle.count);
    EXPECT_LE(max_relative_error(bh_forces, bh_oracle.forces), kForceTolerance);
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
