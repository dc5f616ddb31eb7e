// Tests for the minmaxdist workload (apps/minmaxdist.hpp): brute-force
// agreement, the scheduler matrix (policies × layers) against the
// sequential oracle digest, the Cilk path, the classic lockstep kernel, the
// blocked engine, and degenerate instances.  The final per-query extremes
// are order-independent, so every comparison is exact (bit-identical state
// digests).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "apps/minmaxdist.hpp"
#include "core/driver.hpp"
#include "simd/dispatch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"
#include "tests/support/harness.hpp"

namespace {

using namespace tb;

struct Instance {
  spatial::Bodies pts;
  spatial::KdTree tree;
  explicit Instance(std::size_t n, std::uint64_t seed = 29, int leaf = 16)
      : pts(spatial::Bodies::uniform_cube(n, seed)), tree(spatial::KdTree::build(pts, leaf)) {}
};

std::string seq_digest(const Instance& inst) {
  apps::MinmaxDistState state(inst.pts.size());
  apps::MinmaxDistProgram prog{&inst.pts, &inst.tree, &state};
  apps::minmaxdist_sequential(prog);
  return apps::minmaxdist_digest(state);
}

TEST(MinmaxDist, SequentialMatchesBruteForce) {
  const Instance inst(400, 31, 8);
  apps::MinmaxDistState state(inst.pts.size());
  apps::MinmaxDistProgram prog{&inst.pts, &inst.tree, &state};
  apps::minmaxdist_sequential(prog);
  for (const std::int32_t q : {0, 57, 233, 399}) {
    const auto [mn, mx] = apps::minmaxdist_bruteforce(inst.pts, q);
    EXPECT_EQ(state.min_bound(q), mn) << "query " << q;
    EXPECT_EQ(state.max_bound(q), mx) << "query " << q;
  }
}

TEST(MinmaxDist, BoundsAreOrderedAndPositive) {
  const Instance inst(600, 7);
  apps::MinmaxDistState state(inst.pts.size());
  apps::MinmaxDistProgram prog{&inst.pts, &inst.tree, &state};
  apps::minmaxdist_sequential(prog);
  for (std::int32_t q = 0; q < static_cast<std::int32_t>(inst.pts.size()); ++q) {
    EXPECT_GT(state.min_bound(q), 0.0f);
    EXPECT_LE(state.min_bound(q), state.max_bound(q));
  }
}

TEST(MinmaxDist, SchedulerMatrixMatchesOracle) {
  const Instance inst(800, 11);
  const std::string expected = seq_digest(inst);
  for (const auto& th : tbtest::threshold_presets()) {
    SCOPED_TRACE(tbtest::threshold_name(th));
    apps::MinmaxDistState state(inst.pts.size());
    apps::MinmaxDistProgram prog{&inst.pts, &inst.tree, &state};
    const auto roots = prog.roots();
    tbtest::for_each_seq_result(
        prog, roots, th, tbtest::kAllLayers,
        [&](const auto&) { EXPECT_EQ(apps::minmaxdist_digest(state), expected); },
        [&] { state = apps::MinmaxDistState(inst.pts.size()); });
  }
}

TEST(MinmaxDist, ParallelSchedulersMatchOracle) {
  const Instance inst(800, 11);
  const std::string expected = seq_digest(inst);
  const auto th = core::Thresholds::for_block_size(apps::MinmaxDistProgram::simd_width,
                                                   256, 32);
  for (const int workers : tbtest::kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    rt::ForkJoinPool pool(workers);
    {
      apps::MinmaxDistState state(inst.pts.size());
      apps::MinmaxDistProgram prog{&inst.pts, &inst.tree, &state};
      const auto roots = prog.roots();
      (void)core::run_par_reexp<core::SimdExec<apps::MinmaxDistProgram>>(pool, prog, roots,
                                                                         th);
      EXPECT_EQ(apps::minmaxdist_digest(state), expected) << "reexp";
    }
    {
      apps::MinmaxDistState state(inst.pts.size());
      apps::MinmaxDistProgram prog{&inst.pts, &inst.tree, &state};
      const auto roots = prog.roots();
      (void)core::run_par_restart<core::SimdExec<apps::MinmaxDistProgram>>(pool, prog,
                                                                           roots, th);
      EXPECT_EQ(apps::minmaxdist_digest(state), expected) << "restart";
    }
    {
      apps::MinmaxDistState state(inst.pts.size());
      apps::MinmaxDistProgram prog{&inst.pts, &inst.tree, &state};
      (void)core::run_cilk(pool, prog, prog.roots());
      EXPECT_EQ(apps::minmaxdist_digest(state), expected) << "cilk";
    }
  }
}

TEST(MinmaxDist, LockstepAndBlockedMatchOracle) {
  const Instance inst(900, 3);
  const std::string expected = seq_digest(inst);
  {
    apps::MinmaxDistState state(inst.pts.size());
    apps::MinmaxDistProgram prog{&inst.pts, &inst.tree, &state};
    lockstep::LockstepStats ls;
    simd::kernels().lockstep_minmaxdist(prog, &ls);
    EXPECT_EQ(apps::minmaxdist_digest(state), expected);
    EXPECT_GT(ls.node_visits, 0u);
  }
  for (const std::size_t t_reexp : {std::size_t{0}, std::size_t{64}, std::size_t{1} << 30}) {
    SCOPED_TRACE("t_reexp=" + std::to_string(t_reexp));
    apps::MinmaxDistState state(inst.pts.size());
    apps::MinmaxDistProgram prog{&inst.pts, &inst.tree, &state};
    core::ExecStats st;
    simd::kernels().blocked_minmaxdist(prog, t_reexp, &st);
    EXPECT_EQ(apps::minmaxdist_digest(state), expected);
    EXPECT_GT(st.tasks_executed, 0u);
  }
}

TEST(MinmaxDist, DegenerateInstances) {
  {
    // A single point: no other point exists, the sentinels survive.
    const Instance inst(1, 5, 4);
    apps::MinmaxDistState state(1);
    apps::MinmaxDistProgram prog{&inst.pts, &inst.tree, &state};
    apps::minmaxdist_sequential(prog);
    EXPECT_EQ(state.min_bound(0), std::numeric_limits<float>::infinity());
    EXPECT_EQ(state.max_bound(0), -1.0f);
    // Blocked engine agrees on the degenerate digest.
    apps::MinmaxDistState state2(1);
    apps::MinmaxDistProgram prog2{&inst.pts, &inst.tree, &state2};
    simd::kernels().blocked_minmaxdist(prog2, 0, nullptr);
    EXPECT_EQ(apps::minmaxdist_digest(state2), apps::minmaxdist_digest(state));
  }
  {
    // Fewer points than the SIMD width: partial-lane paths everywhere.
    const Instance inst(3, 9, 4);
    apps::MinmaxDistState state(3);
    apps::MinmaxDistProgram prog{&inst.pts, &inst.tree, &state};
    simd::kernels().blocked_minmaxdist(prog, 0, nullptr);
    const std::string blocked = apps::minmaxdist_digest(state);
    EXPECT_EQ(seq_digest(inst), blocked);
  }
}

}  // namespace
