// Tests for the block-size auto-tuner (core/autotune.hpp): search-space
// coverage, clamping, report consistency, policy coverage, and the
// correctness guarantee that tuned thresholds change only performance,
// never results.  The hybrid-executor tuner (autotune_hybrid) is pinned the
// same way: grid coverage, candidate propagation, winner reproducibility
// under the deterministic utilization objective, and result preservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "apps/fib.hpp"
#include "apps/knapsack.hpp"
#include "apps/pointcorr.hpp"
#include "core/autotune.hpp"
#include "core/driver.hpp"
#include "lockstep/drivers.hpp"
#include "lockstep/kernels.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"

namespace {

using namespace tb;
using core::SeqPolicy;
using core::TuneOptions;
using core::TuneReport;

using FibExec = core::SimdExec<apps::FibProgram>;

TuneOptions small_search(SeqPolicy policy = SeqPolicy::Restart) {
  TuneOptions opts;
  opts.q = 8;
  opts.policy = policy;
  opts.min_block = 8;
  opts.max_block = 1u << 10;
  opts.reps = 1;
  return opts;
}

TEST(Autotune, CoarsePassCoversPowerOfTwoGrid) {
  const apps::FibProgram prog;
  const std::vector roots{apps::FibProgram::root(20)};
  TuneOptions opts = small_search();
  opts.refine = false;
  const TuneReport rep = core::autotune_block_size<FibExec>(prog, roots, opts);
  std::vector<std::size_t> blocks;
  for (const auto& s : rep.samples) blocks.push_back(s.t_dfe);
  for (std::size_t b = 8; b <= (1u << 10); b *= 2) {
    EXPECT_NE(std::find(blocks.begin(), blocks.end(), b), blocks.end())
        << "missing block size " << b;
  }
  EXPECT_EQ(blocks.size(), 8u);  // 2^3 .. 2^10
}

TEST(Autotune, BestIsArgminOfSamples) {
  const apps::FibProgram prog;
  const std::vector roots{apps::FibProgram::root(20)};
  const TuneReport rep = core::autotune_block_size<FibExec>(prog, roots, small_search());
  ASSERT_FALSE(rep.samples.empty());
  double min_seconds = 1e100;
  for (const auto& s : rep.samples) min_seconds = std::min(min_seconds, s.seconds);
  EXPECT_DOUBLE_EQ(rep.best_seconds, min_seconds);
  bool best_in_samples = false;
  for (const auto& s : rep.samples) {
    if (s.t_dfe == rep.best.t_dfe && s.seconds == rep.best_seconds) best_in_samples = true;
  }
  EXPECT_TRUE(best_in_samples);
}

TEST(Autotune, RefinementAddsOffGridCandidates) {
  const apps::FibProgram prog;
  const std::vector roots{apps::FibProgram::root(20)};
  TuneOptions opts = small_search();
  opts.refine = true;
  const TuneReport rep = core::autotune_block_size<FibExec>(prog, roots, opts);
  // 8 coarse samples plus up to 2 refinement probes.
  EXPECT_GE(rep.samples.size(), 9u);
  EXPECT_LE(rep.samples.size(), 10u);
  bool has_off_grid = false;
  for (const auto& s : rep.samples) {
    if ((s.t_dfe & (s.t_dfe - 1)) != 0) has_off_grid = true;
  }
  EXPECT_TRUE(has_off_grid);
}

TEST(Autotune, RespectsSearchRange) {
  const apps::FibProgram prog;
  const std::vector roots{apps::FibProgram::root(18)};
  TuneOptions opts = small_search();
  opts.min_block = 32;
  opts.max_block = 256;
  const TuneReport rep = core::autotune_block_size<FibExec>(prog, roots, opts);
  for (const auto& s : rep.samples) {
    EXPECT_GE(s.t_dfe, 32u);
    EXPECT_LE(s.t_dfe, 256u);
  }
  EXPECT_GE(rep.best.t_dfe, 32u);
  EXPECT_LE(rep.best.t_dfe, 256u);
}

TEST(Autotune, DefaultMinBlockIsQ) {
  const apps::FibProgram prog;
  const std::vector roots{apps::FibProgram::root(16)};
  TuneOptions opts = small_search();
  opts.min_block = 0;  // default: Q
  opts.max_block = 64;
  opts.refine = false;
  const TuneReport rep = core::autotune_block_size<FibExec>(prog, roots, opts);
  ASSERT_FALSE(rep.samples.empty());
  EXPECT_EQ(rep.samples.front().t_dfe, 8u);
}

TEST(Autotune, SamplesCarryUtilizationAndSpace) {
  const apps::FibProgram prog;
  const std::vector roots{apps::FibProgram::root(20)};
  const TuneReport rep = core::autotune_block_size<FibExec>(prog, roots, small_search());
  for (const auto& s : rep.samples) {
    EXPECT_GT(s.seconds, 0.0);
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.0);
    EXPECT_GT(s.peak_space_tasks, 0u);
    EXPECT_GE(s.t_restart, 1u);
    EXPECT_LE(s.t_restart, s.t_dfe);
  }
  // Larger blocks never *reduce* utilization on fib (monotone in practice);
  // check the endpoints rather than full monotonicity to avoid flakiness.
  const auto& first = rep.samples.front();
  double best_util = 0;
  for (const auto& s : rep.samples) best_util = std::max(best_util, s.utilization);
  EXPECT_GE(best_util, first.utilization);
}

TEST(Autotune, WorksForAllPolicies) {
  const apps::FibProgram prog;
  const std::vector roots{apps::FibProgram::root(18)};
  for (const auto policy : {SeqPolicy::Basic, SeqPolicy::Reexp, SeqPolicy::Restart}) {
    SCOPED_TRACE(core::to_string(policy));
    const TuneReport rep =
        core::autotune_block_size<FibExec>(prog, roots, small_search(policy));
    EXPECT_FALSE(rep.samples.empty());
    EXPECT_GT(rep.best.t_dfe, 0u);
  }
}

TEST(Autotune, TunedThresholdsPreserveResults) {
  const auto inst = apps::KnapsackInstance::random(18, 7);
  apps::KnapsackProgram prog{&inst};
  const std::vector roots{prog.root()};
  using Exec = core::SimdExec<apps::KnapsackProgram>;
  TuneOptions opts = small_search();
  opts.q = apps::KnapsackProgram::simd_width;
  const TuneReport rep = core::autotune_block_size<Exec>(prog, roots, opts);
  const auto tuned =
      core::run_seq<Exec>(prog, roots, SeqPolicy::Restart, rep.best);
  const auto reference = core::run_seq<Exec>(
      prog, roots, SeqPolicy::Restart, core::Thresholds::for_block_size(opts.q, 64, 8));
  EXPECT_EQ(tuned.leaves, reference.leaves);
  EXPECT_EQ(tuned.best, reference.best);
}

TEST(Autotune, ReportRendersSampleTable) {
  const apps::FibProgram prog;
  const std::vector roots{apps::FibProgram::root(16)};
  const TuneReport rep = core::autotune_block_size<FibExec>(prog, roots, small_search());
  const std::string text = rep.to_string();
  EXPECT_NE(text.find("t_dfe"), std::string::npos);
  EXPECT_NE(text.find("<-- best"), std::string::npos);
}

// ---- hybrid-executor tuner ----------------------------------------------------------

TEST(AutotuneHybrid, SweepsThresholdGridCrossGrains) {
  // Synthetic run function: records every candidate and reports a synthetic
  // utilization that peaks at (t_reexp=16, grain=4).
  std::vector<std::pair<std::size_t, std::int32_t>> evaluated;
  const auto run = [&](const tb::rt::HybridOptions& o, core::PerWorkerStats* pw) {
    evaluated.emplace_back(o.t_reexp, o.grain);
    EXPECT_TRUE(o.static_partition);  // opts below request it
    pw->reset(1);
    pw->workers[0].steps_total = 100;
    pw->workers[0].steps_complete = (o.t_reexp == 16 && o.grain == 4) ? 90 : 10;
  };
  core::HybridTuneOptions opts;
  opts.q = 8;
  opts.reps = 1;
  opts.max_reexp = 64;
  opts.grains = {0, 4};
  opts.static_partition = true;
  opts.objective = core::HybridTuneObjective::Utilization;
  const core::HybridTuneReport rep = core::autotune_hybrid(run, opts);
  // Thresholds 0, 8, 16, 32, 64 × grains {0, 4}, in fixed order.
  const std::vector<std::pair<std::size_t, std::int32_t>> want = {
      {0, 0}, {0, 4}, {8, 0}, {8, 4}, {16, 0}, {16, 4}, {32, 0}, {32, 4}, {64, 0}, {64, 4}};
  EXPECT_EQ(evaluated, want);
  EXPECT_EQ(rep.samples.size(), want.size());
  EXPECT_EQ(rep.best.t_reexp, 16u);
  EXPECT_EQ(rep.best.grain, 4);
  EXPECT_TRUE(rep.best.static_partition);
  EXPECT_DOUBLE_EQ(rep.best_utilization, 0.9);
}

TEST(AutotuneHybrid, TimeObjectiveTracksSampleMinimum) {
  const auto run = [&](const tb::rt::HybridOptions&, core::PerWorkerStats* pw) {
    pw->reset(1);
  };
  core::HybridTuneOptions opts;
  opts.q = 8;
  opts.reps = 1;
  opts.max_reexp = 32;
  const core::HybridTuneReport rep = core::autotune_hybrid(run, opts);
  ASSERT_FALSE(rep.samples.empty());
  double min_seconds = 1e100;
  for (const auto& s : rep.samples) min_seconds = std::min(min_seconds, s.seconds);
  EXPECT_DOUBLE_EQ(rep.best_seconds, min_seconds);
}

// The acceptance claim: under the deterministic objective (utilization,
// static partition) on the actual hybrid executor, the winner is a pure
// function of the workload — two sweeps over a fixed root set agree on the
// winning options AND every sample's utilization bit-exactly.
TEST(AutotuneHybrid, UtilizationWinnerIsReproducibleOnRealExecutor) {
  const auto pts = spatial::Bodies::uniform_cube(1200, 29);
  const auto tree = spatial::KdTree::build(pts, 16);
  const apps::PointCorrProgram prog{&pts, &tree, 0.03f};
  rt::ForkJoinPool pool(3);
  core::HybridTuneOptions opts;
  opts.q = 8;
  opts.reps = 1;
  opts.max_reexp = 128;
  opts.static_partition = true;
  opts.objective = core::HybridTuneObjective::Utilization;
  const auto sweep = [&] {
    return core::autotune_hybrid(
        [&](const tb::rt::HybridOptions& o, core::PerWorkerStats* pw) {
          (void)lockstep::run_hybrid(pool, lockstep::PointCorrKernel<8>(prog), o, pw);
        },
        opts);
  };
  const core::HybridTuneReport a = sweep();
  const core::HybridTuneReport b = sweep();
  EXPECT_EQ(a.best.t_reexp, b.best.t_reexp);
  EXPECT_EQ(a.best.grain, b.best.grain);
  EXPECT_DOUBLE_EQ(a.best_utilization, b.best_utilization);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples[i].utilization, b.samples[i].utilization) << "sample " << i;
  }
}

TEST(AutotuneHybrid, TunedOptionsPreserveResults) {
  const auto pts = spatial::Bodies::uniform_cube(1000, 31);
  const auto tree = spatial::KdTree::build(pts, 16);
  const apps::PointCorrProgram prog{&pts, &tree, 0.04f};
  const std::uint64_t expected = apps::pointcorr_sequential(prog);
  rt::ForkJoinPool pool(2);
  core::HybridTuneOptions opts;
  opts.q = 8;
  opts.reps = 1;
  opts.max_reexp = 64;
  const core::HybridTuneReport rep = core::autotune_hybrid(
      [&](const tb::rt::HybridOptions& o, core::PerWorkerStats* pw) {
        (void)lockstep::run_hybrid(pool, lockstep::PointCorrKernel<8>(prog), o, pw);
      },
      opts);
  EXPECT_EQ(lockstep::run_hybrid(pool, lockstep::PointCorrKernel<8>(prog), rep.best), expected);
  const std::string text = rep.to_string();
  EXPECT_NE(text.find("t_reexp"), std::string::npos);
  EXPECT_NE(text.find("<-- best"), std::string::npos);
}

}  // namespace
