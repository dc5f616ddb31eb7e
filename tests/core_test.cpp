// Integration tests for the task-block scheduling framework: every policy ×
// every execution layer × worker count × threshold preset must reproduce the
// sequential-recursion oracle, and the recorded statistics must satisfy the
// structural claims of §4.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/binomial.hpp"
#include "apps/fib.hpp"
#include "apps/knapsack.hpp"
#include "apps/parentheses.hpp"
#include "core/driver.hpp"
#include "tests/support/harness.hpp"

namespace {

using namespace tb;
using core::ExecStats;
using core::SeqPolicy;
using core::Thresholds;

// ---- scheduler matrix: result correctness --------------------------------------
//
// The full policy × {seq, par×workers} × threshold-preset cross product from
// tests/support/harness.hpp, each cell run through all three data layouts.

class SchedMatrix : public tbtest::SchedulerMatrixTest {};

TEST_P(SchedMatrix, Fib) {
  const auto& c = GetParam();
  apps::FibProgram prog;
  const auto roots = std::vector{apps::FibProgram::root(21)};
  const std::uint64_t expected = apps::fib_sequential(21);
  EXPECT_EQ(tbtest::run_cell<core::AosExec<apps::FibProgram>>(c, prog, roots), expected);
  EXPECT_EQ(tbtest::run_cell<core::SoaExec<apps::FibProgram>>(c, prog, roots), expected);
  EXPECT_EQ(tbtest::run_cell<core::SimdExec<apps::FibProgram>>(c, prog, roots), expected);
}

TEST_P(SchedMatrix, Binomial) {
  const auto& c = GetParam();
  apps::BinomialProgram prog;
  const auto roots = std::vector{apps::BinomialProgram::root(20, 7)};
  const std::uint64_t expected = apps::binomial_sequential(20, 7);  // 77520
  ASSERT_EQ(expected, 77520u);
  EXPECT_EQ(tbtest::run_cell<core::AosExec<apps::BinomialProgram>>(c, prog, roots), expected);
  EXPECT_EQ(tbtest::run_cell<core::SoaExec<apps::BinomialProgram>>(c, prog, roots), expected);
  EXPECT_EQ(tbtest::run_cell<core::SimdExec<apps::BinomialProgram>>(c, prog, roots), expected);
}

TEST_P(SchedMatrix, Parentheses) {
  const auto& c = GetParam();
  apps::ParenthesesProgram prog;
  const auto roots = std::vector{apps::ParenthesesProgram::root(9)};
  const std::uint64_t expected = apps::parentheses_sequential(9, 9);  // Catalan(9) = 4862
  ASSERT_EQ(expected, 4862u);
  EXPECT_EQ(tbtest::run_cell<core::AosExec<apps::ParenthesesProgram>>(c, prog, roots),
            expected);
  EXPECT_EQ(tbtest::run_cell<core::SoaExec<apps::ParenthesesProgram>>(c, prog, roots),
            expected);
  EXPECT_EQ(tbtest::run_cell<core::SimdExec<apps::ParenthesesProgram>>(c, prog, roots),
            expected);
}

TEST_P(SchedMatrix, Knapsack) {
  const auto& c = GetParam();
  const auto inst = apps::KnapsackInstance::random(14);
  apps::KnapsackProgram prog{&inst};
  const auto roots = std::vector{prog.root()};
  const auto expected = apps::knapsack_sequential(inst, 0, inst.capacity, 0);
  const auto a = tbtest::run_cell<core::AosExec<apps::KnapsackProgram>>(c, prog, roots);
  const auto s = tbtest::run_cell<core::SoaExec<apps::KnapsackProgram>>(c, prog, roots);
  const auto v = tbtest::run_cell<core::SimdExec<apps::KnapsackProgram>>(c, prog, roots);
  for (const auto& r : {a, s, v}) {
    EXPECT_EQ(r.leaves, expected.leaves);
    EXPECT_EQ(r.best, expected.best);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, SchedMatrix, ::testing::ValuesIn(tbtest::matrix_cases()),
                         tbtest::matrix_name);

// ---- statistics invariants -----------------------------------------------------

TEST(ExecStatsInvariants, TaskAndLeafCensusMatchesTree) {
  apps::FibProgram prog;
  const auto roots = std::vector{apps::FibProgram::root(18)};
  const auto info = core::count_tree(prog, roots);
  tbtest::for_each_policy([&](SeqPolicy pol) {
    ExecStats st;
    const Thresholds th{8, 128, 128, 32};
    (void)core::run_seq<core::SimdExec<apps::FibProgram>>(prog, roots, pol, th, &st);
    EXPECT_EQ(st.tasks_executed, info.tasks);
    EXPECT_EQ(st.leaves, info.leaves);
    // Claim 2: complete steps <= n / Q.
    EXPECT_LE(st.steps_complete, info.tasks / 8);
    // Steps sandwich: n/Q <= total steps <= n.
    EXPECT_GE(st.steps_total, info.tasks / 8);
    EXPECT_LE(st.steps_total, info.tasks);
    EXPECT_GT(st.simd_utilization(), 0.0);
    EXPECT_LE(st.simd_utilization(), 1.0);
  });
}

TEST(ExecStatsInvariants, RestartBeatsBasicUtilizationOnSmallBlocks) {
  // The headline qualitative claim of Fig. 4 at small block sizes, checked
  // on an unbalanced tree where the basic policy starves.
  apps::ParenthesesProgram prog;
  const auto roots = std::vector{apps::ParenthesesProgram::root(10)};
  const Thresholds th{8, 32, 32, 16};
  ExecStats basic, restart;
  (void)core::run_seq<core::SoaExec<apps::ParenthesesProgram>>(prog, roots, SeqPolicy::Basic, th,
                                                               &basic);
  (void)core::run_seq<core::SoaExec<apps::ParenthesesProgram>>(prog, roots, SeqPolicy::Restart,
                                                               th, &restart);
  EXPECT_GE(restart.simd_utilization() + 1e-9, basic.simd_utilization());
}

TEST(ExecStatsInvariants, SequentialRestartStepsNearOptimal) {
  // Theorem 3: restart runs in Θ(n/Q + h) — check a generous constant.
  apps::FibProgram prog;
  const auto roots = std::vector{apps::FibProgram::root(20)};
  const auto info = core::count_tree(prog, roots);
  ExecStats st;
  const Thresholds th{8, 64, 64, 8};
  (void)core::run_seq<core::SimdExec<apps::FibProgram>>(prog, roots, SeqPolicy::Restart, th, &st);
  const double bound = static_cast<double>(info.tasks) / 8.0 +
                       static_cast<double>(info.levels) * 8.0;
  EXPECT_LE(static_cast<double>(st.steps_total), 4.0 * bound);
}

TEST(TreeCensus, FibKnownCounts) {
  apps::FibProgram prog;
  const auto roots = std::vector{apps::FibProgram::root(10)};
  const auto info = core::count_tree(prog, roots);
  // Nodes in the fib call tree: 2*fib(n+1)-1.
  EXPECT_EQ(info.tasks, 2 * apps::fib_sequential(11) - 1);
  EXPECT_EQ(info.levels, 10);  // depth of fib tree for n=10: levels 0..9
}

TEST(StripMining, OuterDataParallelRoots) {
  // Many root tasks (a data-parallel outer loop) sliced into t_dfe-sized
  // initial blocks must still produce the combined reduction.
  apps::FibProgram prog;
  std::vector<apps::FibProgram::Task> roots;
  std::uint64_t expected = 0;
  for (int n = 3; n < 40; ++n) {
    roots.push_back(apps::FibProgram::root(n % 17));
    expected += apps::fib_sequential(n % 17);
  }
  const Thresholds th{8, 16, 16, 8};
  tbtest::for_each_policy([&](SeqPolicy pol) {
    EXPECT_EQ(core::run_seq<core::SimdExec<apps::FibProgram>>(prog, roots, pol, th), expected);
  });
}

// Every driver adds its statistics into the caller's ExecStats: two runs
// into one ExecStats count both runs' tasks.
TEST(Drivers, StatsAddIntoTheCallersExecStats) {
  using Exec = core::SimdExec<apps::FibProgram>;
  const apps::FibProgram prog;
  const auto roots = std::vector{apps::FibProgram::root(18)};
  const std::span<const apps::FibProgram::Task> r(roots);
  const std::uint64_t tasks = core::count_tree(prog, r).tasks;
  const Thresholds th{8, 64, 64, 16};
  rt::ForkJoinPool pool(2);
  const std::pair<const char*, std::function<void(ExecStats*)>> drivers[] = {
      {"run_seq",
       [&](ExecStats* st) { (void)core::run_seq<Exec>(prog, r, SeqPolicy::Restart, th, st); }},
      {"run_par_reexp",
       [&](ExecStats* st) { (void)core::run_par_reexp<Exec>(pool, prog, r, th, st); }},
      {"run_par_restart",
       [&](ExecStats* st) { (void)core::run_par_restart<Exec>(pool, prog, r, th, st); }},
      {"run_ideal_restart",
       [&](ExecStats* st) { (void)core::run_ideal_restart<Exec>(prog, r, th, 2, st); }},
  };
  for (const auto& [name, run] : drivers) {
    SCOPED_TRACE(name);
    ExecStats st;
    run(&st);
    run(&st);
    EXPECT_EQ(st.tasks_executed, 2 * tasks);
  }
}

// ---- parallel schedulers --------------------------------------------------------
//
// Layer and elision corners the matrix above doesn't carry.

class ParSchedulerTest : public ::testing::TestWithParam<int> {};

TEST_P(ParSchedulerTest, ReexpMatchesOracle) {
  rt::ForkJoinPool pool(GetParam());
  apps::FibProgram prog;
  const auto roots = std::vector{apps::FibProgram::root(22)};
  const std::uint64_t expected = apps::fib_sequential(22);
  const Thresholds th{8, 256, 128, 32};
  EXPECT_EQ(core::run_par_reexp<core::SimdExec<apps::FibProgram>>(pool, prog, roots, th),
            expected);
  EXPECT_EQ(core::run_par_reexp<core::AosExec<apps::FibProgram>>(pool, prog, roots, th),
            expected);
}

TEST_P(ParSchedulerTest, RestartWithoutElisionMatchesOracle) {
  rt::ForkJoinPool pool(GetParam());
  apps::ParenthesesProgram prog;
  const auto roots = std::vector{apps::ParenthesesProgram::root(10)};
  const std::uint64_t expected = apps::parentheses_sequential(10, 10);
  const Thresholds th{8, 128, 64, 32};
  EXPECT_EQ(core::run_par_restart<core::SoaExec<apps::ParenthesesProgram>>(
                pool, prog, roots, th, nullptr, 0, /*elide_merges=*/false),
            expected);
}

TEST_P(ParSchedulerTest, ParallelStatsCensusIsExact) {
  rt::ForkJoinPool pool(GetParam());
  apps::BinomialProgram prog;
  const auto roots = std::vector{apps::BinomialProgram::root(18, 6)};
  const auto info = core::count_tree(prog, roots);
  ExecStats st_reexp, st_restart;
  const Thresholds th{8, 64, 64, 16};
  (void)core::run_par_reexp<core::SoaExec<apps::BinomialProgram>>(pool, prog, roots, th,
                                                                  &st_reexp);
  (void)core::run_par_restart<core::SoaExec<apps::BinomialProgram>>(pool, prog, roots, th,
                                                                    &st_restart);
  EXPECT_EQ(st_reexp.tasks_executed, info.tasks);
  EXPECT_EQ(st_restart.tasks_executed, info.tasks);
  EXPECT_EQ(st_reexp.leaves, info.leaves);
  EXPECT_EQ(st_restart.leaves, info.leaves);
}

INSTANTIATE_TEST_SUITE_P(Workers, ParSchedulerTest, ::testing::Values(1, 2, 4, 8));

// Repeated parallel runs are deterministic in value (schedule varies).
TEST(ParSchedulerStress, RepeatedRunsStayCorrect) {
  rt::ForkJoinPool pool(4);
  apps::ParenthesesProgram prog;
  const auto roots = std::vector{apps::ParenthesesProgram::root(11)};
  const std::uint64_t expected = apps::parentheses_sequential(11, 11);
  const Thresholds th{8, 64, 32, 16};
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(core::run_par_restart<core::SimdExec<apps::ParenthesesProgram>>(pool, prog, roots,
                                                                              th),
              expected)
        << "round " << round;
  }
}

}  // namespace
