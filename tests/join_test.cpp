// Tests for the join-frame scheduler (core/join_scheduler.hpp): value
// propagation through internal nodes under all three policies and arbitrary
// block sizes, frame recycling, dying branches, multi-root runs, and the
// true-minimax application it unlocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "apps/fib.hpp"
#include "apps/minmax_join.hpp"
#include "core/driver.hpp"
#include "core/join_scheduler.hpp"
#include "tests/support/harness.hpp"

namespace {

using namespace tb;
using core::SeqPolicy;
using core::Thresholds;
using tbtest::for_each_policy;

// ---- a sum-join program (fib) -------------------------------------------------------
// Joining with + must reproduce the leaf-only reduction exactly — the
// baseline sanity check that frames neither drop nor duplicate values.
struct FibJoin {
  struct Task {
    std::int32_t n;
  };
  using Value = std::uint64_t;
  static constexpr int max_children = 2;

  bool is_base(const Task& t) const { return t.n < 2; }
  Value leaf_value(const Task& t) const { return static_cast<Value>(t.n); }
  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    emit(0, Task{t.n - 1});
    emit(1, Task{t.n - 2});
  }
  Value join_identity(const Task&) const { return 0; }
  void combine(const Task&, Value& acc, const Value& v) const { acc += v; }
  Value finalize(const Task&, const Value& acc) const { return acc; }
};
static_assert(core::JoinTaskProgram<FibJoin>);

// ---- a max-depth program ------------------------------------------------------------
// finalize() adds the node's own edge, so the result is the tree height —
// checks that finalize runs per frame, not just at the root.
struct DepthJoin {
  struct Task {
    std::int32_t n;
  };
  using Value = std::int32_t;
  static constexpr int max_children = 2;

  bool is_base(const Task& t) const { return t.n < 2; }
  Value leaf_value(const Task&) const { return 0; }
  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    emit(0, Task{t.n - 1});
    emit(1, Task{t.n - 2});
  }
  Value join_identity(const Task&) const { return 0; }
  void combine(const Task&, Value& acc, const Value& v) const { acc = std::max(acc, v); }
  Value finalize(const Task&, const Value& acc) const { return acc + 1; }
};

// ---- a dying-branch program ----------------------------------------------------------
struct DyingJoin {
  struct Task {
    std::int32_t depth;
  };
  using Value = std::int32_t;
  static constexpr int max_children = 2;
  int die_at = 4;

  bool is_base(const Task&) const { return false; }
  Value leaf_value(const Task&) const { return 99; }  // never reached
  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    if (t.depth + 1 >= die_at) return;  // expands to nothing
    emit(0, Task{t.depth + 1});
    emit(1, Task{t.depth + 1});
  }
  Value join_identity(const Task&) const { return 0; }
  void combine(const Task&, Value& acc, const Value& v) const { acc += v; }
  Value finalize(const Task&, const Value& acc) const { return acc + 1; }  // count nodes
};

class JoinSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(JoinSweep, SumJoinReproducesFib) {
  const std::size_t block = GetParam();
  const FibJoin prog;
  for_each_policy([&](SeqPolicy pol) {
    const auto th = Thresholds::for_block_size(8, block, std::max<std::size_t>(block / 4, 1));
    EXPECT_EQ(core::run_join(prog, FibJoin::Task{24}, pol, th), apps::fib_sequential(24));
  });
}

TEST_P(JoinSweep, MaxDepthJoinMeasuresHeight) {
  const std::size_t block = GetParam();
  const DepthJoin prog;
  // Height of the fib(n) call tree is n-1 edges for n >= 2 (leftmost chain),
  // so finalize-per-level yields n-1 on the root for leaves at value 0.
  const auto th = Thresholds::for_block_size(8, block);
  EXPECT_EQ(core::run_join(prog, DepthJoin::Task{20}, SeqPolicy::Restart, th), 19);
}

INSTANTIATE_TEST_SUITE_P(Blocks, JoinSweep, ::testing::Values(1u, 8u, 64u, 1024u),
                         [](const auto& info) {
                           return "block" + std::to_string(info.param);
                         });

TEST(Join, DyingBranchesCompleteTheirFrames) {
  const DyingJoin prog;
  // Perfect binary tree of depth 4 where every frontier node expands to
  // nothing: each node contributes finalize's +1, so the value is the node
  // count 2^4 - 1.
  for_each_policy([&](SeqPolicy pol) {
    const auto th = Thresholds::for_block_size(8, 16, 4);
    EXPECT_EQ(core::run_join(prog, DyingJoin::Task{0}, pol, th), 15);
  });
}

TEST(Join, MultipleRootsKeepSeparateResults) {
  const FibJoin prog;
  std::vector<FibJoin::Task> roots;
  for (int n = 0; n < 16; ++n) roots.push_back({n});
  core::JoinScheduler<FibJoin> sched(prog, Thresholds::for_block_size(8, 32, 8),
                                     SeqPolicy::Restart);
  const auto values = sched.run(roots);
  ASSERT_EQ(values.size(), roots.size());
  for (int n = 0; n < 16; ++n) {
    EXPECT_EQ(values[static_cast<std::size_t>(n)], apps::fib_sequential(n)) << "root " << n;
  }
}

TEST(Join, FrameArenaIsRecycled) {
  const FibJoin prog;
  core::ExecStats st;
  const auto th = Thresholds::for_block_size(8, 64, 8);
  (void)core::run_join(prog, FibJoin::Task{22}, SeqPolicy::Restart, th, &st);
  const auto info = core::count_tree(
      apps::FibProgram{}, std::vector{apps::FibProgram::root(22)});
  EXPECT_EQ(st.tasks_executed, info.tasks);
  EXPECT_EQ(st.leaves, info.leaves);
  // Far fewer frames live at once than internal nodes in total.
  EXPECT_GT(st.peak_frames, 0u);
  EXPECT_LT(st.peak_frames, (info.tasks - info.leaves) / 4);
}

TEST(Join, StatsMatchLeafOnlySchedulerSchedule) {
  // The join machinery must not change the *schedule*: under every policy,
  // every ExecStats field but the join-only peak_frames equals the leaf-only
  // scheduler's on the same tree.
  const FibJoin jprog;
  const apps::FibProgram prog;
  const auto th = Thresholds::for_block_size(8, 128, 16);
  const std::vector roots{apps::FibProgram::root(22)};
  for_each_policy([&](SeqPolicy pol) {
    core::ExecStats js, ls;
    (void)core::run_join(jprog, FibJoin::Task{22}, pol, th, &js);
    (void)core::run_seq<core::AosExec<apps::FibProgram>>(prog, roots, pol, th, &ls);
    EXPECT_EQ(js.steps_total, ls.steps_total);
    EXPECT_EQ(js.steps_complete, ls.steps_complete);
    EXPECT_EQ(js.supersteps, ls.supersteps);
    EXPECT_EQ(js.partial_supersteps, ls.partial_supersteps);
    EXPECT_EQ(js.tasks_executed, ls.tasks_executed);
    EXPECT_EQ(js.leaves, ls.leaves);
    EXPECT_EQ(js.bfe_actions, ls.bfe_actions);
    EXPECT_EQ(js.dfe_actions, ls.dfe_actions);
    EXPECT_EQ(js.restart_actions, ls.restart_actions);
    EXPECT_EQ(js.steal_actions, ls.steal_actions);
    EXPECT_EQ(js.merges, ls.merges);
    EXPECT_EQ(js.max_block_size, ls.max_block_size);
    EXPECT_EQ(js.peak_space_tasks, ls.peak_space_tasks);
    EXPECT_EQ(js.donated_frames, ls.donated_frames);
  });
}

// ---- true minimax ---------------------------------------------------------------------

class TrueMinmax : public ::testing::TestWithParam<int> {};

TEST_P(TrueMinmax, BlockedJoinMatchesRecursiveMinimax) {
  const int ply = GetParam();
  apps::MinmaxJoinProgram prog;
  prog.inner.ply_limit = ply;
  const auto root = apps::MinmaxJoinProgram::root();
  const auto expected = apps::minmax_join_sequential(prog, root);
  for_each_policy([&](SeqPolicy pol) {
    for (const std::size_t block : {16u, 256u}) {
      const auto th = Thresholds::for_block_size(8, block, std::max<std::size_t>(block / 4, 1));
      EXPECT_EQ(core::run_join(prog, root, pol, th), expected) << "block " << block;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Plies, TrueMinmax, ::testing::Values(4, 5, 6),
                         [](const auto& info) {
                           return "ply" + std::to_string(info.param);
                         });

TEST(TrueMinmaxDetail, MidGamePositionsPropagateMinAndMax) {
  apps::MinmaxJoinProgram prog;
  prog.inner.ply_limit = 16;  // play to the end from shallow positions
  // X one move from completing the first row, X to move: value +1.
  {
    apps::MinmaxJoinProgram::Task t{0x7u, 0x30u << 6};  // X has 3 of row 0
    // popcount(x|o) even => X to move; here 3 + 2 = 5 stones, O to move —
    // give O a harmless extra stone to flip the turn.
    t.o |= 1u << 15;
    ASSERT_TRUE(apps::MinmaxJoinProgram::x_to_move(t));
    const auto th = Thresholds::for_block_size(8, 64, 8);
    EXPECT_EQ(core::run_join(prog, t, core::SeqPolicy::Restart, th),
              apps::minmax_join_sequential(prog, t));
    EXPECT_EQ(core::run_join(prog, t, core::SeqPolicy::Restart, th), 1);
  }
}

}  // namespace
