// Stress and failure-injection tests for the work-stealing runtime and the
// parallel schedulers: spawn storms, deep spawn chains, adversarial yield
// injection inside kernels (forcing steal interleavings the happy path
// never sees), pool lifecycle churn, and contended deque chaos.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "apps/fib.hpp"
#include "apps/parentheses.hpp"
#include "core/driver.hpp"
#include "runtime/chase_lev_deque.hpp"
#include "runtime/forkjoin.hpp"
#include "runtime/xoshiro.hpp"

namespace {

using namespace tb;
using core::SeqPolicy;

// fib(n) on the Cilk driver: a spawn at every call of the recursion.
std::uint64_t cilk_fib(rt::ForkJoinPool& pool, int n) {
  const apps::FibProgram::Task root[] = {apps::FibProgram::root(n)};
  return core::run_cilk(pool, apps::FibProgram{}, root);
}

// ---- pool stress ---------------------------------------------------------------------

TEST(PoolStress, DetachedSpawnStorm) {
  rt::ForkJoinPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  pool.run([&] {
    rt::WaitGroup wg;
    for (int i = 0; i < 20000; ++i) {
      rt::ForkJoinPool::current()->spawn_detached(
          [&sum, i] { sum.fetch_add(static_cast<std::uint64_t>(i), std::memory_order_relaxed); },
          wg);
    }
    rt::ForkJoinPool::current()->wait(wg);
  });
  EXPECT_EQ(sum.load(), 19999ull * 20000ull / 2);
}

TEST(PoolStress, DeepStructuredSpawnChain) {
  // Each level spawns one child and syncs: exercises deque growth and the
  // sync help-loop at depth.  Iterative driver keeps the C++ stack shallow.
  rt::ForkJoinPool pool(2);
  constexpr int kDepth = 4000;
  const std::uint64_t got = pool.run([&] {
    std::uint64_t acc = 0;
    for (int d = 0; d < kDepth; ++d) {
      std::uint64_t child = 0;
      rt::SpawnJob job([&child, d] { child = static_cast<std::uint64_t>(d); });
      rt::ForkJoinPool::current()->push(job);
      rt::ForkJoinPool::current()->sync(job);
      acc += child;
    }
    return acc;
  });
  EXPECT_EQ(got, static_cast<std::uint64_t>(kDepth - 1) * kDepth / 2);
}

TEST(PoolStress, PoolLifecycleChurn) {
  // Create/destroy pools back to back; each must start, work, and join
  // cleanly (no leaked threads, no stuck condition variables).
  for (int round = 0; round < 12; ++round) {
    rt::ForkJoinPool pool(1 + round % 4);
    EXPECT_EQ(cilk_fib(pool, 15), 610u);
  }
}

TEST(PoolStress, OversubscribedWorkers) {
  // More workers than cores (this host has few): heavy interleaving.
  rt::ForkJoinPool pool(8);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(cilk_fib(pool, 20), 6765u);
  }
}

TEST(PoolStress, AlternatingRunsFromExternalThread) {
  rt::ForkJoinPool pool(3);
  for (int i = 20; i <= 24; ++i) {
    EXPECT_EQ(cilk_fib(pool, i), apps::fib_sequential(i));
  }
}

// ---- failure injection: yield-happy kernels -----------------------------------------

// A parentheses program whose leaf handler sporadically yields, forcing the
// OS to interleave thieves mid-superstep.  Results must be unaffected.
struct YieldyParens {
  using Task = apps::ParenthesesProgram::Task;
  using Result = std::uint64_t;
  static constexpr int max_children = 2;

  apps::ParenthesesProgram inner;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  bool is_base(const Task& t) const { return inner.is_base(t); }
  void leaf(const Task& t, Result& r) const {
    if ((static_cast<std::uint32_t>(t.open * 31 + t.close) & 127u) == 0) {
      std::this_thread::yield();
    }
    inner.leaf(t, r);
  }
  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    inner.expand(t, emit);
  }

  using Block = apps::ParenthesesProgram::Block;
  static Task task_at(const Block& b, std::size_t i) {
    return apps::ParenthesesProgram::task_at(b, i);
  }
  static void append_task(Block& b, const Task& t) {
    apps::ParenthesesProgram::append_task(b, t);
  }
};

class YieldInjection : public ::testing::TestWithParam<int> {};

TEST_P(YieldInjection, ParallelSchedulersSurviveInterleaving) {
  const int workers = GetParam();
  const YieldyParens prog{};
  const std::vector roots{apps::ParenthesesProgram::root(10)};
  const std::uint64_t expected = apps::parentheses_sequential(10, 10);
  const auto th = core::Thresholds::for_block_size(8, 64, 16);
  rt::ForkJoinPool pool(workers);
  for (int round = 0; round < 6; ++round) {
    EXPECT_EQ((core::run_par_reexp<core::SoaExec<YieldyParens>>(pool, prog, roots, th)),
              expected);
    EXPECT_EQ((core::run_par_restart<core::SoaExec<YieldyParens>>(pool, prog, roots, th)),
              expected);
    EXPECT_EQ((core::run_par_restart<core::SoaExec<YieldyParens>>(pool, prog, roots, th,
                                                                  nullptr, 0,
                                                                  /*elide_merges=*/false)),
              expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, YieldInjection, ::testing::Values(2, 4, 7),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

// ---- deque chaos ---------------------------------------------------------------------

TEST(DequeChaos, InterleavedPushPopStealConservation) {
  // Owner interleaves pushes and pops while three thieves steal; every
  // pushed token is consumed exactly once (sum conservation), regardless of
  // interleaving.
  constexpr int kTokens = 30000;
  std::vector<rt::JobBase> jobs(kTokens);
  rt::ChaseLevDeque<rt::JobBase> deque;
  std::atomic<std::uint64_t> stolen_sum{0};
  std::atomic<bool> done{false};

  auto thief = [&] {
    rt::Xoshiro256 rng(std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::uint64_t local = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (rt::JobBase* j = deque.steal_top()) {
        local += static_cast<std::uint64_t>(j - jobs.data());
      } else if (rng.below(4) == 0) {
        std::this_thread::yield();
      }
    }
    // Drain whatever is left after the owner finished.
    while (rt::JobBase* j = deque.steal_top()) {
      local += static_cast<std::uint64_t>(j - jobs.data());
    }
    stolen_sum.fetch_add(local, std::memory_order_acq_rel);
  };
  std::vector<std::thread> thieves;
  for (int i = 0; i < 3; ++i) thieves.emplace_back(thief);

  rt::Xoshiro256 rng(7);
  std::uint64_t own_sum = 0;
  int pushed = 0;
  while (pushed < kTokens) {
    // Bias toward pushes so thieves stay busy.
    const int burst = 1 + static_cast<int>(rng.below(8));
    for (int b = 0; b < burst && pushed < kTokens; ++b) {
      deque.push_bottom(&jobs[static_cast<std::size_t>(pushed)]);
      ++pushed;
    }
    if (rng.below(3) == 0) {
      if (rt::JobBase* j = deque.pop_bottom()) {
        own_sum += static_cast<std::uint64_t>(j - jobs.data());
      }
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  // Owner drains the remainder.
  while (rt::JobBase* j = deque.pop_bottom()) {
    own_sum += static_cast<std::uint64_t>(j - jobs.data());
  }
  EXPECT_EQ(own_sum + stolen_sum.load(), static_cast<std::uint64_t>(kTokens - 1) * kTokens / 2);
}

// ---- scheduler robustness under repetition -------------------------------------------

TEST(SchedulerStress, ManyRoundsAlternatingPoliciesAndWorkers) {
  const apps::FibProgram prog;
  const std::vector roots{apps::FibProgram::root(22)};
  const std::uint64_t expected = apps::fib_sequential(22);
  for (const int workers : {1, 3, 5}) {
    rt::ForkJoinPool pool(workers);
    for (const std::size_t block : {16u, 256u}) {
      const auto th =
          core::Thresholds::for_block_size(8, block, std::max<std::size_t>(block / 8, 1));
      EXPECT_EQ((core::run_par_reexp<core::SimdExec<apps::FibProgram>>(pool, prog, roots, th)),
                expected)
          << workers << "w block " << block;
      EXPECT_EQ(
          (core::run_par_restart<core::SimdExec<apps::FibProgram>>(pool, prog, roots, th)),
          expected)
          << workers << "w block " << block;
    }
  }
}

}  // namespace
