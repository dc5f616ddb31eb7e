// Tests for the work-stealing runtime: deque semantics (sequential and
// under concurrent stealing), fork-join pool correctness, reducers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/fib.hpp"
#include "core/driver.hpp"
#include "runtime/chase_lev_deque.hpp"
#include "runtime/forkjoin.hpp"
#include "runtime/reducer.hpp"
#include "runtime/xoshiro.hpp"

namespace {

using tb::rt::ChaseLevDeque;
using tb::rt::ForkJoinPool;
using tb::rt::WaitGroup;
using tb::rt::WorkerLocal;

// fib(n) on the Cilk driver: a spawn at every call of the recursion.
std::uint64_t cilk_fib(ForkJoinPool& pool, int n) {
  const tb::apps::FibProgram::Task root[] = {tb::apps::FibProgram::root(n)};
  return tb::core::run_cilk(pool, tb::apps::FibProgram{}, root);
}

TEST(ChaseLev, LifoForOwner) {
  ChaseLevDeque<int> dq;
  int items[3] = {1, 2, 3};
  dq.push_bottom(&items[0]);
  dq.push_bottom(&items[1]);
  dq.push_bottom(&items[2]);
  EXPECT_EQ(dq.pop_bottom(), &items[2]);
  EXPECT_EQ(dq.pop_bottom(), &items[1]);
  EXPECT_EQ(dq.pop_bottom(), &items[0]);
  EXPECT_EQ(dq.pop_bottom(), nullptr);
}

TEST(ChaseLev, FifoForThief) {
  ChaseLevDeque<int> dq;
  int items[3] = {1, 2, 3};
  for (auto& it : items) dq.push_bottom(&it);
  EXPECT_EQ(dq.steal_top(), &items[0]);
  EXPECT_EQ(dq.steal_top(), &items[1]);
  EXPECT_EQ(dq.pop_bottom(), &items[2]);
  EXPECT_EQ(dq.steal_top(), nullptr);
}

TEST(ChaseLev, GrowthBeyondInitialCapacity) {
  ChaseLevDeque<int> dq(/*initial_capacity=*/4);
  std::vector<int> items(1000);
  std::iota(items.begin(), items.end(), 0);
  for (auto& it : items) dq.push_bottom(&it);
  EXPECT_EQ(dq.size_approx(), 1000);
  for (int i = 999; i >= 0; --i) {
    int* p = dq.pop_bottom();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
}

// Conservation under concurrent stealing: every pushed item is taken
// exactly once, across the owner and several thieves.
TEST(ChaseLev, ConcurrentStealConservation) {
  constexpr int kItems = 20000;
  constexpr int kThieves = 4;
  ChaseLevDeque<int> dq(8);
  std::vector<int> items(kItems);
  std::iota(items.begin(), items.end(), 0);
  std::vector<std::atomic<int>> taken(kItems);
  for (auto& t : taken) t.store(0);
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (int* p = dq.steal_top()) taken[static_cast<std::size_t>(*p)].fetch_add(1);
      }
      // Final drain.
      while (int* p = dq.steal_top()) taken[static_cast<std::size_t>(*p)].fetch_add(1);
    });
  }

  tb::rt::Xoshiro256 rng(7);
  int pushed = 0;
  while (pushed < kItems) {
    const int burst = static_cast<int>(rng.below(64)) + 1;
    for (int i = 0; i < burst && pushed < kItems; ++i) {
      dq.push_bottom(&items[static_cast<std::size_t>(pushed++)]);
    }
    if (rng.below(4) == 0) {
      if (int* p = dq.pop_bottom()) taken[static_cast<std::size_t>(*p)].fetch_add(1);
    }
  }
  while (int* p = dq.pop_bottom()) taken[static_cast<std::size_t>(*p)].fetch_add(1);
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(taken[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(Pool, RunReturnsValue) {
  ForkJoinPool pool(2);
  const int v = pool.run([] { return 41 + 1; });
  EXPECT_EQ(v, 42);
}

TEST(Pool, RunVoid) {
  ForkJoinPool pool(1);
  int x = 0;
  pool.run([&x] { x = 7; });
  EXPECT_EQ(x, 7);
}

TEST(Pool, SequentialReuse) {
  ForkJoinPool pool(2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(pool.run([i] { return i * i; }), i * i);
  }
}

class PoolFibTest : public ::testing::TestWithParam<int> {};

TEST_P(PoolFibTest, RecursiveSpawnSyncMatchesSequential) {
  ForkJoinPool pool(GetParam());
  EXPECT_EQ(cilk_fib(pool, 20), tb::apps::fib_sequential(20));
}

INSTANTIATE_TEST_SUITE_P(Workers, PoolFibTest, ::testing::Values(1, 2, 3, 4, 8));

TEST(Pool, DetachedWave) {
  ForkJoinPool pool(4);
  std::atomic<int> count{0};
  pool.run([&] {
    WaitGroup wg;
    for (int i = 0; i < 1000; ++i) {
      pool.spawn_detached([&count] { count.fetch_add(1, std::memory_order_relaxed); }, wg);
    }
    pool.wait(wg);
  });
  EXPECT_EQ(count.load(), 1000);
}

TEST(Pool, NestedDetachedWaves) {
  ForkJoinPool pool(4);
  std::atomic<int> count{0};
  pool.run([&] {
    WaitGroup outer;
    for (int i = 0; i < 16; ++i) {
      pool.spawn_detached(
          [&] {
            WaitGroup inner;
            for (int j = 0; j < 50; ++j) {
              pool.spawn_detached([&count] { count.fetch_add(1); }, inner);
            }
            pool.wait(inner);
          },
          outer);
    }
    pool.wait(outer);
  });
  EXPECT_EQ(count.load(), 16 * 50);
}

TEST(Pool, WorkerIdVisibleInsideTasks) {
  ForkJoinPool pool(3);
  const int id = pool.run([] { return ForkJoinPool::worker_id(); });
  EXPECT_GE(id, 0);
  EXPECT_LT(id, 3);
  EXPECT_EQ(ForkJoinPool::worker_id(), -1);  // external thread
}

TEST(WorkerLocalReducer, CombinesAllSlots) {
  ForkJoinPool pool(4);
  WorkerLocal<std::uint64_t> sum(pool, 0);
  pool.run([&] {
    WaitGroup wg;
    for (int i = 1; i <= 200; ++i) {
      pool.spawn_detached([&sum, i] { sum.local() += static_cast<std::uint64_t>(i); }, wg);
    }
    pool.wait(wg);
  });
  EXPECT_EQ(sum.combine([](std::uint64_t a, std::uint64_t b) { return a + b; }),
            200u * 201u / 2u);
}

TEST(WorkerLocalReducer, ExternalThreadUsesOverflowSlot) {
  ForkJoinPool pool(2);
  WorkerLocal<int> slot(pool, 0);
  slot.local() = 5;  // external thread slot
  EXPECT_EQ(slot.combine([](int a, int b) { return a + b; }), 5);
}

TEST(Pool, StealsHappenWithMultipleWorkers) {
  ForkJoinPool pool(4);
  // A deep recursion generates plenty of stealable jobs.
  (void)cilk_fib(pool, 22);
  // With 4 workers at least one steal is overwhelmingly likely; this also
  // sanity-checks the counter plumbing.
  EXPECT_GT(pool.total_steal_attempts(), 0u);
}

// Polls until pred() holds or ~deadline_ms elapses; returns pred()'s final
// value.  The idle/parking behaviour under test is asynchronous, so the
// tests wait for it with a deadline instead of asserting instantaneously.
template <class Pred>
bool eventually(Pred pred, int deadline_ms = 2000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return pred();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Regression (serving-layer prerequisite): an idle pool must park every
// worker on the condition variable — the old worker loop woke 200×/s per
// worker forever, burning CPU on an idle serving daemon.
TEST(Pool, IdleWorkersPark) {
  ForkJoinPool pool(2);
  (void)pool.run([] { return 1; });  // spin up, then go idle
  EXPECT_TRUE(eventually([&] { return pool.parked_workers() == 2; }));
}

// Regression: first-job dispatch latency after an idle period must be CV
// wake latency, not quantized to the former 5 ms wait_for poll.  Best-of-N
// against a bound well under 5 ms keeps this robust to scheduler noise
// while still failing hard if the timed poll ever comes back.
TEST(Pool, DispatchLatencyAfterIdleIsWellUnderOldPollInterval) {
  ForkJoinPool pool(2);
  double best_s = 1e9;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(eventually([&] { return pool.parked_workers() == 2; }));
    const auto t0 = std::chrono::steady_clock::now();
    (void)pool.run([] { return 1; });
    const auto t1 = std::chrono::steady_clock::now();
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
  }
  EXPECT_LT(best_s, 2.5e-3);
}

// Regression: run() from one of the pool's own workers used to be
// assert-only — a Release build deadlocked a 1-worker pool.  It now
// executes inline (it is already inside the pool's dispatch scope).
TEST(Pool, ReentrantRunExecutesInline) {
  ForkJoinPool pool(1);
  const int v = pool.run([&] { return pool.run([] { return 42; }); });
  EXPECT_EQ(v, 42);
}

// run() on a *different* pool from a worker thread cannot execute inline
// (spawns inside f would land in the wrong pool's deques) and must throw.
// The throw is caught inside the job body: an exception escaping a pool
// job would terminate the worker thread.
TEST(Pool, RunFromForeignWorkerThrows) {
  ForkJoinPool outer(1);
  ForkJoinPool inner(1);
  const bool threw = outer.run([&] {
    try {
      inner.run([] {});
      return false;
    } catch (const std::logic_error&) {
      return true;
    }
  });
  EXPECT_TRUE(threw);
}

// Regression: detached jobs spawned by a root that returns without waiting
// must still run promptly — workers may park between the root's completion
// and the detached jobs' execution, so spawn_detached has to wake sleepers
// (the park predicate tracks live detached jobs).
TEST(Pool, DetachedJobsOutliveRootAndComplete) {
  ForkJoinPool pool(2);
  WaitGroup wg;
  std::atomic<int> count{0};
  pool.run([&] {
    for (int i = 0; i < 64; ++i) {
      pool.spawn_detached([&count] { count.fetch_add(1, std::memory_order_relaxed); }, wg);
    }
    // Return with the wave still in flight; the external thread observes
    // completion through the WaitGroup (never pool.wait from outside).
  });
  EXPECT_TRUE(eventually([&] { return wg.idle(); }, 5000));
  EXPECT_EQ(count.load(), 64);
}

TEST(Xoshiro, DeterministicAndBelowBound) {
  tb::rt::Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  for (int i = 0; i < 1000; ++i) EXPECT_LT(a.below(17), 17u);
}

TEST(Splitmix, KnownAvalanche) {
  // Distinct inputs map to distinct, well-mixed outputs.
  EXPECT_NE(tb::rt::splitmix64(0), tb::rt::splitmix64(1));
  EXPECT_NE(tb::rt::splitmix64(1), tb::rt::splitmix64(2));
  std::uint64_t x = tb::rt::splitmix64(0xdeadbeef);
  EXPECT_NE(x >> 32, 0u);
}

}  // namespace
