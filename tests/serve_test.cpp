// Tests for the query-serving layer: MPMC queue semantics, the admission
// batcher's max-batch/max-wait/deadline policy in exact virtual time, the
// adaptive (rate-derived) batch policy, latency percentile math, server
// lifecycle regressions (double-stop, stop-without-start, post-stop
// submit, backlog memory bound), the QueryServer end to end — single- and
// multi-kernel — against the sequential oracles, and the ISA-dispatch
// binding of serving lanes (active-table regression, forced-width
// validation/clamping, cross-ISA digest equivalence).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/forkjoin.hpp"
#include "serve/batcher.hpp"
#include "serve/latency.hpp"
#include "serve/loadgen.hpp"
#include "serve/policy.hpp"
#include "serve/pool_runner.hpp"
#include "serve/queue.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "simd/dispatch.hpp"
#include "simd/isa.hpp"
#include "spatial/kdtree.hpp"

namespace {

using tb::serve::AdaptiveBatchPolicy;
using tb::serve::AdaptiveOptions;
using tb::serve::AdmissionBatcher;
using tb::serve::Batch;
using tb::serve::BatchPolicy;
using tb::serve::KernelOptions;
using tb::serve::KernelRouter;
using tb::serve::kNoDeadline;
using tb::serve::MpmcQueue;
using tb::serve::QueryServer;
using tb::serve::ServerOptions;

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpmcQueue<int>(1).capacity(), 8u);
  EXPECT_EQ(MpmcQueue<int>(8).capacity(), 8u);
  EXPECT_EQ(MpmcQueue<int>(9).capacity(), 16u);
  EXPECT_EQ(MpmcQueue<int>(1000).capacity(), 1024u);
}

TEST(MpmcQueue, FifoSingleThreaded) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, FullAndEmptyAreDetected) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full
  EXPECT_EQ(q.size_approx(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_pop().has_value());
  EXPECT_FALSE(q.try_pop().has_value());  // empty
  EXPECT_EQ(q.size_approx(), 0u);
}

TEST(MpmcQueue, WrapsAroundManyGenerations) {
  MpmcQueue<int> q(8);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.try_push(round * 6 + i));
    for (int i = 0; i < 6; ++i) {
      auto v = q.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, round * 6 + i);
    }
  }
}

// ---- AdmissionBatcher: pure virtual-time policy ---------------------------------

TEST(Batcher, SizeTriggerDispatchesExactlyMaxBatch) {
  AdmissionBatcher b({/*max_batch=*/4, /*max_wait_ns=*/1'000'000});
  for (std::int32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(b.ready(/*now=*/i));  // not ready before the 4th arrival
    b.push(i, /*arrival=*/i);
  }
  EXPECT_TRUE(b.ready(/*now=*/3));  // full batch, no wait needed
  Batch out;
  ASSERT_TRUE(b.pop_ready(/*now=*/3, out));
  EXPECT_EQ(out.ids, (std::vector<std::int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(out.arrival_ns, (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(b.pending(), 0u);
}

TEST(Batcher, DeadlineTriggerFiresExactlyAtOldestPlusMaxWait) {
  AdmissionBatcher b({/*max_batch=*/4, /*max_wait_ns=*/1000});
  b.push(7, /*arrival=*/100);
  b.push(8, /*arrival=*/500);
  EXPECT_EQ(b.next_deadline_ns(), 1100);  // oldest arrival + max_wait
  EXPECT_FALSE(b.ready(1099));
  EXPECT_TRUE(b.ready(1100));  // boundary is inclusive
  Batch out;
  ASSERT_TRUE(b.pop_ready(1100, out));
  EXPECT_EQ(out.ids, (std::vector<std::int32_t>{7, 8}));
}

TEST(Batcher, ZeroMaxWaitServesImmediately) {
  AdmissionBatcher b({/*max_batch=*/64, /*max_wait_ns=*/0});
  b.push(1, 10);
  EXPECT_TRUE(b.ready(10));  // ready the instant it arrives
  Batch out;
  ASSERT_TRUE(b.pop_ready(10, out));
  EXPECT_EQ(out.size(), 1u);
}

TEST(Batcher, RemainderKeepsItsOwnDeadline) {
  AdmissionBatcher b({/*max_batch=*/4, /*max_wait_ns=*/1000});
  for (std::int32_t i = 0; i < 7; ++i) b.push(i, /*arrival=*/100 + i);
  Batch out;
  ASSERT_TRUE(b.pop_ready(/*now=*/106, out));  // size trigger: first 4
  EXPECT_EQ(out.ids, (std::vector<std::int32_t>{0, 1, 2, 3}));
  out.clear();
  // Three left — below max_batch, so they wait for the 5th arrival's
  // deadline (arrival 104 + 1000).
  EXPECT_EQ(b.pending(), 3u);
  EXPECT_EQ(b.next_deadline_ns(), 1104);
  EXPECT_FALSE(b.pop_ready(1103, out));
  ASSERT_TRUE(b.pop_ready(1104, out));
  EXPECT_EQ(out.ids, (std::vector<std::int32_t>{4, 5, 6}));
}

TEST(Batcher, NextDeadlineSentinelWhenEmpty) {
  AdmissionBatcher b({4, 1000});
  EXPECT_EQ(b.next_deadline_ns(), tb::serve::kNoDeadline);
  b.push(0, 50);
  EXPECT_EQ(b.next_deadline_ns(), 1050);
  Batch out;
  ASSERT_TRUE(b.flush(out));
  EXPECT_EQ(b.next_deadline_ns(), tb::serve::kNoDeadline);
}

TEST(Batcher, FlushDrainsWithoutDeadline) {
  AdmissionBatcher b({/*max_batch=*/4, /*max_wait_ns=*/1'000'000'000});
  for (std::int32_t i = 0; i < 6; ++i) b.push(i, i);
  Batch out;
  EXPECT_TRUE(b.flush(out));  // 4 (max_batch)
  EXPECT_EQ(out.size(), 4u);
  out.clear();
  EXPECT_TRUE(b.flush(out));  // remaining 2
  EXPECT_EQ(out.size(), 2u);
  out.clear();
  EXPECT_FALSE(b.flush(out));
}

// Regression: any workload that always keeps >= 1 query pending never hits
// the full-drain compaction, so before the threshold compaction the
// consumed prefix of the batcher's arrays grew forever.
TEST(Batcher, LongLivedBacklogStaysBounded) {
  AdmissionBatcher b({/*max_batch=*/1, /*max_wait_ns=*/0});
  b.push(0, 0);
  Batch out;
  for (std::int64_t i = 1; i <= 20000; ++i) {
    b.push(static_cast<std::int32_t>(i), i);  // backlog never drains fully
    out.clear();
    ASSERT_TRUE(b.pop_ready(i, out));
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(b.pending(), 1u);
  }
  // 20k consumed with 1 always pending: without compaction buffered() would
  // be 20001; with it the dead prefix is bounded by the threshold.
  EXPECT_LE(b.buffered(), b.pending() + 2 * AdmissionBatcher::kCompactThreshold);
}

// ---- deadline-aware admission (exact virtual time) ------------------------------

TEST(DeadlineAdmission, ShedsExpiredAndUnmeetableAtTheBoundary) {
  AdmissionBatcher b({/*max_batch=*/8, /*max_wait_ns=*/1000});
  b.set_service_estimate(100);
  // Already expired: deadline behind the virtual clock.
  EXPECT_FALSE(b.push(1, /*arrival=*/0, /*deadline=*/-1, /*now=*/0));
  // Unmeetable: even an immediate dispatch lands at now + 100 > 99.
  EXPECT_FALSE(b.push(2, 0, /*deadline=*/99, /*now=*/0));
  EXPECT_EQ(b.shed(), 2u);
  EXPECT_EQ(b.pending(), 0u);
  // Exactly meetable boundary: now + 100 > 100 is false — admitted.
  EXPECT_TRUE(b.push(3, 0, /*deadline=*/100, /*now=*/0));
  EXPECT_EQ(b.pending(), 1u);
  EXPECT_EQ(b.shed(), 2u);
}

TEST(DeadlineAdmission, NoDeadlineQueriesNeverShed) {
  AdmissionBatcher b({/*max_batch=*/8, /*max_wait_ns=*/1000});
  b.set_service_estimate(1'000'000'000);  // huge estimate must not matter
  EXPECT_TRUE(b.push(1, 0, kNoDeadline, /*now=*/999'999'999));
  EXPECT_EQ(b.shed(), 0u);
}

TEST(DeadlineAdmission, DeadlineForcesEarlyDispatch) {
  AdmissionBatcher b({/*max_batch=*/8, /*max_wait_ns=*/1000});
  b.set_service_estimate(100);
  ASSERT_TRUE(b.push(7, /*arrival=*/0, /*deadline=*/500, /*now=*/0));
  // max-wait alone would fire at 1000; the deadline pulls dispatch forward
  // to 500 - 100 (last instant a dispatch can still complete in time).
  EXPECT_EQ(b.next_deadline_ns(), 400);
  EXPECT_FALSE(b.ready(399));
  EXPECT_TRUE(b.ready(400));
  Batch out;
  ASSERT_TRUE(b.pop_ready(400, out));
  EXPECT_EQ(out.ids, (std::vector<std::int32_t>{7}));
  EXPECT_EQ(out.deadline_ns, (std::vector<std::int64_t>{500}));
}

TEST(DeadlineAdmission, UrgencyIsTightestEffectiveDeadlineInWindow) {
  AdmissionBatcher b({/*max_batch=*/4, /*max_wait_ns=*/1000});
  EXPECT_EQ(b.urgency_ns(), kNoDeadline);
  ASSERT_TRUE(b.push(1, /*arrival=*/100, kNoDeadline, /*now=*/100));
  EXPECT_EQ(b.urgency_ns(), 1100);  // no deadline -> max-wait expiry
  ASSERT_TRUE(b.push(2, /*arrival=*/200, /*deadline=*/900, /*now=*/200));
  EXPECT_EQ(b.urgency_ns(), 900);  // explicit deadline tightens the key
}

// A lane factory whose runner does nothing, whatever the table.
tb::serve::RunnerFactory noop_lane() {
  return [](const tb::simd::KernelTable&) -> tb::serve::BatchRunner {
    return [](const std::int32_t*, std::size_t) {};
  };
}

TEST(DeadlineAdmission, RouterPicksEarliestDeadlineAmongReadyLanes) {
  KernelRouter router;
  const tb::serve::RunnerFactory noop = noop_lane();
  KernelOptions kopt;
  kopt.policy = {/*max_batch=*/4, /*max_wait_ns=*/1000};
  const int bulk = router.add("bulk", kopt, noop);
  const int slo = router.add("slo", kopt, noop);
  EXPECT_EQ(router.pick_ready(/*now=*/0), -1);
  // Bulk lane: older arrival, no deadline (effective deadline 1000).
  ASSERT_TRUE(router.lane(bulk).admit(1, /*arrival=*/0, kNoDeadline, /*now=*/0));
  // SLO lane: newer arrival with a 600 deadline.
  ASSERT_TRUE(router.lane(slo).admit(2, /*arrival=*/50, /*deadline=*/600, /*now=*/50));
  // At t=2000 both lanes are past their triggers; EDF must pick the SLO
  // lane despite the bulk lane's older arrival.
  ASSERT_EQ(router.pick_ready(2000), slo);
  Batch out;
  ASSERT_TRUE(router.lane(slo).batcher().pop_ready(2000, out));
  EXPECT_EQ(router.pick_ready(2000), bulk);
  // Park horizon is the earliest lane deadline (bulk's max-wait expiry).
  EXPECT_EQ(router.next_deadline_ns(), 1000);
}

// ---- adaptive batch policy (exact virtual time) ---------------------------------

TEST(AdaptivePolicy, StaysAtMinBatchUntilRateIsKnown) {
  AdaptiveOptions opt;
  opt.enabled = true;
  opt.min_batch = 2;
  opt.max_batch = 64;
  opt.target_window_ns = 1000;
  AdaptiveBatchPolicy p(opt);
  EXPECT_EQ(p.current().max_batch, 2u);  // no arrivals
  EXPECT_EQ(p.current().max_wait_ns, 1000);
  p.observe_arrival(0);
  EXPECT_EQ(p.current().max_batch, 2u);  // one arrival: still no gap
}

TEST(AdaptivePolicy, SteadyRateFillsTheTargetWindow) {
  AdaptiveOptions opt;
  opt.enabled = true;
  opt.max_batch = 64;
  opt.target_window_ns = 1000;
  opt.ewma_shift = 3;
  AdaptiveBatchPolicy p(opt);
  // Arrivals every 100 ns: a 1000 ns window is expected to hold 10.
  for (std::int64_t t = 0; t <= 500; t += 100) p.observe_arrival(t);
  EXPECT_EQ(p.ewma_gap_ns(), 100);
  EXPECT_EQ(p.current().max_batch, 10u);
  EXPECT_EQ(p.current().max_wait_ns, 1000);
}

TEST(AdaptivePolicy, EwmaStepIsExact) {
  AdaptiveOptions opt;
  opt.enabled = true;
  opt.max_batch = 64;
  opt.target_window_ns = 1000;
  opt.ewma_shift = 3;
  AdaptiveBatchPolicy p(opt);
  p.observe_arrival(0);
  p.observe_arrival(100);  // seeds ewma = 100
  p.observe_arrival(110);  // gap 10: ewma += (10 - 100) >> 3 = -12 -> 88
  EXPECT_EQ(p.ewma_gap_ns(), 88);
  EXPECT_EQ(p.current().max_batch, 11u);  // 1000 / 88
}

TEST(AdaptivePolicy, ClampsToMinAndMaxBatch) {
  AdaptiveOptions opt;
  opt.enabled = true;
  opt.min_batch = 1;
  opt.max_batch = 64;
  opt.target_window_ns = 1000;
  // Burst (gap 1 ns): window/gap = 1000, clamped to 64.
  AdaptiveBatchPolicy fast(opt);
  fast.observe_arrival(0);
  fast.observe_arrival(1);
  EXPECT_EQ(fast.current().max_batch, 64u);
  // Sparse (gap 5000 ns > window): window/gap = 0, clamped to 1.
  AdaptiveBatchPolicy slow(opt);
  slow.observe_arrival(0);
  slow.observe_arrival(5000);
  EXPECT_EQ(slow.current().max_batch, 1u);
  // Out-of-order stamp clamps to a zero gap instead of going negative.
  AdaptiveBatchPolicy unordered(opt);
  unordered.observe_arrival(100);
  unordered.observe_arrival(50);
  EXPECT_EQ(unordered.ewma_gap_ns(), 0);
  EXPECT_EQ(unordered.current().max_batch, 64u);
}

// ---- latency percentiles --------------------------------------------------------

TEST(Latency, NearestRankPercentiles) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(static_cast<double>(i));
  const auto s = tb::serve::summarize_latencies(samples);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);   // rank ceil(0.5*1000)=500
  EXPECT_DOUBLE_EQ(s.p99, 990.0);   // rank 990
  EXPECT_DOUBLE_EQ(s.p999, 999.0);  // rank 999
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);
}

TEST(Latency, EmptyAndSingleton) {
  std::vector<double> none;
  EXPECT_EQ(tb::serve::summarize_latencies(none).count, 0u);
  std::vector<double> one{3.5};
  const auto s = tb::serve::summarize_latencies(one);
  EXPECT_DOUBLE_EQ(s.p50, 3.5);
  EXPECT_DOUBLE_EQ(s.p999, 3.5);
}

// ---- QueryServer end to end ------------------------------------------------------

// A runner that records every id it sees (admission thread only — the
// mutex guards against nothing yet documents the contract for readers).
// Registered through a factory that ignores the lane's table.
struct CountingRunner {
  std::mutex mu;
  std::vector<std::int32_t> seen;
  std::vector<std::size_t> batch_sizes;

  tb::serve::RunnerFactory runner() {
    return [this](const tb::simd::KernelTable&) -> QueryServer::BatchRunner {
      return [this](const std::int32_t* ids, std::size_t count) {
        const std::lock_guard<std::mutex> lock(mu);
        seen.insert(seen.end(), ids, ids + count);
        batch_sizes.push_back(count);
      };
    };
  }
};

TEST(QueryServer, ServesEveryQueryExactlyOnce) {
  CountingRunner cr;
  ServerOptions opt;
  opt.policy = {/*max_batch=*/8, /*max_wait_ns=*/100'000};
  QueryServer server(opt, cr.runner());
  server.start();
  constexpr std::int32_t kN = 500;
  for (std::int32_t i = 0; i < kN; ++i) server.submit(i, tb::serve::now_ns());
  server.stop();

  EXPECT_EQ(server.completed(), static_cast<std::size_t>(kN));
  EXPECT_EQ(server.latencies_s().size(), static_cast<std::size_t>(kN));
  std::vector<int> times(kN, 0);
  for (const std::int32_t id : cr.seen) times[static_cast<std::size_t>(id)]++;
  for (std::int32_t i = 0; i < kN; ++i) EXPECT_EQ(times[static_cast<std::size_t>(i)], 1);
  for (const std::size_t s : cr.batch_sizes) EXPECT_LE(s, 8u);
  EXPECT_EQ(server.batches_dispatched(), cr.batch_sizes.size());
  EXPECT_GE(server.max_batch_seen(), 1u);
}

TEST(QueryServer, StopDrainsPendingPartialBatch) {
  CountingRunner cr;
  ServerOptions opt;
  // Huge max_wait: without the shutdown flush these would never dispatch.
  opt.policy = {/*max_batch=*/64, /*max_wait_ns=*/std::int64_t{3600} * 1'000'000'000};
  QueryServer server(opt, cr.runner());
  server.start();
  for (std::int32_t i = 0; i < 10; ++i) server.submit(i, tb::serve::now_ns());
  server.stop();
  EXPECT_EQ(server.completed(), 10u);
}

TEST(QueryServer, LoadGeneratorOffersAllQueries) {
  CountingRunner cr;
  ServerOptions opt;
  opt.policy = {/*max_batch=*/16, /*max_wait_ns=*/200'000};
  QueryServer server(opt, cr.runner());
  server.start();
  tb::serve::LoadGenOptions lg;
  lg.rate_qps = 50000.0;  // brief open-loop burst
  lg.total = 300;
  lg.id_space = 100;
  tb::serve::generate_load(server, lg);
  server.stop();
  EXPECT_EQ(server.completed(), 300u);
  const auto s = tb::serve::summarize_latencies(server.latencies_s());
  EXPECT_EQ(s.count, 300u);
  EXPECT_GT(s.p50, 0.0);
  EXPECT_GE(s.p999, s.p50);
}

// Serving knn through the hybrid executor must reproduce the sequential
// oracle exactly: round-robin load serves each query id exactly once, so
// the per-query k-best lists match knn_sequential's bit for bit.
TEST(QueryServer, KnnServeMatchesSequentialOracle) {
  constexpr std::size_t kPoints = 600;
  constexpr int kK = 4;
  const auto points = tb::spatial::Bodies::uniform_cube(kPoints);
  const auto tree = tb::spatial::KdTree::build(points, 16);

  tb::apps::KnnState oracle(kPoints, kK);
  {
    tb::apps::KnnProgram prog{&points, &tree, &oracle};
    tb::apps::knn_sequential(prog);
  }

  tb::apps::KnnState served(kPoints, kK);
  tb::apps::KnnProgram prog{&points, &tree, &served};
  tb::rt::ForkJoinPool pool(2);
  tb::rt::HybridOptions hopt;
  hopt.t_reexp = 4 * static_cast<std::size_t>(tb::simd::kernels().width);

  ServerOptions opt;
  opt.policy = {/*max_batch=*/32, /*max_wait_ns=*/200'000};
  QueryServer server(opt, tb::serve::knn_pool_runner(pool, hopt, prog));
  // Dispatch-native: the lane is bound to the process-wide active table.
  EXPECT_EQ(&server.serving_table(), &tb::simd::kernels());
  EXPECT_EQ(server.serving_width(), tb::simd::kernels().width);
  server.start();
  tb::serve::LoadGenOptions lg;
  lg.rate_qps = 0.0;  // closed loop
  lg.total = kPoints;
  lg.id_space = static_cast<std::int32_t>(kPoints);
  lg.round_robin = true;  // each id exactly once — duplicates would corrupt k-best
  tb::serve::generate_load(server, lg);
  server.stop();

  EXPECT_EQ(server.completed(), kPoints);
  for (std::int32_t q = 0; q < static_cast<std::int32_t>(kPoints); ++q) {
    const auto want = oracle.distances(q);
    const auto got = served.distances(q);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_FLOAT_EQ(want[j], got[j]) << "query " << q << " neighbor " << j;
    }
  }
}

// ---- lifecycle regressions ------------------------------------------------------

// Regression: stop() joined a non-joinable thread (std::system_error) when
// called without start() or a second time.
TEST(ServerLifecycle, StopWithoutStartIsSafe) {
  CountingRunner cr;
  QueryServer server(ServerOptions{}, cr.runner());
  server.stop();  // never started: must not throw
  EXPECT_EQ(server.completed(), 0u);
}  // destructor runs stop() again — must also be a no-op

TEST(ServerLifecycle, DoubleStopIsIdempotent) {
  CountingRunner cr;
  ServerOptions opt;
  opt.policy = {/*max_batch=*/8, /*max_wait_ns=*/0};
  QueryServer server(opt, cr.runner());
  server.start();
  for (std::int32_t i = 0; i < 20; ++i) server.submit(i, tb::serve::now_ns());
  server.stop();
  const std::size_t done = server.completed();
  server.stop();  // second stop: no join crash, no telemetry change
  EXPECT_EQ(server.completed(), done);
  EXPECT_EQ(done, 20u);
}

// Regression: submit() yield-spun forever when the server stopped while
// the queue was full, and try_submit() after stop() enqueued requests no
// one would ever drain.
TEST(ServerLifecycle, SubmitAfterStopIsRejected) {
  CountingRunner cr;
  QueryServer server(ServerOptions{}, cr.runner());
  server.start();
  ASSERT_TRUE(server.submit(1, tb::serve::now_ns()));
  server.stop();
  EXPECT_FALSE(server.try_submit(2, tb::serve::now_ns()));
  EXPECT_FALSE(server.submit(3, tb::serve::now_ns()));  // returns, never spins
  EXPECT_EQ(server.completed(), 1u);
  EXPECT_EQ(server.unserved_at_stop(), 0u);
}

// Requests accepted before start() on a server that never starts must be
// accounted (unserved_at_stop), not stranded in the queue.
TEST(ServerLifecycle, StopWithoutStartAccountsQueuedRequests) {
  CountingRunner cr;
  QueryServer server(ServerOptions{}, cr.runner());
  for (std::int32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.try_submit(i, tb::serve::now_ns()));
  }
  server.stop();
  EXPECT_EQ(server.completed(), 0u);
  EXPECT_EQ(server.unserved_at_stop(), 3u);
}

TEST(ServerLifecycle, SubmitToUnknownKernelIsRejected) {
  CountingRunner cr;
  QueryServer server(ServerOptions{}, cr.runner());
  server.start();
  EXPECT_FALSE(server.try_submit(/*kernel=*/5, 1, tb::serve::now_ns()));
  EXPECT_FALSE(server.submit(/*kernel=*/-1, 1, tb::serve::now_ns()));
  server.stop();
  EXPECT_EQ(server.completed(), 0u);
}

// ---- multi-kernel serving -------------------------------------------------------

TEST(MultiKernel, RoutesEachKernelToItsOwnRunner) {
  CountingRunner even, odd;
  QueryServer server(ServerOptions{});
  KernelOptions kopt;
  kopt.policy = {/*max_batch=*/8, /*max_wait_ns=*/100'000};
  const int ke = server.register_kernel("even", kopt, even.runner());
  const int ko = server.register_kernel("odd", kopt, odd.runner());
  EXPECT_EQ(server.kernels(), 2u);
  EXPECT_EQ(server.find_kernel("odd"), ko);
  EXPECT_EQ(server.kernel_name(ke), "even");
  server.start();
  constexpr std::int32_t kN = 400;
  for (std::int32_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(server.submit(i % 2 == 0 ? ke : ko, i, tb::serve::now_ns()));
  }
  server.stop();

  EXPECT_EQ(server.completed(ke), static_cast<std::size_t>(kN / 2));
  EXPECT_EQ(server.completed(ko), static_cast<std::size_t>(kN / 2));
  EXPECT_EQ(server.completed(), static_cast<std::size_t>(kN));
  EXPECT_EQ(server.latencies_s(ke).size(), static_cast<std::size_t>(kN / 2));
  EXPECT_EQ(server.latencies_s().size(), static_cast<std::size_t>(kN));
  EXPECT_EQ(server.batches_dispatched(),
            server.batches_dispatched(ke) + server.batches_dispatched(ko));
  for (const std::int32_t id : even.seen) EXPECT_EQ(id % 2, 0) << "wrong lane";
  for (const std::int32_t id : odd.seen) EXPECT_EQ(id % 2, 1) << "wrong lane";
  std::vector<int> times(kN, 0);
  for (const std::int32_t id : even.seen) times[static_cast<std::size_t>(id)]++;
  for (const std::int32_t id : odd.seen) times[static_cast<std::size_t>(id)]++;
  for (std::int32_t i = 0; i < kN; ++i) EXPECT_EQ(times[static_cast<std::size_t>(i)], 1);
}

// One server multiplexing knn + pointcorr + minmaxdist through the hybrid
// executor must reproduce all three sequential oracles exactly: round-robin
// load serves each (kernel, id) pair exactly once.
TEST(MultiKernel, ThreeKernelServeMatchesSequentialOracles) {
  constexpr std::size_t kPoints = 400;
  constexpr int kK = 4;
  constexpr float kRad2 = 0.05f;
  const auto points = tb::spatial::Bodies::uniform_cube(kPoints);
  const auto tree = tb::spatial::KdTree::build(points, 16);
  const auto n = static_cast<std::int32_t>(kPoints);

  // Sequential oracles.
  tb::apps::KnnState knn_oracle(kPoints, kK);
  {
    tb::apps::KnnProgram prog{&points, &tree, &knn_oracle};
    tb::apps::knn_sequential(prog);
  }
  tb::apps::PointCorrProgram pc_prog{&points, &tree, kRad2};
  const std::uint64_t pc_oracle = tb::apps::pointcorr_sequential(pc_prog);
  tb::apps::MinmaxDistState mm_oracle(kPoints);
  {
    tb::apps::MinmaxDistProgram prog{&points, &tree, &mm_oracle};
    tb::apps::minmaxdist_sequential(prog);
  }

  // Served states.
  tb::rt::ForkJoinPool pool(2);
  tb::rt::HybridOptions hopt;

  tb::apps::KnnState knn_served(kPoints, kK);
  tb::apps::KnnProgram knn_prog{&points, &tree, &knn_served};

  std::vector<tb::rt::Padded<std::uint64_t>> pc_parts(
      static_cast<std::size_t>(tb::rt::hybrid_slots(pool)));

  tb::apps::MinmaxDistState mm_served(kPoints);
  tb::apps::MinmaxDistProgram mm_prog{&points, &tree, &mm_served};

  QueryServer server(ServerOptions{});
  KernelOptions kopt;
  kopt.policy = {/*max_batch=*/32, /*max_wait_ns=*/200'000};
  const int k_knn =
      server.register_kernel("knn", kopt, tb::serve::knn_pool_runner(pool, hopt, knn_prog));
  const int k_pc = server.register_kernel(
      "pointcorr", kopt,
      tb::serve::pointcorr_pool_runner(pool, hopt, pc_prog, pc_parts.data()));
  const int k_mm = server.register_kernel(
      "minmaxdist", kopt, tb::serve::minmaxdist_pool_runner(pool, hopt, mm_prog));
  server.start();
  for (std::int32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(server.submit(k_knn, i, tb::serve::now_ns()));
    ASSERT_TRUE(server.submit(k_pc, i, tb::serve::now_ns()));
    ASSERT_TRUE(server.submit(k_mm, i, tb::serve::now_ns()));
  }
  server.stop();

  EXPECT_EQ(server.completed(k_knn), kPoints);
  EXPECT_EQ(server.completed(k_pc), kPoints);
  EXPECT_EQ(server.completed(k_mm), kPoints);
  for (std::int32_t q = 0; q < n; ++q) {
    const auto want = knn_oracle.distances(q);
    const auto got = knn_served.distances(q);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_FLOAT_EQ(want[j], got[j]) << "knn query " << q << " neighbor " << j;
    }
  }
  std::uint64_t pc_total = 0;
  for (const auto& p : pc_parts) pc_total += p.value;
  EXPECT_EQ(pc_total, pc_oracle);
  EXPECT_EQ(tb::apps::minmaxdist_digest(mm_served), tb::apps::minmaxdist_digest(mm_oracle));
}

// ---- deadline-aware serving end to end ------------------------------------------

TEST(DeadlineServe, ExpiredDeadlinesAreShedNotServed) {
  CountingRunner cr;
  QueryServer server(ServerOptions{}, cr.runner());
  server.start();
  constexpr std::int32_t kN = 50;
  const std::int64_t arrival = tb::serve::now_ns() - 2'000'000;
  for (std::int32_t i = 0; i < kN; ++i) {
    // Deadline 1 ms in the past: admission must shed every one.
    ASSERT_TRUE(server.submit(0, i, arrival, arrival + 1'000'000));
  }
  server.stop();
  EXPECT_EQ(server.completed(), 0u);
  EXPECT_EQ(server.shed(), static_cast<std::size_t>(kN));
  EXPECT_TRUE(cr.seen.empty());
  EXPECT_TRUE(server.latencies_s().empty());
}

TEST(DeadlineServe, GenerousDeadlinesAllServedOnTime) {
  CountingRunner cr;
  ServerOptions opt;
  opt.policy = {/*max_batch=*/8, /*max_wait_ns=*/100'000};
  QueryServer server(opt, cr.runner());
  server.start();
  constexpr std::int32_t kN = 200;
  std::size_t accepted = 0;
  for (std::int32_t i = 0; i < kN; ++i) {
    const std::int64_t t = tb::serve::now_ns();
    if (server.submit(0, i, t, t + std::int64_t{600} * 1'000'000'000)) ++accepted;
  }
  server.stop();
  EXPECT_EQ(accepted, static_cast<std::size_t>(kN));
  EXPECT_EQ(server.completed(), static_cast<std::size_t>(kN));
  EXPECT_EQ(server.shed(), 0u);
  EXPECT_EQ(server.served_late(), 0u);
  // Accounting invariant: every accepted query lands in exactly one bucket.
  EXPECT_EQ(accepted, server.completed() + server.shed() + server.unserved_at_stop());
}

// ---- ISA-dispatch binding of serving lanes --------------------------------------

// FNV-1a over the served k-best float bits — the bit-identical currency
// the cross-table matrix compares in.
std::uint64_t knn_digest(const tb::apps::KnnState& st, std::size_t queries) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t q = 0; q < queries; ++q) {
    for (const float d : st.distances(static_cast<std::int32_t>(q))) {
      std::uint32_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      h = (h ^ bits) * 1099511628211ull;
    }
  }
  return h;
}

// Regression for the inert forced-ISA rerun: serving lanes must be bound
// to the PROCESS-WIDE active table, so `TB_SIMD_ISA=sse2 ctest -R serve`
// really serves through the sse2 table.  Before table threading the lane
// width was fixed at compile time and this env var changed nothing here.
// (Compared against kernels() rather than active_isa() by name: on an
// sse-only build of an AVX host, active_isa() stays high while kernels()
// correctly clamps to the widest compiled table — the lane must follow
// kernels().)
TEST(ServeDispatch, ActiveTableMatchesActiveIsa) {
  CountingRunner cr;
  QueryServer server(ServerOptions{}, cr.runner());
  const tb::simd::KernelTable& active = tb::simd::kernels();
  EXPECT_EQ(&server.serving_table(), &active);
  EXPECT_EQ(server.serving_width(), active.width);
  EXPECT_STREQ(server.serving_isa(), active.name);
  // kernels() already folds in TB_SIMD_ISA: never above the active level.
  EXPECT_LE(static_cast<int>(active.isa), static_cast<int>(tb::simd::active_isa()));
}

// Satellite: every runnable table serves knn/pointcorr/minmaxdist with
// bit-identical results (vs the sequential oracles and hence vs each
// other) and exact completed+shed+unserved accounting — with and without
// frame donation.  The donating variant never splits a batch's range
// (grain = the batch size) and lowers t_reexp to W, so a full batch's root
// frame is donatable and the idle worker can only get work by donation.
TEST(ServeDispatch, CrossIsaServeEquivalenceMatrix) {
  constexpr std::size_t kPoints = 300;
  constexpr int kK = 4;
  constexpr float kRad2 = 0.05f;
  const auto points = tb::spatial::Bodies::uniform_cube(kPoints);
  const auto tree = tb::spatial::KdTree::build(points, 16);
  const auto n = static_cast<std::int32_t>(kPoints);

  tb::apps::KnnState knn_oracle(kPoints, kK);
  {
    tb::apps::KnnProgram prog{&points, &tree, &knn_oracle};
    tb::apps::knn_sequential(prog);
  }
  const std::uint64_t knn_want = knn_digest(knn_oracle, kPoints);
  tb::apps::PointCorrProgram pc_prog{&points, &tree, kRad2};
  const std::uint64_t pc_want = tb::apps::pointcorr_sequential(pc_prog);
  tb::apps::MinmaxDistState mm_oracle(kPoints);
  {
    tb::apps::MinmaxDistProgram prog{&points, &tree, &mm_oracle};
    tb::apps::minmaxdist_sequential(prog);
  }
  const auto mm_want = tb::apps::minmaxdist_digest(mm_oracle);

  int count = 0;
  const tb::simd::KernelTable* const* tables = tb::simd::available_tables(count);
  ASSERT_GT(count, 0);
  constexpr std::size_t kMaxBatch = 32;
  for (int ti = 0; ti < count * 2; ++ti) {
    const tb::simd::KernelTable* tab = tables[ti / 2];
    const bool donation = ti % 2 == 1;
    SCOPED_TRACE(std::string(tab->name) + (donation ? " donation" : ""));
    tb::rt::ForkJoinPool pool(2);
    tb::rt::HybridOptions hopt;
    hopt.t_reexp = 4 * static_cast<std::size_t>(tab->width);
    if (donation) {
      hopt.donation = true;
      hopt.t_reexp = static_cast<std::size_t>(tab->width);
      hopt.grain = static_cast<std::int32_t>(kMaxBatch);
    }

    tb::apps::KnnState knn_served(kPoints, kK);
    tb::apps::KnnProgram knn_prog{&points, &tree, &knn_served};
    std::vector<tb::rt::Padded<std::uint64_t>> pc_parts(
        static_cast<std::size_t>(tb::rt::hybrid_slots(pool)));
    tb::apps::MinmaxDistState mm_served(kPoints);
    tb::apps::MinmaxDistProgram mm_prog{&points, &tree, &mm_served};

    ServerOptions opt;
    opt.forced_width = tab->width;
    QueryServer server(opt);
    KernelOptions kopt;
    kopt.policy = {kMaxBatch, /*max_wait_ns=*/200'000};
    const int k_knn = server.register_kernel(
        "knn", kopt, tb::serve::knn_pool_runner(pool, hopt, knn_prog));
    const int k_pc = server.register_kernel(
        "pointcorr", kopt,
        tb::serve::pointcorr_pool_runner(pool, hopt, pc_prog, pc_parts.data()));
    const int k_mm = server.register_kernel(
        "minmaxdist", kopt, tb::serve::minmaxdist_pool_runner(pool, hopt, mm_prog));
    ASSERT_EQ(&server.serving_table(k_knn), tab);
    ASSERT_EQ(&server.serving_table(k_pc), tab);
    ASSERT_EQ(&server.serving_table(k_mm), tab);
    EXPECT_EQ(server.serving_width(k_knn), tab->width);
    EXPECT_STREQ(server.serving_isa(k_knn), tab->name);

    server.start();
    std::size_t accepted = 0;
    for (std::int32_t i = 0; i < n; ++i) {
      if (server.submit(k_knn, i, tb::serve::now_ns())) ++accepted;
      if (server.submit(k_pc, i, tb::serve::now_ns())) ++accepted;
      if (server.submit(k_mm, i, tb::serve::now_ns())) ++accepted;
    }
    server.stop();

    EXPECT_EQ(accepted, 3 * kPoints);
    EXPECT_EQ(accepted,
              server.completed() + server.shed() + server.unserved_at_stop());
    EXPECT_EQ(server.completed(k_knn), kPoints);
    EXPECT_EQ(server.completed(k_pc), kPoints);
    EXPECT_EQ(server.completed(k_mm), kPoints);

    EXPECT_EQ(knn_digest(knn_served, kPoints), knn_want);
    std::uint64_t pc_total = 0;
    for (const auto& p : pc_parts) pc_total += p.value;
    EXPECT_EQ(pc_total, pc_want);
    EXPECT_EQ(tb::apps::minmaxdist_digest(mm_served), mm_want);
  }
}

// Satellite: forced-width validation happens at registration and a failed
// registration leaves the server untouched.
TEST(ServeDispatch, InvalidForcedWidthRejectedAtRegistration) {
  CountingRunner cr;
  QueryServer server(ServerOptions{});
  KernelOptions bad;
  bad.forced_width = 5;
  EXPECT_THROW(server.register_kernel("bad", bad, cr.runner()), std::invalid_argument);
  EXPECT_EQ(server.kernels(), 0u);  // no half-registered lane

  // Server-wide invalid width also surfaces at registration (that is where
  // resolution happens), not at construction.
  ServerOptions sopt;
  sopt.forced_width = 7;
  QueryServer server2(sopt);
  KernelOptions inherit;  // forced_width = 0 inherits the bad server width
  EXPECT_THROW(server2.register_kernel("k", inherit, cr.runner()), std::invalid_argument);

  // Valid width registers; per-kernel override beats the server-wide one.
  ServerOptions wide;
  wide.forced_width = tb::simd::kernels().width;
  QueryServer server3(wide);
  KernelOptions narrow;
  narrow.forced_width = 4;  // the sse2 table is always compiled and runnable
  const int k = server3.register_kernel("narrow", narrow, cr.runner());
  EXPECT_EQ(server3.serving_width(k), 4);
  const int kd = server3.register_kernel("inherit", inherit, cr.runner());
  EXPECT_EQ(server3.serving_width(kd), tb::simd::kernels().width);
}

// Satellite: forced widths select exactly the matching table when it is
// runnable and clamp down (TB_SIMD_ISA's clamp rule) when it is not —
// phrased host-independently so the same assertions hold on the sse-only
// CI leg where the AVX tables are compiled out.
TEST(ServeDispatch, ForcedWidthSelectsAndClampsLikeTbSimdIsa) {
  int count = 0;
  const tb::simd::KernelTable* const* tables = tb::simd::available_tables(count);
  ASSERT_GT(count, 0);
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(&tb::serve::resolve_serve_table(tables[i]->width), tables[i]);
  }
  // 16 is always a *valid* request; when the avx512 table is missing it
  // clamps to the widest runnable table (the last available_tables entry).
  EXPECT_EQ(&tb::serve::resolve_serve_table(16), tables[count - 1]);
  EXPECT_EQ(&tb::serve::resolve_serve_table(0), &tb::simd::kernels());
  EXPECT_THROW(tb::serve::resolve_serve_table(3), std::invalid_argument);
  EXPECT_THROW(tb::serve::resolve_serve_table(-4), std::invalid_argument);
  EXPECT_THROW(tb::serve::resolve_serve_table(32), std::invalid_argument);
}

TEST(ServeDispatch, ClampRuleIsPure) {
  using tb::serve::clamp_serve_width;
  const int all[] = {4, 8, 16};
  EXPECT_EQ(clamp_serve_width(16, all, 3), 16);
  EXPECT_EQ(clamp_serve_width(8, all, 3), 8);
  EXPECT_EQ(clamp_serve_width(4, all, 3), 4);
  const int sse_only[] = {4};
  EXPECT_EQ(clamp_serve_width(16, sse_only, 1), 4);
  EXPECT_EQ(clamp_serve_width(8, sse_only, 1), 4);
  const int no_avx512[] = {4, 8};
  EXPECT_EQ(clamp_serve_width(16, no_avx512, 2), 8);
  // Defensive floor: nothing at or below the request -> narrowest table.
  const int weird[] = {8, 16};
  EXPECT_EQ(clamp_serve_width(4, weird, 2), 8);
}

// Satellite: admission policy behavior (EDF arbitration, deadline shed,
// adaptive batch sizing) is a pure function of virtual time and must not
// depend on which table a lane is bound to.  Replays one scenario per
// runnable table and compares every observable against the width-0 run.
TEST(ServeDispatch, TableChoiceDoesNotAffectAdmissionPolicies) {
  struct Observed {
    std::vector<int> picks;
    std::size_t bulk_shed = 0;
    std::size_t slo_shed = 0;
    std::int64_t park_horizon = 0;
    std::size_t adaptive_batch = 0;
  };
  const auto replay = [](int forced_width) {
    const tb::serve::RunnerFactory noop = noop_lane();
    KernelRouter router;
    KernelOptions kopt;
    kopt.policy = {/*max_batch=*/4, /*max_wait_ns=*/1000};
    kopt.initial_service_estimate_ns = 100;
    kopt.forced_width = forced_width;
    KernelOptions aopt = kopt;
    aopt.adaptive.enabled = true;
    aopt.adaptive.max_batch = 64;
    aopt.adaptive.target_window_ns = 1000;
    const int bulk = router.add("bulk", kopt, noop);
    const int slo = router.add("slo", aopt, noop);

    Observed o;
    // Bulk: old arrival, no deadline.  SLO: newer arrival, 600 deadline,
    // plus one unmeetable deadline that must shed (service estimate 100).
    router.lane(bulk).admit(1, /*arrival=*/0, kNoDeadline, /*now=*/0);
    router.lane(slo).admit(2, /*arrival=*/50, /*deadline=*/600, /*now=*/50);
    router.lane(slo).admit(3, /*arrival=*/60, /*deadline=*/120, /*now=*/60);
    o.park_horizon = router.next_deadline_ns();
    Batch out;
    int k;
    while ((k = router.pick_ready(/*now=*/2000)) != -1) {
      o.picks.push_back(k);
      router.lane(k).batcher().pop_ready(2000, out);
      out.clear();
    }
    // Adaptive lane: steady 100 ns gaps derive the same policy everywhere.
    for (std::int64_t t = 3000; t <= 3500; t += 100) {
      router.lane(slo).admit(9, t, kNoDeadline, t);
    }
    o.adaptive_batch = router.lane(slo).batcher().policy().max_batch;
    o.bulk_shed = router.lane(bulk).shed();
    o.slo_shed = router.lane(slo).shed();
    return o;
  };

  const Observed want = replay(/*forced_width=*/0);
  EXPECT_EQ(want.slo_shed, 1u);  // the unmeetable deadline
  int count = 0;
  const tb::simd::KernelTable* const* tables = tb::simd::available_tables(count);
  for (int ti = 0; ti < count; ++ti) {
    SCOPED_TRACE(tables[ti]->name);
    const Observed got = replay(tables[ti]->width);
    EXPECT_EQ(got.picks, want.picks);
    EXPECT_EQ(got.bulk_shed, want.bulk_shed);
    EXPECT_EQ(got.slo_shed, want.slo_shed);
    EXPECT_EQ(got.park_horizon, want.park_horizon);
    EXPECT_EQ(got.adaptive_batch, want.adaptive_batch);
  }
}

}  // namespace
