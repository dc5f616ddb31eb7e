// Tests for the query-serving layer: MPMC queue semantics, the
// work-conserving admission batcher and deadline shedding in exact virtual
// time (plus a randomized check of batcher + router against a reference
// model), latency percentile math, server lifecycle regressions
// (double-stop, stop-without-start, post-stop submit, backlog memory
// bound), the admission contract on a live server (no timer holds an idle
// query, group commit), the QueryServer end to end — single- and
// multi-kernel — against the sequential oracles, and the ISA-dispatch
// binding of serving lanes (active-table regression, forced-width
// validation/clamping, cross-ISA digest equivalence).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/forkjoin.hpp"
#include "runtime/xoshiro.hpp"
#include "serve/batcher.hpp"
#include "serve/latency.hpp"
#include "serve/loadgen.hpp"
#include "serve/pool_runner.hpp"
#include "serve/queue.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "simd/dispatch.hpp"
#include "simd/isa.hpp"
#include "spatial/kdtree.hpp"

namespace {

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
  AdmissionBatcher b({/*max_batch=*/4, /*budget_ns=*/1'000'000});
  for (std::int32_t i = 0; i < 6; ++i) b.push(i, /*arrival=*/i);
  Batch out;
  ASSERT_TRUE(b.pop(out));  // at most max_batch, oldest first
  EXPECT_EQ(out.ids, (std::vector<std::int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(out.arrival_ns, (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(b.pending(), 2u);
}

TEST(Batcher, ZeroMaxWaitServesImmediately) {
  // Work-conserving: a lone query is dispatchable the instant it arrives,
  // whatever its lane's EDF budget.
  for (const std::int64_t budget : {std::int64_t{0}, std::int64_t{3600} * 1'000'000'000}) {
    AdmissionBatcher b({/*max_batch=*/64, budget});
    b.push(1, 10);
    Batch out;
    ASSERT_TRUE(b.pop(out));
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(b.pending(), 0u);
  }
}

TEST(Batcher, RemainderKeepsItsOwnDeadline) {
  AdmissionBatcher b({/*max_batch=*/4, /*budget_ns=*/1000});
  for (std::int32_t i = 0; i < 7; ++i) b.push(i, /*arrival=*/100 + i);
  EXPECT_EQ(b.urgency_ns(), 1100);  // oldest arrival 100 + budget
  Batch out;
  ASSERT_TRUE(b.pop(out));
  EXPECT_EQ(out.ids, (std::vector<std::int32_t>{0, 1, 2, 3}));
  out.clear();
  // Three left: they rank by the 5th arrival (104 + 1000) and pop next.
  EXPECT_EQ(b.pending(), 3u);
  EXPECT_EQ(b.urgency_ns(), 1104);
  ASSERT_TRUE(b.pop(out));
  EXPECT_EQ(out.ids, (std::vector<std::int32_t>{4, 5, 6}));
}

TEST(Batcher, NextDeadlineSentinelWhenEmpty) {
  AdmissionBatcher b({4, 1000});
  EXPECT_EQ(b.urgency_ns(), tb::serve::kNoDeadline);
  b.push(0, 50);
  EXPECT_EQ(b.urgency_ns(), 1050);
  Batch out;
  ASSERT_TRUE(b.pop(out));
  EXPECT_EQ(b.urgency_ns(), tb::serve::kNoDeadline);
}

TEST(Batcher, FlushDrainsWithoutDeadline) {
  AdmissionBatcher b({/*max_batch=*/4, /*budget_ns=*/1'000'000'000});
  for (std::int32_t i = 0; i < 6; ++i) b.push(i, i);
  Batch out;
  EXPECT_TRUE(b.pop(out));  // 4 (max_batch)
  EXPECT_EQ(out.size(), 4u);
  out.clear();
  EXPECT_TRUE(b.pop(out));  // remaining 2
  EXPECT_EQ(out.size(), 2u);
  out.clear();
  EXPECT_FALSE(b.pop(out));
  EXPECT_EQ(out.size(), 0u);
}

// Regression: any workload that always keeps >= 1 query pending never hits
// the full-drain compaction, so before the threshold compaction the
// consumed prefix of the batcher's arrays grew forever.
TEST(Batcher, LongLivedBacklogStaysBounded) {
  AdmissionBatcher b({/*max_batch=*/1, /*budget_ns=*/0});
  b.push(0, 0);
  Batch out;
  for (std::int64_t i = 1; i <= 20000; ++i) {
    b.push(static_cast<std::int32_t>(i), i);  // backlog never drains fully
    out.clear();
    ASSERT_TRUE(b.pop(out));
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(b.pending(), 1u);
  }
  // 20k consumed with 1 always pending: without compaction buffered() would
  // be 20001; with it the dead prefix is bounded by the threshold.
  EXPECT_LE(b.buffered(), b.pending() + 2 * AdmissionBatcher::kCompactThreshold);
}

// ---- deadline-aware admission (exact virtual time) ------------------------------

TEST(DeadlineAdmission, ShedsExpiredAndUnmeetableAtTheBoundary) {
  AdmissionBatcher b({/*max_batch=*/8, /*budget_ns=*/1000});
  b.set_service_estimate(100);
  // Already expired: deadline behind the virtual clock sheds even into an
  // empty batcher.
  EXPECT_FALSE(b.push(1, /*arrival=*/0, /*deadline=*/-1, /*now=*/0));
  // Empty batcher: the query dispatches at once and that dispatch refreshes
  // the estimate, so the estimate alone does not shed it.
  EXPECT_TRUE(b.push(2, 0, /*deadline=*/99, /*now=*/0));
  // Non-empty window: even an immediate dispatch lands at now + 100 > 99.
  EXPECT_FALSE(b.push(3, 0, /*deadline=*/99, /*now=*/0));
  EXPECT_EQ(b.shed(), 2u);
  EXPECT_EQ(b.pending(), 1u);
  // Exactly meetable boundary: now + 100 > 100 is false — admitted.
  EXPECT_TRUE(b.push(4, 0, /*deadline=*/100, /*now=*/0));
  EXPECT_EQ(b.pending(), 2u);
  EXPECT_EQ(b.shed(), 2u);
}

TEST(DeadlineAdmission, NoDeadlineQueriesNeverShed) {
  AdmissionBatcher b({/*max_batch=*/8, /*budget_ns=*/1000});
  b.set_service_estimate(1'000'000'000);  // huge estimate must not matter
  EXPECT_TRUE(b.push(1, 0, kNoDeadline, /*now=*/999'999'999));
  EXPECT_TRUE(b.push(2, 0, kNoDeadline, /*now=*/999'999'999));
  EXPECT_EQ(b.shed(), 0u);
}

TEST(DeadlineAdmission, UrgencyIsTightestEffectiveDeadlineInWindow) {
  AdmissionBatcher b({/*max_batch=*/4, /*budget_ns=*/1000});
  EXPECT_EQ(b.urgency_ns(), kNoDeadline);
  ASSERT_TRUE(b.push(1, /*arrival=*/100, kNoDeadline, /*now=*/100));
  EXPECT_EQ(b.urgency_ns(), 1100);  // no deadline -> arrival + budget
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
  kopt.policy = {/*max_batch=*/4, /*budget_ns=*/1000};
  const int bulk = router.add("bulk", kopt, noop);
  const int slo = router.add("slo", kopt, noop);
  EXPECT_EQ(router.pick(), -1);
  // Bulk lane: older arrival, no deadline (ranks as due at 0 + 1000).
  ASSERT_TRUE(router.lane(bulk).batcher().push(1, /*arrival=*/0, kNoDeadline, /*now=*/0));
  // SLO lane: newer arrival with a 600 deadline.
  ASSERT_TRUE(router.lane(slo).batcher().push(2, /*arrival=*/50, /*deadline=*/600, /*now=*/50));
  // EDF must pick the SLO lane despite the bulk lane's older arrival.
  ASSERT_EQ(router.pick(), slo);
  Batch out;
  ASSERT_TRUE(router.lane(slo).batcher().pop(out));
  EXPECT_EQ(router.pick(), bulk);
  // Equal keys: the lower lane index wins.
  ASSERT_TRUE(router.lane(slo).batcher().push(3, /*arrival=*/0, kNoDeadline, /*now=*/60));
  EXPECT_EQ(router.pick(), bulk);
}

// Regression for the deadline-shed spiral: the service estimate refreshes
// only when a batch dispatches, so one slow batch that lifted it past the
// deadline budget used to shed every later deadline query — and with
// nothing dispatching, the estimate never came back down.  A query that
// arrives at an empty lane dispatches at once and refreshes it.
TEST(DeadlineAdmission, OneSlowBatchDoesNotShedEveryLaterQuery) {
  KernelRouter router;
  KernelOptions kopt;
  kopt.policy = {/*max_batch=*/64, /*budget_ns=*/1'000'000};
  const int k = router.add("knn", kopt, noop_lane());
  tb::serve::KernelLane& lane = router.lane(k);
  std::int64_t now = 0;
  std::int32_t id = 0;
  Batch out;
  // Serve one arrival (deadline `rel` after it, 0 = none) if admitted; each
  // batch takes `service` ns of virtual time.
  const auto serve_one = [&](std::int64_t rel, std::int64_t service) {
    const bool admitted = lane.batcher().push(id++, now, rel > 0 ? now + rel : kNoDeadline, now);
    if (router.pick() == k) {
      lane.batcher().pop(out);
      lane.record_dispatch(out, now, now + service);
      out.clear();
    }
    return admitted;
  };
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(serve_one(0, 200'000));  // 200 us batches
    now += 1'000'000;
  }
  ASSERT_TRUE(serve_one(0, 10'000'000));  // one 10 ms batch
  now += 10'000'000;
  ASSERT_EQ(lane.batcher().service_estimate_ns(), 2'650'000);  // past a 2 ms budget
  // 50,000 arrivals at 5,000 q/s, each due 2 ms after arrival.
  for (int i = 0; i < 50'000; ++i) {
    serve_one(2'000'000, 200'000);
    now += 200'000;
  }
  EXPECT_EQ(lane.shed(), 0u);
  EXPECT_EQ(lane.completed(), 50'021u);
  EXPECT_EQ(lane.served_late(), 0u);
  EXPECT_EQ(lane.batcher().service_estimate_ns(), 200'000);
}

// ---- model-based admission (exact virtual time) ----------------------------------

// Reference model of batcher + router: per-lane FIFO, shed on a passed
// deadline or (into a non-empty window) on now + estimate, EDF pick over
// each lane's next window with ties to the lower index, and an EWMA
// (seeded by the first batch) of measured service times.
struct ModelLane {
  struct Query {
    std::int32_t id = 0;
    std::int64_t arrival = 0, deadline = kNoDeadline;
  };
  std::size_t max_batch = 1;
  std::int64_t budget = 0;
  std::deque<Query> q;
  std::int64_t est = 0;
  std::size_t batches = 0, shed = 0, late = 0, admitted = 0, dispatched = 0;

  bool admit(const Query& query, std::int64_t now) {
    const std::int64_t horizon = q.empty() ? 0 : est;
    if (query.deadline != kNoDeadline && now + horizon > query.deadline) {
      ++shed;
      return false;
    }
    q.push_back(query);
    ++admitted;
    return true;
  }
  std::int64_t urgency() const {
    std::int64_t u = kNoDeadline;
    for (std::size_t i = 0; i < std::min(q.size(), max_batch); ++i) {
      u = std::min(u, q[i].deadline != kNoDeadline ? q[i].deadline : q[i].arrival + budget);
    }
    return u;
  }
};

TEST(AdmissionModel, RandomOpsMatchReferenceModel) {
  constexpr int kOps = 12'000;
  const std::size_t batch_caps[] = {1, 2, 3, 8};
  const std::int64_t budgets[] = {0, 100'000, 1'000'000};
  // Times are whole ticks so that EDF keys often tie across lanes.
  constexpr std::int64_t kTick = 10'000;
  std::size_t compactions = 0;  // pops that compacted a still-pending window
  std::size_t ties = 0;         // picks between lanes with equal keys
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    tb::rt::Xoshiro256 rng(seed);
    const auto below = [&](std::uint32_t n) { return static_cast<std::int64_t>(rng.below(n)); };
    const int lanes = 1 + static_cast<int>(rng.below(3));
    // Admit share 50-70%: the higher shares build a backlog that never
    // drains, which exercises the consumed-prefix compaction.
    const std::int64_t admit_pct = 50 + 10 * below(3);
    KernelRouter router;
    std::vector<ModelLane> model;
    for (int k = 0; k < lanes; ++k) {
      KernelOptions kopt;
      kopt.policy = {batch_caps[rng.below(4)], budgets[rng.below(3)]};
      router.add("lane" + std::to_string(k), kopt, noop_lane());
      ModelLane m;
      m.max_batch = kopt.policy.max_batch;
      m.budget = kopt.policy.budget_ns;
      model.push_back(m);
    }
    std::int64_t now = 1'000'000'000;
    std::int32_t next_id = 0;
    Batch out;
    for (int op = 0; op < kOps; ++op) {
      if (below(100) < admit_pct) {
        now += kTick * below(5);
        const int k = static_cast<int>(rng.below(static_cast<std::uint32_t>(lanes)));
        const std::int64_t arrival = now - kTick * below(3);
        // Half carry a deadline, from already passed to 5 ms out.
        const std::int64_t deadline =
            rng.below(2) == 0 ? kNoDeadline : arrival + kTick * (below(511) - 10);
        const ModelLane::Query query{next_id++, arrival, deadline};
        ASSERT_EQ(router.lane(k).batcher().push(query.id, arrival, deadline, now),
                  model[static_cast<std::size_t>(k)].admit(query, now))
            << "op " << op;
      } else {
        int want = -1;
        std::int64_t best = kNoDeadline;
        for (int k = 0; k < lanes; ++k) {
          const ModelLane& m = model[static_cast<std::size_t>(k)];
          if (m.q.empty()) continue;
          if (want != -1 && m.urgency() == best) ++ties;
          if (want == -1 || m.urgency() < best) {
            want = k;
            best = m.urgency();
          }
        }
        const int k = router.pick();
        ASSERT_EQ(k, want) << "op " << op;
        if (k < 0) continue;
        ModelLane& m = model[static_cast<std::size_t>(k)];
        out.clear();
        const std::size_t held = router.lane(k).batcher().buffered();
        ASSERT_TRUE(router.lane(k).batcher().pop(out));
        const AdmissionBatcher& b = router.lane(k).batcher();
        if (b.pending() > 0 && b.buffered() < held) ++compactions;
        const std::size_t n = std::min(m.q.size(), m.max_batch);
        ASSERT_EQ(out.size(), n) << "op " << op;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out.ids[i], m.q[i].id) << "op " << op;
          ASSERT_EQ(out.arrival_ns[i], m.q[i].arrival) << "op " << op;
          ASSERT_EQ(out.deadline_ns[i], m.q[i].deadline) << "op " << op;
        }
        // Mostly sub-millisecond batches, now and then a 10 ms stall.
        const std::int64_t service = below(20) == 0 ? 10'000'000 : kTick * (1 + below(150));
        router.lane(k).record_dispatch(out, now, now + service);
        now += service;
        for (std::size_t i = 0; i < n; ++i) {
          if (m.q.front().deadline != kNoDeadline && now > m.q.front().deadline) ++m.late;
          m.q.pop_front();
        }
        m.est = m.batches == 0
                    ? service
                    : m.est + ((service - m.est) >> tb::serve::KernelLane::kServiceEwmaShift);
        ++m.batches;
        m.dispatched += n;
      }
      for (int k = 0; k < lanes; ++k) {
        const tb::serve::KernelLane& lane = router.lane(k);
        const ModelLane& m = model[static_cast<std::size_t>(k)];
        const AdmissionBatcher& b = lane.batcher();
        ASSERT_EQ(b.pending(), m.q.size()) << "op " << op;
        ASSERT_EQ(m.admitted, m.dispatched + b.pending());
        ASSERT_EQ(lane.completed(), m.dispatched);
        ASSERT_EQ(lane.shed(), m.shed);
        ASSERT_EQ(lane.served_late(), m.late);
        ASSERT_EQ(b.service_estimate_ns(), m.est);
        ASSERT_LE(b.buffered() - b.pending(),
                  std::max(AdmissionBatcher::kCompactThreshold, b.pending()));
      }
    }
  }
  EXPECT_GT(compactions, 0u) << "no seed exercised the consumed-prefix compaction";
  EXPECT_GT(ties, 0u) << "no seed exercised an EDF tie";
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
  opt.policy = {/*max_batch=*/8, /*budget_ns=*/100'000};
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
  // stop() returns only once everything admitted was served, even under a
  // 1 h budget.
  opt.policy = {/*max_batch=*/64, /*budget_ns=*/std::int64_t{3600} * 1'000'000'000};
  QueryServer server(opt, cr.runner());
  server.start();
  for (std::int32_t i = 0; i < 10; ++i) server.submit(i, tb::serve::now_ns());
  server.stop();
  EXPECT_EQ(server.completed(), 10u);
}

TEST(QueryServer, LoadGeneratorOffersAllQueries) {
  CountingRunner cr;
  ServerOptions opt;
  opt.policy = {/*max_batch=*/16, /*budget_ns=*/200'000};
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
  opt.policy = {/*max_batch=*/32, /*budget_ns=*/200'000};
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

// ---- admission contract on a live server ----------------------------------------

// Polls `done` until it holds or 10 s pass; true when it held.
bool eventually(const std::function<bool()>& done) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Records every batch; while `held` is set, the next batch blocks inside
// the runner until release() — holding the admission thread mid-dispatch.
struct GatedRunner {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::vector<std::int32_t>> batches;
  std::size_t seen = 0;
  bool held = false;
  bool inside = false;

  tb::serve::RunnerFactory runner() {
    return [this](const tb::simd::KernelTable&) -> QueryServer::BatchRunner {
      return [this](const std::int32_t* ids, std::size_t count) {
        std::unique_lock<std::mutex> lock(mu);
        batches.emplace_back(ids, ids + count);
        seen += count;
        inside = true;
        cv.wait(lock, [this] { return !held; });
        inside = false;
      };
    };
  }
  bool saw(std::size_t n) {
    const std::lock_guard<std::mutex> lock(mu);
    return seen >= n;
  }
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      held = false;
    }
    cv.notify_all();
  }
};

// Work conservation: no timer holds a query on an idle server, however
// large its lane's EDF budget.
TEST(AdmissionContract, IdleQueryDispatchesBeforeStop) {
  GatedRunner gr;
  ServerOptions opt;
  opt.policy = {/*max_batch=*/64, /*budget_ns=*/std::int64_t{3600} * 1'000'000'000};
  QueryServer server(opt, gr.runner());
  server.start();
  ASSERT_TRUE(server.submit(7, tb::serve::now_ns()));
  EXPECT_TRUE(eventually([&] { return gr.saw(1); })) << "the query waited for stop()";
  server.stop();
  EXPECT_EQ(server.completed(), 1u);
  EXPECT_EQ(gr.batches, (std::vector<std::vector<std::int32_t>>{{7}}));
}

// Group commit: the queries that arrive while a batch runs form the next
// dispatch — exactly those, in arrival order, split at max_batch.
TEST(AdmissionContract, ArrivalsDuringADispatchFormTheNextBatches) {
  GatedRunner gr;
  gr.held = true;
  ServerOptions opt;
  opt.policy = {/*max_batch=*/4, /*budget_ns=*/std::int64_t{3600} * 1'000'000'000};
  QueryServer server(opt, gr.runner());
  // Declared after the server so it opens the gate before the server's
  // destructor stops it, even when an assertion below returns early.
  const struct Opener {
    GatedRunner& g;
    ~Opener() { g.release(); }
  } opener{gr};
  server.start();
  ASSERT_TRUE(server.submit(0, tb::serve::now_ns()));
  ASSERT_TRUE(eventually([&] {
    const std::lock_guard<std::mutex> lock(gr.mu);
    return gr.inside;
  })) << "the first query waited for stop()";
  for (std::int32_t i = 1; i <= 10; ++i) ASSERT_TRUE(server.submit(i, tb::serve::now_ns()));
  gr.release();
  ASSERT_TRUE(eventually([&] { return gr.saw(11); }));
  server.stop();
  const std::vector<std::vector<std::int32_t>> want = {{0}, {1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10}};
  EXPECT_EQ(gr.batches, want);
  EXPECT_EQ(server.max_batch_seen(), 4u);
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
  opt.policy = {/*max_batch=*/8, /*budget_ns=*/0};
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
  kopt.policy = {/*max_batch=*/8, /*budget_ns=*/100'000};
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
  kopt.policy = {/*max_batch=*/32, /*budget_ns=*/200'000};
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
  opt.policy = {/*max_batch=*/8, /*budget_ns=*/100'000};
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
    kopt.policy = {kMaxBatch, /*budget_ns=*/200'000};
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

// Satellite: admission policy behavior (EDF arbitration, deadline shed)
// is a pure function of virtual time and must not depend on which table a
// lane is bound to.  Replays one scenario per runnable table and compares
// every observable against the width-0 run.
TEST(ServeDispatch, TableChoiceDoesNotAffectAdmissionPolicies) {
  struct Observed {
    std::vector<int> picks;
    std::size_t bulk_shed = 0;
    std::size_t slo_shed = 0;
  };
  const auto replay = [](int forced_width) {
    const tb::serve::RunnerFactory noop = noop_lane();
    KernelRouter router;
    KernelOptions kopt;
    kopt.policy = {/*max_batch=*/4, /*budget_ns=*/1000};
    kopt.forced_width = forced_width;
    const int bulk = router.add("bulk", kopt, noop);
    const int slo = router.add("slo", kopt, noop);
    router.lane(slo).batcher().set_service_estimate(100);

    Observed o;
    // Bulk: old arrival, no deadline.  SLO: newer arrival, 600 deadline,
    // plus one unmeetable deadline that must shed (service estimate 100).
    router.lane(bulk).batcher().push(1, /*arrival=*/0, kNoDeadline, /*now=*/0);
    router.lane(slo).batcher().push(2, /*arrival=*/50, /*deadline=*/600, /*now=*/50);
    router.lane(slo).batcher().push(3, /*arrival=*/60, /*deadline=*/120, /*now=*/60);
    Batch out;
    int k;
    while ((k = router.pick()) != -1) {
      o.picks.push_back(k);
      router.lane(k).batcher().pop(out);
      out.clear();
    }
    o.bulk_shed = router.lane(bulk).shed();
    o.slo_shed = router.lane(slo).shed();
    return o;
  };

  const Observed want = replay(/*forced_width=*/0);
  EXPECT_EQ(want.slo_shed, 1u);  // the unmeetable deadline
  EXPECT_EQ(want.picks, (std::vector<int>{1, 0}));
  int count = 0;
  const tb::simd::KernelTable* const* tables = tb::simd::available_tables(count);
  for (int ti = 0; ti < count; ++ti) {
    SCOPED_TRACE(tables[ti]->name);
    const Observed got = replay(tables[ti]->width);
    EXPECT_EQ(got.picks, want.picks);
    EXPECT_EQ(got.bulk_shed, want.bulk_shed);
    EXPECT_EQ(got.slo_shed, want.slo_shed);
  }
}

}  // namespace
