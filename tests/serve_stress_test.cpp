// Stress tests for the serving layer (label: stress — repeated under TSan
// by the weekly soak): MPMC queue conservation under concurrent producers
// and consumers, the full QueryServer under multi-producer load with
// batches executing on a real ForkJoinPool — single- and multi-kernel,
// including lanes pinned to different forced SIMD widths — and the
// stop-vs-submit race's accounting invariant.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "apps/knn.hpp"
#include "runtime/forkjoin.hpp"
#include "serve/clock.hpp"
#include "serve/pool_runner.hpp"
#include "serve/queue.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "simd/dispatch.hpp"
#include "spatial/kdtree.hpp"

namespace {

using tb::serve::KernelOptions;
using tb::serve::MpmcQueue;
using tb::serve::QueryServer;
using tb::serve::ServerOptions;

// A lane factory that ignores its table and always builds `runner`.
tb::serve::RunnerFactory fixed(tb::serve::BatchRunner runner) {
  return [runner](const tb::simd::KernelTable&) { return runner; };
}

// Conservation: with 4 producers and 4 consumers hammering a small ring,
// every pushed item is popped exactly once — no losses, no duplicates.
TEST(ServeStress, MpmcConservation) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 20000;
  constexpr int kTotal = kProducers * kPerProducer;
  MpmcQueue<std::int32_t> q(256);
  std::vector<std::atomic<int>> taken(kTotal);
  for (auto& t : taken) t.store(0);
  std::atomic<int> popped{0};

  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (popped.load(std::memory_order_acquire) < kTotal) {
        if (auto v = q.try_pop()) {
          taken[static_cast<std::size_t>(*v)].fetch_add(1);
          popped.fetch_add(1, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto v = static_cast<std::int32_t>(p * kPerProducer + i);
        while (!q.try_push(v)) std::this_thread::yield();
      }
    });
  }

  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), kTotal);
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(taken[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

// Full pipeline under multi-producer load: four submitter threads feed the
// server concurrently while batches execute as parallel pool jobs; every
// submitted query must be dispatched exactly once.
TEST(ServeStress, MultiProducerServerConservation) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  constexpr int kTotal = kProducers * kPerProducer;

  tb::rt::ForkJoinPool pool(4);
  std::vector<std::atomic<int>> seen(kTotal);
  for (auto& s : seen) s.store(0);
  std::atomic<std::int64_t> sum{0};

  ServerOptions opt;
  opt.queue_capacity = 512;  // small queue: exercises producer backpressure
  opt.policy = {/*max_batch=*/128, /*budget_ns=*/100'000};
  QueryServer server(opt, fixed([&](const std::int32_t* ids, std::size_t count) {
                       // Touch every id as a parallel pool job, like a real
                       // batch traversal.
                       pool.run([&] {
                         tb::rt::WaitGroup wg;
                         for (std::size_t i = 0; i < count; ++i) {
                           const std::int32_t id = ids[i];
                           pool.spawn_detached(
                               [&, id] {
                                 seen[static_cast<std::size_t>(id)].fetch_add(1);
                                 sum.fetch_add(id, std::memory_order_relaxed);
                               },
                               wg);
                         }
                         pool.wait(wg);
                       });
                     }));
  server.start();

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        server.submit(p * kPerProducer + i, tb::serve::now_ns());
      }
    });
  }
  for (auto& t : producers) t.join();
  server.stop();

  EXPECT_EQ(server.completed(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "query " << i;
  }
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kTotal) * (kTotal - 1) / 2);
  EXPECT_EQ(server.latencies_s().size(), static_cast<std::size_t>(kTotal));
}

// Multi-kernel pipeline under concurrent producers: three lanes with
// different batch shapes share one admission thread and one pool; every
// (kernel, id) pair must be dispatched exactly once, on its own lane.
TEST(ServeStress, MultiKernelPipelineConservation) {
  constexpr int kKernels = 3;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 4000;
  constexpr int kTotal = kProducers * kPerProducer;  // per kernel

  tb::rt::ForkJoinPool pool(4);
  // seen[kernel * kTotal + id]
  std::vector<std::atomic<int>> seen(static_cast<std::size_t>(kKernels) * kTotal);
  for (auto& s : seen) s.store(0);

  ServerOptions opt;
  opt.queue_capacity = 512;  // small queue: exercises producer backpressure
  QueryServer server(opt);
  const std::size_t batch_caps[kKernels] = {128, 32, 1};
  for (int k = 0; k < kKernels; ++k) {
    KernelOptions kopt;
    kopt.policy = {batch_caps[k], /*budget_ns=*/100'000};
    server.register_kernel("lane" + std::to_string(k), kopt,
                           fixed([&, k](const std::int32_t* ids, std::size_t count) {
                             pool.run([&] {
                               tb::rt::WaitGroup wg;
                               for (std::size_t i = 0; i < count; ++i) {
                                 const std::int32_t id = ids[i];
                                 pool.spawn_detached(
                                     [&, id] {
                                       seen[static_cast<std::size_t>(k) * kTotal +
                                            static_cast<std::size_t>(id)]
                                           .fetch_add(1);
                                     },
                                     wg);
                               }
                               pool.wait(wg);
                             });
                           }));
  }
  server.start();

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int32_t id = p * kPerProducer + i;
        // Interleave kernels so every drain mixes lanes.
        for (int k = 0; k < kKernels; ++k) server.submit(k, id, tb::serve::now_ns());
      }
    });
  }
  for (auto& t : producers) t.join();
  server.stop();

  for (int k = 0; k < kKernels; ++k) {
    EXPECT_EQ(server.completed(k), static_cast<std::size_t>(kTotal)) << "kernel " << k;
    EXPECT_EQ(server.latencies_s(k).size(), static_cast<std::size_t>(kTotal));
  }
  EXPECT_EQ(server.completed(), static_cast<std::size_t>(kKernels) * kTotal);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "(kernel,id) slot " << i;
  }
}

// Stop-vs-submit race: producers hammer submit while another thread stops
// the server mid-stream (and a second thread races a concurrent stop()).
// The lifecycle contract says every submit that returned true is counted
// exactly once in completed + shed + unserved_at_stop, and submits after
// stop fail fast instead of hanging — regardless of where the stop flag
// lands relative to each push.
TEST(ServeStress, ConcurrentStopAccountsEveryAcceptedSubmit) {
  constexpr int kRounds = 50;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;

  for (int round = 0; round < kRounds; ++round) {
    ServerOptions opt;
    opt.queue_capacity = 256;
    opt.policy = {/*max_batch=*/64, /*budget_ns=*/0};
    QueryServer server(opt, fixed([](const std::int32_t*, std::size_t) {}));
    server.start();

    std::atomic<std::size_t> accepted{0};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::size_t mine = 0;
        for (int i = 0; i < kPerProducer; ++i) {
          if (server.try_submit(p * kPerProducer + i, tb::serve::now_ns())) ++mine;
        }
        accepted.fetch_add(mine, std::memory_order_relaxed);
      });
    }
    std::thread stopper([&] { server.stop(); });
    std::thread second_stopper([&] { server.stop(); });
    for (auto& t : producers) t.join();
    stopper.join();
    second_stopper.join();
    server.stop();  // and once more from the main thread: still idempotent

    ASSERT_EQ(accepted.load(),
              server.completed() + server.shed() + server.unserved_at_stop())
        << "round " << round;
    EXPECT_EQ(server.shed(), 0u);  // no deadlines in this stream
    EXPECT_FALSE(server.try_submit(0, tb::serve::now_ns()));
  }
}

// Mixed-width hot serving: one knn lane per runnable kernel table, each
// pinned to its forced width, all sharing one admission thread and one
// pool, while concurrent producers hammer every lane and a stopper races
// the stream.  The dispatch-native claim under stress: per-lane table
// binding survives hot traffic, and the lifecycle accounting invariant
// (accepted == completed + shed + unserved_at_stop, per lane) holds no
// matter which width a lane executes at.  Producers partition the id
// space so each (lane, id) pair is submitted at most once — duplicate ids
// inside one batch would make two hybrid subranges offer into the same
// k-best list concurrently, which is a real data race, not a test bug.
TEST(ServeStress, MixedWidthLanesConservation) {
  constexpr std::size_t kPoints = 1200;
  constexpr int kK = 4;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = static_cast<int>(kPoints) / kProducers;
  const auto points = tb::spatial::Bodies::uniform_cube(kPoints);
  const auto tree = tb::spatial::KdTree::build(points, 16);

  int count = 0;
  const tb::simd::KernelTable* const* tables = tb::simd::available_tables(count);
  ASSERT_GT(count, 0);

  tb::rt::ForkJoinPool pool(4);
  std::vector<tb::apps::KnnState> states;
  std::vector<tb::apps::KnnProgram> progs;
  states.reserve(static_cast<std::size_t>(count));
  progs.reserve(static_cast<std::size_t>(count));

  ServerOptions opt;
  opt.queue_capacity = 256;  // small queue: producers hit backpressure
  QueryServer server(opt);
  for (int ti = 0; ti < count; ++ti) {
    states.emplace_back(kPoints, kK);
    progs.push_back(tb::apps::KnnProgram{&points, &tree, &states.back()});
    tb::rt::HybridOptions hopt;
    hopt.t_reexp = 4 * static_cast<std::size_t>(tables[ti]->width);
    KernelOptions kopt;
    kopt.policy = {/*max_batch=*/64, /*budget_ns=*/50'000};
    kopt.forced_width = tables[ti]->width;
    const int k = server.register_kernel(std::string("knn_") + tables[ti]->name, kopt,
                                         tb::serve::knn_pool_runner(pool, hopt, progs.back()));
    ASSERT_EQ(&server.serving_table(k), tables[ti]);
  }
  server.start();

  std::atomic<std::size_t> accepted{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::size_t mine = 0;
      for (int i = 0; i < kPerProducer; ++i) {
        const auto id = static_cast<std::int32_t>(p * kPerProducer + i);
        for (int k = 0; k < count; ++k) {
          if (server.try_submit(k, id, tb::serve::now_ns())) ++mine;
        }
      }
      accepted.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  std::thread stopper([&] { server.stop(); });
  for (auto& t : producers) t.join();
  stopper.join();
  server.stop();

  ASSERT_EQ(accepted.load(),
            server.completed() + server.shed() + server.unserved_at_stop());
  EXPECT_EQ(server.shed(), 0u);  // no deadlines in this stream
  for (int k = 0; k < count; ++k) {
    EXPECT_EQ(server.serving_width(k), tables[k]->width);
    EXPECT_EQ(server.latencies_s(k).size(), server.completed(k));
  }
}

}  // namespace
