// The generic traversal drivers: every entry point of a traversal workload
// derived from its one Kernel<W> (lockstep/kernels.hpp), all on the one
// blocked engine (lockstep/blocked.hpp).
//
//   run_classic   the prior-work lockstep model (lockstep.hpp): masked mode
//                 over [0, n), i.e. a re-expansion threshold above the
//                 query count, with its LockstepStats view
//   run_blocked   single-core blocked re-expansion over [0, n)
//   run_hybrid    per-slot engines and kernel copies over the pool
//                 (rt::hybrid_run), per-slot results summed
//   make_serve    a serving runner: the same per-slot driver, kept warm
//                 across batches, re-expanding each id batch from the root
//   finish_run    a kernel's optional finish() hook, which each driver
//                 calls once per kernel copy at the end of every run (every
//                 batch), on the calling thread, after the pool has joined:
//                 Barnes-Hut hands its per-body force sums to the program
//
// A kernel with a `result` member (an std::uint64_t count) makes each
// driver return the run's total; the others return void.  The range and
// donated-frame entry points are the engine's own run / run_frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "lockstep/blocked.hpp"
#include "lockstep/lockstep.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/hybrid.hpp"

namespace tb::lockstep {

template <class K>
using EngineFor = BlockedTraversal<K::width, typename K::Payload>;

template <class K>
concept Counting = requires(const K& k) { k.result; };

template <class K>
auto result_of(const K& k) {
  if constexpr (Counting<K>) return k.result;
}

template <class K>
void finish_run(K& k) {
  if constexpr (requires { k.finish(); }) k.finish();
}

template <class K>
auto run_blocked(K k, std::size_t t_reexp = 0, core::ExecStats* stats = nullptr) {
  EngineFor<K>(t_reexp).run(k.root(), k.root_payload(), 0, k.queries(), k, stats);
  finish_run(k);
  return result_of(k);
}

template <class K>
auto run_classic(K k, LockstepStats* stats = nullptr) {
  core::ExecStats st;
  EngineFor<K>(static_cast<std::size_t>(k.queries()) + 1)
      .run(k.root(), k.root_payload(), 0, k.queries(), k, &st);
  finish_run(k);
  if (stats != nullptr) {
    stats->node_visits += st.steps_total;
    stats->lane_visits += static_cast<std::uint64_t>(K::width) * st.steps_total;
    stats->active_lane_visits += st.tasks_executed;
  }
  return result_of(k);
}

// The per-slot driver under run_hybrid and make_serve: one engine and one
// kernel copy per hybrid slot.  Ranges mapped to one slot never run
// concurrently (rt::hybrid_for's contract, donated frames included), so
// neither needs locking, and each kernel copy accumulates its own slot's
// share of the result — on its own cache line, since that count is written
// at every step.  Each copy's finish hook runs once the pool has joined.
template <class K>
struct SlotDriver {
  std::vector<EngineFor<K>> engines;
  std::vector<rt::Padded<K>> kernels;

  SlotDriver(const rt::ForkJoinPool& pool, const rt::HybridOptions& opt, const K& k)
      : engines(rt::slot_engines<EngineFor<K>>(pool, opt)),
        kernels(engines.size(), rt::Padded<K>(k)) {}

  // Walks the queries [0, n) from the root over the pool — or, when `ids`
  // is given, the ids[0, n).  `stats`, when given, has one entry per slot.
  void run(rt::ForkJoinPool& pool, const rt::HybridOptions& opt, std::int32_t n,
           const std::int32_t* ids, core::ExecStats* stats) {
    const auto st = [stats](std::size_t s) { return stats != nullptr ? stats + s : nullptr; };
    rt::hybrid_run(
        pool, n, opt, engines,
        [&](std::int32_t b, std::int32_t e, int slot) {
          const auto s = static_cast<std::size_t>(slot);
          K& k = *kernels[s];
          if (ids == nullptr) {
            engines[s].run(k.root(), k.root_payload(), b, e - b, k, st(s));
          } else {
            engines[s].run_frame(k.root(), k.root_payload(), ids + b,
                                 static_cast<std::size_t>(e - b), k, st(s));
          }
        },
        [&](std::int32_t node, typename K::Payload payload, const std::int32_t* fids,
            std::size_t count, int slot) {
          const auto s = static_cast<std::size_t>(slot);
          engines[s].run_frame(node, payload, fids, count, *kernels[s], st(s));
        });
    for (rt::Padded<K>& k : kernels) finish_run(*k);
  }
};

template <class K>
auto run_hybrid(rt::ForkJoinPool& pool, const K& k, const rt::HybridOptions& opt = {},
                core::PerWorkerStats* stats = nullptr) {
  SlotDriver<K> slots(pool, opt, k);
  core::PerWorkerStats local;
  core::PerWorkerStats& pw = stats != nullptr ? *stats : local;
  pw.reset(slots.engines.size());
  slots.run(pool, opt, k.queries(), nullptr, pw.workers.data());
  if constexpr (Counting<K>) {
    std::uint64_t total = 0;
    for (const rt::Padded<K>& part : slots.kernels) total += part->result;
    return total;
  }
}

// A serving runner over `pool`: each call traverses one dense batch of
// query ids.  The program behind `k` — and `parts`, which receives each
// slot's share of a counting kernel's result after every batch
// (rt::hybrid_slots(pool) entries) — must outlive the runner.
template <class K>
std::function<void(const std::int32_t*, std::size_t)> make_serve(
    rt::ForkJoinPool& pool, const rt::HybridOptions& opt, const K& k,
    rt::Padded<std::uint64_t>* parts = nullptr) {
  auto slots = std::make_shared<SlotDriver<K>>(pool, opt, k);
  return [&pool, opt, slots, parts](const std::int32_t* ids, std::size_t count) {
    slots->run(pool, opt, static_cast<std::int32_t>(count), ids, nullptr);
    if constexpr (Counting<K>) {
      if (parts == nullptr) return;
      for (std::size_t s = 0; s < slots->kernels.size(); ++s) {
        parts[s].value += std::exchange(slots->kernels[s]->result, 0);
      }
    }
  };
}

}  // namespace tb::lockstep
