// Hybrid vector×multicore executor: lockstep SIMD blocks on the
// work-stealing pool.
//
// The paper's headline claim is that the two parallelism dimensions
// *compose*: blocked re-expansion keeps SIMD lanes full while work stealing
// keeps cores busy.  This header supplies the multicore half for the
// blocked-traversal engine (lockstep/blocked.hpp): the data-parallel query
// range is distributed over ForkJoinPool workers, and every range a worker
// receives is re-expanded into a fresh dense root block on that worker's
// engine (its per-worker block pool), then walked with compaction +
// re-expansion exactly as in the single-core case.
//
// Two partitioning modes:
//
//   dynamic (default) — steal-aware lazy binary splitting.  The whole
//     range starts as one job.  Before processing a range, a worker splits
//     it in half (spawning the right half as a stealable job) only while
//     its *local deque is empty* — i.e., exactly when a hungry thief would
//     find nothing to steal here — or when the range itself just arrived by
//     steal.  A worker whose deque still holds an unstolen half keeps its
//     range whole, which maximizes root block density; every actual steal
//     drains the victim's deque and thereby triggers the next split.  A
//     1-worker pool degenerates to exactly the single-core blocked
//     traversal.  Per-slot stats are attributed to the executing worker.
//
//   static — exactly one equal chunk per worker slot, spawned up front.
//     The partition (and therefore every per-slot step count) is
//     deterministic regardless of which thread executes which chunk, which
//     is what lets the fig4 nightly gate diff hybrid SIMD-utilization
//     records exactly.
//
// Frame-level work donation (HybridOptions::donation, dynamic mode only):
// pre-split ranges stop balancing once every range has been handed out — a
// single huge subtree then pins its whole remaining traversal to one
// worker.  With donation enabled, each engine polls the same empty-deque
// signal the lazy splitter uses and, when thieves would find nothing to
// steal, splits the bottom frame of its explicit frame stack: half of that
// frame's live query ids leave as a detached pool job that re-expands into
// a fresh root block on whichever worker picks it up (Engine::run_frame).
// Donated work is attributed to the executing worker's slot, so dynamic
// per-slot stats remain schedule-dependent (they already were); the static
// partition never donates and stays bit-deterministic.
//
// The traversal drivers over these scaffolds (lockstep/drivers.hpp) keep
// per-slot ExecStats in core::PerWorkerStats (core/stats.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "runtime/forkjoin.hpp"

namespace tb::rt {

struct HybridOptions {
  // Re-expansion threshold handed to the per-worker blocked engines: frames
  // below this many live queries finish in masked-lockstep mode.
  std::size_t t_reexp = 0;
  // Minimum queries per spawned range (dynamic mode); 0 = auto
  // (~8 leaf ranges per worker when fully split).
  std::int32_t grain = 0;
  // Deterministic one-chunk-per-slot partition (see header comment).
  bool static_partition = false;
  // Frame-level work donation between workers (dynamic mode only; a static
  // partition never donates so its per-slot stats stay deterministic).
  bool donation = false;
};

// Number of per-slot contexts (engines, stats, partial results) a hybrid
// run over `pool` needs.  Both modes use one slot per worker.
inline int hybrid_slots(const ForkJoinPool& pool) { return pool.num_workers(); }

namespace detail {

template <class Fn>
void hybrid_range(ForkJoinPool& pool, std::int32_t b, std::int32_t e, int home,
                  std::int32_t grain, WaitGroup& wg, Fn& fn) {
  const int wid = ForkJoinPool::worker_id();
  // Steal-aware re-expansion: a stolen range (home != wid) splits so the
  // thief immediately re-seeds its own deque, and any range whose worker
  // has an empty deque splits so hungry thieves find work; each half
  // re-expands into a dense root block wherever it lands.  A worker whose
  // deque still holds an unstolen half keeps the range whole — the split
  // cascade advances one level per steal/pop, never eagerly to grain.
  while ((home != wid || pool.local_queue_empty()) && e - b > 2 * grain) {
    const std::int32_t mid = b + (e - b) / 2;
    pool.spawn_detached(
        [&pool, mid, e, wid, grain, &wg, &fn] {
          hybrid_range(pool, mid, e, wid, grain, wg, fn);
        },
        wg);
    e = mid;
    home = wid;
  }
  fn(b, e, wid);
}

// Spawns the range jobs of one hybrid run.  Must execute inside the pool
// (a root task); the caller waits on `wg` afterwards.
template <class Fn>
void hybrid_distribute(ForkJoinPool& pool, std::int32_t n, const HybridOptions& opt,
                       WaitGroup& wg, Fn& fn) {
  const int slots = hybrid_slots(pool);
  if (opt.static_partition) {
    for (int c = 0; c < slots; ++c) {
      const std::int32_t b = static_cast<std::int32_t>(
          (static_cast<std::int64_t>(n) * c) / slots);
      const std::int32_t e = static_cast<std::int32_t>(
          (static_cast<std::int64_t>(n) * (c + 1)) / slots);
      if (b >= e) continue;
      pool.spawn_detached([&fn, b, e, c] { fn(b, e, c); }, wg);
    }
    return;
  }
  if (slots == 1) {
    // Degenerate pool: one dense root block, no splitting overhead.
    fn(0, n, ForkJoinPool::worker_id());
    return;
  }
  const std::int32_t grain =
      opt.grain > 0 ? opt.grain
                    : std::max<std::int32_t>(1, n / (slots * 8));
  hybrid_range(pool, 0, n, /*home=*/-1, grain, wg, fn);
}

}  // namespace detail

// Runs fn(begin, end, slot) over disjoint subranges of [0, n) on the pool's
// workers.  `slot` indexes per-slot contexts: the chunk index in static
// mode (deterministic), the executing worker id in dynamic mode.  Ranges
// mapped to one slot never execute concurrently, so per-slot state needs no
// synchronization.  Call from a non-worker thread, or reentrantly from one
// of this pool's own workers (ForkJoinPool::run executes inline there).
template <class Fn>
void hybrid_for(ForkJoinPool& pool, std::int32_t n, const HybridOptions& opt, Fn&& fn) {
  if (n <= 0) return;
  pool.run([&] {
    WaitGroup wg;
    detail::hybrid_distribute(pool, n, opt, wg, fn);
    pool.wait(wg);
  });
}

// One blocked engine per slot of a hybrid run over `pool`: the per-worker
// block pools.
template <class Engine>
std::vector<Engine> slot_engines(const ForkJoinPool& pool, const HybridOptions& opt) {
  std::vector<Engine> engines;
  engines.reserve(static_cast<std::size_t>(hybrid_slots(pool)));
  for (int s = 0; s < hybrid_slots(pool); ++s) engines.emplace_back(opt.t_reexp);
  return engines;
}

// hybrid_for over per-slot engines (`engines[slot]`, see slot_engines),
// plus frame-level donation: `frame_fn(node, payload, ids, count, slot)`
// runs a donated frame (Engine::run_frame) on whichever worker picks the
// donated job up, always with that worker's own slot.  Donation engages
// only in dynamic mode on a multi-worker pool with opt.donation set;
// otherwise this is exactly hybrid_for(pool, n, opt, range_fn).
template <class Engine, class RangeFn, class FrameFn>
void hybrid_run(ForkJoinPool& pool, std::int32_t n, const HybridOptions& opt,
                std::vector<Engine>& engines, RangeFn&& range_fn, FrameFn&& frame_fn) {
  if (!opt.donation || opt.static_partition || hybrid_slots(pool) <= 1) {
    // A 1-worker pool has nobody to donate to — splitting frames would only
    // add copy and spawn overhead the same worker pays for later.
    hybrid_for(pool, n, opt, range_fn);
    return;
  }

  // The engine-facing donor: a donated frame becomes a detached pool job so
  // hungry thieves steal it like any other work.  want() reuses the lazy
  // splitter's signal — an empty local deque means a thief scanning this
  // worker would leave empty-handed.
  using Payload = typename Engine::payload_type;
  using FrameRunner = std::remove_reference_t<FrameFn>;
  struct Sink final : Engine::Donor {
    ForkJoinPool* pool = nullptr;
    WaitGroup* wg = nullptr;
    FrameRunner* frame_fn = nullptr;
    bool want() override { return pool->local_queue_empty(); }
    void take(std::int32_t node, const Payload& payload, const std::int32_t* ids,
              std::size_t count) override {
      std::vector<std::int32_t> copy(ids, ids + count);
      pool->spawn_detached(
          [this, node, payload, copy = std::move(copy)] {
            (*frame_fn)(node, payload, copy.data(), copy.size(), ForkJoinPool::worker_id());
          },
          *wg);
    }
  };

  if (n <= 0) return;
  pool.run([&] {
    WaitGroup wg;
    Sink sink;
    sink.pool = &pool;
    sink.wg = &wg;
    sink.frame_fn = &frame_fn;
    for (Engine& eng : engines) eng.set_donor(&sink);
    detail::hybrid_distribute(pool, n, opt, wg, range_fn);
    pool.wait(wg);
    for (Engine& eng : engines) eng.set_donor(nullptr);
  });
}

}  // namespace tb::rt
