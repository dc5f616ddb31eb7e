// "Ideal" parallel restart scheduler — Fig. 3b and the §3.4 steal protocol.
//
// The paper formulates this strategy (per-worker leveled deques of task
// blocks and restart blocks, block stealing with bounded BFE regrowth) but
// implements only the simplified Cilk mapping, noting that exposing both
// the continuation and the restart blocks for stealing "does not naturally
// map to Cilk-like programming models".  Because our runtime is not bound
// to spawn/sync, we can implement the ideal strategy directly — this is the
// extension scheduler whose space bound is h·k·Q per worker (Lemma 8)
// rather than the simplified version's h²·t_restart.
//
// Each worker owns a leveled deque protected by a small mutex (blocks are
// coarse-grained, so the lock is not a throughput concern); thieves lock
// the victim's deque and take its top (shallowest) block, per §3.4:
//   - a stolen block with >= t_restart tasks is executed depth-first;
//   - a sparse stolen block is regrown with a bounded number of BFE actions,
//     then re-scanned, else the worker steals again.
// Blocks execute through the shared step (step.hpp); this scheduler routes
// the right children into the worker's locked deque and retires executed
// tasks from a global outstanding-task count, which is how it terminates.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/block_pool.hpp"
#include "core/leveled_deque.hpp"
#include "core/program.hpp"
#include "core/stats.hpp"
#include "core/step.hpp"
#include "core/thresholds.hpp"
#include "runtime/xoshiro.hpp"

namespace tb::core {

template <class Exec>
class IdealRestart {
public:
  using Program = typename Exec::Program;
  using Block = typename Exec::Block;
  using Result = typename Program::Result;
  static constexpr std::size_t C = static_cast<std::size_t>(Exec::out_degree);

  IdealRestart(const Program& p, Thresholds th, int workers)
      : prog_(p), th_(th.clamped()), workers_(static_cast<std::size_t>(std::max(1, workers))) {}

  // Adds the run's statistics into *stats, which may be null.
  Result run(Block roots, ExecStats* stats = nullptr) {
    if (roots.empty()) return Program::identity();  // the deques hold no empty blocks
    const std::size_t p = workers_;
    states_.clear();
    states_.reserve(p);
    for (std::size_t w = 0; w < p; ++w) states_.push_back(std::make_unique<WorkerState>());
    outstanding_.store(static_cast<std::int64_t>(roots.size()), std::memory_order_relaxed);

    {
      std::lock_guard lock(states_[0]->mu);
      states_[0]->deque.push_merge(std::move(roots));
    }
    std::vector<std::thread> threads;
    threads.reserve(p - 1);
    for (std::size_t w = 1; w < p; ++w) {
      threads.emplace_back([this, w] { worker(static_cast<int>(w)); });
    }
    worker(0);
    for (auto& t : threads) t.join();

    Result total = Program::identity();
    for (auto& s : states_) {
      Program::combine(total, s->result);
      if (stats) stats->merge(s->stats);
    }
    return total;
  }

private:
  struct WorkerState {
    std::mutex mu;  // guards deque
    LeveledDeque<Block> deque;
    Result result = Program::identity();
    ExecStats stats;
    rt::Xoshiro256 rng;
  };

  void worker(int id) {
    WorkerState& self = *states_[static_cast<std::size_t>(id)];
    self.rng = rt::Xoshiro256(0x51ede5 + 0x9e37u * static_cast<unsigned>(id));
    Block cur;
    bool has_cur = false;
    int bfe_budget = 0;
    BlockPool<Block> pool;
    const Step<Exec> step{prog_, th_, self.result, self.stats, pool};

    while (outstanding_.load(std::memory_order_acquire) > 0) {
      if (!has_cur) {
        // Scan own deque for a dense merged level (restart action).
        {
          std::lock_guard lock(self.mu);
          if (self.deque.restart_scan(th_.t_restart, cur, 2 * th_.t_dfe) ==
              LeveledDeque<Block>::Scan::Dense) {
            has_cur = true;
            bfe_budget = 0;
          } else if (!cur.empty()) {
            // Scan handed back a sparse top block: put it back; stealing
            // decides what to do next (§3.4 — the parallel scheduler steals
            // instead of BFE-ing its own sparse top).
            self.deque.push_merge(std::move(cur));
          }
        }
        if (!has_cur) {
          self.stats.on_action(Action::Steal);
          if (!steal(self, cur)) {
            std::this_thread::yield();
            continue;
          }
          has_cur = true;
          bfe_budget = (cur.size() < th_.t_restart) ? kBfeAfterSteal : 0;
        }
      }

      if (bfe_budget > 0 && cur.size() < th_.t_restart) {
        // Regrow a sparse stolen block with a bounded number of BFEs.
        const std::size_t executed = cur.size();
        cur = step.bfe(std::move(cur));
        retire(executed, cur.size());
        --bfe_budget;
        if (cur.empty()) has_cur = false;
        continue;
      }
      if (cur.size() < th_.t_restart) {
        // Still sparse: park and go find denser work.
        self.stats.on_action(Action::Restart);
        std::lock_guard lock(self.mu);
        self.deque.push_merge(std::move(cur));
        has_cur = false;
        continue;
      }
      const std::size_t executed = cur.size();
      Kids<Exec> kids = step.dfe(std::move(cur));
      std::size_t spawned = kids[0].size();
      {
        std::lock_guard lock(self.mu);
        for (std::size_t s = C; s-- > 1;) {
          spawned += kids[s].size();
          if (kids[s].empty()) {
            pool.put(std::move(kids[s]));
          } else {
            self.deque.push_merge(std::move(kids[s]));
          }
        }
      }
      retire(executed, spawned);
      cur = std::move(kids[0]);
      if (cur.empty()) has_cur = false;
    }
  }

  // Account for `executed` finished tasks producing `spawned` new ones.
  void retire(std::size_t executed, std::size_t spawned) {
    const auto delta =
        static_cast<std::int64_t>(spawned) - static_cast<std::int64_t>(executed);
    outstanding_.fetch_add(delta, std::memory_order_acq_rel);
  }

  // §3.4 steal: random victim (possibly self — that covers the sequential
  // policy's BFE-at-top case), take the top block of its deque.
  bool steal(WorkerState& self, Block& out) {
    const auto victim_id = self.rng.below(static_cast<std::uint32_t>(states_.size()));
    WorkerState& victim = *states_[victim_id];
    std::lock_guard lock(victim.mu);
    return victim.deque.steal_shallowest(out, 2 * th_.t_dfe);
  }

  const Program& prog_;
  Thresholds th_;
  std::size_t workers_;
  std::vector<std::unique_ptr<WorkerState>> states_;
  std::atomic<std::int64_t> outstanding_{0};
};

}  // namespace tb::core
