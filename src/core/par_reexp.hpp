// Parallel re-expansion scheduler (Fig. 3a).
//
// The blocked re-expansion recursion maps directly onto spawn/sync: a DFE
// step spawns the right child blocks as stealable tasks and continues with
// the leftmost; a re-expansion step merges all children into a single block
// (the shared BFE step emits every child slot into one block, which is the
// same thing) and loops.  Spawned block-tasks are fire-and-forget: nothing
// flows back through returns, reductions land in the run's worker-local
// slots (PoolRun, step.hpp), and the root waits on a completion count.
#pragma once

#include <cstddef>
#include <utility>

#include "core/program.hpp"
#include "core/stats.hpp"
#include "core/step.hpp"
#include "core/thresholds.hpp"
#include "runtime/forkjoin.hpp"

namespace tb::core {

template <class Exec>
class ParReexp {
public:
  using Program = typename Exec::Program;
  using Block = typename Exec::Block;
  using Result = typename Program::Result;
  static constexpr std::size_t C = static_cast<std::size_t>(Exec::out_degree);

  ParReexp(rt::ForkJoinPool& pool, const Program& p, Thresholds th)
      : pool_(pool), prog_(p), th_(th.clamped()) {}

  // Adds the run's statistics into *stats, which may be null.
  Result run(Block roots, ExecStats* stats = nullptr) {
    Ctx ctx{*this, PoolRun<Exec>(pool_, prog_, th_), {}};
    pool_.run([&ctx, &roots] {
      ctx.self.block_task(ctx, std::move(roots), /*bfe_mode=*/true);
      ctx.self.pool_.wait(ctx.wg);
    });
    return ctx.run.reduce(stats);
  }

private:
  struct Ctx {
    ParReexp& self;
    PoolRun<Exec> run;
    rt::WaitGroup wg;
  };

  void block_task(Ctx& ctx, Block b, bool bfe_mode) {
    const Step<Exec> step = ctx.run.step();
    while (!b.empty()) {
      if (bfe_mode) {
        b = step.bfe(std::move(b));
        if (b.size() >= th_.t_dfe) bfe_mode = false;
        continue;
      }
      if (b.size() < th_.t_bfe) {
        bfe_mode = true;  // re-expansion
        continue;
      }
      // DFE: spawn right children, continue with the leftmost.
      Kids<Exec> kids = step.dfe(std::move(b));
      for (std::size_t s = C; s-- > 1;) {
        if (kids[s].empty()) {
          step.pool.put(std::move(kids[s]));
        } else {
          pool_.spawn_detached(
              [&ctx, blk = std::move(kids[s])]() mutable {
                ctx.self.block_task(ctx, std::move(blk), /*bfe_mode=*/false);
              },
              ctx.wg);
        }
      }
      b = std::move(kids[0]);
    }
  }

  rt::ForkJoinPool& pool_;
  const Program& prog_;
  Thresholds th_;
};

}  // namespace tb::core
