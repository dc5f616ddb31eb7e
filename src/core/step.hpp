// One block step, shared by every task-block scheduler.
//
// Executing a block is the same idea in all of §3: run the execution layer
// over the block, charge it as one §4 superstep, recycle its buffers, and
// hand the children on.  BFE maps every child slot to one next-level block;
// DFE point-blocks slot s into its own block (Fig. 1c).  The schedulers
// (seq_scheduler.hpp, par_reexp.hpp, par_restart.hpp, ideal_restart.hpp,
// and join_scheduler.hpp through SeqScheduler) differ only in where the
// right children go next — a deque, a detached spawn, a stealable child
// job, a locked per-worker deque — so that routing is all each one keeps.
//
// PoolRun is the per-run scaffold of the two fork-join pool schedulers:
// every worker's partial result, statistics and block pool, reduced once.
#pragma once

#include <array>
#include <cstddef>
#include <utility>

#include "core/block_pool.hpp"
#include "core/stats.hpp"
#include "core/thresholds.hpp"
#include "runtime/forkjoin.hpp"
#include "runtime/reducer.hpp"

namespace tb::core {

// DFE's per-slot child blocks.
template <class Exec>
using Kids = std::array<typename Exec::Block, static_cast<std::size_t>(Exec::out_degree)>;

// What one executing worker steps blocks with: the program and thresholds,
// plus the worker's partial result, statistics and block pool.
//
// The two steps are forced inline: GCC 12 otherwise keeps them out of line,
// and fib(29) ran 1.3–2× slower under both pool schedulers (2 workers) and
// the sequential one, on a 4-vCPU Xeon.
template <class Exec>
struct Step {
  using Program = typename Exec::Program;
  using Block = typename Exec::Block;
  static constexpr std::size_t C = static_cast<std::size_t>(Exec::out_degree);

  const Program& prog;
  const Thresholds& th;
  typename Program::Result& r;
  ExecStats& st;
  BlockPool<Block>& pool;

  // Breadth-first: executes `b` and returns the next-level block that every
  // child landed in.
  [[gnu::always_inline]] Block bfe(Block&& b) const {
    Block next = pool.get(b.level() + 1);
    std::array<Block*, C> outs;
    outs.fill(&next);
    execute(b, outs, Action::BFE);
    return next;
  }

  // Depth-first: executes `b` and returns one child block per spawn slot.
  [[gnu::always_inline]] Kids<Exec> dfe(Block&& b) const {
    Kids<Exec> kids;
    std::array<Block*, C> outs;
    for (std::size_t s = 0; s < C; ++s) {
      kids[s] = pool.get(b.level() + 1);
      outs[s] = &kids[s];
    }
    execute(b, outs, Action::DFE);
    return kids;
  }

private:
  [[gnu::always_inline]] void execute(Block& b, const std::array<Block*, C>& outs,
                                      Action a) const {
    Exec::expand_into(prog, b, 0, b.size(), outs, r, st.leaves);
    st.on_block_executed(b.size(), th.q, th.t_restart);
    st.on_action(a);
    pool.put(std::move(b));
  }
};

template <class Exec>
class PoolRun {
public:
  using Program = typename Exec::Program;
  using Result = typename Program::Result;

  PoolRun(rt::ForkJoinPool& pool, const Program& p, const Thresholds& th)
      : prog_(p), th_(th), partials_(pool, Program::identity()), stats_(pool), pools_(pool) {}

  // The calling worker's step.
  Step<Exec> step() {
    return {prog_, th_, partials_.local(), stats_.local(), pools_.local()};
  }

  // Adds every worker's statistics into *stats (if non-null) and returns the
  // combined result.
  Result reduce(ExecStats* stats) const {
    if (stats) {
      stats->merge(stats_.combine([](ExecStats acc, const ExecStats& s) {
        acc.merge(s);
        return acc;
      }));
    }
    return partials_.combine([](Result acc, const Result& x) {
      Program::combine(acc, x);
      return acc;
    });
  }

private:
  const Program& prog_;
  const Thresholds& th_;
  rt::WorkerLocal<Result> partials_;
  rt::WorkerLocal<ExecStats> stats_;
  rt::WorkerLocal<BlockPool<typename Exec::Block>> pools_;
};

}  // namespace tb::core
