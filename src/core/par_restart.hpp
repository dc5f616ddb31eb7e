// Parallel simplified-restart scheduler (Fig. 3c + §6).
//
// Each invocation takes a task block plus a *restart stack* — a linked list
// with one (possibly empty) block per level, holding parked tasks that were
// too sparse to execute.  If the block plus the stack head are below
// t_restart the tasks are parked and the stack returned; otherwise the
// block is refilled from the stack head, expanded depth-first, the right
// child blocks are spawned, and the children's returned stacks are merged
// level-wise (a merge that crosses t_restart at some level re-enters the
// scheduler right there).
//
// The §6 merge-elision optimization is implemented through the pool's
// child-stealing protocol: right children are pushed as stealable jobs, and
// at the sync point the worker pops its own deque — any child that was NOT
// stolen is executed inline with the running restart chain as its input
// (no merge); only children that a thief actually ran (with a NIL stack)
// are merged afterwards.  This is exactly "test whether a steal immediately
// preceded the given spawn" expressed in child-stealing terms.
//
// Blocks execute through the shared step (step.hpp); per-worker results,
// statistics and block pools live in the run's PoolRun.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <utility>

#include "core/program.hpp"
#include "core/stats.hpp"
#include "core/step.hpp"
#include "core/thresholds.hpp"
#include "runtime/forkjoin.hpp"

namespace tb::core {

// One level of parked tasks; `next` holds the level below.
template <class Block>
struct RestartNode {
  Block block;
  std::unique_ptr<RestartNode> next;
};

template <class Block>
using RestartStack = std::unique_ptr<RestartNode<Block>>;

template <class Exec>
class ParRestart {
public:
  using Program = typename Exec::Program;
  using Block = typename Exec::Block;
  using Result = typename Program::Result;
  using Node = RestartNode<Block>;
  using Stack = RestartStack<Block>;
  static constexpr std::size_t C = static_cast<std::size_t>(Exec::out_degree);

  ParRestart(rt::ForkJoinPool& pool, const Program& p, Thresholds th,
             bool elide_merges = true)
      : pool_(pool), prog_(p), th_(th.clamped()), elide_merges_(elide_merges) {}

  // Adds the run's statistics into *stats, which may be null.
  Result run(Block roots, ExecStats* stats = nullptr) {
    Ctx ctx{*this, PoolRun<Exec>(pool_, prog_, th_)};
    pool_.run([&ctx, &roots] {
      Stack leftovers = ctx.self.recurse(ctx, std::move(roots), nullptr);
      ctx.self.drain(ctx, std::move(leftovers));
    });
    return ctx.run.reduce(stats);
  }

private:
  struct Ctx {
    ParRestart& self;
    PoolRun<Exec> run;
  };

  // Stealable right-child task: carries its block; `input` stays NIL unless
  // the owner runs it inline with the chained restart stack.
  struct ChildJob : rt::JobBase {
    Ctx* ctx = nullptr;
    Block block;
    Stack input;
    Stack result;
    bool pushed = false;
    bool ran_inline = false;

    static void thunk(rt::JobBase* base) {
      auto* self = static_cast<ChildJob*>(base);
      self->result =
          self->ctx->self.recurse(*self->ctx, std::move(self->block), std::move(self->input));
      self->finish();
    }
  };

  static Stack make_node(int level) {
    auto node = std::make_unique<Node>();
    node->block.set_level(level);
    return node;
  }

  // Fig. 3c `blocked_foo_restart`.
  Stack recurse(Ctx& ctx, Block tb, Stack rb) {
    const Step<Exec> step = ctx.run.step();
    const std::size_t head_tasks = rb ? rb->block.size() : 0;
    if (tb.size() + head_tasks < th_.t_restart) {
      // Park: move tasks from tb into the restart block for this level.
      step.st.on_action(Action::Restart);
      if (tb.empty()) return rb;
      if (!rb) rb = make_node(tb.level());
      rb->block.append(std::move(tb));
      return rb;
    }
    // Fill tb from the restart block up to the block-size cap.
    if (rb && tb.size() < th_.t_dfe) {
      tb.take_from(rb->block, th_.t_dfe - tb.size());
    }

    // Depth-first expansion into per-spawn-index child blocks.
    const int level = tb.level();
    Kids<Exec> kids = step.dfe(std::move(tb));

    // Spawn right children as stealable jobs.
    std::array<ChildJob, C> jobs;
    std::size_t outstanding = 0;
    for (std::size_t s = 1; s < C; ++s) {
      if (kids[s].empty()) {
        step.pool.put(std::move(kids[s]));
        continue;
      }
      jobs[s].ctx = &ctx;
      jobs[s].block = std::move(kids[s]);
      jobs[s].run_fn = &ChildJob::thunk;
      jobs[s].pushed = true;
      pool_.push(jobs[s]);
      ++outstanding;
    }

    // Leftmost child runs inline with the next-level restart stack.
    Stack chain = recurse(ctx, std::move(kids[0]), rb ? std::move(rb->next) : nullptr);

    // Elision-aware sync: children we pop back ourselves take the running
    // chain as input; stolen children are merged after completion.
    while (outstanding > 0) {
      rt::JobBase* j = pool_.pop_bottom();
      if (j == nullptr) break;  // deque empty: the rest are with thieves
      ChildJob* mine = match(jobs, j);
      if (mine != nullptr) {
        if (mine->try_acquire()) {
          if (elide_merges_) mine->input = std::move(chain);
          ChildJob::thunk(mine);
          mine->ran_inline = true;
          if (elide_merges_) {
            chain = std::move(mine->result);
          } else {
            chain = merge(ctx, std::move(chain), std::move(mine->result));
          }
          --outstanding;
        }
      } else {
        pool_.execute(j);  // help with unrelated work
      }
    }
    for (std::size_t s = 1; s < C; ++s) {
      if (!jobs[s].pushed || jobs[s].ran_inline) continue;
      pool_.sync(jobs[s]);  // a thief ran it with a NIL input stack
      step.st.on_action(Action::Steal);
      chain = merge(ctx, std::move(chain), std::move(jobs[s].result));
    }

    if (!rb) rb = make_node(level);
    rb->next = std::move(chain);
    return rb;
  }

  // Level-wise merge of two restart stacks; re-enters the scheduler at any
  // level that crosses t_restart (Fig. 3c `merge`).
  Stack merge(Ctx& ctx, Stack a, Stack b) {
    if (!a) return b;
    if (!b) return a;
    const Step<Exec> step = ctx.run.step();
    step.st.merges += 1;
    a->block.append(std::move(b->block));
    a->next = merge(ctx, std::move(a->next), std::move(b->next));
    if (a->block.size() >= th_.t_restart) {
      Block t = step.pool.get(a->block.level());
      t.take_from(a->block, th_.t_dfe);
      return recurse(ctx, std::move(t), std::move(a));
    }
    return a;
  }

  // Execute whatever is still parked after the root invocation returns:
  // breadth-first from the shallowest level, re-entering the scheduler
  // whenever a level grows past t_restart (the parallel analogue of the
  // sequential policy's BFE-at-top).
  void drain(Ctx& ctx, Stack stack) {
    const Step<Exec> step = ctx.run.step();
    while (stack) {
      if (stack->block.empty()) {
        stack = std::move(stack->next);
        continue;
      }
      Block b = std::move(stack->block);
      stack->block = step.pool.get(b.level());
      Block next = step.bfe(std::move(b));
      if (!stack->next) stack->next = make_node(next.level());
      stack->next->block.append(std::move(next));
      stack = std::move(stack->next);
      if (stack->block.size() >= th_.t_restart) {
        Block t = step.pool.get(stack->block.level());
        t.take_from(stack->block, th_.t_dfe);
        stack = recurse(ctx, std::move(t), std::move(stack));
      }
    }
  }

  static ChildJob* match(std::array<ChildJob, C>& jobs, rt::JobBase* j) {
    for (std::size_t s = 1; s < C; ++s) {
      if (&jobs[s] == j) return &jobs[s];
    }
    return nullptr;
  }

  rt::ForkJoinPool& pool_;
  const Program& prog_;
  Thresholds th_;
  bool elide_merges_;
};

}  // namespace tb::core
