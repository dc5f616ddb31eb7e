// Convenience entry points: build root blocks, census a computation tree,
// and run any scheduler/policy over a set of root tasks.  run_seq and the
// two run_par_* drivers share one §5.3 strip-miner (a data-parallel outer
// loop contributes its iterations as root tasks; oversized root sets are
// sliced into t_dfe-sized initial blocks handed to the scheduler one after
// another); run_ideal_restart hands the §3.4 scheduler one root block.
// Every block driver adds its statistics into *stats, which may be null.
// run_cilk is the scalar spawn/sync baseline every blocked variant is
// scored against, derived from the same program.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/ideal_restart.hpp"
#include "core/par_reexp.hpp"
#include "core/par_restart.hpp"
#include "core/program.hpp"
#include "core/seq_scheduler.hpp"
#include "runtime/forkjoin.hpp"

namespace tb::core {

struct TreeInfo {
  std::uint64_t tasks = 0;
  std::uint64_t leaves = 0;
  int levels = 0;  // number of levels (root level counts as 1)
};

// Exact census of the computation tree by iterative depth-first walk.
template <TaskProgram P>
TreeInfo count_tree(const P& p, std::span<const typename P::Task> roots) {
  using Task = typename P::Task;
  TreeInfo info;
  std::vector<std::pair<Task, int>> stack;
  for (const Task& t : roots) stack.emplace_back(t, 0);
  while (!stack.empty()) {
    auto [t, depth] = stack.back();
    stack.pop_back();
    ++info.tasks;
    info.levels = std::max(info.levels, depth + 1);
    if (p.is_base(t)) {
      ++info.leaves;
    } else {
      p.expand(t, [&](int, const Task& c) { stack.emplace_back(c, depth + 1); });
    }
  }
  return info;
}

template <class Exec>
typename Exec::Block make_block(std::span<const typename Exec::Program::Task> tasks,
                                int level = 0) {
  typename Exec::Block b;
  b.set_level(level);
  b.reserve(tasks.size());
  for (const auto& t : tasks) Exec::append_task(b, t);
  return b;
}

namespace detail {
// Runs `sched` over one initial block per `strip` root tasks (0: t_dfe) and
// combines the results.
template <class Exec, class Sched>
typename Exec::Program::Result strip_mine(Sched& sched,
                                          std::span<const typename Exec::Program::Task> roots,
                                          const Thresholds& th, ExecStats* stats,
                                          std::size_t strip) {
  using P = typename Exec::Program;
  typename P::Result total = P::identity();
  if (strip == 0) strip = th.clamped().t_dfe;
  for (std::size_t off = 0; off < roots.size(); off += strip) {
    const std::size_t n = std::min(strip, roots.size() - off);
    P::combine(total, sched.run(make_block<Exec>(roots.subspan(off, n)), stats));
  }
  return total;
}
}  // namespace detail

// Sequential execution under a policy.
template <class Exec>
typename Exec::Program::Result run_seq(const typename Exec::Program& p,
                                       std::span<const typename Exec::Program::Task> roots,
                                       SeqPolicy policy, const Thresholds& th,
                                       ExecStats* stats = nullptr, std::size_t strip = 0) {
  SeqScheduler<Exec> sched(p, th, policy);
  return detail::strip_mine<Exec>(sched, roots, th, stats, strip);
}

template <class Exec>
typename Exec::Program::Result run_par_reexp(
    rt::ForkJoinPool& pool, const typename Exec::Program& p,
    std::span<const typename Exec::Program::Task> roots, const Thresholds& th,
    ExecStats* stats = nullptr, std::size_t strip = 0) {
  ParReexp<Exec> sched(pool, p, th);
  return detail::strip_mine<Exec>(sched, roots, th, stats, strip);
}

template <class Exec>
typename Exec::Program::Result run_par_restart(
    rt::ForkJoinPool& pool, const typename Exec::Program& p,
    std::span<const typename Exec::Program::Task> roots, const Thresholds& th,
    ExecStats* stats = nullptr, std::size_t strip = 0, bool elide_merges = true) {
  ParRestart<Exec> sched(pool, p, th, elide_merges);
  return detail::strip_mine<Exec>(sched, roots, th, stats, strip);
}

template <class Exec>
typename Exec::Program::Result run_ideal_restart(
    const typename Exec::Program& p, std::span<const typename Exec::Program::Task> roots,
    const Thresholds& th, int workers, ExecStats* stats = nullptr) {
  IdealRestart<Exec> sched(p, th, workers);
  return sched.run(make_block<Exec>(roots), stats);
}

namespace detail {
// The recursion behind run_cilk.  call() runs one task: a base case
// reduces into a fresh result, any other task goes to spawn().  spawn()
// collects the children the program emits, pushes children n-1..1 as
// stack-resident jobs, runs child 0 inline (a single child gets no job),
// then syncs the jobs LIFO — children 1..n-1 — and folds their results
// with Program::combine.  A worker that steals nothing therefore runs the
// children in emit order, as the sequential recursion does, which is the
// order a program's pruning may depend on (knn emits its nearer child
// first).  Jobs live in a fixed array of max_children - 1 slots on the
// frame and are built only for spawned children, so a task allocates
// nothing.
template <TaskProgram P>
struct Cilk {
  using Task = typename P::Task;
  using Result = typename P::Result;

  rt::ForkJoinPool& pool;
  const P& p;

  // A spawned child's body: runs its task into `out`.
  struct Call {
    const Cilk* self;
    Task task;
    Result out;
    void operator()() { out = self->call(task); }
  };
  union Slot {
    Slot() {}
    ~Slot() {}
    rt::SpawnJob<Call> job;
  };

  // Inlined into every caller, so a base case costs no call.  Tasks pass
  // by value, as in a hand-written recursion.
  [[gnu::always_inline]] Result call(Task t) const {
    if (!p.is_base(t)) return spawn(t);
    Result r = P::identity();
    p.leaf(t, r);
    return r;
  }

  Result spawn(Task t) const {
    std::array<Slot, static_cast<std::size_t>(P::max_children) - 1> slots;
    std::array<Task, static_cast<std::size_t>(P::max_children)> kids;
    std::size_t n = 0;
    p.expand(t, [&](int, const Task& c) {
      assert(n < kids.size() && "more children than Program::max_children");
      kids[n++] = c;
    });
    if (n == 0) return P::identity();
    for (std::size_t i = n; i-- > 1;) {
      pool.push(*std::construct_at(&slots[i - 1].job, Call{this, kids[i], P::identity()}));
    }
    Result r = call(kids[0]);
    for (std::size_t i = 1; i < n; ++i) {
      rt::SpawnJob<Call>& job = slots[i - 1].job;
      pool.sync(job);
      P::combine(r, job.fn.out);
      std::destroy_at(&job);
    }
    return r;
  }

  // The cilk_for lowering of the root loop: spawn the first half, run the
  // second inline, down to single roots.
  Result range(std::span<const Task> roots) const {
    if (roots.empty()) return P::identity();
    if (roots.size() == 1) return call(roots.front());
    Result first = P::identity();
    rt::SpawnJob job([this, &first, lo = roots.first(roots.size() / 2)] { first = range(lo); });
    pool.push(job);
    Result r = range(roots.subspan(roots.size() / 2));
    pool.sync(job);
    P::combine(r, first);
    return r;
  }
};
}  // namespace detail

// The Cilk baseline, derived from the program: its recursion with a spawn
// at every call.  This is the paper's input program, the T1/T16 baseline
// every blocked variant is scored against (Table 2's "scalar" column is
// Ts/T_cilk).  Runs on `pool`, inline when called from one of its workers;
// keeps no statistics.
template <TaskProgram P>
typename P::Result run_cilk(rt::ForkJoinPool& pool, const P& p,
                            std::span<const typename P::Task> roots) {
  return pool.run([&] { return detail::Cilk<P>{pool, p}.range(roots); });
}

}  // namespace tb::core
