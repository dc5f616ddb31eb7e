// Convenience entry points: build root blocks, census a computation tree,
// and run any scheduler/policy over a set of root tasks.  run_seq and the
// two run_par_* drivers share one §5.3 strip-miner (a data-parallel outer
// loop contributes its iterations as root tasks; oversized root sets are
// sliced into t_dfe-sized initial blocks handed to the scheduler one after
// another); run_ideal_restart hands the §3.4 scheduler one root block.
// Every driver adds its statistics into *stats, which may be null.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/ideal_restart.hpp"
#include "core/par_reexp.hpp"
#include "core/par_restart.hpp"
#include "core/program.hpp"
#include "core/seq_scheduler.hpp"

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

}  // namespace tb::core
