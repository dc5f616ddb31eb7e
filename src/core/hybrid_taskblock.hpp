// Hybrid path for the task-block apps (uts, nqueens, …): strip-mined root
// blocks on the work-stealing pool.
//
// The traversal workloads get their hybrid executor from a natural
// data-parallel query range (runtime/hybrid.hpp).  The task-parallel apps
// have no such range — their data-parallelism lives in the root task set —
// so this header manufactures one: the roots (amplified by a breadth-first
// frontier expansion to 8 tasks per slot, so even a single-root program
// like nqueens yields enough independent slices) are strip-mined into ranges
// distributed by rt::hybrid_for, and each range runs through the sequential
// task-block scheduler (core/driver.hpp run_seq) on the worker it lands on.
// The SIMD dimension is the app's vectorized expand kernel (the SimdExec
// layer); the multicore dimension is the pool — cores×lanes for the
// task-block half of the suite.
//
// Results combine with the program's own identity/combine, per slot first
// and then in slot order, so any program whose combine is commutative and
// associative (every Table 1 app: leaf counts, best-value reductions) gets
// the same answer as the sequential scheduler regardless of how ranges were
// split or stolen.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/driver.hpp"
#include "core/seq_scheduler.hpp"
#include "core/stats.hpp"
#include "core/thresholds.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/hybrid.hpp"

namespace tb::core {

// Breadth-first frontier expansion: replaces `roots` by a deeper level of
// the computation tree with at least `min_tasks` tasks (or the deepest
// level reachable, if the tree runs out first).  Leaves consumed on the way
// down contribute to `partial` through the program's own leaf/combine, so
//   result(roots) == partial + result(returned frontier).
// Fully deterministic: levels expand whole, in task order.
template <TaskProgram P>
std::vector<typename P::Task> expand_frontier(const P& p,
                                              std::span<const typename P::Task> roots,
                                              std::size_t min_tasks,
                                              typename P::Result& partial) {
  std::vector<typename P::Task> cur(roots.begin(), roots.end());
  while (cur.size() < min_tasks) {
    std::vector<typename P::Task> next;
    next.reserve(cur.size() * 2);
    typename P::Result level = P::identity();
    for (const typename P::Task& t : cur) {
      if (p.is_base(t)) {
        p.leaf(t, level);
      } else {
        p.expand(t, [&](int, const typename P::Task& c) { next.push_back(c); });
      }
    }
    P::combine(partial, level);
    if (next.empty()) return next;  // tree exhausted; everything is in partial
    cur = std::move(next);
  }
  return cur;
}

// Runs the task-block program over `roots` as a hybrid cores×lanes
// execution: the roots are amplified to at least 8 tasks per slot (so a
// single-root program still yields one range per worker several times
// over), rt::hybrid_for distributes ranges of that frontier (lazy splitting
// or the deterministic static partition, per `opt`), and each range runs
// the sequential scheduler `Exec` under `policy`/`th` on its worker.
// Per-slot ExecStats surface through `stats` exactly as in the traversal
// hybrid.  HybridOptions::t_reexp/donation are traversal-engine concepts
// and are ignored here; grain/static_partition apply as usual.
template <class Exec>
typename Exec::Program::Result hybrid_taskblock(
    rt::ForkJoinPool& pool, const typename Exec::Program& p,
    std::span<const typename Exec::Program::Task> roots, SeqPolicy policy,
    const Thresholds& th, const rt::HybridOptions& opt = {},
    PerWorkerStats* stats = nullptr) {
  using P = typename Exec::Program;
  const int slots = rt::hybrid_slots(pool);
  typename P::Result total = P::identity();
  const auto frontier = expand_frontier(p, roots, static_cast<std::size_t>(slots) * 8, total);
  PerWorkerStats local;
  PerWorkerStats& pw = stats ? *stats : local;
  pw.reset(static_cast<std::size_t>(slots));
  std::vector<rt::Padded<typename P::Result>> parts(static_cast<std::size_t>(slots));
  for (auto& part : parts) part.value = P::identity();
  rt::hybrid_for(pool, static_cast<std::int32_t>(frontier.size()), opt,
                 [&](std::int32_t b, std::int32_t e, int slot) {
                   const auto s = static_cast<std::size_t>(slot);
                   const auto r = run_seq<Exec>(
                       p, std::span(frontier).subspan(static_cast<std::size_t>(b),
                                                      static_cast<std::size_t>(e - b)),
                       policy, th, &pw.workers[s]);
                   P::combine(parts[s].value, r);
                 });
  for (const auto& part : parts) P::combine(total, part.value);
  return total;
}

}  // namespace tb::core
