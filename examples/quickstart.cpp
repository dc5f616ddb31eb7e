// Quickstart: define a recursive task-parallel program from scratch and run
// it through the task-block schedulers.
//
// The program counts the subsets of {1..n} whose sum is at most `budget` —
// a tiny branch-and-bound: each task decides whether element `next` joins
// the subset.  Tasks are plain PODs; the SoA block layout plus a scalar
// `expand` is all the framework needs (for a SIMD layer derived from the
// same rule, see apps::TaskRule in src/apps/task_rule.hpp and the
// custom_kernel example).
//
// Build & run:  ./quickstart [n] [budget]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/driver.hpp"
#include "core/ideal_restart.hpp"
#include "simd/soa.hpp"

namespace {

struct SubsetSumProgram {
  // One task = "elements < next are decided; `sum` so far".
  struct Task {
    std::int32_t next;
    std::int32_t sum;
  };
  using Result = std::uint64_t;  // number of feasible subsets
  static constexpr int max_children = 2;

  int n = 20;
  int budget = 60;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  bool is_base(const Task& t) const { return t.next > n; }
  void leaf(const Task&, Result& r) const { r += 1; }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    if (t.sum + t.next <= budget) emit(0, Task{t.next + 1, t.sum + t.next});  // take it
    emit(1, Task{t.next + 1, t.sum});                                         // skip it
  }

  // Structure-of-arrays block layout: one column per field.
  using Block = tb::simd::SoaBlock<std::int32_t, std::int32_t>;
  static Task task_at(const Block& b, std::size_t i) {
    const auto [next, sum] = b.row(i);
    return Task{next, sum};
  }
  static void append_task(Block& b, const Task& t) { b.push_back(t.next, t.sum); }
};

}  // namespace

int main(int argc, char** argv) {
  SubsetSumProgram prog;
  prog.n = argc > 1 ? std::atoi(argv[1]) : 24;
  prog.budget = argc > 2 ? std::atoi(argv[2]) : 3 * prog.n;
  const std::vector<SubsetSumProgram::Task> roots{{1, 0}};

  using Exec = tb::core::SoaExec<SubsetSumProgram>;
  const auto th = tb::core::Thresholds::for_block_size(/*Q=*/8, /*block=*/1024);

  // 1. Sequential schedulers: one core, Q SIMD lanes, three policies.
  for (const auto pol : {tb::core::SeqPolicy::Basic, tb::core::SeqPolicy::Reexp,
                         tb::core::SeqPolicy::Restart}) {
    tb::core::ExecStats st;
    const auto count = tb::core::run_seq<Exec>(prog, roots, pol, th, &st);
    std::printf("seq/%-8s subsets=%llu  tasks=%llu  SIMD-utilization=%.1f%%\n",
                tb::core::to_string(pol), static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(st.tasks_executed),
                st.simd_utilization() * 100.0);
  }

  // 2. Multicore: work-stealing pool + the two parallel block schedulers.
  tb::rt::ForkJoinPool pool(4);
  const auto rx = tb::core::run_par_reexp<Exec>(pool, prog, roots, th);
  const auto rr = tb::core::run_par_restart<Exec>(pool, prog, roots, th);
  // 3. The ideal restart scheduler (block stealing, Fig. 3b of the paper).
  const auto ri = tb::core::run_ideal_restart<Exec>(prog, roots, th, 4);
  std::printf("par/reexp    subsets=%llu\n", static_cast<unsigned long long>(rx));
  std::printf("par/restart  subsets=%llu\n", static_cast<unsigned long long>(rr));
  std::printf("par/ideal    subsets=%llu\n", static_cast<unsigned long long>(ri));
  return rx == rr && rr == ri ? 0 : 1;
}
