// Unbalanced Tree Search explorer: traverses a parameterized UTS tree with
// all four parallel execution strategies (Cilk-style scalar, blocked
// re-expansion, simplified restart, ideal restart) and reports wall time
// plus runtime steal counts — the workload where dynamic load balancing
// and vector density pull in opposite directions.
//
// Usage: ./uts_explorer [b0] [m] [q] [workers]
//   b0 >= 0 root children, m in 1..8 children per internal node, q >= 0
//   with m*q < 1 (at m*q >= 1 the tree is infinite in expectation),
//   workers >= 1; anything else prints the usage line and exits 2.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "apps/uts.hpp"
#include "core/driver.hpp"
#include "core/ideal_restart.hpp"

namespace {

// Parses all of `s` as a T: false on garbage, trailing characters or
// values T cannot hold.
template <class T>
bool parse(const char* s, T& out) {
  const char* end = s + std::strlen(s);
  const auto [p, ec] = std::from_chars(s, end, out);
  return ec == std::errc{} && p == end;
}

template <class F>
double timed(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kMaxM = tb::apps::UtsProgram::max_children;
  tb::apps::UtsParams params{1000, 4, 0.246};
  int workers = 4;
  if ((argc > 1 && !parse(argv[1], params.b0)) || (argc > 2 && !parse(argv[2], params.m)) ||
      (argc > 3 && !parse(argv[3], params.q)) || (argc > 4 && !parse(argv[4], workers)) ||
      argc > 5 || params.b0 < 0 || params.m < 1 || params.m > kMaxM ||
      !(params.q >= 0.0 && params.m * params.q < 1.0) || workers < 1) {
    std::fprintf(stderr, "usage: %s [b0 >= 0] [m in 1..%d] [q >= 0, m*q < 1] [workers >= 1]\n",
                 argv[0], kMaxM);
    return 2;
  }

  tb::apps::UtsProgram prog(params);
  const auto roots = prog.roots();
  const auto info = tb::core::count_tree(prog, roots);
  std::printf("uts: b0=%d m=%d q=%.4f -> %llu nodes, %llu leaves, %d levels\n", params.b0,
              params.m, params.q, static_cast<unsigned long long>(info.tasks),
              static_cast<unsigned long long>(info.leaves), info.levels);

  using Exec = tb::core::SimdExec<tb::apps::UtsProgram>;
  const auto th = tb::core::Thresholds::for_block_size(prog.simd_width, 2048, 128);

  std::uint64_t leaves = 0;
  double t = timed([&] { leaves = tb::apps::uts_sequential_all(prog); });
  std::printf("%-16s %9.4fs  leaves=%llu\n", "sequential", t,
              static_cast<unsigned long long>(leaves));

  tb::rt::ForkJoinPool pool(workers);
  t = timed([&] { leaves = tb::core::run_cilk(pool, prog, roots); });
  std::printf("%-16s %9.4fs  leaves=%llu  steals=%llu\n", "cilk-scalar", t,
              static_cast<unsigned long long>(leaves),
              static_cast<unsigned long long>(pool.total_steals()));

  t = timed([&] { leaves = tb::core::run_par_reexp<Exec>(pool, prog, roots, th); });
  std::printf("%-16s %9.4fs  leaves=%llu\n", "blocked-reexp", t,
              static_cast<unsigned long long>(leaves));

  tb::core::ExecStats st;
  t = timed([&] { leaves = tb::core::run_par_restart<Exec>(pool, prog, roots, th, &st); });
  std::printf("%-16s %9.4fs  leaves=%llu  merges=%llu\n", "blocked-restart", t,
              static_cast<unsigned long long>(leaves),
              static_cast<unsigned long long>(st.merges));

  tb::core::ExecStats sti;
  t = timed([&] {
    leaves = tb::core::run_ideal_restart<Exec>(prog, roots, th, workers, &sti);
  });
  std::printf("%-16s %9.4fs  leaves=%llu  steal-actions=%llu\n", "ideal-restart", t,
              static_cast<unsigned long long>(leaves),
              static_cast<unsigned long long>(sti.steal_actions));
  return 0;
}
