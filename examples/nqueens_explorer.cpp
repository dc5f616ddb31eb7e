// N-queens policy explorer: counts solutions while comparing the three
// scheduling policies and the three execution layers side by side — a
// worked tour of the scheduler statistics API (SIMD utilization, action
// counts, peak space) on a fan-out-16 search tree with nested data
// parallelism.
//
// Usage: ./nqueens_explorer [n] [block_size]
//   n in 1..16 (one child slot per column), block_size >= 1; anything else
//   prints the usage line and exits 2.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/nqueens.hpp"
#include "core/driver.hpp"

namespace {

// Parses all of `s` as a T: false on garbage, trailing characters or
// values T cannot hold.
template <class T>
bool parse(const char* s, T& out) {
  const char* end = s + std::strlen(s);
  const auto [p, ec] = std::from_chars(s, end, out);
  return ec == std::errc{} && p == end;
}

template <class Exec>
void report(const char* layer, const tb::apps::NQueensProgram& prog,
            const std::vector<tb::apps::NQueensProgram::Task>& roots,
            const tb::core::Thresholds& th) {
  for (const auto pol : {tb::core::SeqPolicy::Basic, tb::core::SeqPolicy::Reexp,
                         tb::core::SeqPolicy::Restart}) {
    tb::core::ExecStats st;
    const auto t0 = std::chrono::steady_clock::now();
    const auto count = tb::core::run_seq<Exec>(prog, roots, pol, th, &st);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::printf(
        "%-6s %-8s | %10llu solutions | %8.4fs | util %5.1f%% | bfe %6llu dfe %6llu "
        "restarts %6llu | peak %7llu tasks\n",
        layer, tb::core::to_string(pol), static_cast<unsigned long long>(count), wall,
        st.simd_utilization() * 100.0, static_cast<unsigned long long>(st.bfe_actions),
        static_cast<unsigned long long>(st.dfe_actions),
        static_cast<unsigned long long>(st.restart_actions),
        static_cast<unsigned long long>(st.peak_space_tasks));
  }
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kMaxN = tb::apps::NQueensProgram::max_children;
  int n = 11;
  long block = 512;
  if ((argc > 1 && !parse(argv[1], n)) || (argc > 2 && !parse(argv[2], block)) || argc > 3 ||
      n < 1 || n > kMaxN || block < 1) {
    std::fprintf(stderr, "usage: %s [n in 1..%d] [block_size >= 1]\n", argv[0], kMaxN);
    return 2;
  }

  tb::apps::NQueensProgram prog{n};
  const std::vector roots{tb::apps::NQueensProgram::root()};
  const auto th =
      tb::core::Thresholds::for_block_size(prog.simd_width, static_cast<std::size_t>(block));

  std::printf("nqueens(%d), block=%ld, Q=%d\n", n, block, prog.simd_width);
  report<tb::core::AosExec<tb::apps::NQueensProgram>>("block", prog, roots, th);
  report<tb::core::SoaExec<tb::apps::NQueensProgram>>("soa", prog, roots, th);
  report<tb::core::SimdExec<tb::apps::NQueensProgram>>("simd", prog, roots, th);

  std::printf("reference: sequential recursion gives %llu\n",
              static_cast<unsigned long long>(tb::apps::nqueens_sequential(n, 0, 0, 0)));
  return 0;
}
