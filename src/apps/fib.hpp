// fib — the canonical recursive task-parallel kernel (Table 1 row 2).
//
// fib(n) spawns fib(n-1) and fib(n-2); the leaf values (n < 2) sum to
// fib(n), so the program reduces a 64-bit sum at base cases.  The task
// state is a single i32, so the SoA block is one column and the SIMD layer
// is a pure arithmetic mask/compact loop.
#pragma once

#include <cstdint>
#include <tuple>

#include "apps/task_rule.hpp"

namespace tb::apps {

template <int W>
struct FibRow {
  simd::lanes<std::int32_t, W> n;
  auto fields() const { return std::tie(n); }
};

struct FibProgram : TaskRule<FibProgram, FibRow> {
  using Result = std::uint64_t;
  static constexpr int max_children = 2;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  template <int W>
  [[gnu::always_inline]] std::uint32_t base(const Row<W>& t) const {
    return simd::cmp_lt(t.n, 2);
  }
  template <int W>
  [[gnu::always_inline]] void reduce(const Row<W>& t, std::uint32_t m, Result& r) const {
    r += simd::reduce_add_masked<Result>(m, t.n);
  }
  template <int W, class Emit>
  [[gnu::always_inline]] void spawn(const Row<W>& t, std::uint32_t live, Emit&& emit) const {
    emit(0, live, Row<W>{t.n - 1});
    emit(1, live, Row<W>{t.n - 2});
  }

  static Task root(int n) { return Task{n}; }
};

// Plain sequential recursion — the paper's Ts baseline.
inline std::uint64_t fib_sequential(int n) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  return fib_sequential(n - 1) + fib_sequential(n - 2);
}

}  // namespace tb::apps
