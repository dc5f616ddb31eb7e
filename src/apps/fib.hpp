// fib — the canonical recursive task-parallel kernel (Table 1 row 2).
//
// fib(n) spawns fib(n-1) and fib(n-2); the leaf values (n < 2) sum to
// fib(n), so the program reduces a 64-bit sum at base cases.  The task
// state is a single i32, so the SoA block is one column and the SIMD kernel
// is a pure arithmetic mask/compact loop.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "core/program.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"

namespace tb::apps {

struct FibProgram {
  struct Task {
    std::int32_t n;
  };
  using Result = std::uint64_t;
  static constexpr int max_children = 2;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  bool is_base(const Task& t) const { return t.n < 2; }
  void leaf(const Task& t, Result& r) const { r += static_cast<Result>(t.n); }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    emit(0, Task{t.n - 1});
    emit(1, Task{t.n - 2});
  }

  // ---- SoA layer -------------------------------------------------------------
  using Block = simd::SoaBlock<std::int32_t>;
  static Task task_at(const Block& b, std::size_t i) { return Task{std::get<0>(b.row(i))}; }
  static void append_task(Block& b, const Task& t) { b.push_back(t.n); }

  // ---- SIMD layer ------------------------------------------------------------
  static constexpr int simd_width = simd::natural_width<std::int32_t>;

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 2>& outs, Result& r, std::uint64_t& leaves) const {
    using B = simd::batch<std::int32_t, simd_width>;
    const std::int32_t* ns = in.data<0>();
    const B one = B::broadcast(1);
    const B two = B::broadcast(2);
    Result sum = 0;
    std::uint64_t leaf_count = 0;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const B n = B::loadu(ns + i);
      const std::uint32_t base = simd::cmp_lt(n, two);
      sum += simd::reduce_add_masked<Result>(base, n);
      leaf_count += std::popcount(base);
      const std::uint32_t rec = base ^ simd::mask_all<simd_width>;
      outs[0]->append_compact(rec, n - one);
      outs[1]->append_compact(rec, n - two);
    }
    r += sum;
    leaves += leaf_count;
  }

  static Task root(int n) { return Task{n}; }
};

// Plain sequential recursion — the paper's Ts baseline.
inline std::uint64_t fib_sequential(int n) {
  if (n < 2) return static_cast<std::uint64_t>(n);
  return fib_sequential(n - 1) + fib_sequential(n - 2);
}

}  // namespace tb::apps
