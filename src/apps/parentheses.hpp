// parentheses — count balanced parenthesizations (Table 1 row 3).
//
// A task tracks (open, close) = how many '(' and ')' remain to be placed.
// Spawning '(' (slot 0) needs open > 0; spawning ')' (slot 1) needs
// close > open.  Each completed sequence (open == close == 0) is a leaf
// contributing 1, so the result is the Catalan number C(n).  The tree is an
// unbalanced binary tree of 2n+1 levels with variable out-degree 1–2.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "core/program.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"

namespace tb::apps {

struct ParenthesesProgram {
  struct Task {
    std::int32_t open;
    std::int32_t close;
  };
  using Result = std::uint64_t;
  static constexpr int max_children = 2;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  bool is_base(const Task& t) const { return t.open == 0 && t.close == 0; }
  void leaf(const Task&, Result& r) const { r += 1; }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    if (t.open > 0) emit(0, Task{t.open - 1, t.close});
    if (t.close > t.open) emit(1, Task{t.open, t.close - 1});
  }

  // ---- SoA layer -------------------------------------------------------------
  using Block = simd::SoaBlock<std::int32_t, std::int32_t>;
  static Task task_at(const Block& b, std::size_t i) {
    const auto [open, close] = b.row(i);
    return Task{open, close};
  }
  static void append_task(Block& b, const Task& t) { b.push_back(t.open, t.close); }

  // ---- SIMD layer ------------------------------------------------------------
  static constexpr int simd_width = simd::natural_width<std::int32_t>;

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 2>& outs, Result& r, std::uint64_t& leaves) const {
    using B = simd::batch<std::int32_t, simd_width>;
    const std::int32_t* opens = in.data<0>();
    const std::int32_t* closes = in.data<1>();
    const B one = B::broadcast(1);
    const B zero = B::zero();
    std::uint64_t leaf_count = 0;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const B open = B::loadu(opens + i);
      const B close = B::loadu(closes + i);
      const std::uint32_t base = simd::cmp_eq(open, zero) & simd::cmp_eq(close, zero);
      leaf_count += std::popcount(base);
      const std::uint32_t can_open = simd::cmp_gt(open, zero);
      const std::uint32_t can_close = simd::cmp_gt(close, open) & ~base;
      outs[0]->append_compact(can_open, open - one, close);
      outs[1]->append_compact(can_close, open, close - one);
    }
    r += leaf_count;
    leaves += leaf_count;
  }

  static Task root(int pairs) { return Task{pairs, pairs}; }
};

inline std::uint64_t parentheses_sequential(int open, int close) {
  if (open == 0 && close == 0) return 1;
  std::uint64_t total = 0;
  if (open > 0) total += parentheses_sequential(open - 1, close);
  if (close > open) total += parentheses_sequential(open, close - 1);
  return total;
}

}  // namespace tb::apps
