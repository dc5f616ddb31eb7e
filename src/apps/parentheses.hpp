// parentheses — count balanced parenthesizations (Table 1 row 3).
//
// A task tracks (open, close) = how many '(' and ')' remain to be placed.
// Spawning '(' (slot 0) needs open > 0; spawning ')' (slot 1) needs
// close > open.  Each completed sequence (open == close == 0) is a leaf
// contributing 1, so the result is the Catalan number C(n).  The tree is an
// unbalanced binary tree of 2n+1 levels with variable out-degree 1–2.
#pragma once

#include <bit>
#include <cstdint>
#include <tuple>

#include "apps/task_rule.hpp"

namespace tb::apps {

template <int W>
struct ParenthesesRow {
  simd::lanes<std::int32_t, W> open;
  simd::lanes<std::int32_t, W> close;
  auto fields() const { return std::tie(open, close); }
};

struct ParenthesesProgram : TaskRule<ParenthesesProgram, ParenthesesRow> {
  using Result = std::uint64_t;
  static constexpr int max_children = 2;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  template <int W>
  [[gnu::always_inline]] std::uint32_t base(const Row<W>& t) const {
    return simd::cmp_eq(t.open, 0) & simd::cmp_eq(t.close, 0);
  }
  template <int W>
  [[gnu::always_inline]] void reduce(const Row<W>&, std::uint32_t m, Result& r) const {
    r += static_cast<Result>(std::popcount(m));
  }
  template <int W, class Emit>
  [[gnu::always_inline]] void spawn(const Row<W>& t, std::uint32_t live, Emit&& emit) const {
    if (const std::uint32_t m = live & simd::cmp_gt(t.open, 0)) {
      emit(0, m, Row<W>{t.open - 1, t.close});
    }
    if (const std::uint32_t m = live & simd::cmp_gt(t.close, t.open)) {
      emit(1, m, Row<W>{t.open, t.close - 1});
    }
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
