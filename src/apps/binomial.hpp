// binomial — Pascal-recursion binomial coefficient (Table 1 row 7).
//
// C(n,k) = C(n-1,k-1) + C(n-1,k); every leaf (k == 0 or k == n) contributes
// 1, so the leaf count is the coefficient itself.  Unbalanced binary tree
// of depth n.
#pragma once

#include <bit>
#include <cstdint>
#include <tuple>

#include "apps/task_rule.hpp"

namespace tb::apps {

template <int W>
struct BinomialRow {
  simd::lanes<std::int32_t, W> n;
  simd::lanes<std::int32_t, W> k;
  auto fields() const { return std::tie(n, k); }
};

struct BinomialProgram : TaskRule<BinomialProgram, BinomialRow> {
  using Result = std::uint64_t;
  static constexpr int max_children = 2;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  template <int W>
  [[gnu::always_inline]] std::uint32_t base(const Row<W>& t) const {
    return simd::cmp_eq(t.k, 0) | simd::cmp_eq(t.k, t.n);
  }
  template <int W>
  [[gnu::always_inline]] void reduce(const Row<W>&, std::uint32_t m, Result& r) const {
    r += static_cast<Result>(std::popcount(m));
  }
  template <int W, class Emit>
  [[gnu::always_inline]] void spawn(const Row<W>& t, std::uint32_t live, Emit&& emit) const {
    emit(0, live, Row<W>{t.n - 1, t.k - 1});
    emit(1, live, Row<W>{t.n - 1, t.k});
  }

  static Task root(int n, int k) { return Task{n, k}; }
};

inline std::uint64_t binomial_sequential(int n, int k) {
  if (k == 0 || k == n) return 1;
  return binomial_sequential(n - 1, k - 1) + binomial_sequential(n - 1, k);
}

}  // namespace tb::apps
