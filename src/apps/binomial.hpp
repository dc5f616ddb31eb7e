// binomial — Pascal-recursion binomial coefficient (Table 1 row 7).
//
// C(n,k) = C(n-1,k-1) + C(n-1,k); every leaf (k == 0 or k == n) contributes
// 1, so the leaf count is the coefficient itself.  Unbalanced binary tree
// of depth n.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "core/program.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"

namespace tb::apps {

struct BinomialProgram {
  struct Task {
    std::int32_t n;
    std::int32_t k;
  };
  using Result = std::uint64_t;
  static constexpr int max_children = 2;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  bool is_base(const Task& t) const { return t.k == 0 || t.k == t.n; }
  void leaf(const Task&, Result& r) const { r += 1; }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    emit(0, Task{t.n - 1, t.k - 1});
    emit(1, Task{t.n - 1, t.k});
  }

  // ---- SoA layer -------------------------------------------------------------
  using Block = simd::SoaBlock<std::int32_t, std::int32_t>;
  static Task task_at(const Block& b, std::size_t i) {
    const auto [n, k] = b.row(i);
    return Task{n, k};
  }
  static void append_task(Block& b, const Task& t) { b.push_back(t.n, t.k); }

  // ---- SIMD layer ------------------------------------------------------------
  static constexpr int simd_width = simd::natural_width<std::int32_t>;

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 2>& outs, Result& r, std::uint64_t& leaves) const {
    using B = simd::batch<std::int32_t, simd_width>;
    const std::int32_t* ns = in.data<0>();
    const std::int32_t* ks = in.data<1>();
    const B one = B::broadcast(1);
    const B zero = B::zero();
    std::uint64_t leaf_count = 0;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const B n = B::loadu(ns + i);
      const B k = B::loadu(ks + i);
      const std::uint32_t base = simd::cmp_eq(k, zero) | simd::cmp_eq(k, n);
      leaf_count += std::popcount(base);
      const std::uint32_t rec = base ^ simd::mask_all<simd_width>;
      outs[0]->append_compact(rec, n - one, k - one);
      outs[1]->append_compact(rec, n - one, k);
    }
    r += leaf_count;
    leaves += leaf_count;
  }

  static Task root(int n, int k) { return Task{n, k}; }
};

inline std::uint64_t binomial_sequential(int n, int k) {
  if (k == 0 || k == n) return 1;
  return binomial_sequential(n - 1, k - 1) + binomial_sequential(n - 1, k);
}

}  // namespace tb::apps
