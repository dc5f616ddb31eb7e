// nqueens — count placements of n non-attacking queens (Table 1 row 4).
//
// Classic bitmask formulation: a task carries three masks — occupied
// columns, left diagonals, right diagonals — and the level equals the
// number of placed queens.  The nested data-parallel loop of the paper (a
// task tries every column of the next row) appears here as the spawn-slot
// loop: slot s = "place the next queen in column s", giving out-degree n.
//
// The SIMD layer vectorizes across tasks: for each column slot it tests
// `avail & bit` over Q tasks at once and left-packs the spawning lanes.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <tuple>

#include "apps/task_rule.hpp"
#include "core/hybrid_taskblock.hpp"
#include "runtime/forkjoin.hpp"

namespace tb::apps {

template <int W>
struct NQueensRow {
  simd::lanes<std::uint32_t, W> cols;  // occupied columns
  simd::lanes<std::uint32_t, W> ld;    // left-diagonal attacks, shifted per row
  simd::lanes<std::uint32_t, W> rd;    // right-diagonal attacks
  auto fields() const { return std::tie(cols, ld, rd); }
};

struct NQueensProgram : TaskRule<NQueensProgram, NQueensRow> {
  using Result = std::uint64_t;
  static constexpr int max_children = 16;  // supports boards up to n = 16

  int n = 8;

  explicit NQueensProgram(int board = 8) : n(board) {
    if (n < 1 || n > max_children) {
      throw std::invalid_argument("NQueensProgram: n must be in 1..16");
    }
  }

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  std::uint32_t all_mask() const { return (1u << n) - 1u; }

  template <int W>
  [[gnu::always_inline]] std::uint32_t base(const Row<W>& t) const {
    return simd::cmp_eq(t.cols, all_mask());
  }
  template <int W>
  [[gnu::always_inline]] void reduce(const Row<W>&, std::uint32_t m, Result& r) const {
    r += static_cast<Result>(std::popcount(m));
  }
  // Slot s places the next queen in column s.
  template <int W, class Emit>
  [[gnu::always_inline]] void spawn(const Row<W>& t, std::uint32_t live, Emit&& emit) const {
    const std::uint32_t all = all_mask();
    const auto avail = ~(t.cols | t.ld | t.rd) & all;
    for (int s = 0; s < n; ++s) {
      const std::uint32_t bit = 1u << s;
      if (const std::uint32_t m = live & ~simd::cmp_eq(avail & bit, 0u)) {
        emit(s, m, Row<W>{t.cols | bit, ((t.ld | bit) << 1) & all, (t.rd | bit) >> 1});
      }
    }
  }

  static Task root() { return Task{0, 0, 0}; }
};

inline std::uint64_t nqueens_sequential(int n, std::uint32_t cols, std::uint32_t ld,
                                        std::uint32_t rd) {
  const std::uint32_t all = (1u << n) - 1u;
  if (cols == all) return 1;
  std::uint64_t total = 0;
  std::uint32_t avail = ~(cols | ld | rd) & all;
  while (avail != 0) {
    const std::uint32_t bit = avail & (0u - avail);
    avail &= avail - 1;
    total += nqueens_sequential(n, cols | bit, ((ld | bit) << 1) & all, (rd | bit) >> 1);
  }
  return total;
}

// Hybrid cores×lanes path (core/hybrid_taskblock.hpp): the single root is
// amplified by breadth-first frontier expansion (row by row — level d holds
// the partial placements of d queens) until there are enough independent
// tasks to strip-mine over the pool; each range runs the SIMD task-block
// scheduler.  Placement counts are a commutative sum, so the result is
// bit-identical to the sequential recursion for any split.
inline std::uint64_t nqueens_hybrid(rt::ForkJoinPool& pool, const NQueensProgram& prog,
                                    const core::Thresholds& th,
                                    const rt::HybridOptions& opt = {},
                                    core::PerWorkerStats* stats = nullptr) {
  const NQueensProgram::Task root[] = {NQueensProgram::root()};
  return core::hybrid_taskblock<core::SimdExec<NQueensProgram>>(
      pool, prog, root, core::SeqPolicy::Restart, th, opt, stats);
}

}  // namespace tb::apps
