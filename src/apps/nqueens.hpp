// nqueens — count placements of n non-attacking queens (Table 1 row 4).
//
// Classic bitmask formulation: a task carries three masks — occupied
// columns, left diagonals, right diagonals — and the level equals the
// number of placed queens.  The nested data-parallel loop of the paper (a
// task tries every column of the next row) appears here as the spawn-slot
// loop: slot s = "place the next queen in column s", giving out-degree n.
//
// The SIMD kernel vectorizes across tasks: for each column slot it tests
// `avail & bit` over Q tasks at once and left-packs the spawning lanes.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "core/hybrid_taskblock.hpp"
#include "core/program.hpp"
#include "runtime/forkjoin.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"

namespace tb::apps {

struct NQueensProgram {
  struct Task {
    std::uint32_t cols;  // occupied columns
    std::uint32_t ld;    // left-diagonal attacks, shifted per row
    std::uint32_t rd;    // right-diagonal attacks
  };
  using Result = std::uint64_t;
  static constexpr int max_children = 16;  // supports boards up to n = 16

  int n = 8;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  std::uint32_t all_mask() const { return (n >= 32) ? ~0u : ((1u << n) - 1u); }

  bool is_base(const Task& t) const { return t.cols == all_mask(); }
  void leaf(const Task&, Result& r) const { r += 1; }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    std::uint32_t avail = ~(t.cols | t.ld | t.rd) & all_mask();
    while (avail != 0) {
      const int s = std::countr_zero(avail);
      const std::uint32_t bit = 1u << s;
      avail &= avail - 1;
      emit(s, Task{t.cols | bit, ((t.ld | bit) << 1) & all_mask(), (t.rd | bit) >> 1});
    }
  }

  // ---- SoA layer -------------------------------------------------------------
  using Block = simd::SoaBlock<std::uint32_t, std::uint32_t, std::uint32_t>;
  static Task task_at(const Block& b, std::size_t i) {
    const auto [cols, ld, rd] = b.row(i);
    return Task{cols, ld, rd};
  }
  static void append_task(Block& b, const Task& t) { b.push_back(t.cols, t.ld, t.rd); }

  // ---- SIMD layer ------------------------------------------------------------
  static constexpr int simd_width = simd::natural_width<std::uint32_t>;

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 16>& outs, Result& r, std::uint64_t& leaves) const {
    using B = simd::batch<std::uint32_t, simd_width>;
    const std::uint32_t* cols_p = in.data<0>();
    const std::uint32_t* ld_p = in.data<1>();
    const std::uint32_t* rd_p = in.data<2>();
    const B all = B::broadcast(all_mask());
    const B zero = B::zero();
    std::uint64_t leaf_count = 0;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const B cols = B::loadu(cols_p + i);
      const B ld = B::loadu(ld_p + i);
      const B rd = B::loadu(rd_p + i);
      const std::uint32_t base = simd::cmp_eq(cols, all);
      leaf_count += std::popcount(base);
      const B avail = ~(cols | ld | rd) & all;
      for (int s = 0; s < n; ++s) {
        const B bit = B::broadcast(1u << s);
        const std::uint32_t spawn = ~simd::cmp_eq(avail & bit, zero) & ~base &
                                    simd::mask_all<simd_width>;
        if (spawn == 0) continue;
        outs[static_cast<std::size_t>(s)]->append_compact(
            spawn, cols | bit, ((ld | bit) << 1) & all, (rd | bit) >> 1);
      }
    }
    r += leaf_count;
    leaves += leaf_count;
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
