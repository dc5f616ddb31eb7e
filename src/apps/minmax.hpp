// minmax — bounded-ply game-tree search on 4×4 tic-tac-toe (Table 1 row 8).
//
// A task is a position: two 16-bit bitboards packed in u32 (cells 0..15 for
// X and O).  The ply — and therefore the player to move — equals the tree
// level, so it is uniform across a block and derived from popcount(x|o)
// rather than stored.  A spawn slot is a board cell (out-degree 16).
//
// Reduction note (DESIGN.md §3): the paper's model reduces at base cases
// only, so this benchmark reduces leaf statistics (leaf count, X/O wins,
// and the signed score sum) rather than propagating min/max through
// internal nodes.  The tree walked — all the scheduler observes — is the
// full minimax tree.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "core/program.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"

namespace tb::apps {

struct MinmaxResult {
  std::uint64_t leaves = 0;
  std::uint64_t x_wins = 0;
  std::uint64_t o_wins = 0;
  std::int64_t score_sum = 0;  // +1 per X win, -1 per O win

  friend bool operator==(const MinmaxResult&, const MinmaxResult&) = default;
};

struct MinmaxProgram {
  struct Task {
    std::uint32_t x;  // X's stones, one bit per cell
    std::uint32_t o;  // O's stones
  };
  using Result = MinmaxResult;
  static constexpr int max_children = 16;
  static constexpr int board_cells = 16;

  int ply_limit = 9;  // cut off the search at this many stones

  // 4-in-a-row lines on the 4x4 board: 4 rows, 4 columns, 2 diagonals.
  static constexpr std::array<std::uint32_t, 10> kLines = {
      0x000Fu, 0x00F0u, 0x0F00u, 0xF000u,  // rows
      0x1111u, 0x2222u, 0x4444u, 0x8888u,  // columns
      0x8421u, 0x1248u,                    // diagonals
  };

  static Result identity() { return {}; }
  static void combine(Result& a, const Result& b) {
    a.leaves += b.leaves;
    a.x_wins += b.x_wins;
    a.o_wins += b.o_wins;
    a.score_sum += b.score_sum;
  }

  static bool won(std::uint32_t board) {
    for (const std::uint32_t line : kLines) {
      if ((board & line) == line) return true;
    }
    return false;
  }

  bool is_base(const Task& t) const {
    const int filled = std::popcount(t.x | t.o);
    return won(t.x) || won(t.o) || filled >= board_cells || filled >= ply_limit;
  }

  void leaf(const Task& t, Result& r) const {
    r.leaves += 1;
    if (won(t.x)) {
      r.x_wins += 1;
      r.score_sum += 1;
    } else if (won(t.o)) {
      r.o_wins += 1;
      r.score_sum -= 1;
    }
  }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    const std::uint32_t occ = t.x | t.o;
    const bool x_to_move = (std::popcount(occ) & 1) == 0;
    for (int cell = 0; cell < board_cells; ++cell) {
      const std::uint32_t bit = 1u << cell;
      if (occ & bit) continue;
      emit(cell, x_to_move ? Task{t.x | bit, t.o} : Task{t.x, t.o | bit});
    }
  }

  // ---- SoA layer -------------------------------------------------------------
  using Block = simd::SoaBlock<std::uint32_t, std::uint32_t>;
  static Task task_at(const Block& b, std::size_t i) {
    const auto [x, o] = b.row(i);
    return Task{x, o};
  }
  static void append_task(Block& b, const Task& t) { b.push_back(t.x, t.o); }

  // ---- SIMD layer ------------------------------------------------------------
  static constexpr int simd_width = simd::natural_width<std::uint32_t>;

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 16>& outs, Result& r, std::uint64_t& leaves) const {
    using B = simd::batch<std::uint32_t, simd_width>;
    const std::uint32_t* xs = in.data<0>();
    const std::uint32_t* os = in.data<1>();
    constexpr std::uint32_t full = simd::mask_all<simd_width>;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const B x = B::loadu(xs + i);
      const B o = B::loadu(os + i);
      const B occ = x | o;
      // Ply is uniform across the block.
      const int filled = std::popcount(xs[i] | os[i]);
      const bool cutoff = filled >= board_cells || filled >= ply_limit;
      std::uint32_t xwin = 0;
      std::uint32_t owin = 0;
      for (const std::uint32_t line : kLines) {
        const B lv = B::broadcast(line);
        xwin |= simd::cmp_eq(x & lv, lv);
        owin |= simd::cmp_eq(o & lv, lv);
      }
      owin &= ~xwin;  // a position cannot have two winners; X checked first
      const std::uint32_t base = cutoff ? full : ((xwin | owin) & full);
      r.leaves += std::popcount(base);
      r.x_wins += std::popcount(xwin & base);
      r.o_wins += std::popcount(owin & base);
      r.score_sum += std::popcount(xwin & base) - std::popcount(owin & base);
      leaves += std::popcount(base);
      const std::uint32_t live = ~base & full;
      if (live == 0) continue;
      const bool x_to_move = (filled & 1) == 0;
      for (int cell = 0; cell < board_cells; ++cell) {
        const B bit = B::broadcast(1u << cell);
        const std::uint32_t empty =
            simd::cmp_eq(occ & bit, B::zero()) & live;
        if (empty == 0) continue;
        if (x_to_move) {
          outs[static_cast<std::size_t>(cell)]->append_compact(empty, x | bit, o);
        } else {
          outs[static_cast<std::size_t>(cell)]->append_compact(empty, x, o | bit);
        }
      }
    }
  }

  static Task root() { return Task{0, 0}; }
};

inline MinmaxResult minmax_sequential(const MinmaxProgram& prog, const MinmaxProgram::Task& t) {
  MinmaxResult r{};
  if (prog.is_base(t)) {
    prog.leaf(t, r);
    return r;
  }
  prog.expand(t, [&](int, const MinmaxProgram::Task& c) {
    MinmaxProgram::combine(r, minmax_sequential(prog, c));
  });
  return r;
}

// True minimax value of a position (internal-node min/max propagation) —
// used by the game-playing example; not part of the paper's benchmark.
inline int minmax_value(const MinmaxProgram& prog, const MinmaxProgram::Task& t) {
  if (MinmaxProgram::won(t.x)) return 1;
  if (MinmaxProgram::won(t.o)) return -1;
  if (prog.is_base(t)) return 0;
  const bool x_to_move = (std::popcount(t.x | t.o) & 1) == 0;
  int best = x_to_move ? -2 : 2;
  prog.expand(t, [&](int, const MinmaxProgram::Task& c) {
    const int v = minmax_value(prog, c);
    best = x_to_move ? std::max(best, v) : std::min(best, v);
  });
  return best;
}

}  // namespace tb::apps
