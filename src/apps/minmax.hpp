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

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <tuple>

#include "apps/task_rule.hpp"

namespace tb::apps {

struct MinmaxResult {
  std::uint64_t leaves = 0;
  std::uint64_t x_wins = 0;
  std::uint64_t o_wins = 0;
  std::int64_t score_sum = 0;  // +1 per X win, -1 per O win

  friend bool operator==(const MinmaxResult&, const MinmaxResult&) = default;
};

template <int W>
struct MinmaxRow {
  simd::lanes<std::uint32_t, W> x;  // X's stones, one bit per cell
  simd::lanes<std::uint32_t, W> o;  // O's stones
  auto fields() const { return std::tie(x, o); }
};

struct MinmaxProgram : TaskRule<MinmaxProgram, MinmaxRow> {
  using Result = MinmaxResult;
  static constexpr int max_children = 16;
  static constexpr int board_cells = 16;

  int ply_limit = 9;  // cut off the search at this many stones

  explicit MinmaxProgram(int plies = 9) : ply_limit(plies) {}

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

  // The lanes whose board holds a full line (nonzero: the board is won).
  template <class V>
  [[gnu::always_inline]] static std::uint32_t won(V board) {
    std::uint32_t m = 0;
    for (const std::uint32_t line : kLines) m |= simd::cmp_eq(board & line, line);
    return m;
  }

  // The ply (stones on the board) is the tree level: lane 0 speaks for all.
  template <int W>
  [[gnu::always_inline]] std::uint32_t base(const Row<W>& t) const {
    const int filled = std::popcount(simd::first_lane(t.x | t.o));
    if (filled >= board_cells || filled >= ply_limit) return ~0u;
    return won(t.x) | won(t.o);
  }
  template <int W>
  [[gnu::always_inline]] void reduce(const Row<W>& t, std::uint32_t m, Result& r) const {
    const std::uint32_t xwin = won(t.x) & m;
    const std::uint32_t owin = won(t.o) & m & ~xwin;  // one winner; X is checked first
    r.leaves += static_cast<std::uint64_t>(std::popcount(m));
    r.x_wins += static_cast<std::uint64_t>(std::popcount(xwin));
    r.o_wins += static_cast<std::uint64_t>(std::popcount(owin));
    r.score_sum += std::popcount(xwin) - std::popcount(owin);
  }
  template <int W, class Emit>
  [[gnu::always_inline]] void spawn(const Row<W>& t, std::uint32_t live, Emit&& emit) const {
    const auto occ = t.x | t.o;
    const bool x_to_move = (std::popcount(simd::first_lane(occ)) & 1) == 0;
    for (int cell = 0; cell < board_cells; ++cell) {
      const std::uint32_t bit = 1u << cell;
      if (const std::uint32_t m = live & simd::cmp_eq(occ & bit, 0u)) {
        emit(cell, m, x_to_move ? Row<W>{t.x | bit, t.o} : Row<W>{t.x, t.o | bit});
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
