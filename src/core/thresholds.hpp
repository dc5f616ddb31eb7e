// Scheduler thresholds (§3.5).
//
//   q          — SIMD lanes per core (Q); also the step-accounting width.
//   t_dfe = kQ — switch BFE→DFE when a block reaches this size (caps block
//                size: a block never exceeds 2·t_dfe after one BFE).
//   t_bfe      — re-expansion: switch DFE→BFE below this size (t_bfe ≤ t_dfe).
//   t_restart  — restart: park the block and scan for denser work below
//                this size (also the partial-superstep threshold of §4.2).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace tb::core {

// §3.4: a sparse stolen block gets "a constant number of BFE actions" to
// regrow before it may be parked — in the real scheduler (ideal_restart.hpp)
// and in the §4 simulator (sim/par_sim.hpp) alike.
inline constexpr int kBfeAfterSteal = 2;

struct Thresholds {
  int q = 8;
  std::size_t t_dfe = 1u << 12;
  std::size_t t_bfe = 1u << 12;
  std::size_t t_restart = 1u << 8;

  // §3.5 recommends recovery thresholds between Q and t_dfe, but block
  // sizes below Q stay legal (Fig. 4 sweeps from 2^0): only the ordering
  // 1 <= t_bfe, t_restart <= t_dfe is enforced.
  Thresholds clamped() const {
    Thresholds t = *this;
    t.q = std::max(1, t.q);
    t.t_dfe = std::max<std::size_t>(t.t_dfe, 1);
    t.t_bfe = std::clamp<std::size_t>(t.t_bfe, 1, t.t_dfe);
    t.t_restart = std::clamp<std::size_t>(t.t_restart, 1, t.t_dfe);
    return t;
  }

  // Convenience: block size 2^log_bs with recovery thresholds pinned to the
  // block size (k1 ≈ k, the paper's recommended setting) and a restart
  // threshold `rb` (defaults to block size / 16, floored at 1 so degenerate
  // block sizes below 16 stay legal).
  static Thresholds for_block_size(int q, std::size_t block, std::size_t restart = 0) {
    Thresholds t;
    t.q = q;
    t.t_dfe = block;
    t.t_bfe = block;
    t.t_restart = restart == 0 ? std::max<std::size_t>(block / 16, 1) : restart;
    return t.clamped();
  }
};

}  // namespace tb::core
