// Lockstep (data-parallel-only) traversal baseline — the prior work the
// paper positions against (§8: Jo et al. [8], Ren et al. [14]).
//
// Those systems vectorize tree-traversal applications by assigning one
// *query* (outer data-parallel iteration) to each SIMD lane and walking the
// tree in a single shared order with masked execution.  Nested task
// parallelism is not exploited, there is no re-blocking: once lanes
// diverge — some prune a subtree, others descend — the divergent lanes
// simply idle, and they never consider multicore execution.  The benchmarks
// measure what task blocks add over that model:
//
//   * taskblock vs lockstep = re-blocking/compaction benefit (dead lanes
//     are squeezed out of blocks instead of idling), plus multicore.
//
// The model is not a separate engine: it is the blocked engine's masked
// mode (lockstep/blocked.hpp) with a re-expansion threshold above the query
// count — fixed W-groups of consecutive queries, each walking the whole
// tree as one masked DFS with its query state hoisted into registers.
// lockstep::run_classic (lockstep/drivers.hpp) runs it and reports
// LockstepStats: lane occupancy, the fraction of lane-visits that were
// active — exactly the divergence waste the paper's re-expansion/restart
// policies eliminate.
#pragma once

#include <cstdint>

namespace tb::lockstep {

struct LockstepStats {
  std::uint64_t node_visits = 0;         // frames popped with a nonzero mask
  std::uint64_t lane_visits = 0;         // node_visits × W
  std::uint64_t active_lane_visits = 0;  // Σ popcount(mask)

  // Fraction of SIMD lanes doing useful work; 1.0 means no divergence.
  double occupancy() const {
    return lane_visits == 0
               ? 1.0
               : static_cast<double>(active_lane_visits) / static_cast<double>(lane_visits);
  }
};

}  // namespace tb::lockstep
