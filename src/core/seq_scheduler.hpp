// Sequential (single-core, Q-lane) task-block schedulers — §3.1–§3.3.
//
// One driver implements the three policies of the paper:
//
//   Basic   — BFE until t_dfe, then pure DFE (Theorem 1)
//   Reexp   — Basic + switch back to BFE below t_bfe (Ren et al.; Theorem 2)
//   Restart — Basic + park blocks below t_restart and scan the deque
//             bottom-up for denser same-level work (Theorems 3)
//
// The scheduler is layout-agnostic: `Exec` supplies the block type and the
// block-expansion loops (AosExec / SoaExec / SimdExec from program.hpp, or
// the join-frame layer of join_scheduler.hpp); blocks execute through the
// shared step of step.hpp, and the policy only routes the right children.
#pragma once

#include <cstddef>
#include <utility>

#include "core/block_pool.hpp"
#include "core/leveled_deque.hpp"
#include "core/program.hpp"
#include "core/stats.hpp"
#include "core/step.hpp"
#include "core/thresholds.hpp"

namespace tb::core {

enum class SeqPolicy { Basic, Reexp, Restart };

inline const char* to_string(SeqPolicy p) {
  switch (p) {
    case SeqPolicy::Basic: return "basic";
    case SeqPolicy::Reexp: return "reexp";
    case SeqPolicy::Restart: return "restart";
  }
  return "?";
}

template <class Exec>
class SeqScheduler {
public:
  using Program = typename Exec::Program;
  using Block = typename Exec::Block;
  using Result = typename Program::Result;
  static constexpr std::size_t C = static_cast<std::size_t>(Exec::out_degree);

  SeqScheduler(const Program& p, Thresholds th, SeqPolicy policy)
      : prog_(p), th_(th.clamped()), policy_(policy) {}

  // Executes every task reachable from `roots` (tasks at level 0, or at
  // roots.level() for strip-mined outer loops) and returns the reduced
  // result.  Adds the run's statistics into *stats, which may be null.
  Result run(Block roots, ExecStats* stats = nullptr) {
    ExecStats local;
    ExecStats& st = stats ? *stats : local;
    Result r = Program::identity();
    const Step<Exec> step{prog_, th_, r, st, pool_};

    Block cur = std::move(roots);
    bool bfe_mode = true;   // start in breadth-first expansion
    bool growing = true;    // keep BFE until t_dfe is first reached

    while (true) {
      if (cur.empty() && !pick_next(cur, bfe_mode)) break;
      st.note_space(cur.size() + deque_.total_tasks());

      if (bfe_mode) {
        cur = step.bfe(std::move(cur));
        if (policy_ == SeqPolicy::Restart && !cur.empty()) {
          // Merge with any block parked at the level BFE just reached.
          deque_.absorb_level(cur.level(), cur);
        }
        if (cur.size() >= th_.t_dfe) {
          bfe_mode = false;
          growing = false;
        } else if (!growing && policy_ == SeqPolicy::Restart) {
          // §3.3: a failed scan triggers exactly one BFE of the top block;
          // afterwards the scheduler re-evaluates the restart condition.
          bfe_mode = false;
        }
        continue;
      }

      // DFE mode.
      if (policy_ == SeqPolicy::Reexp && cur.size() < th_.t_bfe) {
        bfe_mode = true;
        growing = true;  // re-expansion grows the block back to t_dfe
        continue;
      }
      if (policy_ == SeqPolicy::Restart && cur.size() < th_.t_restart) {
        st.on_action(Action::Restart);
        deque_.push_merge(std::move(cur));
        if (!pick_next(cur, bfe_mode)) break;
        continue;
      }
      Kids<Exec> kids = step.dfe(std::move(cur));
      // Point blocking: park the right siblings (deepest-executed-first
      // order), continue with the leftmost child.
      for (std::size_t s = C; s-- > 1;) {
        if (kids[s].empty()) {
          pool_.put(std::move(kids[s]));
        } else if (policy_ == SeqPolicy::Restart) {
          deque_.push_merge(std::move(kids[s]));
        } else {
          deque_.push(std::move(kids[s]));
        }
      }
      cur = std::move(kids[0]);
    }
    return r;
  }

private:
  bool pick_next(Block& cur, bool& bfe_mode) {
    if (policy_ == SeqPolicy::Restart) {
      switch (deque_.restart_scan(th_.t_restart, cur, 2 * th_.t_dfe)) {
        case LeveledDeque<Block>::Scan::Empty: return false;
        case LeveledDeque<Block>::Scan::Dense:
          bfe_mode = false;
          return true;
        case LeveledDeque<Block>::Scan::Top:
          bfe_mode = true;  // single-shot BFE (growing stays false)
          return true;
      }
      return false;
    }
    if (!deque_.pop_deepest(cur)) return false;
    bfe_mode = false;
    return true;
  }

  const Program& prog_;
  Thresholds th_;
  SeqPolicy policy_;
  LeveledDeque<Block> deque_;
  BlockPool<Block> pool_;
};

}  // namespace tb::core
