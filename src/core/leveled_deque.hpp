// Multi-level block deque for the sequential schedulers (§3.1), the ideal
// parallel restart scheduler and the §4 simulator (sim/par_sim.hpp).
//
// Each level of the computation tree owns a list of parked blocks.  The
// basic and re-expansion policies pop the deepest block; the restart policy
// scans bottom-up, merging same-level blocks, looking for a level holding at
// least t_restart tasks (§3.3).
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace tb::core {

template <class Block>
class LeveledDeque {
public:
  bool empty() const { return total_tasks_ == 0; }
  std::size_t total_tasks() const { return total_tasks_; }

  std::size_t blocks_at(int level) const {
    const auto l = static_cast<std::size_t>(level);
    return l < levels_.size() ? levels_[l].size() : 0;
  }

  // Park a block, keeping it distinct from others at its level (point
  // blocking leaves one block per unexecuted spawn index).
  void push(Block&& b) {
    assert(!b.empty());
    auto& lvl = level_list(b.level());
    total_tasks_ += b.size();
    lvl.push_back(std::move(b));
  }

  // Park a block, concatenating with any block already at its level (the
  // restart mechanism merges same-level blocks, §3.1 "Restart").
  void push_merge(Block&& b) {
    assert(!b.empty());
    auto& lvl = level_list(b.level());
    total_tasks_ += b.size();
    if (lvl.empty()) {
      lvl.push_back(std::move(b));
    } else {
      lvl.front().append(std::move(b));
    }
  }

  // Pop one block from the deepest non-empty level.  Returns false when the
  // deque is empty.
  bool pop_deepest(Block& out) {
    for (std::size_t l = levels_.size(); l-- > 0;) {
      auto& lvl = levels_[l];
      if (!lvl.empty()) {
        out = std::move(lvl.back());
        lvl.pop_back();
        total_tasks_ -= out.size();
        return true;
      }
    }
    return false;
  }

  // Move every block parked at `level` into `into` (used after a BFE step
  // lands on a level that already has a parked sibling).
  void absorb_level(int level, Block& into) {
    const auto l = static_cast<std::size_t>(level);
    if (l >= levels_.size()) return;
    for (auto& b : levels_[l]) {
      total_tasks_ -= b.size();
      into.append(std::move(b));
    }
    levels_[l].clear();
  }

  enum class Scan { Empty, Dense, Top };

  // §3.3 restart scan: walk from the deepest level toward the root, merging
  // all blocks at each level.  The first merged level holding at least
  // `threshold` tasks is returned as Dense; if none qualifies, the
  // shallowest non-empty merged block is returned as Top; Empty if no work.
  // `cap` bounds the extracted block (§4: blocks stay O(t_dfe); merged
  // levels beyond the cap leave the remainder parked).
  Scan restart_scan(std::size_t threshold, Block& out, std::size_t cap) {
    std::ptrdiff_t top = -1;
    for (std::size_t l = levels_.size(); l-- > 0;) {
      auto& lvl = levels_[l];
      if (lvl.empty()) continue;
      // Merge the level's blocks into one.
      for (std::size_t i = 1; i < lvl.size(); ++i) lvl.front().append(std::move(lvl[i]));
      lvl.resize(1);
      if (lvl.front().size() >= threshold) {
        extract(lvl, cap, out);
        return Scan::Dense;
      }
      top = static_cast<std::ptrdiff_t>(l);
    }
    if (top < 0) return Scan::Empty;
    extract(levels_[static_cast<std::size_t>(top)], cap, out);
    return Scan::Top;
  }

  // Steal for the ideal parallel scheduler (§3.4): merge and take the
  // shallowest (top) level's block, capped at `cap` tasks.
  bool steal_shallowest(Block& out, std::size_t cap) {
    for (std::size_t l = 0; l < levels_.size(); ++l) {
      auto& lvl = levels_[l];
      if (lvl.empty()) continue;
      for (std::size_t i = 1; i < lvl.size(); ++i) lvl.front().append(std::move(lvl[i]));
      lvl.resize(1);
      extract(lvl, cap, out);
      return true;
    }
    return false;
  }

private:
  // Move up to `cap` tasks of the level's single merged block into `out`.
  void extract(std::vector<Block>& lvl, std::size_t cap, Block& out) {
    Block& b = lvl.front();
    if (b.size() <= cap) {
      out = std::move(b);
      lvl.clear();
      total_tasks_ -= out.size();
      return;
    }
    out.clear();
    out.set_level(b.level());
    out.take_from(b, cap);
    total_tasks_ -= out.size();
  }

  std::vector<Block>& level_list(int level) {
    assert(level >= 0);
    const auto l = static_cast<std::size_t>(level);
    if (l >= levels_.size()) levels_.resize(l + 1);
    return levels_[l];
  }

  std::vector<std::vector<Block>> levels_;
  std::size_t total_tasks_ = 0;
};

}  // namespace tb::core
