// Task blocks with joins — blocked execution of computations with syncs.
//
// The paper's model reduces only at base cases (§2.1) and notes in passing
// (§2, footnote 1) that computations with syncs "can also be represented
// using a tree; albeit a more complex and dynamic one".  This module makes
// that concrete: a JoinProgram lets every internal task combine its
// children's values through an order-insensitive fold (min/max/sum/...),
// which is what true minimax, tree accumulations, and divide-and-conquer
// returns need — and what the leaf-only model cannot express (DESIGN.md
// documents the minmax benchmark's resulting substitution).
//
// Mechanically, each expanded task allocates a *join frame* — parent link,
// outstanding-children count, accumulator — and its children carry the
// frame id.  A completing task folds its value into its parent frame;
// the frame that reaches zero pending children finalizes and completes its
// own parent in turn, so values percolate up the dynamic tree regardless
// of the order the scheduler executes blocks in.  Frames live in a
// free-list arena; peak live frames track peak live tasks, not tree size.
//
// The scheduling itself is SeqScheduler's: JoinScheduler is an execution
// layer (JoinExec) over AoS blocks of (task, frame id) rows, so the same
// three policies (basic / reexp / restart) run unchanged and the schedule —
// every step, superstep and action — equals the leaf-only scheduler's on
// the same tree.  The fold itself is scalar — the SIMD win for join
// programs is the same blocked child generation as everywhere else, while
// the per-child fold is pointer-chasing by nature.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/block.hpp"
#include "core/program.hpp"
#include "core/seq_scheduler.hpp"
#include "core/stats.hpp"
#include "core/thresholds.hpp"

namespace tb::core {

template <class P>
concept JoinTaskProgram =
    requires(const P p, const typename P::Task& t, typename P::Value& acc,
             const typename P::Value& v) {
      typename P::Task;
      typename P::Value;
      { P::max_children } -> std::convertible_to<int>;
      { p.is_base(t) } -> std::convertible_to<bool>;
      { p.leaf_value(t) } -> std::same_as<typename P::Value>;
      p.expand(t, detail::NullEmit<typename P::Task>{});
      { p.join_identity(t) } -> std::same_as<typename P::Value>;
      p.combine(t, acc, v);                                   // fold one child in
      { p.finalize(t, v) } -> std::same_as<typename P::Value>;  // after the last child
    };

template <JoinTaskProgram P>
class JoinScheduler {
public:
  using Task = typename P::Task;
  using Value = typename P::Value;
  static constexpr std::size_t C = static_cast<std::size_t>(P::max_children);

  // One scheduled row: a task plus the frame that receives its value.
  // Negative frame ids address root result slots (-1 - root_index).
  struct Node {
    Task task;
    std::int32_t frame;
  };
  using Block = AosBlock<Node>;

  JoinScheduler(const P& p, Thresholds th, SeqPolicy policy)
      : prog_(p), th_(th), policy_(policy) {}

  // Executes every task reachable from `roots` and returns one joined value
  // per root (the §5.2 outer loop keeps per-iteration results separate).
  // Adds the run's statistics into *stats, which may be null.
  std::vector<Value> run(std::span<const Task> roots, ExecStats* stats = nullptr) {
    results_.assign(roots.size(), Value{});
    frames_.clear();
    free_.clear();
    peak_frames_ = 0;

    Block cur;
    cur.set_level(0);
    cur.reserve(roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      cur.push_back({roots[i], static_cast<std::int32_t>(-1 - static_cast<std::int64_t>(i))});
    }
    const typename JoinExec::Program layer{this};
    SeqScheduler<JoinExec>(layer, th_, policy_).run(std::move(cur), stats);
    if (stats) stats->peak_frames = std::max(stats->peak_frames, peak_frames_);
    return std::move(results_);
  }

private:
  // The execution layer SeqScheduler drives: executing a row folds a leaf
  // into its frame or expands the task under a fresh frame.  Values flow
  // through the frame arena, so the layer's own Result is empty.
  struct JoinExec {
    struct Program {
      struct Result {};
      static Result identity() { return {}; }
      JoinScheduler* arena;
    };
    using Block = JoinScheduler::Block;
    static constexpr int out_degree = P::max_children;

    static void expand_into(const Program& layer, const Block& in, std::size_t begin,
                            std::size_t end, const std::array<Block*, C>& outs,
                            typename Program::Result&, std::uint64_t& leaves) {
      for (std::size_t i = begin; i < end; ++i) layer.arena->process(in[i], outs, leaves);
    }
  };

  struct Frame {
    Task task;
    Value acc;
    std::int32_t parent;
    std::int32_t pending;
  };

  std::int32_t alloc_frame(const Task& t, std::int32_t parent) {
    std::int32_t id;
    if (!free_.empty()) {
      id = free_.back();
      free_.pop_back();
    } else {
      id = static_cast<std::int32_t>(frames_.size());
      frames_.emplace_back();
    }
    Frame& f = frames_[static_cast<std::size_t>(id)];
    f.task = t;
    f.acc = prog_.join_identity(t);
    f.parent = parent;
    f.pending = 0;
    ++live_frames_;
    peak_frames_ = std::max<std::uint64_t>(peak_frames_, live_frames_);
    return id;
  }

  // Fold `v` into frame `fid`, completing and percolating as frames drain.
  void propagate(std::int32_t fid, Value v) {
    while (true) {
      if (fid < 0) {
        results_[static_cast<std::size_t>(-1 - fid)] = v;
        return;
      }
      Frame& f = frames_[static_cast<std::size_t>(fid)];
      prog_.combine(f.task, f.acc, v);
      if (--f.pending > 0) return;
      v = prog_.finalize(f.task, f.acc);
      const std::int32_t parent = f.parent;
      free_.push_back(fid);
      --live_frames_;
      fid = parent;
    }
  }

  // Expand one row into the per-slot output blocks, wiring join frames.
  void process(const Node& nd, const std::array<Block*, C>& outs, std::uint64_t& leaves) {
    if (prog_.is_base(nd.task)) {
      ++leaves;
      propagate(nd.frame, prog_.leaf_value(nd.task));
      return;
    }
    const std::int32_t fid = alloc_frame(nd.task, nd.frame);
    int emitted = 0;
    prog_.expand(nd.task, [&](int slot, const Task& c) {
      outs[static_cast<std::size_t>(slot)]->push_back(Node{c, fid});
      ++emitted;
    });
    if (emitted == 0) {
      // Dying branch: the join completes over an empty child set.
      Frame& f = frames_[static_cast<std::size_t>(fid)];
      const Value v = prog_.finalize(f.task, f.acc);
      const std::int32_t parent = f.parent;
      free_.push_back(fid);
      --live_frames_;
      propagate(parent, v);
      return;
    }
    frames_[static_cast<std::size_t>(fid)].pending = emitted;
  }

  const P& prog_;
  Thresholds th_;
  SeqPolicy policy_;
  std::vector<Frame> frames_;
  std::vector<std::int32_t> free_;
  std::uint64_t live_frames_ = 0;
  std::uint64_t peak_frames_ = 0;
  std::vector<Value> results_;
};

// Convenience: single root, single joined value.
template <class P>
typename P::Value run_join(const P& p, const typename P::Task& root, SeqPolicy policy,
                           const Thresholds& th, ExecStats* stats = nullptr) {
  JoinScheduler<P> sched(p, th, policy);
  const typename P::Task roots[1] = {root};
  return sched.run(roots, stats)[0];
}

}  // namespace tb::core
