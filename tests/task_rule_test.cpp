// The children each execution layer emits, slot by slot.  The eight integer
// Table 1 programs state one rule (apps/task_rule.hpp) and derive their
// scalar, SoA and SIMD layers from it; these tests pin that the three layers
// agree on every child, in order, per spawn slot — not only on the final
// result, which the scheduler matrices already compare.
//
// For each program a breadth-first expansion from its roots yields levels;
// from a level we take its internal tasks, its base-case tasks and, where a
// level has both, the whole level.  Each block is cut so its size is not a
// multiple of the SIMD width (the SIMD layer runs whole W-chunks and hands
// the rest to the scalar SoA path).  AosExec, SoaExec and SimdExec then
// expand the block into one output block per slot, and each slot's tasks
// (compared field by field: graphcol's Task has padding), the leaf count
// and the Result must be identical.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/binomial.hpp"
#include "apps/fib.hpp"
#include "apps/graphcol.hpp"
#include "apps/knapsack.hpp"
#include "apps/minmax.hpp"
#include "apps/nqueens.hpp"
#include "apps/parentheses.hpp"
#include "apps/uts.hpp"
#include "core/block.hpp"
#include "core/program.hpp"
#include "runtime/xoshiro.hpp"

namespace {

using namespace tb;

bool same(std::uint64_t a, std::uint64_t b) { return a == b; }
bool same(const apps::KnapsackResult& a, const apps::KnapsackResult& b) {
  return a.leaves == b.leaves && a.best == b.best;
}
bool same(const apps::MinmaxResult& a, const apps::MinmaxResult& b) { return a == b; }

// What one layer emitted from one block.
template <class P>
struct Emitted {
  std::array<std::vector<typename P::Task>, P::max_children> slots;
  typename P::Result result = P::identity();
  std::uint64_t leaves = 0;
};

template <class Exec, class P = typename Exec::Program>
Emitted<P> run_layer(const P& p, const std::vector<typename P::Task>& tasks) {
  using Block = typename Exec::Block;
  Block in;
  for (const auto& t : tasks) Exec::append_task(in, t);
  std::array<Block, P::max_children> kids;
  std::array<Block*, P::max_children> outs;
  for (std::size_t s = 0; s < outs.size(); ++s) outs[s] = &kids[s];
  Emitted<P> e;
  Exec::expand_into(p, in, 0, in.size(), outs, e.result, e.leaves);
  for (std::size_t s = 0; s < kids.size(); ++s) {
    for (std::size_t i = 0; i < kids[s].size(); ++i) {
      if constexpr (std::is_same_v<Block, core::AosBlock<typename P::Task>>) {
        e.slots[s].push_back(kids[s][i]);
      } else {
        e.slots[s].push_back(P::task_at(kids[s], i));
      }
    }
  }
  return e;
}

template <class P>
void expect_same(const Emitted<P>& a, const Emitted<P>& b, const char* layer) {
  SCOPED_TRACE(layer);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_TRUE(same(a.result, b.result));
  for (std::size_t s = 0; s < a.slots.size(); ++s) {
    SCOPED_TRACE("slot " + std::to_string(s));
    ASSERT_EQ(a.slots[s].size(), b.slots[s].size());
    for (std::size_t i = 0; i < a.slots[s].size(); ++i) {
      EXPECT_TRUE(a.slots[s][i].fields() == b.slots[s][i].fields()) << "child " << i;
    }
  }
}

// Cuts `tasks` to a size that is not a multiple of W but spans at least one
// whole W-chunk; false if there are too few tasks for that.
template <class T>
bool cut_to_ragged(std::vector<T>& tasks, int w) {
  const auto wu = static_cast<std::size_t>(w);
  if (tasks.size() <= wu) return false;
  if (tasks.size() % wu == 0) tasks.pop_back();
  return true;
}

// Breadth-first levels from `roots`; for each level, compares the three
// layers on its internal tasks, its base-case tasks and the whole level
// when it mixes both.  Returns how many blocks of each kind were checked.
struct Coverage {
  int internal = 0, base = 0, mixed = 0;
};

template <class P>
Coverage expect_layers_agree(const P& p, std::vector<typename P::Task> level) {
  using Task = typename P::Task;
  Coverage cov;
  for (int depth = 0; !level.empty() && depth < 64; ++depth) {
    std::vector<Task> internal, base, next;
    for (const Task& t : level) {
      if (p.is_base(t)) {
        base.push_back(t);
      } else {
        internal.push_back(t);
        p.expand(t, [&](int, const Task& c) { next.push_back(c); });
      }
    }
    const bool mixed = !internal.empty() && !base.empty();
    auto check = [&](std::vector<Task> block, int& count, const char* kind) {
      if (!cut_to_ragged(block, P::simd_width)) return;
      SCOPED_TRACE(std::string(kind) + " block of " + std::to_string(block.size()) +
                   " at depth " + std::to_string(depth));
      const auto aos = run_layer<core::AosExec<P>>(p, block);
      expect_same(aos, run_layer<core::SoaExec<P>>(p, block), "soa");
      expect_same(aos, run_layer<core::SimdExec<P>>(p, block), "simd");
      ++count;
    };
    check(internal, cov.internal, "internal");
    check(base, cov.base, "base");
    if (mixed) check(level, cov.mixed, "mixed");
    level = std::move(next);
  }
  return cov;
}

TEST(TaskRuleSlots, Fib) {
  const auto cov = expect_layers_agree(apps::FibProgram{}, {apps::FibProgram::root(16)});
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
  EXPECT_GT(cov.mixed, 0);
}

TEST(TaskRuleSlots, Binomial) {
  const auto cov =
      expect_layers_agree(apps::BinomialProgram{}, {apps::BinomialProgram::root(14, 6)});
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
  EXPECT_GT(cov.mixed, 0);
}

TEST(TaskRuleSlots, Parentheses) {
  const auto cov =
      expect_layers_agree(apps::ParenthesesProgram{}, {apps::ParenthesesProgram::root(8)});
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
}

TEST(TaskRuleSlots, Knapsack) {
  const auto inst = apps::KnapsackInstance::random(10, 3);
  const apps::KnapsackProgram p{&inst};
  const auto cov = expect_layers_agree(p, {p.root()});
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
}

TEST(TaskRuleSlots, GraphCol) {
  const auto g = apps::GraphColInstance::random(11, 2.5, 5);
  const auto cov =
      expect_layers_agree(apps::GraphColProgram{&g}, {apps::GraphColProgram::root()});
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
}

TEST(TaskRuleSlots, GraphColHighWord) {
  // A chain where v is adjacent to v-1 and v-2: six tasks per level, and
  // vertices 32..39 pack their colors into the second word.
  apps::GraphColInstance g;
  g.num_vertices = 40;
  g.lower_adj.resize(40);
  for (int v = 2; v < 40; ++v) g.lower_adj[static_cast<std::size_t>(v)] = {v - 1, v - 2};
  const auto cov =
      expect_layers_agree(apps::GraphColProgram{&g}, {apps::GraphColProgram::root()});
  EXPECT_GT(cov.internal, 0);
}

TEST(TaskRuleSlots, Minmax) {
  const auto cov = expect_layers_agree(apps::MinmaxProgram{4}, {apps::MinmaxProgram::root()});
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
}

TEST(TaskRuleSlots, MinmaxWins) {
  // Eight stones down and no ply cutoff: wins for X and O, and draws on a
  // full board, sit at several depths, so levels mix leaves and moves.
  const std::vector<apps::MinmaxProgram::Task> roots{{0x0033u, 0x00CCu}, {0x00CCu, 0x0033u},
                                                     {0x0C03u, 0x30C0u}};
  const auto cov = expect_layers_agree(apps::MinmaxProgram{16}, roots);
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
  EXPECT_GT(cov.mixed, 0);
}

TEST(TaskRuleSlots, NQueens) {
  const auto cov = expect_layers_agree(apps::NQueensProgram{8}, {apps::NQueensProgram::root()});
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
}

TEST(TaskRuleSlots, Uts) {
  const apps::UtsProgram p(apps::UtsParams{48, 4, 0.23, 11});
  const auto cov = expect_layers_agree(p, p.roots());
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
  EXPECT_GT(cov.mixed, 0);
}

TEST(TaskRuleSlots, UtsEightChildren) {
  const apps::UtsProgram p(apps::UtsParams{200, 8, 0.12, 3});
  const auto cov = expect_layers_agree(p, p.roots());
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.mixed, 0);
}

// uts hashes with one template: splitmix64 on one state, per lane on many.
TEST(TaskRuleSlots, UtsMixIsSplitmix64) {
  constexpr int W = apps::UtsProgram::simd_width;
  using B = simd::batch<std::uint64_t, W>;
  const B x = B::iota(0x0123456789abcdefull, 0x9e3779b97f4a7c15ull);
  const B h = apps::UtsProgram::mix(x);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(apps::UtsProgram::mix(x[l]), rt::splitmix64(x[l]));
    EXPECT_EQ(h[l], rt::splitmix64(x[l]));
  }
}

}  // namespace
