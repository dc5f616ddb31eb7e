// The children each execution layer emits, slot by slot.  Eleven Table 1
// programs — the eight integer ones and, through apps::KdQuery, the three
// kd-tree queries — state one rule (apps/task_rule.hpp) and derive their
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
// and the Result must be identical.  knn's and minmaxdist's leaves tighten
// the bounds their children are pruned by, so each layer starts from a
// fresh copy of the same state and must leave the same state behind, and
// on a block that mixes leaves and internal tasks only the two scalar
// layers are compared (see expect_layers_agree).  For the kd-tree queries
// each task's children are also checked, slot by slot, against the child
// order computed from the tree.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/binomial.hpp"
#include "apps/fib.hpp"
#include "apps/graphcol.hpp"
#include "apps/knapsack.hpp"
#include "apps/knn.hpp"
#include "apps/minmax.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/nqueens.hpp"
#include "apps/parentheses.hpp"
#include "apps/pointcorr.hpp"
#include "apps/uts.hpp"
#include "core/block.hpp"
#include "core/program.hpp"
#include "runtime/xoshiro.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"

namespace {

using namespace tb;

bool same(std::uint64_t a, std::uint64_t b) { return a == b; }
bool same(const apps::KnapsackResult& a, const apps::KnapsackResult& b) {
  return a.leaves == b.leaves && a.best == b.best;
}
bool same(const apps::MinmaxResult& a, const apps::MinmaxResult& b) { return a == b; }

// The order a kd query visits a node's children in, from the tree alone:
// left, then right, except that knn takes the right child first when its
// box is strictly nearer the query.  A child in slot 0 is the first.
template <class P>
void expect_kd_children(const P& p, const apps::KdRow<1>& t,
                        const std::vector<std::pair<int, apps::KdRow<1>>>& kids) {
  const auto n = static_cast<std::size_t>(t.node);
  std::int32_t order[2] = {p.tree->left[n], p.tree->right[n]};
  if constexpr (std::is_same_v<P, apps::KnnProgram>) {
    const spatial::Point<float> q = p.point(t.query);
    if (spatial::near_dist2(p.tree->box(order[1]), q) <
        spatial::near_dist2(p.tree->box(order[0]), q)) {
      std::swap(order[0], order[1]);
    }
  }
  for (const auto& [slot, c] : kids) {
    EXPECT_EQ(c.query, t.query);
    EXPECT_EQ(c.node, order[slot]) << "query " << t.query << " node " << t.node << " slot "
                                   << slot;
  }
}

// The program state a layer run may change: none for most programs.
// `leaves_prune`: a leaf changes how the program prunes other tasks.
// `expect_children` checks one task's children, slot by slot, against the
// kd-tree child order; the other programs have no such oracle here.
struct Stateless {
  static constexpr bool leaves_prune = false;
  void reset() {}
  std::string digest() const { return {}; }
  template <class P, class Task>
  void expect_children(const P& p, const Task& t,
                       const std::vector<std::pair<int, Task>>& kids) const {
    if constexpr (std::is_base_of_v<apps::KdQuery<P>, P>) expect_kd_children(p, t, kids);
  }
};

// What one layer emitted from one block, and the state it left.
template <class P>
struct Emitted {
  std::array<std::vector<typename P::Task>, P::max_children> slots;
  typename P::Result result = P::identity();
  std::uint64_t leaves = 0;
  std::string state;
};

template <class Exec, class P = typename Exec::Program, class State>
Emitted<P> run_layer(const P& p, const std::vector<typename P::Task>& tasks, State& state) {
  using Block = typename Exec::Block;
  state.reset();
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
  e.state = state.digest();
  state.reset();
  return e;
}

template <class P>
void expect_same(const Emitted<P>& a, const Emitted<P>& b, const char* layer) {
  SCOPED_TRACE(layer);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_TRUE(same(a.result, b.result));
  EXPECT_EQ(a.state, b.state);
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

// Breadth-first levels from `roots`; for each level, checks each internal
// task's children against the state's oracle, then compares the three
// layers on its internal tasks, its base-case tasks and the whole level
// when it mixes both.  Returns how many blocks of each kind were checked.
struct Coverage {
  int internal = 0, base = 0, mixed = 0;
};

template <class P, class State = Stateless>
Coverage expect_layers_agree(const P& p, std::vector<typename P::Task> level,
                             State&& state = {}) {
  using Task = typename P::Task;
  Coverage cov;
  for (int depth = 0; !level.empty() && depth < 64; ++depth) {
    std::vector<Task> internal, base, next;
    for (const Task& t : level) {
      if (p.is_base(t)) {
        base.push_back(t);
      } else {
        internal.push_back(t);
        std::vector<std::pair<int, Task>> kids;
        p.expand(t, [&](int slot, const Task& c) {
          next.push_back(c);
          kids.emplace_back(slot, c);
        });
        state.expect_children(p, t, kids);
      }
    }
    const bool mixed = !internal.empty() && !base.empty();
    auto check = [&](std::vector<Task> block, int& count, const char* kind, bool simd = true) {
      if (!cut_to_ragged(block, P::simd_width)) return;
      SCOPED_TRACE(std::string(kind) + " block of " + std::to_string(block.size()) +
                   " at depth " + std::to_string(depth));
      const auto aos = run_layer<core::AosExec<P>>(p, block, state);
      expect_same(aos, run_layer<core::SoaExec<P>>(p, block, state), "soa");
      if (simd) expect_same(aos, run_layer<core::SimdExec<P>>(p, block, state), "simd");
      ++count;
    };
    check(internal, cov.internal, "internal");
    check(base, cov.base, "base");
    // The SIMD layer runs a W-chunk's leaf lanes before it spawns the
    // chunk's other lanes, the scalar layers go task by task: where a leaf
    // tightens the bounds another task of its query is pruned by (knn,
    // minmaxdist), their children differ on a mixed block by design.
    if (mixed) check(level, cov.mixed, "mixed", !std::remove_cvref_t<State>::leaves_prune);
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

// ---- kd-tree queries -------------------------------------------------------------
//
// 1,056 uniform points at leaf capacity 16 put the kd-tree's leaves at
// depths 6 and 7, so levels mix leaf and internal tasks.  Every 22nd point
// is a root query.  For knn and minmaxdist every other root query has run
// its sequential traversal before each layer starts, so its bounds prune
// and its leaves offer little; the other queries start from the initial
// bounds and descend everywhere.

struct KdInstance {
  spatial::Bodies pts = spatial::Bodies::uniform_cube(1056, 26);
  spatial::KdTree tree = spatial::KdTree::build(pts, 16);

  std::vector<apps::KdRow<1>> roots() const {
    std::vector<apps::KdRow<1>> r;
    for (std::int32_t q = 0; q < static_cast<std::int32_t>(pts.size()); q += 22) {
      r.push_back({q, tree.root});
    }
    return r;
  }
};

// The state a kd program's layers start from: fresh bounds, then the
// sequential traversal of every other root query.
template <class P, class S>
struct KdState : Stateless {
  static constexpr bool leaves_prune = true;
  const KdInstance& inst;
  S state;
  P prog;
  explicit KdState(const KdInstance& i, S s)
      : inst(i), state(std::move(s)), prog(&i.pts, &i.tree, &state) {
    reset();
  }
  void reset() {
    state = fresh();
    const auto roots = inst.roots();
    for (std::size_t i = 0; i < roots.size(); i += 2) (void)prog.sequential(roots[i]);
  }
  S fresh() const {
    if constexpr (std::is_same_v<S, apps::KnnState>) {
      return S(inst.pts.size(), state.k());
    } else {
      return S(inst.pts.size());
    }
  }
  std::string digest() const {
    if constexpr (std::is_same_v<S, apps::KnnState>) {
      std::string d;
      for (std::int32_t q = 0; q < static_cast<std::int32_t>(inst.pts.size()); ++q) {
        for (const float x : state.distances(q)) {
          d += std::to_string(std::bit_cast<std::uint32_t>(x)) + " ";
        }
        for (const std::int32_t id : state.ids(q)) d += std::to_string(id) + " ";
      }
      return d;
    } else {
      return apps::minmaxdist_digest(state);
    }
  }
};

TEST(TaskRuleSlots, PointCorr) {
  const KdInstance inst;
  const apps::PointCorrProgram p(&inst.pts, &inst.tree, 0.02f);
  const auto cov = expect_layers_agree(p, inst.roots());
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
  EXPECT_GT(cov.mixed, 0);
}

TEST(TaskRuleSlots, Knn) {
  const KdInstance inst;
  KdState<apps::KnnProgram, apps::KnnState> s(inst, apps::KnnState(inst.pts.size(), 4));
  const auto cov = expect_layers_agree(s.prog, inst.roots(), s);
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
  EXPECT_GT(cov.mixed, 0);
}

TEST(TaskRuleSlots, MinmaxDist) {
  const KdInstance inst;
  KdState<apps::MinmaxDistProgram, apps::MinmaxDistState> s(
      inst, apps::MinmaxDistState(inst.pts.size()));
  const auto cov = expect_layers_agree(s.prog, inst.roots(), s);
  EXPECT_GT(cov.internal, 0);
  EXPECT_GT(cov.base, 0);
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
