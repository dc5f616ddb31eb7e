// knapsack — exhaustive 0/1 knapsack search (Table 1 row 1).
//
// A task is (item index, remaining capacity, accumulated value); the two
// spawns are include-item (slot 0, only when it fits) and exclude-item
// (slot 1).  Leaves occur when every item has been decided; the reduction
// tracks both the leaf count and the best achievable value.  With weights
// small relative to capacity the tree is (near-)perfectly balanced with all
// base cases on the last level, matching the paper's characterization.
//
// Because every task in a block sits at the same tree level, the item index
// is uniform across a block — the SIMD kernel broadcasts w[item]/v[item]
// instead of gathering.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/program.hpp"
#include "runtime/xoshiro.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"

namespace tb::apps {

struct KnapsackInstance {
  std::vector<std::int32_t> weight;
  std::vector<std::int32_t> value;
  std::int32_t capacity = 0;

  int num_items() const { return static_cast<int>(weight.size()); }

  // Deterministic pseudo-random instance.  Weights are kept small relative
  // to the capacity so most include-branches are feasible (the paper's
  // "perfectly balanced tree" shape).
  static KnapsackInstance random(int items, std::uint64_t seed = 42) {
    KnapsackInstance inst;
    rt::Xoshiro256 rng(seed);
    inst.weight.resize(static_cast<std::size_t>(items));
    inst.value.resize(static_cast<std::size_t>(items));
    std::int32_t total = 0;
    for (int i = 0; i < items; ++i) {
      inst.weight[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(1 + rng.below(8));
      inst.value[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(1 + rng.below(100));
      total += inst.weight[static_cast<std::size_t>(i)];
    }
    inst.capacity = (3 * total) / 4;
    return inst;
  }
};

struct KnapsackResult {
  std::uint64_t leaves = 0;
  std::int64_t best = 0;
};

struct KnapsackProgram {
  struct Task {
    std::int32_t item;
    std::int32_t cap;
    std::int32_t val;
  };
  using Result = KnapsackResult;
  static constexpr int max_children = 2;

  const KnapsackInstance* inst = nullptr;

  static Result identity() { return {}; }
  static void combine(Result& a, const Result& b) {
    a.leaves += b.leaves;
    a.best = std::max(a.best, b.best);
  }

  bool is_base(const Task& t) const { return t.item == inst->num_items(); }
  void leaf(const Task& t, Result& r) const {
    r.leaves += 1;
    r.best = std::max(r.best, static_cast<std::int64_t>(t.val));
  }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    const auto i = static_cast<std::size_t>(t.item);
    const std::int32_t w = inst->weight[i];
    const std::int32_t v = inst->value[i];
    if (t.cap >= w) emit(0, Task{t.item + 1, t.cap - w, t.val + v});
    emit(1, Task{t.item + 1, t.cap, t.val});
  }

  // ---- SoA layer -------------------------------------------------------------
  using Block = simd::SoaBlock<std::int32_t, std::int32_t, std::int32_t>;
  static Task task_at(const Block& b, std::size_t i) {
    const auto [item, cap, val] = b.row(i);
    return Task{item, cap, val};
  }
  static void append_task(Block& b, const Task& t) { b.push_back(t.item, t.cap, t.val); }

  // ---- SIMD layer ------------------------------------------------------------
  static constexpr int simd_width = simd::natural_width<std::int32_t>;

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 2>& outs, Result& r, std::uint64_t& leaves) const {
    using B = simd::batch<std::int32_t, simd_width>;
    const std::int32_t* items = in.data<0>();
    const std::int32_t* caps = in.data<1>();
    const std::int32_t* vals = in.data<2>();
    const std::int32_t n_items = inst->num_items();
    std::uint64_t leaf_count = 0;
    std::int64_t best = r.best;
    for (std::size_t i = begin; i < end; i += simd_width) {
      [[maybe_unused]] const B item = B::loadu(items + i);
      const B cap = B::loadu(caps + i);
      const B val = B::loadu(vals + i);
      const std::int32_t item0 = items[i];  // uniform per level
      assert(simd::cmp_eq(item, B::broadcast(item0)) == simd::mask_all<simd_width>);
      if (item0 == n_items) {
        leaf_count += simd_width;
        best = std::max(best, static_cast<std::int64_t>(simd::reduce_max(val)));
        continue;
      }
      const B w = B::broadcast(inst->weight[static_cast<std::size_t>(item0)]);
      const B v = B::broadcast(inst->value[static_cast<std::size_t>(item0)]);
      const B next = B::broadcast(item0 + 1);
      const std::uint32_t fits = simd::cmp_ge(cap, w);
      outs[0]->append_compact(fits, next, cap - w, val + v);
      outs[1]->append_compact(simd::mask_all<simd_width>, next, cap, val);
    }
    r.best = best;
    r.leaves += leaf_count;
    leaves += leaf_count;
  }

  Task root() const { return Task{0, inst->capacity, 0}; }
};

inline KnapsackResult knapsack_sequential(const KnapsackInstance& inst, int item,
                                          std::int32_t cap, std::int32_t val) {
  if (item == inst.num_items()) return {1, val};
  KnapsackResult r{};
  const auto i = static_cast<std::size_t>(item);
  if (cap >= inst.weight[i]) {
    KnapsackProgram::combine(
        r, knapsack_sequential(inst, item + 1, cap - inst.weight[i], val + inst.value[i]));
  }
  KnapsackProgram::combine(r, knapsack_sequential(inst, item + 1, cap, val));
  return r;
}

}  // namespace tb::apps
