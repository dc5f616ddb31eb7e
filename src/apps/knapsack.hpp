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
// is uniform across a block — the rule reads w[item]/v[item] once per row
// instead of gathering.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "apps/task_rule.hpp"
#include "runtime/xoshiro.hpp"

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

template <int W>
struct KnapsackRow {
  simd::lanes<std::int32_t, W> item;
  simd::lanes<std::int32_t, W> cap;
  simd::lanes<std::int32_t, W> val;
  auto fields() const { return std::tie(item, cap, val); }
};

struct KnapsackProgram : TaskRule<KnapsackProgram, KnapsackRow> {
  using Result = KnapsackResult;
  static constexpr int max_children = 2;

  const KnapsackInstance* inst = nullptr;

  explicit KnapsackProgram(const KnapsackInstance* instance = nullptr) : inst(instance) {}

  static Result identity() { return {}; }
  static void combine(Result& a, const Result& b) {
    a.leaves += b.leaves;
    a.best = std::max(a.best, b.best);
  }

  template <int W>
  [[gnu::always_inline]] std::uint32_t base(const Row<W>& t) const {
    return simd::cmp_eq(t.item, inst->num_items());
  }
  template <int W>
  [[gnu::always_inline]] void reduce(const Row<W>& t, std::uint32_t m, Result& r) const {
    r.leaves += static_cast<std::uint64_t>(std::popcount(m));
    r.best = simd::reduce_max_masked(m, t.val, r.best);
  }
  template <int W, class Emit>
  [[gnu::always_inline]] void spawn(const Row<W>& t, std::uint32_t live, Emit&& emit) const {
    const auto i = static_cast<std::size_t>(simd::first_lane(t.item));  // uniform per level
    const std::int32_t w = inst->weight[i];
    const std::int32_t v = inst->value[i];
    if (const std::uint32_t m = live & simd::cmp_ge(t.cap, w)) {
      emit(0, m, Row<W>{t.item + 1, t.cap - w, t.val + v});
    }
    emit(1, live, Row<W>{t.item + 1, t.cap, t.val});
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
