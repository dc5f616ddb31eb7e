// uts — Unbalanced Tree Search, binomial variant (Table 1 row 6).
//
// Every non-root node has `m` children with probability `q` and none
// otherwise, decided by a splittable deterministic hash of the node's RNG
// state (splitmix64 substitutes the original SHA-1 stream — only the
// branching distribution matters to the scheduler; see DESIGN.md §3).  With
// m·q slightly below 1 the tree is deep, highly irregular, and finite in
// expectation — the adversarial workload for block schedulers, which is why
// the paper's Fig. 4c highlights it.  The root's b0 children form the
// initial task set.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "apps/task_rule.hpp"
#include "core/hybrid_taskblock.hpp"
#include "runtime/forkjoin.hpp"

namespace tb::apps {

struct UtsParams {
  int b0 = 64;       // children of the (implicit) root
  int m = 4;         // children of an internal non-root node
  double q = 0.23;   // probability a node is internal (expect m*q < 1)
  std::uint64_t seed = 19;

  std::uint64_t threshold() const {
    const double clamped = q < 0.0 ? 0.0 : (q > 0.999999 ? 0.999999 : q);
    return static_cast<std::uint64_t>(clamped * 18446744073709551616.0 /* 2^64 */);
  }
};

template <int W>
struct UtsRow {
  simd::lanes<std::uint64_t, W> rng;
  auto fields() const { return std::tie(rng); }
};

struct UtsProgram : TaskRule<UtsProgram, UtsRow> {
  using Result = std::uint64_t;  // number of leaves
  static constexpr int max_children = 8;

  UtsParams params;
  std::uint64_t thresh = 0;

  explicit UtsProgram(UtsParams p = {}) : params(p), thresh(p.threshold()) {
    if (p.m < 1 || p.m > max_children) {
      throw std::invalid_argument("UtsProgram: m must be in 1..8");
    }
  }

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  // splitmix64 over one state or W lanes; equals rt::splitmix64 for one.
  template <class V>
  [[gnu::always_inline]] static V mix(V x) {
    x = x + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  template <class V>
  [[gnu::always_inline]] static V child_state(V rng, int i) {
    return mix(rng ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1)));
  }

  // The node's branch decision reuses its state through one extra mix so it
  // is decorrelated from the child-state derivation.
  template <int W>
  [[gnu::always_inline]] std::uint32_t base(const Row<W>& t) const {
    return simd::cmp_ge(mix(t.rng), thresh);
  }
  template <int W>
  [[gnu::always_inline]] void reduce(const Row<W>&, std::uint32_t m, Result& r) const {
    r += static_cast<Result>(std::popcount(m));
  }
  template <int W, class Emit>
  [[gnu::always_inline]] void spawn(const Row<W>& t, std::uint32_t live, Emit&& emit) const {
    for (int i = 0; i < params.m; ++i) emit(i, live, Row<W>{child_state(t.rng, i)});
  }

  // The b0 root children that seed the computation.
  std::vector<Task> roots() const {
    std::vector<Task> r;
    r.reserve(static_cast<std::size_t>(params.b0));
    for (int i = 0; i < params.b0; ++i) {
      r.push_back(Task{child_state(mix(params.seed), i + 1000003)});
    }
    return r;
  }
};

inline std::uint64_t uts_sequential(const UtsProgram& prog, const UtsProgram::Task& t) {
  if (prog.is_base(t)) return 1;
  std::uint64_t total = 0;
  prog.expand(t, [&](int, const UtsProgram::Task& c) { total += uts_sequential(prog, c); });
  return total;
}

inline std::uint64_t uts_sequential_all(const UtsProgram& prog) {
  std::uint64_t total = 0;
  for (const auto& t : prog.roots()) total += uts_sequential(prog, t);
  return total;
}

// Hybrid cores×lanes path (core/hybrid_taskblock.hpp): the b0 root
// children — amplified a level deeper if the pool wants more slices — are
// strip-mined into ranges on the pool, each range running the SIMD
// task-block scheduler.  Leaf counts are a commutative sum, so the result
// is bit-identical to the sequential recursion for any split.
inline std::uint64_t uts_hybrid(rt::ForkJoinPool& pool, const UtsProgram& prog,
                                const core::Thresholds& th,
                                const rt::HybridOptions& opt = {},
                                core::PerWorkerStats* stats = nullptr) {
  const auto roots = prog.roots();
  return core::hybrid_taskblock<core::SimdExec<UtsProgram>>(
      pool, prog, roots, core::SeqPolicy::Restart, th, opt, stats);
}

}  // namespace tb::apps
