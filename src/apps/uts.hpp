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

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/hybrid_taskblock.hpp"
#include "core/program.hpp"
#include "runtime/forkjoin.hpp"
#include "runtime/xoshiro.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"

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

struct UtsProgram {
  struct Task {
    std::uint64_t rng;
  };
  using Result = std::uint64_t;  // number of leaves
  static constexpr int max_children = 8;

  UtsParams params;
  std::uint64_t thresh = 0;

  explicit UtsProgram(UtsParams p = {}) : params(p), thresh(p.threshold()) {}

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  // The node's branch decision reuses its state through one extra mix so it
  // is decorrelated from the child-state derivation below.
  static std::uint64_t decision_hash(std::uint64_t rng) { return rt::splitmix64(rng); }
  static std::uint64_t child_state(std::uint64_t rng, int i) {
    return rt::splitmix64(rng ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1)));
  }

  bool is_base(const Task& t) const { return decision_hash(t.rng) >= thresh; }
  void leaf(const Task&, Result& r) const { r += 1; }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    for (int i = 0; i < params.m; ++i) emit(i, Task{child_state(t.rng, i)});
  }

  // ---- SoA layer -------------------------------------------------------------
  using Block = simd::SoaBlock<std::uint64_t>;
  static Task task_at(const Block& b, std::size_t i) { return Task{std::get<0>(b.row(i))}; }
  static void append_task(Block& b, const Task& t) { b.push_back(t.rng); }

  // ---- SIMD layer ------------------------------------------------------------
  static constexpr int simd_width = simd::natural_width<std::uint64_t>;

  using B64 = simd::batch<std::uint64_t, simd_width>;

  static B64 splitmix_batch(B64 x) {
    x = x + B64::broadcast(0x9e3779b97f4a7c15ull);
    x = (x ^ (x >> 30)) * B64::broadcast(0xbf58476d1ce4e5b9ull);
    x = (x ^ (x >> 27)) * B64::broadcast(0x94d049bb133111ebull);
    return x ^ (x >> 31);
  }

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 8>& outs, Result& r, std::uint64_t& leaves) const {
    const std::uint64_t* rngs = in.data<0>();
    const B64 th = B64::broadcast(thresh);
    std::uint64_t leaf_count = 0;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const B64 state = B64::loadu(rngs + i);
      const B64 h = splitmix_batch(state);
      // Unsigned 64-bit "h < thresh" per lane.
      std::uint32_t internal = 0;
      for (int l = 0; l < simd_width; ++l) {
        internal |= static_cast<std::uint32_t>(h[l] < th[l]) << l;
      }
      leaf_count += simd_width - std::popcount(internal);
      if (internal == 0) continue;
      for (int c = 0; c < params.m; ++c) {
        const B64 salt =
            B64::broadcast(0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(c + 1));
        outs[static_cast<std::size_t>(c)]->append_compact(internal,
                                                          splitmix_batch(state ^ salt));
      }
    }
    r += leaf_count;
    leaves += leaf_count;
  }

  // The b0 root children that seed the computation.
  std::vector<Task> roots() const {
    std::vector<Task> r;
    r.reserve(static_cast<std::size_t>(params.b0));
    for (int i = 0; i < params.b0; ++i) {
      r.push_back(Task{child_state(rt::splitmix64(params.seed), i + 1000003)});
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
