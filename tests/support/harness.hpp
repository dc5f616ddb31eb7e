// Shared scheduler-matrix harness for the gtest suites.
//
// Nearly every suite proves the same theorem — "this variant reproduces the
// sequential-recursion oracle" — over the same axes: sequential policy
// (Basic/Reexp/Restart), data layout (AoS/SoA/SIMD), worker count, and
// threshold preset.  This header owns those axes so a suite states only the
// program, the roots, and the oracle.
//
// Include as "tests/support/harness.hpp" (repo-root-relative, like
// "bench/bench_util.hpp" — src/-relative spellings are reserved for library
// headers; see the root CMakeLists.txt).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/fib.hpp"
#include "apps/knapsack.hpp"
#include "apps/nqueens.hpp"
#include "apps/parentheses.hpp"
#include "core/driver.hpp"
#include "runtime/forkjoin.hpp"
#include "runtime/hybrid.hpp"
#include "sim/par_sim.hpp"
#include "tests/support/rng.hpp"

namespace tbtest {

// ---- axes -------------------------------------------------------------------------

inline constexpr tb::core::SeqPolicy kPolicies[] = {
    tb::core::SeqPolicy::Basic, tb::core::SeqPolicy::Reexp, tb::core::SeqPolicy::Restart};

// The discrete multicore simulator's policy axis (sim/par_sim.hpp) — the
// simulator-side mirror of kPolicies.
inline constexpr tb::sim::SimPolicy kSimPolicies[] = {
    tb::sim::SimPolicy::ScalarWS, tb::sim::SimPolicy::Reexp, tb::sim::SimPolicy::Restart};

// Worker counts for the parallel schedulers; 1 pins the degenerate pool, 8
// oversubscribes typical CI hosts so steals preempt mid-superstep.
inline constexpr int kWorkerCounts[] = {1, 2, 4, 8};

// Data-layout axis.  Mirrors core::{Aos,Soa,Simd}Exec; a bitmask because a
// few programs support only a subset (e.g. the spec interpreter has no SIMD
// kernel).
inline constexpr unsigned kAos = 1u;
inline constexpr unsigned kSoa = 2u;
inline constexpr unsigned kSimd = 4u;
inline constexpr unsigned kAllLayers = kAos | kSoa | kSimd;

// Threshold presets spanning degenerate depth-first (t_dfe = 1) through
// huge breadth-first blocks — the sweep of core_test's original
// ThresholdCase table, shared so every suite exercises the same corners.
inline const std::vector<tb::core::Thresholds>& threshold_presets() {
  static const std::vector<tb::core::Thresholds> kPresets = {
      {8, 8, 8, 8},          // minimal blocks
      {8, 64, 64, 16},       // small
      {8, 256, 128, 32},     // t_bfe < t_dfe
      {8, 4096, 4096, 256},  // defaults-sized
      {4, 32, 16, 8},        // narrow SIMD
      {1, 1, 1, 1},          // degenerate: pure depth-first
  };
  return kPresets;
}

inline std::string threshold_name(const tb::core::Thresholds& t) {
  return "q" + std::to_string(t.q) + "_dfe" + std::to_string(t.t_dfe) + "_bfe" +
         std::to_string(t.t_bfe) + "_rs" + std::to_string(t.t_restart);
}

// ---- policy / variant iteration ---------------------------------------------------

// Invokes fn(policy) for every sequential policy under a SCOPED_TRACE naming
// the policy, so a failure pinpoints the variant.
template <class F>
void for_each_policy(F&& fn) {
  for (const auto pol : kPolicies) {
    SCOPED_TRACE(tb::core::to_string(pol));
    fn(pol);
  }
}

// Same, over the simulator's policy enum.
template <class F>
void for_each_sim_policy(F&& fn) {
  for (const auto pol : kSimPolicies) {
    SCOPED_TRACE(tb::sim::to_string(pol));
    fn(pol);
  }
}

// Runs `prog` sequentially through every (policy × enabled layer) cell and
// hands each result to `check`.  `before` runs before every cell — for
// programs with external side-effect state that must be reset (Barnes-Hut
// accumulators).  Layers the program's concepts can't satisfy are compiled
// out (the spec interpreter has no SIMD kernel), so asking for a layer the
// program lacks is a silent skip, not a build break.
template <class Program, class Check, class Before>
void for_each_seq_result(const Program& prog, std::span<const typename Program::Task> roots,
                         const tb::core::Thresholds& th, unsigned layers, Check&& check,
                         Before&& before) {
  namespace core = tb::core;
  int cells = 0;
  for_each_policy([&](core::SeqPolicy pol) {
    if (layers & kAos) {
      SCOPED_TRACE("layer=aos");
      before();
      check(core::run_seq<core::AosExec<Program>>(prog, roots, pol, th));
      ++cells;
    }
    if constexpr (core::SoaProgram<Program>) {
      if (layers & kSoa) {
        SCOPED_TRACE("layer=soa");
        before();
        check(core::run_seq<core::SoaExec<Program>>(prog, roots, pol, th));
        ++cells;
      }
    }
    if constexpr (core::SimdProgram<Program>) {
      if (layers & kSimd) {
        SCOPED_TRACE("layer=simd");
        before();
        check(core::run_seq<core::SimdExec<Program>>(prog, roots, pol, th));
        ++cells;
      }
    }
  });
  // Guard against a vacuous pass: if every requested layer was compiled out
  // (the program stopped satisfying its concepts), fail instead of silently
  // asserting nothing.
  EXPECT_GT(cells, 0) << "no (policy × layer) cell ran — requested layer mask " << layers
                      << " unsupported by this program";
}

// ---- golden-value matrix checks ---------------------------------------------------

// Every sequential (policy × layer) cell must equal `expected` — the
// bit-identical-to-sequential-recursion claim the paper rests on.
template <class Program, class Expected, class Before>
void expect_seq_matrix(const Program& prog, std::span<const typename Program::Task> roots,
                       const tb::core::Thresholds& th, const Expected& expected,
                       unsigned layers, Before&& before) {
  for_each_seq_result(
      prog, roots, th, layers, [&](const auto& result) { EXPECT_EQ(result, expected); },
      before);
}

template <class Program, class Expected>
void expect_seq_matrix(const Program& prog, std::span<const typename Program::Task> roots,
                       const tb::core::Thresholds& th, const Expected& expected,
                       unsigned layers = kAllLayers) {
  expect_seq_matrix(prog, roots, th, expected, layers, [] {});
}

// Every parallel scheduler — the two pool schedulers, the §3.4 ideal
// restart and the Cilk baseline — over every worker count must equal
// `expected`.  SIMD layer only — run_cell covers the AoS/SoA parallel
// paths; use it directly when a program needs per-layer parallel coverage.
template <class Program, class Expected>
void expect_par_matrix(const Program& prog, std::span<const typename Program::Task> roots,
                       const tb::core::Thresholds& th, const Expected& expected) {
  namespace core = tb::core;
  using Exec = core::SimdExec<Program>;
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    tb::rt::ForkJoinPool pool(workers);
    EXPECT_EQ((core::run_par_reexp<Exec>(pool, prog, roots, th)), expected);
    EXPECT_EQ((core::run_par_restart<Exec>(pool, prog, roots, th)), expected);
    EXPECT_EQ((core::run_ideal_restart<Exec>(prog, roots, th, workers)), expected);
    EXPECT_EQ(core::run_cilk(pool, prog, roots), expected);
  }
}

// ---- hybrid-executor matrix -------------------------------------------------------

// One cell of the hybrid vector×multicore matrix (runtime/hybrid.hpp): the
// acceptance axes are worker count × re-expansion threshold × partition
// mode × frame donation; the engine width W ∈ {4, 8} is a template
// parameter the suites loop at compile time.  Thresholds span pure-blocked
// (0), a mid value that exercises both modes, and "larger than any query
// set" (the degenerate classic-lockstep case).  Donation cells exist only
// for the dynamic partition — a static partition never donates — and pin
// the acceptance claim that donated frames leave results bit-identical.
struct HybridCase {
  int workers;
  std::size_t t_reexp;
  bool static_partition;
  bool donation = false;

  tb::rt::HybridOptions options() const {
    tb::rt::HybridOptions o;
    o.t_reexp = t_reexp;
    o.static_partition = static_partition;
    o.donation = donation;
    return o;
  }
};

inline const std::vector<HybridCase>& hybrid_cases() {
  static const std::vector<HybridCase> kCases = [] {
    std::vector<HybridCase> v;
    for (const int w : {1, 2, 4}) {
      for (const std::size_t t : {std::size_t{0}, std::size_t{16}, std::size_t{1} << 30}) {
        for (const bool s : {false, true}) v.push_back({w, t, s});
        v.push_back({w, t, /*static_partition=*/false, /*donation=*/true});
      }
    }
    return v;
  }();
  return kCases;
}

inline std::string hybrid_name(const HybridCase& c) {
  return "w" + std::to_string(c.workers) + "_t" + std::to_string(c.t_reexp) +
         (c.static_partition ? "_static" : "_dynamic") + (c.donation ? "_donate" : "");
}

// Invokes fn(pool, case) for every hybrid cell, constructing the pool once
// per worker count, under a SCOPED_TRACE naming the cell.
template <class F>
void for_each_hybrid_case(F&& fn) {
  int last_workers = 0;
  std::unique_ptr<tb::rt::ForkJoinPool> pool;
  for (const auto& c : hybrid_cases()) {
    if (c.workers != last_workers) {
      pool = std::make_unique<tb::rt::ForkJoinPool>(c.workers);
      last_workers = c.workers;
    }
    SCOPED_TRACE(hybrid_name(c));
    fn(*pool, c);
  }
}

// ---- stats-kernel table -----------------------------------------------------------

// Type-erased (policy, block size) -> ExecStats runner over a fixed small
// kernel — the shape-suite sweep unit.  Thresholds pin t_bfe = t_restart =
// t_dfe (the k1 ≈ k, k2 ≈ k setting §4 recommends and Fig 4 sweeps), so
// every policy hunts for density equally aggressively.
struct StatsKernel {
  std::string name;
  std::function<tb::core::ExecStats(tb::core::SeqPolicy, std::size_t)> run;
};

template <class Exec>
tb::core::ExecStats run_kernel_stats(const typename Exec::Program& p,
                                     const std::vector<typename Exec::Program::Task>& roots,
                                     tb::core::SeqPolicy policy, std::size_t block) {
  tb::core::ExecStats st;
  const auto th = tb::core::Thresholds::for_block_size(/*q=*/8, block, /*restart=*/block);
  (void)tb::core::run_seq<Exec>(p, roots, policy, th, &st);
  return st;
}

// The four small search kernels the paper-shape regression suite sweeps —
// shared here so no suite hand-rolls its own kernel table.
inline const std::vector<StatsKernel>& stats_kernels() {
  using tb::core::SeqPolicy;
  static const std::vector<StatsKernel> kKernels = {
      {"fib",
       [](SeqPolicy pol, std::size_t blk) {
         static const tb::apps::FibProgram prog;
         static const std::vector roots{tb::apps::FibProgram::root(24)};
         return run_kernel_stats<tb::core::SoaExec<tb::apps::FibProgram>>(prog, roots, pol,
                                                                          blk);
       }},
      {"parentheses",
       [](SeqPolicy pol, std::size_t blk) {
         static const tb::apps::ParenthesesProgram prog;
         static const std::vector roots{tb::apps::ParenthesesProgram::root(11)};
         return run_kernel_stats<tb::core::SoaExec<tb::apps::ParenthesesProgram>>(prog, roots,
                                                                                 pol, blk);
       }},
      {"knapsack",
       [](SeqPolicy pol, std::size_t blk) {
         static const auto inst = tb::apps::KnapsackInstance::random(20, 3);
         static const tb::apps::KnapsackProgram prog{&inst};
         static const std::vector roots{prog.root()};
         return run_kernel_stats<tb::core::SoaExec<tb::apps::KnapsackProgram>>(prog, roots,
                                                                              pol, blk);
       }},
      {"nqueens",
       [](SeqPolicy pol, std::size_t blk) {
         static const tb::apps::NQueensProgram prog{10};
         static const std::vector roots{tb::apps::NQueensProgram::root()};
         return run_kernel_stats<tb::core::SoaExec<tb::apps::NQueensProgram>>(prog, roots,
                                                                             pol, blk);
       }},
  };
  return kKernels;
}

// ---- full scheduler-matrix fixture ------------------------------------------------

// One cell of the policy × workers × thresholds cross product.  workers == 0
// means "sequential scheduler"; Basic has no parallel driver, so cells with
// workers > 0 only carry Reexp/Restart.
struct MatrixCase {
  tb::core::SeqPolicy policy;
  int workers;
  tb::core::Thresholds th;
};

inline std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (const auto pol : kPolicies) {
    for (const auto& th : threshold_presets()) {
      cases.push_back({pol, 0, th});
      if (pol == tb::core::SeqPolicy::Basic) continue;
      for (const int w : kWorkerCounts) cases.push_back({pol, w, th});
    }
  }
  return cases;
}

inline std::string matrix_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  const auto& c = info.param;
  const std::string sched =
      c.workers == 0 ? std::string("seq") : "par" + std::to_string(c.workers);
  return std::string(tb::core::to_string(c.policy)) + "_" + sched + "_" +
         threshold_name(c.th);
}

// Fixture for suites instantiating the full matrix:
//   INSTANTIATE_TEST_SUITE_P(Matrix, MyTest,
//       ::testing::ValuesIn(tbtest::matrix_cases()), tbtest::matrix_name);
class SchedulerMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

// Runs one matrix cell through data layout `Exec` and returns its result.
template <class Exec>
typename Exec::Program::Result run_cell(const MatrixCase& c,
                                        const typename Exec::Program& prog,
                                        std::span<const typename Exec::Program::Task> roots) {
  namespace core = tb::core;
  if (c.workers == 0) return core::run_seq<Exec>(prog, roots, c.policy, c.th);
  tb::rt::ForkJoinPool pool(c.workers);
  if (c.policy == core::SeqPolicy::Reexp)
    return core::run_par_reexp<Exec>(pool, prog, roots, c.th);
  return core::run_par_restart<Exec>(pool, prog, roots, c.th);
}

}  // namespace tbtest
