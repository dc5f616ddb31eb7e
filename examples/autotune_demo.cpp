// Reproduce Table 1's "best block size" column automatically.
//
// The paper reports a hand-tuned block size per benchmark (2^9–2^14).  This
// demo runs the auto-tuner on three kernels with very different tree
// shapes — fib (fine-grained binary), knapsack (perfectly balanced),
// nqueens (fan-out 16 with nested data parallelism) — and prints each
// search table: wall time, SIMD utilization, and peak space per candidate,
// with the chosen thresholds at the bottom.  Larger blocks raise
// utilization but cost space (§3.5's trade); the winner sits where the
// time curve bottoms out.  A final section sweeps the hybrid executor's
// re-expansion threshold the same way (core::autotune_hybrid) on the
// pointcorr traversal.
//
// Usage: ./autotune_demo
#include <cstdio>
#include <vector>

#include "apps/fib.hpp"
#include "apps/knapsack.hpp"
#include "apps/nqueens.hpp"
#include "apps/pointcorr.hpp"
#include "core/autotune.hpp"
#include "simd/dispatch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"

namespace {

template <class Exec>
void tune_and_print(const char* name, const typename Exec::Program& prog,
                    const std::vector<typename Exec::Program::Task>& roots, int q) {
  tb::core::TuneOptions opts;
  opts.q = q;
  opts.policy = tb::core::SeqPolicy::Restart;
  opts.max_block = 1u << 14;
  const auto rep = tb::core::autotune_block_size<Exec>(prog, roots, opts);
  std::printf("=== %s (Q=%d, restart policy) ===\n%s", name, q, rep.to_string().c_str());
  std::printf("chosen: t_dfe=%zu t_bfe=%zu t_restart=%zu  (%.2f ms)\n\n", rep.best.t_dfe,
              rep.best.t_bfe, rep.best.t_restart, rep.best_seconds * 1e3);
}

}  // namespace

int main() {
  {
    const tb::apps::FibProgram prog;
    const std::vector roots{tb::apps::FibProgram::root(27)};
    tune_and_print<tb::core::SimdExec<tb::apps::FibProgram>>(
        "fib(27)", prog, roots, tb::apps::FibProgram::simd_width);
  }
  {
    const auto inst = tb::apps::KnapsackInstance::random(22);
    const tb::apps::KnapsackProgram prog{&inst};
    const std::vector roots{prog.root()};
    tune_and_print<tb::core::SimdExec<tb::apps::KnapsackProgram>>(
        "knapsack(22 items)", prog, roots, tb::apps::KnapsackProgram::simd_width);
  }
  {
    const tb::apps::NQueensProgram prog{11};
    const std::vector roots{tb::apps::NQueensProgram::root()};
    tune_and_print<tb::core::SoaExec<tb::apps::NQueensProgram>>("nqueens(11)", prog, roots,
                                                                8);
  }
  {
    // The hybrid analogue: sweep t_reexp over the real executor.
    const auto pts = tb::spatial::Bodies::uniform_cube(8000);
    const auto tree = tb::spatial::KdTree::build(pts, 16);
    const tb::apps::PointCorrProgram prog{&pts, &tree, 0.02f};
    tb::rt::ForkJoinPool pool(4);
    const tb::simd::KernelTable& kt = tb::simd::kernels();
    tb::core::HybridTuneOptions opts;
    opts.q = kt.width;
    opts.max_reexp = 256;
    const auto rep = tb::core::autotune_hybrid(
        [&](const tb::rt::HybridOptions& o, tb::core::PerWorkerStats* pw) {
          (void)kt.hybrid_pointcorr(pool, prog, o, pw);
        },
        opts);
    std::printf("=== hybrid pointcorr (8000 pts, 4 workers) ===\n%s",
                rep.to_string().c_str());
    std::printf("chosen: t_reexp=%zu grain=%d  (%.2f ms, %.1f%% SIMD utilization)\n",
                rep.best.t_reexp, rep.best.grain, rep.best_seconds * 1e3,
                rep.best_utilization * 100.0);
  }
  return 0;
}
