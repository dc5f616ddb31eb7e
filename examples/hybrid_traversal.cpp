// Hybrid vector×multicore execution in ~60 lines: run the blocked
// re-expansion traversal engine for point correlation and minmaxdist on the
// work-stealing pool, and read the per-worker SIMD-utilization stats.
//
//   ./hybrid_traversal [points] [workers] [t_reexp] [donation]
//
// Prints the sequential oracle, the hybrid result (they must match), and
// one utilization row per worker.  With donation (the default), workers
// whose range ran dry receive bottom frames split off a loaded peer's
// stack; the donated-frame count is reported per run.
#include <cstdio>
#include <cstdlib>

#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "simd/dispatch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4000;
  const int workers = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::size_t t_reexp = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 32;
  const bool donation = argc > 4 ? std::atoi(argv[4]) != 0 : true;

  const auto pts = tb::spatial::Bodies::uniform_cube(n);
  const auto tree = tb::spatial::KdTree::build(pts, 16);
  tb::rt::ForkJoinPool pool(workers);
  const tb::simd::KernelTable& kt = tb::simd::kernels();
  tb::rt::HybridOptions opt;
  opt.t_reexp = t_reexp;
  opt.donation = donation;

  std::printf("hybrid traversal: %zu points, %d workers, W=%d (%s), t_reexp=%zu, donation=%s\n\n",
              n, workers, kt.width, kt.name, t_reexp, donation ? "on" : "off");

  {
    const tb::apps::PointCorrProgram prog{&pts, &tree, 0.02f};
    const std::uint64_t seq = tb::apps::pointcorr_sequential(prog);
    tb::core::PerWorkerStats pw;
    const std::uint64_t hyb = kt.hybrid_pointcorr(pool, prog, opt, &pw);
    std::printf("pointcorr   seq=%llu hybrid=%llu  %s\n",
                static_cast<unsigned long long>(seq),
                static_cast<unsigned long long>(hyb), seq == hyb ? "ok" : "MISMATCH");
    for (std::size_t s = 0; s < pw.slots(); ++s) {
      std::printf("  worker %zu: %8llu steps, SIMD utilization %5.1f%%\n", s,
                  static_cast<unsigned long long>(pw.workers[s].steps_total),
                  pw.utilization(s) * 100.0);
    }
    std::printf("  merged: %5.1f%% (min %5.1f%%, max %5.1f%% across workers), "
                "%llu frame(s) donated\n\n",
                pw.merged().simd_utilization() * 100.0, pw.min_utilization() * 100.0,
                pw.max_utilization() * 100.0,
                static_cast<unsigned long long>(pw.merged().donated_frames));
    if (seq != hyb) return 1;
  }

  {
    tb::apps::MinmaxDistState seq_state(pts.size());
    tb::apps::MinmaxDistProgram seq_prog{&pts, &tree, &seq_state};
    tb::apps::minmaxdist_sequential(seq_prog);

    tb::apps::MinmaxDistState state(pts.size());
    tb::apps::MinmaxDistProgram prog{&pts, &tree, &state};
    tb::core::PerWorkerStats pw;
    kt.hybrid_minmaxdist(pool, prog, opt, &pw);
    const bool ok =
        tb::apps::minmaxdist_digest(state) == tb::apps::minmaxdist_digest(seq_state);
    std::printf("minmaxdist  merged utilization %5.1f%%  %s\n",
                pw.merged().simd_utilization() * 100.0, ok ? "ok" : "MISMATCH");
    if (!ok) return 1;
  }
  return 0;
}
