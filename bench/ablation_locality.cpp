// Ablation — input spatial order vs traversal performance.
//
// The outer data-parallel iterations of the traversal benchmarks arrive in
// whatever order the input provides.  Sorting them along the Z-order curve
// makes adjacent block lanes follow similar tree paths: child blocks stay
// denser (less divergence), and the shared tree is reused out of cache.
// This harness measures point correlation and Barnes-Hut in both orders,
// for the blocked restart+SIMD scheduler *and* the lockstep baseline —
// lockstep leans on input order much harder, since it has no re-blocking
// to recover from divergence.
//
// Flags: --scale=default|paper, --format=json, --out=
#include <cstdio>
#include <vector>

#include "apps/barneshut.hpp"
#include "apps/pointcorr.hpp"
#include "bench/support/report.hpp"
#include "core/driver.hpp"
#include "simd/dispatch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"
#include "spatial/morton.hpp"
#include "spatial/octree.hpp"

int main(int argc, char** argv) {
  tbench::Flags flags(argc, argv);
  const bool paper = flags.get("scale", "default") == "paper";
  const std::size_t n = paper ? 300000 : 20000;
  tbench::Reporter rep("ablation_locality", flags);

  std::printf("input order vs traversal time (restart+SIMD blocked, lockstep baseline)\n");
  std::printf("%-10s %-8s | %10s %10s %8s | %9s %9s\n", "benchmark", "order", "blocked(s)",
              "lockstep", "occup", "meandist", "check");

  {  // point correlation
    const auto random_order = tb::spatial::Bodies::uniform_cube(n);
    const auto sorted = tb::spatial::morton_sort(random_order);
    std::uint64_t reference = 0;
    for (int pass = 0; pass < 2; ++pass) {
      const auto& pts = pass == 0 ? random_order : sorted;
      const char* order = pass == 0 ? "random" : "morton";
      const auto tree = tb::spatial::KdTree::build(pts, 16);
      const tb::apps::PointCorrProgram prog{&pts, &tree, paper ? 0.01f : 0.02f};
      const auto roots = prog.roots();
      const auto th = tb::core::Thresholds::for_block_size(prog.simd_width, 1024, 128);
      std::uint64_t blocked = 0, lock = 0;
      const double t_blocked =
          rep.add_timed(rep.make("pointcorr", std::string("blocked:") + order, "restart",
                                 "simd"),
                        3, [&] {
                          blocked =
                              tb::core::run_seq<tb::core::SimdExec<tb::apps::PointCorrProgram>>(
                                  prog, roots, tb::core::SeqPolicy::Restart, th);
                        });
      tb::lockstep::LockstepStats ls;
      const double t_lock =
          rep.add_timed(rep.make("pointcorr", std::string("lockstep:") + order), 3, [&] {
            ls = {};
            lock = tb::simd::kernels().lockstep_pointcorr(prog, &ls);
          });
      rep.add_metric(rep.make("pointcorr", std::string("lockstep:") + order), "occupancy",
                     ls.occupancy());
      if (pass == 0) reference = blocked;
      std::printf("%-10s %-8s | %10.4f %10.4f %7.1f%% | %9.4f %9s\n", "pointcorr", order,
                  t_blocked, t_lock, ls.occupancy() * 100.0,
                  tb::spatial::mean_neighbor_distance(pts),
                  (blocked == lock && blocked == reference) ? "ok" : "MISMATCH");
    }
  }

  {  // barnes-hut
    const auto random_order = tb::spatial::Bodies::plummer(n);
    const auto sorted = tb::spatial::morton_sort(random_order);
    std::uint64_t reference = 0;
    for (int pass = 0; pass < 2; ++pass) {
      const auto& bodies = pass == 0 ? random_order : sorted;
      const char* order = pass == 0 ? "random" : "morton";
      const auto tree = tb::spatial::Octree::build(bodies, 8);
      std::vector<float> ax(bodies.size()), ay(bodies.size()), az(bodies.size());
      tb::apps::BarnesHutProgram prog{&bodies, &tree, ax.data(), ay.data(), az.data()};
      const float theta = 0.5f;
      const auto roots = prog.roots(theta);
      const auto th = tb::core::Thresholds::for_block_size(prog.simd_width, 512, 64);
      const auto reset = [&] {
        std::fill(ax.begin(), ax.end(), 0.0f);
        std::fill(ay.begin(), ay.end(), 0.0f);
        std::fill(az.begin(), az.end(), 0.0f);
      };
      std::uint64_t blocked = 0, lock = 0;
      const double t_blocked =
          rep.add_timed(rep.make("barneshut", std::string("blocked:") + order, "restart",
                                 "simd"),
                        3, [&] {
                          reset();
                          blocked =
                              tb::core::run_seq<tb::core::SimdExec<tb::apps::BarnesHutProgram>>(
                                  prog, roots, tb::core::SeqPolicy::Restart, th);
                        });
      tb::lockstep::LockstepStats ls;
      const double t_lock =
          rep.add_timed(rep.make("barneshut", std::string("lockstep:") + order), 3, [&] {
            reset();
            ls = {};
            lock = tb::simd::kernels().lockstep_barneshut(prog, theta, &ls);
          });
      rep.add_metric(rep.make("barneshut", std::string("lockstep:") + order), "occupancy",
                     ls.occupancy());
      if (pass == 0) reference = blocked;
      // Interaction totals differ between orders only through the tree
      // build (same bodies, same theta) — they must agree between engines.
      std::printf("%-10s %-8s | %10.4f %10.4f %7.1f%% | %9.4f %9s\n", "barneshut", order,
                  t_blocked, t_lock, ls.occupancy() * 100.0,
                  tb::spatial::mean_neighbor_distance(bodies),
                  blocked == lock ? "ok" : "MISMATCH");
      (void)reference;
    }
  }
  return rep.finish();
}
