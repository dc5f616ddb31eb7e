// Baseline — lockstep (data-parallel-only) vectorization vs task blocks.
//
// §8 positions the paper against prior traversal vectorizers (Jo et al.,
// Ren et al. CGO'13): those map one outer iteration to each SIMD lane and
// walk the tree in lockstep — no nested task parallelism, no re-blocking,
// no multicore.  This harness runs the three traversal benchmarks under
//
//   seq        — plain recursive traversal (Ts)
//   lockstep   — the prior-work model (single core, masked lanes): the
//                blocked engine's masked mode (lockstep::run_classic)
//   blocked    — the blocked re-expansion traversal engine
//                (lockstep/blocked.hpp): dense query blocks, streaming
//                compaction, masked fallback below t_reexp; single core
//   taskblock  — this paper: restart policy, SIMD layer, sequential core
//
// and reports wall time plus each model's lane-efficiency metric: lockstep
// lane occupancy (active lane-visits / lane-visits) vs task-block SIMD
// utilization (complete steps / steps).  Task blocks keep lanes full by
// compacting live tasks; lockstep pays for divergence with idle lanes.
//
// Flags: --scale=default|paper, --format=json, --out=
#include <cstdio>
#include <string>
#include <vector>

#include "apps/barneshut.hpp"
#include "apps/knn.hpp"
#include "apps/pointcorr.hpp"
#include "bench/support/report.hpp"
#include "core/driver.hpp"
#include "simd/dispatch.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"
#include "spatial/octree.hpp"

namespace {

struct Row {
  std::string name;
  double t_seq, t_lockstep, t_blocked, t_taskblock;
  double occupancy, blocked_util, utilization;
  bool ok;
};

void print(tbench::Reporter& rep, const Row& r) {
  rep.add_metric(rep.make(r.name, "lockstep"), "occupancy", r.occupancy);
  rep.add_metric(rep.make(r.name, "blocked", "-", "simd"), "utilization", r.blocked_util);
  rep.add_metric(rep.make(r.name, "taskblock", "restart", "simd"), "utilization",
                 r.utilization);
  std::printf(
      "%-10s | %9.4f %9.4f %9.4f %9.4f | %7.2f %7.2f %7.2f | %5.1f%% %5.1f%% %5.1f%% | %s\n",
      r.name.c_str(), r.t_seq, r.t_lockstep, r.t_blocked, r.t_taskblock,
      r.t_seq / r.t_lockstep, r.t_seq / r.t_blocked, r.t_seq / r.t_taskblock,
      r.occupancy * 100.0, r.blocked_util * 100.0, r.utilization * 100.0,
      r.ok ? "ok" : "MISMATCH");
}

}  // namespace

int main(int argc, char** argv) {
  tbench::Flags flags(argc, argv);
  const bool paper = flags.get("scale", "default") == "paper";
  const std::size_t n_pc = paper ? 300000 : 20000;
  const std::size_t n_knn = paper ? 100000 : 20000;
  const std::size_t n_bh = paper ? 1000000 : 20000;
  tbench::Reporter rep("baseline_lockstep", flags);

  std::printf(
      "lockstep (prior-work) vs blocked re-expansion engine vs task blocks, single core\n");
  std::printf("%-10s | %9s %9s %9s %9s | %7s %7s %7s | %6s %6s %6s | %s\n", "benchmark",
              "seq(s)", "lockstep", "blocked", "taskblk", "Ts/lock", "Ts/blk", "Ts/tb",
              "occup", "b.util", "util", "check");

  {  // point correlation
    const auto pts = tb::spatial::Bodies::uniform_cube(n_pc);
    const auto tree = tb::spatial::KdTree::build(pts, 16);
    const tb::apps::PointCorrProgram prog{&pts, &tree, paper ? 0.01f : 0.02f};
    Row r{"pointcorr", 0, 0, 0, 0, 0, 0, 0, true};
    std::uint64_t seq = 0, lock = 0, blk = 0, tblk = 0;
    r.t_seq = rep.add_timed(rep.make("pointcorr", "seq"), 3,
                            [&] { seq = tb::apps::pointcorr_sequential(prog); });
    tb::lockstep::LockstepStats ls;
    r.t_lockstep = rep.add_timed(rep.make("pointcorr", "lockstep"), 3, [&] {
      ls = {};
      lock = tb::simd::kernels().lockstep_pointcorr(prog, &ls);
    });
    tb::core::ExecStats bst;
    r.t_blocked = rep.add_timed(rep.make("pointcorr", "blocked", "-", "simd"), 3, [&] {
      bst = {};
      blk = tb::simd::kernels().blocked_pointcorr(prog, 32, &bst);
    });
    r.blocked_util = bst.simd_utilization();
    const auto roots = prog.roots();
    const auto th = tb::core::Thresholds::for_block_size(prog.simd_width, 1024, 128);
    tb::core::ExecStats st;
    r.t_taskblock = rep.add_timed(rep.make("pointcorr", "taskblock", "restart", "simd"), 3,
                                  [&] {
                                    st = {};
                                    tblk = tb::core::run_seq<
                                        tb::core::SimdExec<tb::apps::PointCorrProgram>>(
                                        prog, roots, tb::core::SeqPolicy::Restart, th, &st);
                                  });
    r.occupancy = ls.occupancy();
    r.utilization = st.simd_utilization();
    r.ok = seq == lock && seq == blk && seq == tblk;
    print(rep, r);
  }

  {  // knn
    const auto pts = tb::spatial::Bodies::uniform_cube(n_knn);
    const auto tree = tb::spatial::KdTree::build(pts, 16);
    const int k = 4;
    Row r{"knn", 0, 0, 0, 0, 0, 0, 0, true};
    std::string d_seq, d_lock, d_blk, d_tblk;
    const auto digest = [&](const tb::apps::KnnState& state) {
      std::uint64_t h = 1469598103934665603ull;
      for (std::int32_t q = 0; q < static_cast<std::int32_t>(pts.size()); ++q) {
        for (const float d : state.distances(q)) {
          h = (h ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(
                       static_cast<double>(d) * 1e6))) *
              1099511628211ull;
        }
      }
      return std::to_string(h);
    };
    r.t_seq = rep.add_timed(rep.make("knn", "seq"), 3, [&] {
      tb::apps::KnnState state(pts.size(), k);
      tb::apps::KnnProgram prog{&pts, &tree, &state};
      tb::apps::knn_sequential(prog);
      d_seq = digest(state);
    });
    tb::lockstep::LockstepStats ls;
    r.t_lockstep = rep.add_timed(rep.make("knn", "lockstep"), 3, [&] {
      ls = {};
      tb::apps::KnnState state(pts.size(), k);
      tb::apps::KnnProgram prog{&pts, &tree, &state};
      tb::simd::kernels().lockstep_knn(prog, &ls);
      d_lock = digest(state);
    });
    tb::core::ExecStats bst;
    r.t_blocked = rep.add_timed(rep.make("knn", "blocked", "-", "simd"), 3, [&] {
      bst = {};
      tb::apps::KnnState state(pts.size(), k);
      tb::apps::KnnProgram prog{&pts, &tree, &state};
      tb::simd::kernels().blocked_knn(prog, 32, &bst);
      d_blk = digest(state);
    });
    r.blocked_util = bst.simd_utilization();
    tb::core::ExecStats st;
    const auto th = tb::core::Thresholds::for_block_size(8, 512, 64);
    r.t_taskblock = rep.add_timed(rep.make("knn", "taskblock", "restart", "simd"), 3, [&] {
      st = {};
      tb::apps::KnnState state(pts.size(), k);
      tb::apps::KnnProgram prog{&pts, &tree, &state};
      const auto roots = prog.roots();
      (void)tb::core::run_seq<tb::core::SimdExec<tb::apps::KnnProgram>>(
          prog, roots, tb::core::SeqPolicy::Restart, th, &st);
      d_tblk = digest(state);
    });
    r.occupancy = ls.occupancy();
    r.utilization = st.simd_utilization();
    r.ok = d_seq == d_lock && d_seq == d_blk && d_seq == d_tblk;
    print(rep, r);
  }

  {  // barnes-hut
    const auto bodies = tb::spatial::Bodies::plummer(n_bh);
    const auto tree = tb::spatial::Octree::build(bodies, 8);
    const float theta = 0.5f;
    std::vector<float> ax(bodies.size()), ay(bodies.size()), az(bodies.size());
    tb::apps::BarnesHutProgram prog{&bodies, &tree, ax.data(), ay.data(), az.data()};
    const auto reset = [&] {
      std::fill(ax.begin(), ax.end(), 0.0f);
      std::fill(ay.begin(), ay.end(), 0.0f);
      std::fill(az.begin(), az.end(), 0.0f);
    };
    Row r{"barneshut", 0, 0, 0, 0, 0, 0, 0, true};
    std::uint64_t seq = 0, lock = 0, blk = 0, tblk = 0;
    r.t_seq = rep.add_timed(rep.make("barneshut", "seq"), 3, [&] {
      reset();
      seq = tb::apps::barneshut_sequential(prog, theta);
    });
    tb::lockstep::LockstepStats ls;
    r.t_lockstep = rep.add_timed(rep.make("barneshut", "lockstep"), 3, [&] {
      reset();
      ls = {};
      lock = tb::simd::kernels().lockstep_barneshut(prog, theta, &ls);
    });
    tb::core::ExecStats bst;
    r.t_blocked = rep.add_timed(rep.make("barneshut", "blocked", "-", "simd"), 3, [&] {
      reset();
      bst = {};
      blk = tb::simd::kernels().blocked_barneshut(prog, theta, 32, &bst);
    });
    r.blocked_util = bst.simd_utilization();
    const auto roots = prog.roots(theta);
    const auto th = tb::core::Thresholds::for_block_size(prog.simd_width, 512, 64);
    tb::core::ExecStats st;
    r.t_taskblock = rep.add_timed(rep.make("barneshut", "taskblock", "restart", "simd"), 3,
                                  [&] {
                                    reset();
                                    st = {};
                                    tblk = tb::core::run_seq<
                                        tb::core::SimdExec<tb::apps::BarnesHutProgram>>(
                                        prog, roots, tb::core::SeqPolicy::Restart, th, &st);
                                  });
    r.occupancy = ls.occupancy();
    r.utilization = st.simd_utilization();
    r.ok = seq == lock && seq == blk && seq == tblk;
    print(rep, r);
  }
  return rep.finish();
}
