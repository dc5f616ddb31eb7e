// Hybrid vector×multicore executor tests: the blocked re-expansion
// traversal engine (lockstep/blocked.hpp) on synthetic trees — frame-stack
// behaviour, streaming-compaction edge cases, lane masks, the re-expansion
// threshold, step accounting — and result-equivalence of the hybrid
// executor against the sequential task-block scheduler oracle for every
// ported app across the W∈{4,8} × workers∈{1,2,4} × threshold × partition
// matrix (tests/support/harness.hpp::hybrid_cases).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "apps/barneshut.hpp"
#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "core/driver.hpp"
#include "lockstep/blocked.hpp"
#include "lockstep/drivers.hpp"
#include "lockstep/kernels.hpp"
#include "spatial/bodies.hpp"
#include "spatial/kdtree.hpp"
#include "spatial/octree.hpp"
#include "tests/support/harness.hpp"

namespace {

using namespace tb;
using lockstep::BlockedTraversal;

// ---- engine: synthetic trees --------------------------------------------------------

// 3-level perfect binary tree, nodes 0..6; children of v are 2v+1, 2v+2.
int perfect_children(std::int32_t node, std::int32_t* out) {
  if (node >= 3) return 0;
  out[0] = 2 * node + 1;
  out[1] = 2 * node + 2;
  return 2;
}

using VisitMatrix = std::map<std::pair<std::int32_t, std::int32_t>, int>;

// Stateless kernel over the perfect tree: counts how often each (node,
// query) pair was stepped and descends where `prune` says so.
template <int W>
struct MatrixKernel {
  using BI = simd::batch<std::int32_t, W>;
  struct State {};

  VisitMatrix* seen;
  std::uint32_t (*prune)(std::int32_t node, std::int32_t query);

  static int children(std::int32_t node, std::int32_t* out) {
    return perfect_children(node, out);
  }
  static char descend(char p) { return p; }
  static State load(const BI&) { return {}; }
  static void flush(const BI&, State&, std::uint32_t) {}
  std::uint32_t step(std::int32_t node, const BI& qid, State&, std::uint32_t mask, char) {
    std::uint32_t live = 0;
    for (int l = 0; l < W; ++l) {
      if (((mask >> l) & 1u) == 0) continue;
      (*seen)[{node, qid[l]}] += 1;
      live |= prune(node, qid[l]) << l;
    }
    return live & mask;
  }
};

std::uint32_t keep_all(std::int32_t, std::int32_t) { return 1u; }

// Query q descends only while node < q (lanes die at different depths).
std::uint32_t staggered(std::int32_t node, std::int32_t query) {
  return node < query ? 1u : 0u;
}

// Collects, per (node, query), how often the step saw the pair.
template <int W>
VisitMatrix visit_matrix(std::int32_t n_queries, std::size_t t_reexp,
                         std::uint32_t (*prune)(std::int32_t node, std::int32_t query),
                         core::ExecStats* st = nullptr) {
  VisitMatrix seen;
  MatrixKernel<W> k{&seen, prune};
  BlockedTraversal<W> eng(t_reexp);
  eng.run(0, char{0}, 0, n_queries, k, st);
  return seen;
}

// Stateless kernel over the perfect tree that counts active lane-steps.
struct CountingKernel {
  using BI = simd::batch<std::int32_t, 4>;
  struct State {};

  int visits = 0;

  static int children(std::int32_t node, std::int32_t* out) {
    return perfect_children(node, out);
  }
  static char descend(char p) { return p; }
  static State load(const BI&) { return {}; }
  static void flush(const BI&, State&, std::uint32_t) {}
  std::uint32_t step(std::int32_t, const BI&, State&, std::uint32_t mask, char) {
    visits += std::popcount(mask);
    return mask;
  }
};

TEST(BlockedEngine, VisitsEveryNodeQueryPairOnce) {
  // 10 queries, W=4: tail chunk exercises the partial-lane mask.
  const auto seen = visit_matrix<4>(10, /*t_reexp=*/0, keep_all);
  EXPECT_EQ(seen.size(), 7u * 10u);
  for (const auto& [key, count] : seen) EXPECT_EQ(count, 1) << key.first << "," << key.second;
}

TEST(BlockedEngine, MaskedModeVisitsTheSamePairs) {
  // A threshold above the query count forces classic masked-lockstep mode
  // from the root: the visit sets must be identical.
  const auto blocked = visit_matrix<4>(10, 0, staggered);
  const auto masked = visit_matrix<4>(10, 1u << 20, staggered);
  EXPECT_EQ(blocked, masked);
}

TEST(BlockedEngine, CompactionDropsDeadLanesFromChildFrames) {
  // With the staggered prune, node n is visited exactly by queries > n (and
  // every query visits the root).
  const auto seen = visit_matrix<8>(10, 0, staggered);
  for (std::int32_t node = 0; node < 7; ++node) {
    for (std::int32_t q = 0; q < 10; ++q) {
      const bool reachable = node == 0 || [&] {
        // q must have descended along the root-to-node path.
        std::int32_t v = node;
        std::vector<std::int32_t> path;
        while (v != 0) {
          v = (v - 1) / 2;
          path.push_back(v);
        }
        return std::all_of(path.begin(), path.end(),
                           [&](std::int32_t a) { return a < q; });
      }();
      EXPECT_EQ(seen.count({node, q}), reachable ? 1u : 0u)
          << "node " << node << " query " << q;
    }
  }
}

TEST(BlockedEngine, EmptyAndSingleQuerySets) {
  const auto none = visit_matrix<4>(0, 0, keep_all);
  EXPECT_TRUE(none.empty());
  const auto one = visit_matrix<4>(1, 0, keep_all);
  EXPECT_EQ(one.size(), 7u);
}

TEST(BlockedEngine, StepAccountingFullBlocks) {
  // 16 queries on W=8, never pruning: every frame is a full block, so every
  // step is complete and utilization is 1.0.
  core::ExecStats st;
  (void)visit_matrix<8>(16, 0, keep_all, &st);
  EXPECT_EQ(st.supersteps, 7u);                 // one blocked frame per node
  EXPECT_EQ(st.steps_total, 7u * 2u);           // 16 queries = 2 steps each
  EXPECT_EQ(st.steps_complete, st.steps_total);
  EXPECT_EQ(st.tasks_executed, 7u * 16u);
  EXPECT_DOUBLE_EQ(st.simd_utilization(), 1.0);
}

TEST(BlockedEngine, PartialTailLowersUtilization) {
  // 9 queries on W=8: each frame is one complete + one 1-lane step.
  core::ExecStats st;
  (void)visit_matrix<8>(9, 0, keep_all, &st);
  EXPECT_EQ(st.steps_total, 7u * 2u);
  EXPECT_EQ(st.steps_complete, 7u * 1u);
  EXPECT_DOUBLE_EQ(st.simd_utilization(), 0.5);
}

TEST(BlockedEngine, PayloadThreadsDownLevels) {
  // Chain 0 -> 1 -> 2; payload doubles per level.
  struct ChainKernel {
    using BI = simd::batch<std::int32_t, 4>;
    struct State {};

    std::vector<int> payloads;

    static int children(std::int32_t node, std::int32_t* out) {
      if (node >= 2) return 0;
      out[0] = node + 1;
      return 1;
    }
    static int descend(int p) { return p * 2; }
    static State load(const BI&) { return {}; }
    static void flush(const BI&, State&, std::uint32_t) {}
    std::uint32_t step(std::int32_t, const BI&, State&, std::uint32_t mask, int payload) {
      payloads.push_back(payload);
      return mask;
    }
  };
  ChainKernel k;
  BlockedTraversal<4, int> eng(0);
  eng.run(0, 1, 0, 4, k);
  EXPECT_EQ(k.payloads, (std::vector<int>{1, 2, 4}));
}

TEST(BlockedEngine, EngineReuseAcrossRunsIsClean) {
  BlockedTraversal<4> eng(0);
  for (int rep = 0; rep < 3; ++rep) {
    CountingKernel k;
    eng.run(0, char{0}, 0, 10, k);
    EXPECT_EQ(k.visits, 7 * 10);
  }
}

// ---- frame-level work donation ------------------------------------------------------

// Donor double that is always hungry and records every donated frame.
template <int W>
struct CollectingDonor final : BlockedTraversal<W>::Donor {
  std::vector<std::pair<std::int32_t, std::vector<std::int32_t>>> frames;
  bool hungry = true;
  bool want() override { return hungry; }
  void take(std::int32_t node, const char&, const std::int32_t* ids,
            std::size_t n) override {
    frames.emplace_back(node, std::vector<std::int32_t>(ids, ids + n));
  }
};

TEST(BlockedEngineDonation, SplitsBottomFrameAndPreservesCoverage) {
  // 10 queries on W=4 with min donatable block 2·W = 8: exactly the root
  // frame is donatable, so one donation fires (tail half, ids 5..9) and the
  // victim keeps 0..4.  Replaying the donated frame on a second engine must
  // restore exact once-per-(node, query) coverage.
  VisitMatrix seen;
  MatrixKernel<4> k{&seen, keep_all};
  BlockedTraversal<4> victim(0);
  CollectingDonor<4> donor;
  victim.set_donor(&donor);
  core::ExecStats st;
  victim.run(0, char{0}, 0, 10, k, &st);
  ASSERT_EQ(donor.frames.size(), 1u);
  EXPECT_EQ(st.donated_frames, 1u);
  EXPECT_EQ(donor.frames[0].first, 0);  // bottom frame: the root
  EXPECT_EQ(donor.frames[0].second, (std::vector<std::int32_t>{5, 6, 7, 8, 9}));
  BlockedTraversal<4> thief(0);
  for (const auto& [node, ids] : donor.frames) {
    thief.run_frame(node, char{0}, ids.data(), ids.size(), k);
  }
  EXPECT_EQ(seen.size(), 7u * 10u);
  for (const auto& [key, count] : seen) {
    EXPECT_EQ(count, 1) << key.first << "," << key.second;
  }
}

TEST(BlockedEngineDonation, RespectsMinimumBlock) {
  // 4 queries < 2·W: nothing is donatable even with a permanently hungry
  // donor, and the run completes alone.
  CountingKernel k;
  BlockedTraversal<4> eng(0);
  CollectingDonor<4> donor;
  eng.set_donor(&donor);
  eng.run(0, char{0}, 0, 4, k);
  EXPECT_TRUE(donor.frames.empty());
  EXPECT_EQ(k.visits, 7 * 4);
}

TEST(BlockedEngineDonation, DegenerateClassicModeNeverDonates) {
  // t_reexp above the query count: every frame finishes in masked-lockstep
  // mode below the donation floor, so donation silently never fires.
  BlockedTraversal<4> eng(std::size_t{1} << 20);
  CollectingDonor<4> donor;
  eng.set_donor(&donor);
  CountingKernel k;
  eng.run(0, char{0}, 0, 32, k);
  EXPECT_TRUE(donor.frames.empty());
  EXPECT_EQ(k.visits, 7 * 32);
}

// ---- app equivalence matrix ---------------------------------------------------------

struct TraversalFixtures {
  spatial::Bodies pts = spatial::Bodies::uniform_cube(1500, 23);
  spatial::KdTree kdtree = spatial::KdTree::build(pts, 16);
  spatial::Bodies bodies = spatial::Bodies::plummer(1500, 17);
  spatial::Octree octree = spatial::Octree::build(bodies, 8);
};

TraversalFixtures& fixtures() {
  static TraversalFixtures f;
  return f;
}

template <int W>
void expect_pointcorr_matches_seq() {
  auto& f = fixtures();
  const apps::PointCorrProgram prog{&f.pts, &f.kdtree, 0.03f};
  const auto roots = prog.roots();
  const auto th = core::Thresholds::for_block_size(prog.simd_width, 512, 64);
  const std::uint64_t expected = core::run_seq<core::SimdExec<apps::PointCorrProgram>>(
      prog, roots, core::SeqPolicy::Restart, th);
  tbtest::for_each_hybrid_case([&](rt::ForkJoinPool& pool, const tbtest::HybridCase& c) {
    EXPECT_EQ(lockstep::run_hybrid(pool, lockstep::PointCorrKernel<W>(prog), c.options()),
              expected);
  });
}

TEST(HybridEquivalence, PointCorrW8) { expect_pointcorr_matches_seq<8>(); }
TEST(HybridEquivalence, PointCorrW4) { expect_pointcorr_matches_seq<4>(); }

template <int W>
void expect_knn_matches_seq() {
  auto& f = fixtures();
  const int k = 4;
  const auto digest = [&](const apps::KnnState& state) {
    std::vector<float> all;
    for (std::int32_t q = 0; q < static_cast<std::int32_t>(f.pts.size()); ++q) {
      const auto d = state.distances(q);
      all.insert(all.end(), d.begin(), d.end());
    }
    return all;
  };
  apps::KnnState seq_state(f.pts.size(), k);
  apps::KnnProgram seq_prog{&f.pts, &f.kdtree, &seq_state};
  const auto seq_roots = seq_prog.roots();
  const auto th = core::Thresholds::for_block_size(seq_prog.simd_width, 512, 64);
  (void)core::run_seq<core::SimdExec<apps::KnnProgram>>(seq_prog, seq_roots,
                                                        core::SeqPolicy::Restart, th);
  const auto expected = digest(seq_state);
  tbtest::for_each_hybrid_case([&](rt::ForkJoinPool& pool, const tbtest::HybridCase& c) {
    apps::KnnState state(f.pts.size(), k);
    apps::KnnProgram prog{&f.pts, &f.kdtree, &state};
    lockstep::run_hybrid(pool, lockstep::KnnKernel<W>(prog), c.options());
    EXPECT_EQ(digest(state), expected);
  });
}

TEST(HybridEquivalence, KnnW8) { expect_knn_matches_seq<8>(); }
TEST(HybridEquivalence, KnnW4) { expect_knn_matches_seq<4>(); }

template <int W>
void expect_minmaxdist_matches_seq() {
  auto& f = fixtures();
  apps::MinmaxDistState seq_state(f.pts.size());
  apps::MinmaxDistProgram seq_prog{&f.pts, &f.kdtree, &seq_state};
  const auto seq_roots = seq_prog.roots();
  const auto th = core::Thresholds::for_block_size(seq_prog.simd_width, 512, 64);
  (void)core::run_seq<core::SimdExec<apps::MinmaxDistProgram>>(
      seq_prog, seq_roots, core::SeqPolicy::Restart, th);
  const auto expected = apps::minmaxdist_digest(seq_state);
  tbtest::for_each_hybrid_case([&](rt::ForkJoinPool& pool, const tbtest::HybridCase& c) {
    apps::MinmaxDistState state(f.pts.size());
    apps::MinmaxDistProgram prog{&f.pts, &f.kdtree, &state};
    lockstep::run_hybrid(pool, lockstep::MinmaxDistKernel<W>(prog), c.options());
    EXPECT_EQ(apps::minmaxdist_digest(state), expected);
  });
}

TEST(HybridEquivalence, MinmaxDistW8) { expect_minmaxdist_matches_seq<8>(); }
TEST(HybridEquivalence, MinmaxDistW4) { expect_minmaxdist_matches_seq<4>(); }

template <int W>
void expect_barneshut_matches_seq() {
  auto& f = fixtures();
  const float theta = 0.5f;
  const std::size_t n = f.bodies.size();
  std::vector<float> sx(n, 0), sy(n, 0), sz(n, 0);
  apps::BarnesHutProgram seq_prog{&f.bodies, &f.octree, sx.data(), sy.data(), sz.data()};
  const auto seq_roots = seq_prog.roots(theta);
  const auto th = core::Thresholds::for_block_size(seq_prog.simd_width, 512, 64);
  const std::uint64_t expected = core::run_seq<core::SimdExec<apps::BarnesHutProgram>>(
      seq_prog, seq_roots, core::SeqPolicy::Restart, th);
  tbtest::for_each_hybrid_case([&](rt::ForkJoinPool& pool, const tbtest::HybridCase& c) {
    std::vector<float> hx(n, 0), hy(n, 0), hz(n, 0);
    apps::BarnesHutProgram prog{&f.bodies, &f.octree, hx.data(), hy.data(), hz.data()};
    EXPECT_EQ(
        lockstep::run_hybrid(pool, lockstep::BarnesHutKernel<W>(prog, theta), c.options()),
        expected);
    // Forces agree with the oracle to float-reassociation tolerance.
    double max_rel = 0;
    for (std::size_t b = 0; b < n; ++b) {
      const double mag = std::sqrt(static_cast<double>(sx[b]) * sx[b] +
                                   static_cast<double>(sy[b]) * sy[b] +
                                   static_cast<double>(sz[b]) * sz[b]);
      const double dx = static_cast<double>(hx[b]) - sx[b];
      const double dy = static_cast<double>(hy[b]) - sy[b];
      const double dz = static_cast<double>(hz[b]) - sz[b];
      const double diff = std::sqrt(dx * dx + dy * dy + dz * dz);
      if (mag > 1e-6) max_rel = std::max(max_rel, diff / mag);
    }
    EXPECT_LT(max_rel, 1e-3);
  });
}

TEST(HybridEquivalence, BarnesHutW8) { expect_barneshut_matches_seq<8>(); }
TEST(HybridEquivalence, BarnesHutW4) { expect_barneshut_matches_seq<4>(); }

// ---- per-worker stats ---------------------------------------------------------------

TEST(HybridDonation, ForcedDonationKeepsResultsExact) {
  // grain ≥ n suppresses range splitting entirely, so the whole query range
  // lands on one worker and frame donation is the only balancing channel:
  // the victim's deque stays empty, the first poll donates.  The count must
  // still match the sequential oracle and the donation counter must move.
  auto& f = fixtures();
  const apps::PointCorrProgram prog{&f.pts, &f.kdtree, 0.03f};
  const std::uint64_t expected = apps::pointcorr_sequential(prog);
  rt::ForkJoinPool pool(2);
  rt::HybridOptions opt;
  opt.t_reexp = 16;
  opt.donation = true;
  opt.grain = static_cast<std::int32_t>(f.pts.size());
  core::PerWorkerStats pw;
  EXPECT_EQ(lockstep::run_hybrid(pool, lockstep::PointCorrKernel<8>(prog), opt, &pw), expected);
  EXPECT_GE(pw.merged().donated_frames, 1u);
}

TEST(HybridDonation, DisabledDonationReportsNoDonatedFrames) {
  auto& f = fixtures();
  const apps::PointCorrProgram prog{&f.pts, &f.kdtree, 0.03f};
  rt::ForkJoinPool pool(4);
  rt::HybridOptions opt;
  opt.t_reexp = 16;  // donation defaults to off
  core::PerWorkerStats pw;
  (void)lockstep::run_hybrid(pool, lockstep::PointCorrKernel<8>(prog), opt, &pw);
  EXPECT_EQ(pw.merged().donated_frames, 0u);
}

TEST(HybridStats, SlotsMergeAndStayInRange) {
  auto& f = fixtures();
  const apps::PointCorrProgram prog{&f.pts, &f.kdtree, 0.03f};
  rt::ForkJoinPool pool(4);
  rt::HybridOptions opt;
  opt.t_reexp = 16;
  core::PerWorkerStats pw;
  const std::uint64_t count =
      lockstep::run_hybrid(pool, lockstep::PointCorrKernel<8>(prog), opt, &pw);
  EXPECT_GT(count, 0u);
  EXPECT_EQ(pw.slots(), 4u);
  const core::ExecStats merged = pw.merged();
  std::uint64_t sum_steps = 0, sum_tasks = 0;
  for (const auto& w : pw.workers) {
    sum_steps += w.steps_total;
    sum_tasks += w.tasks_executed;
    EXPECT_GE(w.simd_utilization(), 0.0);
    EXPECT_LE(w.simd_utilization(), 1.0);
  }
  EXPECT_EQ(merged.steps_total, sum_steps);
  EXPECT_EQ(merged.tasks_executed, sum_tasks);
  EXPECT_GE(pw.max_utilization(), pw.min_utilization());
}

TEST(HybridStats, StaticPartitionIsDeterministic) {
  auto& f = fixtures();
  const apps::PointCorrProgram prog{&f.pts, &f.kdtree, 0.03f};
  rt::ForkJoinPool pool(3);
  rt::HybridOptions opt;
  opt.t_reexp = 32;
  opt.static_partition = true;
  core::PerWorkerStats a, b;
  (void)lockstep::run_hybrid(pool, lockstep::PointCorrKernel<8>(prog), opt, &a);
  (void)lockstep::run_hybrid(pool, lockstep::PointCorrKernel<8>(prog), opt, &b);
  ASSERT_EQ(a.slots(), b.slots());
  for (std::size_t s = 0; s < a.slots(); ++s) {
    EXPECT_EQ(a.workers[s].steps_total, b.workers[s].steps_total) << "slot " << s;
    EXPECT_EQ(a.workers[s].steps_complete, b.workers[s].steps_complete) << "slot " << s;
    EXPECT_EQ(a.workers[s].tasks_executed, b.workers[s].tasks_executed) << "slot " << s;
  }
}

// The degenerate classic-lockstep threshold reproduces the classic kernel's
// divergence (strictly more incomplete steps than the compacting engine).
TEST(HybridStats, CompactionBeatsClassicLockstepUtilization) {
  auto& f = fixtures();
  const apps::PointCorrProgram prog{&f.pts, &f.kdtree, 0.01f};
  core::ExecStats blocked, classic;
  (void)lockstep::run_blocked(lockstep::PointCorrKernel<8>(prog), 0, &blocked);
  (void)lockstep::run_blocked(lockstep::PointCorrKernel<8>(prog), std::size_t{1} << 30,
                               &classic);
  EXPECT_GT(blocked.simd_utilization(), classic.simd_utilization());
}

}  // namespace
