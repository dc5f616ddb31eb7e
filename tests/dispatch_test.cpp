// Runtime multi-ISA dispatch (simd/isa.hpp + simd/dispatch.hpp): selection
// rules, the TB_SIMD_ISA override, per-table compact_store correctness, and
// the dispatch-equivalence matrix — state digests bit-identical across every
// runnable ISA table × scheduler for the four traversal workloads.
//
// The whole suite re-runs under TB_SIMD_ISA=sse2 and =avx2 (whole-binary
// CTest variants, tests/CMakeLists.txt), which is when ActiveHonorsEnv
// actually exercises the lowering path.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "simd/dispatch.hpp"

namespace {

using tb::simd::Isa;
using tb::simd::KernelTable;

std::vector<const KernelTable*> runnable_tables() {
  int n = 0;
  const KernelTable* const* t = tb::simd::available_tables(n);
  return {t, t + n};
}

TEST(Isa, NamesRoundTrip) {
  for (const Isa isa : {Isa::sse2, Isa::avx2, Isa::avx512}) {
    const auto parsed = tb::simd::parse_isa(tb::simd::to_string(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(tb::simd::parse_isa("").has_value());
  EXPECT_FALSE(tb::simd::parse_isa("avx9000").has_value());
  EXPECT_FALSE(tb::simd::parse_isa("SSE2 ").has_value());
}

TEST(Isa, ResolveActiveRules) {
  using tb::simd::resolve_active;
  // No override: detected level, honored trivially.
  EXPECT_EQ(resolve_active(Isa::avx2, nullptr).active, Isa::avx2);
  EXPECT_TRUE(resolve_active(Isa::avx2, nullptr).honored);
  EXPECT_EQ(resolve_active(Isa::avx2, "").active, Isa::avx2);
  EXPECT_TRUE(resolve_active(Isa::avx2, "").honored);
  // Lowering is honored.
  EXPECT_EQ(resolve_active(Isa::avx512, "sse2").active, Isa::sse2);
  EXPECT_TRUE(resolve_active(Isa::avx512, "sse2").honored);
  EXPECT_EQ(resolve_active(Isa::avx2, "avx2").active, Isa::avx2);
  EXPECT_TRUE(resolve_active(Isa::avx2, "avx2").honored);
  // Raising past the host clamps (the binary must never execute an
  // instruction the CPU lacks), and reports the request as not honored.
  EXPECT_EQ(resolve_active(Isa::sse2, "avx512").active, Isa::sse2);
  EXPECT_FALSE(resolve_active(Isa::sse2, "avx512").honored);
  // Garbage is ignored, not fatal — a kill switch must never brick startup.
  EXPECT_EQ(resolve_active(Isa::avx2, "pentium3").active, Isa::avx2);
  EXPECT_FALSE(resolve_active(Isa::avx2, "pentium3").honored);
}

TEST(Isa, ActiveHonorsEnv) {
  const Isa detected = tb::simd::detect_isa();
  const Isa active = tb::simd::active_isa();
  EXPECT_LE(static_cast<int>(active), static_cast<int>(detected));
  const char* env = std::getenv("TB_SIMD_ISA");
  const auto requested = env != nullptr ? tb::simd::parse_isa(env) : std::nullopt;
  if (requested.has_value() && *requested <= detected) {
    EXPECT_EQ(active, *requested);  // the forced-ISA rerun's whole point
  } else {
    EXPECT_EQ(active, detected);
  }
}

TEST(Dispatch, TableInvariants) {
  // The baseline table always exists and always runs.
  const KernelTable* sse2 = tb::simd::kernels_for(Isa::sse2);
  ASSERT_NE(sse2, nullptr);
  EXPECT_EQ(sse2->isa, Isa::sse2);
  EXPECT_EQ(sse2->width, 4);
  EXPECT_EQ(tb::simd::kernels_for_width(4), sse2);
  EXPECT_EQ(tb::simd::kernels_for_width(5), nullptr);

  const auto tables = runnable_tables();
  ASSERT_GE(tables.size(), 1u);
  EXPECT_EQ(tables.front(), sse2);
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const KernelTable* kt = tables[i];
    EXPECT_LE(static_cast<int>(kt->isa), static_cast<int>(tb::simd::detect_isa()));
    EXPECT_EQ(kt->width, 4 << static_cast<int>(kt->isa));
    EXPECT_EQ(tb::simd::kernels_for(kt->isa), kt);
    EXPECT_EQ(tb::simd::kernels_for_width(kt->width), kt);
    if (i > 0) {
      EXPECT_LT(static_cast<int>(tables[i - 1]->isa), static_cast<int>(kt->isa));
    }
  }

  // The active table is runnable and respects the (possibly env-lowered)
  // active ISA level.
  const KernelTable& active = tb::simd::kernels();
  EXPECT_LE(static_cast<int>(active.isa), static_cast<int>(tb::simd::active_isa()));
  EXPECT_NE(tb::simd::kernels_for(active.isa), nullptr);
}

TEST(Dispatch, CompactStoreMatchesScalarReference) {
  for (const KernelTable* kt : runnable_tables()) {
    SCOPED_TRACE(kt->name);
    const int w = kt->width;
    std::vector<std::uint32_t> src(static_cast<std::size_t>(w));
    for (int i = 0; i < w; ++i) {
      src[static_cast<std::size_t>(i)] = 0xABu * 1000003u + static_cast<std::uint32_t>(i);
    }
    const std::uint32_t mask_count = 1u << w;
    for (std::uint32_t mask = 0; mask < mask_count; ++mask) {
      // Contract: dst has a full W slots of slack; only the first popcount
      // entries are meaningful.
      std::vector<std::uint32_t> dst(static_cast<std::size_t>(w), 0xDEADBEEFu);
      const int got = kt->compact_store_u32(dst.data(), mask, src.data());
      ASSERT_EQ(got, std::popcount(mask)) << "mask=" << mask;
      int k = 0;
      for (int i = 0; i < w; ++i) {  // stable left-pack, ascending lanes
        if ((mask >> i) & 1u) {
          ASSERT_EQ(dst[static_cast<std::size_t>(k)], src[static_cast<std::size_t>(i)])
              << "mask=" << mask << " lane=" << i;
          ++k;
        }
      }
    }
  }
}

// ---- dispatch-equivalence matrix ---------------------------------------------------
//
// For each traversal workload: the sequential recursion is the reference;
// every runnable ISA table runs the classic-lockstep, blocked (two t_reexp
// settings), and hybrid (dynamic / static-partition / donation) schedulers,
// and the resulting states must be bit-identical to it — Barnes-Hut's
// forces, summed in a schedule-dependent order, within a tight tolerance.

constexpr std::size_t kPoints = 2000;
constexpr int kK = 4;
constexpr float kRad2 = 0.05f;
constexpr float kTheta = 0.5f;
constexpr int kWorkers = 4;

std::vector<std::uint32_t> raw_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> bits;
  for (const float f : v) bits.push_back(std::bit_cast<std::uint32_t>(f));
  return bits;
}

// Every query's k-best list — distances as raw float bits, and ids — equals
// the reference's.
void expect_same_knn(const tb::apps::KnnState& got, const tb::apps::KnnState& want,
                     std::size_t n) {
  for (std::int32_t q = 0; q < static_cast<std::int32_t>(n); ++q) {
    ASSERT_EQ(raw_bits(got.distances(q)), raw_bits(want.distances(q))) << "query " << q;
    ASSERT_EQ(got.ids(q), want.ids(q)) << "query " << q;
  }
}

std::vector<tb::rt::HybridOptions> hybrid_variants(int width) {
  tb::rt::HybridOptions dynamic;
  dynamic.t_reexp = 4 * static_cast<std::size_t>(width);
  tb::rt::HybridOptions statics = dynamic;
  statics.static_partition = true;
  tb::rt::HybridOptions donating = dynamic;
  donating.donation = true;
  return {dynamic, statics, donating};
}

TEST(DispatchEquivalence, Knn) {
  tb::spatial::Bodies pts = tb::spatial::Bodies::uniform_cube(kPoints);
  tb::spatial::KdTree tree = tb::spatial::KdTree::build(pts, 16);
  tb::apps::KnnState seq(pts.size(), kK);
  tb::apps::KnnProgram seq_prog{&pts, &tree, &seq};
  tb::apps::knn_sequential(seq_prog);

  tb::rt::ForkJoinPool pool(kWorkers);
  for (const KernelTable* kt : runnable_tables()) {
    SCOPED_TRACE(kt->name);
    {
      SCOPED_TRACE("classic lockstep");
      tb::apps::KnnState st(pts.size(), kK);
      tb::apps::KnnProgram prog{&pts, &tree, &st};
      kt->lockstep_knn(prog, nullptr);
      expect_same_knn(st, seq, pts.size());
    }
    for (const std::size_t t_reexp : {std::size_t{0}, 2 * static_cast<std::size_t>(kt->width)}) {
      SCOPED_TRACE("blocked t_reexp=" + std::to_string(t_reexp));
      tb::apps::KnnState st(pts.size(), kK);
      tb::apps::KnnProgram prog{&pts, &tree, &st};
      kt->blocked_knn(prog, t_reexp, nullptr);
      expect_same_knn(st, seq, pts.size());
    }
    for (const auto& opt : hybrid_variants(kt->width)) {
      SCOPED_TRACE("hybrid static=" + std::to_string(opt.static_partition) +
                   " donation=" + std::to_string(opt.donation));
      tb::apps::KnnState st(pts.size(), kK);
      tb::apps::KnnProgram prog{&pts, &tree, &st};
      kt->hybrid_knn(pool, prog, opt, nullptr);
      expect_same_knn(st, seq, pts.size());
    }
  }
}

// The side³ integer lattice points, unit mass.
tb::spatial::Bodies lattice(int side) {
  tb::spatial::Bodies b;
  b.resize(static_cast<std::size_t>(side * side * side));
  std::size_t i = 0;
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      for (int z = 0; z < side; ++z, ++i) {
        b.x[i] = static_cast<float>(x);
        b.y[i] = static_cast<float>(y);
        b.z[i] = static_cast<float>(z);
        b.mass[i] = 1.0f;
      }
    }
  }
  return b;
}

// knn on a 16³ integer lattice with k = 4: an interior query has six
// neighbours at distance 1, so its fourth place is an exact tie, and the ids
// that fill it are the ones offered first — they follow the order the
// query's leaves are visited.  Every engine mode walks each lane's children
// in the recursion's order (knn: the nearer child first), so the lists
// match knn_sequential id for id.  Donation is left out: a donated frame
// walks part of its queries' subtrees on another engine, concurrently with
// the rest.
TEST(DispatchEquivalence, KnnLatticeTiesFollowTheRecursionsOrder) {
  const tb::spatial::Bodies pts = lattice(16);
  const tb::spatial::KdTree tree = tb::spatial::KdTree::build(pts, 16);
  tb::apps::KnnState seq(pts.size(), kK);
  tb::apps::knn_sequential({&pts, &tree, &seq});
  // (1, 1, 1) has six neighbours at distance² 1: four fill its list.
  ASSERT_EQ(seq.distances(273), std::vector<float>(kK, 1.0f));

  tb::rt::ForkJoinPool pool(kWorkers);
  for (const KernelTable* kt : runnable_tables()) {
    SCOPED_TRACE(kt->name);
    const auto w = static_cast<std::size_t>(kt->width);
    {
      SCOPED_TRACE("classic lockstep");
      tb::apps::KnnState st(pts.size(), kK);
      kt->lockstep_knn({&pts, &tree, &st}, nullptr);
      expect_same_knn(st, seq, pts.size());
    }
    for (const std::size_t t_reexp : {std::size_t{0}, 2 * w, 4 * w}) {
      SCOPED_TRACE("blocked t_reexp=" + std::to_string(t_reexp));
      tb::apps::KnnState st(pts.size(), kK);
      kt->blocked_knn({&pts, &tree, &st}, t_reexp, nullptr);
      expect_same_knn(st, seq, pts.size());
    }
    for (const bool statics : {false, true}) {
      SCOPED_TRACE("hybrid static=" + std::to_string(statics));
      tb::rt::HybridOptions opt;
      opt.t_reexp = 4 * w;
      opt.static_partition = statics;
      tb::apps::KnnState st(pts.size(), kK);
      kt->hybrid_knn(pool, {&pts, &tree, &st}, opt, nullptr);
      expect_same_knn(st, seq, pts.size());
    }
  }
}

// With one child order per lane, a lane's bounds at every node depend only
// on its own earlier leaves, so every single-core engine mode visits the
// same (query, node) pairs.  On 4,096 uniform points (the traverse
// workload's input size), the classic run's active lane visits equal each
// blocked run's tasks executed.
TEST(DispatchEquivalence, KnnVisitsTheSamePairsInEveryEngineMode) {
  const tb::spatial::Bodies pts = tb::spatial::Bodies::uniform_cube(4096);
  const tb::spatial::KdTree tree = tb::spatial::KdTree::build(pts, 16);
  for (const KernelTable* kt : runnable_tables()) {
    SCOPED_TRACE(kt->name);
    const auto w = static_cast<std::size_t>(kt->width);
    tb::lockstep::LockstepStats classic;
    {
      tb::apps::KnnState st(pts.size(), kK);
      kt->lockstep_knn({&pts, &tree, &st}, &classic);
    }
    EXPECT_GT(classic.active_lane_visits, 0u);
    for (const std::size_t t_reexp : {std::size_t{0}, 2 * w, 4 * w}) {
      SCOPED_TRACE("blocked t_reexp=" + std::to_string(t_reexp));
      tb::apps::KnnState st(pts.size(), kK);
      tb::core::ExecStats stats;
      kt->blocked_knn({&pts, &tree, &st}, t_reexp, &stats);
      EXPECT_EQ(stats.tasks_executed, classic.active_lane_visits);
    }
  }
}

TEST(DispatchEquivalence, PointCorr) {
  tb::spatial::Bodies pts = tb::spatial::Bodies::uniform_cube(kPoints);
  tb::spatial::KdTree tree = tb::spatial::KdTree::build(pts, 16);
  tb::apps::PointCorrProgram prog{&pts, &tree, kRad2};
  const std::uint64_t seq = tb::apps::pointcorr_sequential(prog);

  tb::rt::ForkJoinPool pool(kWorkers);
  for (const KernelTable* kt : runnable_tables()) {
    SCOPED_TRACE(kt->name);
    EXPECT_EQ(kt->lockstep_pointcorr(prog, nullptr), seq);
    for (const std::size_t t_reexp : {std::size_t{0}, 2 * static_cast<std::size_t>(kt->width)}) {
      EXPECT_EQ(kt->blocked_pointcorr(prog, t_reexp, nullptr), seq)
          << "blocked t_reexp=" << t_reexp;
    }
    for (const auto& opt : hybrid_variants(kt->width)) {
      EXPECT_EQ(kt->hybrid_pointcorr(pool, prog, opt, nullptr), seq)
          << "hybrid static=" << opt.static_partition << " donation=" << opt.donation;
    }
  }
}

// Per-body force accumulators for one Barnes-Hut run.
struct Forces {
  std::vector<float> x, y, z;
  explicit Forces(std::size_t n) : x(n, 0.0f), y(n, 0.0f), z(n, 0.0f) {}
  tb::apps::BarnesHutProgram program(const tb::spatial::Bodies& bodies,
                                     const tb::spatial::Octree& tree) {
    return {&bodies, &tree, x.data(), y.data(), z.data()};
  }
  bool operator==(const Forces& o) const {
    return raw_bits(x) == raw_bits(o.x) && raw_bits(y) == raw_bits(o.y) &&
           raw_bits(z) == raw_bits(o.z);
  }
  Forces doubled() const {
    Forces d = *this;
    for (std::vector<float>* v : {&d.x, &d.y, &d.z}) {
      for (float& f : *v) f += f;
    }
    return d;
  }
};

// The largest per-body |f - ref| / |ref|.
double max_relative_error(const Forces& f, const Forces& ref) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.x.size(); ++i) {
    const double dx = double{f.x[i]} - ref.x[i], dy = double{f.y[i]} - ref.y[i],
                 dz = double{f.z[i]} - ref.z[i];
    const double norm = std::sqrt(double{ref.x[i]} * ref.x[i] + double{ref.y[i]} * ref.y[i] +
                                  double{ref.z[i]} * ref.z[i]);
    worst = std::max(worst, std::sqrt(dx * dx + dy * dy + dz * dz) / norm);
  }
  return worst;
}

// The interaction count is exact in every schedule.  Forces are summed in a
// schedule-dependent order, so each run stays within a tight tolerance of
// the sequential recursion.  A classic run sums each body's interactions in
// one order at every width, so its forces are bit-identical across tables;
// a t_reexp = 0 run flushes every interaction in the recursion's order into
// its per-body sums, so its forces are the recursion's, bit for bit — in a
// hybrid run too, as long as no frame is donated, since each body's walk
// then stays in one slot.  A run hands each body's sum to the accumulators
// once per slot, so a second run on accumulators it did not zero doubles
// every force exactly.  An approximate reciprocal square root, a kernel
// whose force law drifts from the scalar one, or a hand-over that stores,
// adds per interaction or skips a slot fails these.
TEST(DispatchEquivalence, BarnesHut) {
  tb::spatial::Bodies bodies = tb::spatial::Bodies::plummer(kPoints);
  tb::spatial::Octree tree = tb::spatial::Octree::build(bodies, 8);
  const std::size_t n = bodies.size();
  Forces seq_forces(n);
  const std::uint64_t seq =
      tb::apps::barneshut_sequential(seq_forces.program(bodies, tree), kTheta);
  constexpr double kTolerance = 1e-5;

  tb::rt::ForkJoinPool pool(kWorkers);
  std::vector<Forces> classic;
  for (const KernelTable* kt : runnable_tables()) {
    SCOPED_TRACE(kt->name);
    Forces& c = classic.emplace_back(n);
    EXPECT_EQ(kt->lockstep_barneshut(c.program(bodies, tree), kTheta, nullptr), seq);
    EXPECT_LE(max_relative_error(c, seq_forces), kTolerance) << "classic lockstep";
    for (const std::size_t t_reexp : {std::size_t{0}, 2 * static_cast<std::size_t>(kt->width)}) {
      Forces f(n);
      EXPECT_EQ(kt->blocked_barneshut(f.program(bodies, tree), kTheta, t_reexp, nullptr), seq)
          << "blocked t_reexp=" << t_reexp;
      EXPECT_LE(max_relative_error(f, seq_forces), kTolerance) << "blocked t_reexp=" << t_reexp;
      if (t_reexp == 0) {
        EXPECT_TRUE(f == seq_forces) << "blocked t_reexp=0 forces";
      }
    }
    for (const auto& opt : hybrid_variants(kt->width)) {
      Forces f(n);
      EXPECT_EQ(kt->hybrid_barneshut(pool, f.program(bodies, tree), kTheta, opt, nullptr), seq)
          << "hybrid static=" << opt.static_partition << " donation=" << opt.donation;
      EXPECT_LE(max_relative_error(f, seq_forces), kTolerance)
          << "hybrid static=" << opt.static_partition << " donation=" << opt.donation;
    }
    for (const bool statics : {true, false}) {
      tb::rt::HybridOptions opt;  // t_reexp = 0, no donation
      opt.static_partition = statics;
      Forces f(n);
      EXPECT_EQ(kt->hybrid_barneshut(pool, f.program(bodies, tree), kTheta, opt, nullptr), seq)
          << "hybrid t_reexp=0 static=" << statics;
      EXPECT_TRUE(f == seq_forces) << "hybrid t_reexp=0 static=" << statics << " forces";
    }
    {
      Forces twice(n);
      for (int run = 0; run < 2; ++run) {
        EXPECT_EQ(kt->blocked_barneshut(twice.program(bodies, tree), kTheta, 0, nullptr), seq);
      }
      EXPECT_TRUE(twice == seq_forces.doubled()) << "two blocked t_reexp=0 runs";
    }
    {
      const tb::rt::HybridOptions statics = hybrid_variants(kt->width)[1];
      ASSERT_TRUE(statics.static_partition);
      Forces once(n);
      Forces twice(n);
      EXPECT_EQ(kt->hybrid_barneshut(pool, once.program(bodies, tree), kTheta, statics, nullptr),
                seq);
      for (int run = 0; run < 2; ++run) {
        EXPECT_EQ(
            kt->hybrid_barneshut(pool, twice.program(bodies, tree), kTheta, statics, nullptr),
            seq);
      }
      EXPECT_TRUE(twice == once.doubled()) << "two static-partition hybrid runs";
    }
  }
  for (std::size_t i = 1; i < classic.size(); ++i) {
    EXPECT_TRUE(classic[i] == classic[0]) << "classic forces, " << runnable_tables()[i]->name;
  }
}

// An oracle that shares no code with the program's rules.  At θ = 0 the
// opening threshold is infinite, so every cell opens: each body meets every
// leaf, and its force is the plain O(n²) direct sum, summed here in body
// order (the traversal sums in leaf order, hence the norm-relative bound).
TEST(DispatchEquivalence, BarnesHutAtThetaZeroIsTheDirectSum) {
  const tb::spatial::Bodies bodies = tb::spatial::Bodies::plummer(600);
  const tb::spatial::Octree tree = tb::spatial::Octree::build(bodies, 8);
  const std::size_t n = bodies.size();
  std::uint64_t leaves = 0;
  for (int node = 0; node < tree.num_nodes(); ++node) leaves += tree.is_leaf(node) ? 1 : 0;
  const std::uint64_t interactions = n * leaves;
  Forces direct(n);
  const float eps2 = direct.program(bodies, tree).eps2;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const float dx = bodies.x[j] - bodies.x[i], dy = bodies.y[j] - bodies.y[i],
                  dz = bodies.z[j] - bodies.z[i];
      const float inv = 1.0f / std::sqrt(dx * dx + dy * dy + dz * dz + eps2);
      const float f = bodies.mass[j] * inv * inv * inv;
      direct.x[i] += f * dx;
      direct.y[i] += f * dy;
      direct.z[i] += f * dz;
    }
  }
  constexpr double kTolerance = 1e-5;
  Forces seq(n);
  EXPECT_EQ(tb::apps::barneshut_sequential(seq.program(bodies, tree), 0.0f), interactions);
  EXPECT_LE(max_relative_error(seq, direct), kTolerance) << "recursion";
  for (const KernelTable* kt : runnable_tables()) {
    SCOPED_TRACE(kt->name);
    Forces classic(n);
    EXPECT_EQ(kt->lockstep_barneshut(classic.program(bodies, tree), 0.0f, nullptr), interactions);
    EXPECT_LE(max_relative_error(classic, direct), kTolerance) << "classic";
    Forces blocked(n);
    EXPECT_EQ(kt->blocked_barneshut(blocked.program(bodies, tree), 0.0f,
                                    2 * static_cast<std::size_t>(kt->width), nullptr),
              interactions);
    EXPECT_LE(max_relative_error(blocked, direct), kTolerance) << "blocked";
  }
}

TEST(DispatchEquivalence, MinmaxDist) {
  tb::spatial::Bodies pts = tb::spatial::Bodies::uniform_cube(kPoints);
  tb::spatial::KdTree tree = tb::spatial::KdTree::build(pts, 16);
  tb::apps::MinmaxDistState seq_state(pts.size());
  tb::apps::MinmaxDistProgram seq_prog{&pts, &tree, &seq_state};
  tb::apps::minmaxdist_sequential(seq_prog);
  const std::string seq = tb::apps::minmaxdist_digest(seq_state);

  tb::rt::ForkJoinPool pool(kWorkers);
  for (const KernelTable* kt : runnable_tables()) {
    SCOPED_TRACE(kt->name);
    {
      tb::apps::MinmaxDistState st(pts.size());
      tb::apps::MinmaxDistProgram prog{&pts, &tree, &st};
      kt->lockstep_minmaxdist(prog, nullptr);
      EXPECT_EQ(tb::apps::minmaxdist_digest(st), seq);
    }
    for (const std::size_t t_reexp : {std::size_t{0}, 2 * static_cast<std::size_t>(kt->width)}) {
      tb::apps::MinmaxDistState st(pts.size());
      tb::apps::MinmaxDistProgram prog{&pts, &tree, &st};
      kt->blocked_minmaxdist(prog, t_reexp, nullptr);
      EXPECT_EQ(tb::apps::minmaxdist_digest(st), seq) << "blocked t_reexp=" << t_reexp;
    }
    for (const auto& opt : hybrid_variants(kt->width)) {
      tb::apps::MinmaxDistState st(pts.size());
      tb::apps::MinmaxDistProgram prog{&pts, &tree, &st};
      kt->hybrid_minmaxdist(pool, prog, opt, nullptr);
      EXPECT_EQ(tb::apps::minmaxdist_digest(st), seq)
          << "hybrid static=" << opt.static_partition << " donation=" << opt.donation;
    }
  }
}

}  // namespace
