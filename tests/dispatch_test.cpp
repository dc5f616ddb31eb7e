// Runtime multi-ISA dispatch (simd/isa.hpp + simd/dispatch.hpp): selection
// rules, the TB_SIMD_ISA override, per-table compact_store correctness, and
// the dispatch-equivalence matrix — state digests bit-identical across every
// runnable ISA table × scheduler for the four traversal workloads.
//
// The whole suite re-runs under TB_SIMD_ISA=sse2 and =avx2 (whole-binary
// CTest variants, tests/CMakeLists.txt), which is when ActiveHonorsEnv
// actually exercises the lowering path.
#include <bit>
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
    if (i > 0) EXPECT_LT(static_cast<int>(tables[i - 1]->isa), static_cast<int>(kt->isa));
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
// and the resulting state digests must be bit-identical to it.

constexpr std::size_t kPoints = 2000;
constexpr int kK = 4;
constexpr float kRad2 = 0.05f;
constexpr float kTheta = 0.5f;
constexpr int kWorkers = 4;

std::string knn_digest(const tb::apps::KnnState& state, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::int32_t q = 0; q < static_cast<std::int32_t>(n); ++q) {
    for (const float d : state.distances(q)) {
      const auto bits = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<double>(d) * 1e6));
      h = (h ^ bits) * 1099511628211ull;
    }
  }
  return std::to_string(h);
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
  tb::apps::KnnState seq_state(pts.size(), kK);
  tb::apps::KnnProgram seq_prog{&pts, &tree, &seq_state};
  tb::apps::knn_sequential(seq_prog);
  const std::string seq = knn_digest(seq_state, pts.size());

  tb::rt::ForkJoinPool pool(kWorkers);
  for (const KernelTable* kt : runnable_tables()) {
    SCOPED_TRACE(kt->name);
    {
      tb::apps::KnnState st(pts.size(), kK);
      tb::apps::KnnProgram prog{&pts, &tree, &st};
      kt->lockstep_knn(prog, nullptr);
      EXPECT_EQ(knn_digest(st, pts.size()), seq) << "classic lockstep";
    }
    for (const std::size_t t_reexp : {std::size_t{0}, 2 * static_cast<std::size_t>(kt->width)}) {
      tb::apps::KnnState st(pts.size(), kK);
      tb::apps::KnnProgram prog{&pts, &tree, &st};
      kt->blocked_knn(prog, t_reexp, nullptr);
      EXPECT_EQ(knn_digest(st, pts.size()), seq) << "blocked t_reexp=" << t_reexp;
    }
    for (const auto& opt : hybrid_variants(kt->width)) {
      tb::apps::KnnState st(pts.size(), kK);
      tb::apps::KnnProgram prog{&pts, &tree, &st};
      kt->hybrid_knn(pool, prog, opt, nullptr);
      EXPECT_EQ(knn_digest(st, pts.size()), seq)
          << "hybrid static=" << opt.static_partition << " donation=" << opt.donation;
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

TEST(DispatchEquivalence, BarnesHut) {
  tb::spatial::Bodies bodies = tb::spatial::Bodies::plummer(kPoints);
  tb::spatial::Octree tree = tb::spatial::Octree::build(bodies, 8);
  std::vector<float> ax(bodies.size(), 0), ay(bodies.size(), 0), az(bodies.size(), 0);
  tb::apps::BarnesHutProgram prog{&bodies, &tree, ax.data(), ay.data(), az.data()};
  const std::uint64_t seq = tb::apps::barneshut_sequential(prog, kTheta);

  // Only the interaction count is asserted — force accumulation order is
  // scheduler-dependent, so the float outputs are not bit-comparable.
  tb::rt::ForkJoinPool pool(kWorkers);
  for (const KernelTable* kt : runnable_tables()) {
    SCOPED_TRACE(kt->name);
    EXPECT_EQ(kt->lockstep_barneshut(prog, kTheta, nullptr), seq);
    for (const std::size_t t_reexp : {std::size_t{0}, 2 * static_cast<std::size_t>(kt->width)}) {
      EXPECT_EQ(kt->blocked_barneshut(prog, kTheta, t_reexp, nullptr), seq)
          << "blocked t_reexp=" << t_reexp;
    }
    for (const auto& opt : hybrid_variants(kt->width)) {
      EXPECT_EQ(kt->hybrid_barneshut(pool, prog, kTheta, opt, nullptr), seq)
          << "hybrid static=" << opt.static_partition << " donation=" << opt.donation;
    }
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
