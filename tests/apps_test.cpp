// Per-benchmark correctness tests: every scheduler variant, the Cilk
// baseline included, must match the plain sequential recursion under any
// worker count.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "apps/graphcol.hpp"
#include "apps/minmax.hpp"
#include "apps/nqueens.hpp"
#include "apps/uts.hpp"
#include "core/driver.hpp"
#include "tests/support/harness.hpp"

namespace {

using namespace tb;
using core::SeqPolicy;
using core::Thresholds;

// ---- nqueens -------------------------------------------------------------------

TEST(NQueens, KnownSolutionCounts) {
  EXPECT_EQ(apps::nqueens_sequential(4, 0, 0, 0), 2u);
  EXPECT_EQ(apps::nqueens_sequential(6, 0, 0, 0), 4u);
  EXPECT_EQ(apps::nqueens_sequential(8, 0, 0, 0), 92u);
  EXPECT_EQ(apps::nqueens_sequential(10, 0, 0, 0), 724u);
}

class NQueensSchedTest : public ::testing::TestWithParam<int> {};

TEST_P(NQueensSchedTest, AllLayersAllPolicies) {
  const int n = GetParam();
  apps::NQueensProgram prog{n};
  const auto roots = std::vector{apps::NQueensProgram::root()};
  const std::uint64_t expected = apps::nqueens_sequential(n, 0, 0, 0);
  tbtest::expect_seq_matrix(prog, roots, Thresholds{8, 128, 64, 16}, expected);
}

INSTANTIATE_TEST_SUITE_P(Boards, NQueensSchedTest, ::testing::Values(5, 6, 7, 8, 9));

TEST(NQueens, CilkMatchesSequential) {
  rt::ForkJoinPool pool(4);
  const apps::NQueensProgram prog{8};
  const auto roots = std::vector{apps::NQueensProgram::root()};
  EXPECT_EQ(core::run_cilk(pool, prog, roots), 92u);
}

TEST(NQueens, ParallelSchedulersMatch) {
  apps::NQueensProgram prog{9};
  const auto roots = std::vector{apps::NQueensProgram::root()};
  tbtest::expect_par_matrix(prog, roots, Thresholds{8, 128, 64, 16}, std::uint64_t{352});
}

// ---- fan-out bounds ------------------------------------------------------------
// A program whose children would not fit its spawn slots (or, for graphcol,
// its two color words) is rejected when it is built.

TEST(FanOut, NQueensBoardsUpToSixteen) {
  EXPECT_THROW(apps::NQueensProgram{0}, std::invalid_argument);
  EXPECT_THROW(apps::NQueensProgram{17}, std::invalid_argument);
  EXPECT_NO_THROW(apps::NQueensProgram{1});
  const apps::NQueensProgram prog{16};
  EXPECT_EQ(prog.n, 16);
}

TEST(FanOut, UtsUpToEightChildren) {
  EXPECT_THROW(apps::UtsProgram(apps::UtsParams{64, 9, 0.1, 3}), std::invalid_argument);
  EXPECT_THROW(apps::UtsProgram(apps::UtsParams{64, 0, 0.1, 3}), std::invalid_argument);
  const apps::UtsProgram prog(apps::UtsParams{64, 8, 0.1, 3});
  EXPECT_EQ(prog.params.m, 8);
}

// A chain where v is adjacent to v-1 and v-2 has exactly 3! colorings.
apps::GraphColInstance chain_graph(int vertices) {
  apps::GraphColInstance g;
  g.num_vertices = vertices;
  g.lower_adj.resize(static_cast<std::size_t>(vertices));
  for (int v = 1; v < vertices; ++v) {
    auto& adj = g.lower_adj[static_cast<std::size_t>(v)];
    adj.push_back(v - 1);
    if (v >= 2) adj.push_back(v - 2);
  }
  return g;
}

TEST(FanOut, GraphColUpToSixtyFourVertices) {
  const auto g70 = chain_graph(70);
  EXPECT_THROW(apps::GraphColProgram{&g70}, std::invalid_argument);
  const auto g65 = chain_graph(65);
  EXPECT_THROW(apps::GraphColProgram{&g65}, std::invalid_argument);
  const auto g64 = chain_graph(64);
  const apps::GraphColProgram prog{&g64};
  EXPECT_EQ(apps::graphcol_sequential(g64, apps::GraphColProgram::root()), 6u);
  const auto roots = std::vector{apps::GraphColProgram::root()};
  EXPECT_EQ((core::run_seq<core::SimdExec<apps::GraphColProgram>>(
                prog, roots, SeqPolicy::Restart, Thresholds{8, 64, 32, 8})),
            6u);
}

// ---- graphcol ------------------------------------------------------------------

TEST(GraphCol, EmptyGraphAllColorings) {
  // With no edges, every vertex can take any of the 3 colors.
  auto g = apps::GraphColInstance::random(6, 0.0);
  EXPECT_EQ(apps::graphcol_sequential(g, apps::GraphColProgram::root()), 729u);  // 3^6
}

TEST(GraphCol, TriangleHasSixColorings) {
  apps::GraphColInstance g;
  g.num_vertices = 3;
  g.lower_adj = {{}, {0}, {0, 1}};
  EXPECT_EQ(apps::graphcol_sequential(g, apps::GraphColProgram::root()), 6u);  // 3!
}

TEST(GraphCol, CompleteK4HasNo3Coloring) {
  apps::GraphColInstance g;
  g.num_vertices = 4;
  g.lower_adj = {{}, {0}, {0, 1}, {0, 1, 2}};
  EXPECT_EQ(apps::graphcol_sequential(g, apps::GraphColProgram::root()), 0u);
}

class GraphColSchedTest : public ::testing::TestWithParam<int> {};

TEST_P(GraphColSchedTest, AllLayersAllPolicies) {
  const auto g = apps::GraphColInstance::random(GetParam(), 2.5, 11);
  apps::GraphColProgram prog{&g};
  const auto roots = std::vector{apps::GraphColProgram::root()};
  const std::uint64_t expected = apps::graphcol_sequential(g, apps::GraphColProgram::root());
  tbtest::expect_seq_matrix(prog, roots, Thresholds{4, 256, 128, 32}, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GraphColSchedTest, ::testing::Values(8, 10, 11, 12));

TEST(GraphCol, VertexAbove32UsesHighWord) {
  // Exercise the hi-word path (vertices >= 32) without a combinatorial
  // blow-up: each vertex is adjacent to its two predecessors, so after the
  // first two choices every color is forced — exactly 3·2 = 6 colorings,
  // but the recursion still packs/reads colors of vertices 32..39.
  apps::GraphColInstance g;
  g.num_vertices = 40;
  g.lower_adj.resize(40);
  g.lower_adj[1] = {0};
  for (int v = 2; v < 40; ++v) g.lower_adj[static_cast<std::size_t>(v)] = {v - 2, v - 1};
  apps::GraphColProgram prog{&g};
  const auto roots = std::vector{apps::GraphColProgram::root()};
  const Thresholds th{4, 512, 256, 64};
  EXPECT_EQ(core::run_seq<core::SimdExec<apps::GraphColProgram>>(
                prog, roots, SeqPolicy::Restart, th),
            6u);
  EXPECT_EQ(core::run_seq<core::AosExec<apps::GraphColProgram>>(
                prog, roots, SeqPolicy::Reexp, th),
            6u);
}

TEST(GraphCol, CilkAndParallelMatch) {
  const auto g = apps::GraphColInstance::random(12, 3.0, 5);
  apps::GraphColProgram prog{&g};
  const std::uint64_t expected = apps::graphcol_sequential(g, apps::GraphColProgram::root());
  const auto roots = std::vector{apps::GraphColProgram::root()};
  tbtest::expect_par_matrix(prog, roots, Thresholds{4, 128, 64, 16}, expected);
}

// ---- uts -----------------------------------------------------------------------

TEST(Uts, DeterministicAcrossRuns) {
  apps::UtsProgram prog(apps::UtsParams{16, 4, 0.2, 3});
  EXPECT_EQ(apps::uts_sequential_all(prog), apps::uts_sequential_all(prog));
}

TEST(Uts, TreeIsNontrivialAndFinite) {
  apps::UtsProgram prog(apps::UtsParams{32, 4, 0.22, 5});
  const auto roots = prog.roots();
  const auto info = core::count_tree(prog, roots);
  EXPECT_GT(info.tasks, static_cast<std::uint64_t>(roots.size()));
  EXPECT_GT(info.levels, 3);
}

class UtsSchedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UtsSchedTest, AllLayersAllPolicies) {
  apps::UtsProgram prog(apps::UtsParams{32, 4, 0.21, GetParam()});
  const auto roots = prog.roots();
  const std::uint64_t expected = apps::uts_sequential_all(prog);
  tbtest::expect_seq_matrix(prog, roots, Thresholds{4, 128, 64, 16}, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UtsSchedTest, ::testing::Values(1, 2, 3, 4, 99));

TEST(Uts, CilkAndParallelMatch) {
  apps::UtsProgram prog(apps::UtsParams{32, 4, 0.21, 7});
  const std::uint64_t expected = apps::uts_sequential_all(prog);
  const auto roots = prog.roots();
  tbtest::expect_par_matrix(prog, roots, Thresholds{4, 128, 64, 16}, expected);
}

// ---- minmax --------------------------------------------------------------------

TEST(Minmax, WinDetection) {
  EXPECT_TRUE(apps::MinmaxProgram::won(0x000Fu));   // bottom row
  EXPECT_TRUE(apps::MinmaxProgram::won(0x8421u));   // diagonal
  EXPECT_TRUE(apps::MinmaxProgram::won(0xFFFFu));   // full board
  EXPECT_FALSE(apps::MinmaxProgram::won(0x0007u));  // three in a row only
  EXPECT_FALSE(apps::MinmaxProgram::won(0));
}

TEST(Minmax, LeafStatisticsConsistency) {
  apps::MinmaxProgram prog{6};
  const auto r = apps::minmax_sequential(prog, apps::MinmaxProgram::root());
  EXPECT_GT(r.leaves, 0u);
  EXPECT_EQ(r.score_sum,
            static_cast<std::int64_t>(r.x_wins) - static_cast<std::int64_t>(r.o_wins));
  EXPECT_LE(r.x_wins + r.o_wins, r.leaves);
}

class MinmaxSchedTest : public ::testing::TestWithParam<int> {};

TEST_P(MinmaxSchedTest, AllLayersAllPolicies) {
  apps::MinmaxProgram prog{GetParam()};
  const auto roots = std::vector{apps::MinmaxProgram::root()};
  const auto expected = apps::minmax_sequential(prog, apps::MinmaxProgram::root());
  tbtest::expect_seq_matrix(prog, roots, Thresholds{8, 256, 128, 32}, expected);
}

INSTANTIATE_TEST_SUITE_P(PlyLimits, MinmaxSchedTest, ::testing::Values(3, 4, 5));

TEST(Minmax, CilkAndParallelMatch) {
  apps::MinmaxProgram prog{5};
  const auto expected = apps::minmax_sequential(prog, apps::MinmaxProgram::root());
  const auto roots = std::vector{apps::MinmaxProgram::root()};
  tbtest::expect_par_matrix(prog, roots, Thresholds{8, 256, 128, 32}, expected);
}

TEST(Minmax, TrueMinimaxValueOfEmpty4x4IsDraw) {
  // With a shallow cutoff neither side can force a win from the empty board.
  apps::MinmaxProgram prog{5};
  EXPECT_EQ(apps::minmax_value(prog, apps::MinmaxProgram::root()), 0);
}

}  // namespace
