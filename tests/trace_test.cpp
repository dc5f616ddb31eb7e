// Tests for simulator execution traces (sim/trace.hpp): event-stream
// consistency with the aggregate SimResult, the structural checker's
// negative cases, timeline rendering, utilization series, determinism, and
// the Lemma 8 space accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sim/comp_tree.hpp"
#include "sim/par_sim.hpp"
#include "sim/trace.hpp"

namespace {

using namespace tb;
using sim::CompTree;
using sim::SimConfig;
using sim::SimPolicy;
using sim::Trace;
using sim::TraceEvent;
using sim::TraceKind;

SimConfig base_config(SimPolicy policy, int p, Trace* trace = nullptr) {
  SimConfig cfg;
  cfg.policy = policy;
  cfg.p = p;
  cfg.q = 8;
  cfg.t_dfe = 64;
  cfg.t_bfe = 64;
  cfg.t_restart = 16;
  cfg.trace = trace;
  return cfg;
}

// gtest prints a TraceCase parameter as its raw bytes, tree_name's address first, and
// ctest lists each case under that printout.  Keeping the names at fixed offsets in one
// 256-byte-aligned table fixes the low byte of each address (0x00, 0x20, 0x40, 0x60), so
// the start of every listed name no longer moves with whatever else the binary links in.
struct alignas(256) TreeNames {
  char perfect[32];
  char fib[32];
  char caterpillar[32];
  char random[32];
};
constexpr TreeNames kTreeNames{"perfect", "fib", "caterpillar", "random"};

struct TraceCase {
  const char* tree_name;
  CompTree (*make)();
};

CompTree make_perfect() { return CompTree::perfect_binary(13); }
CompTree make_fib() { return CompTree::fib_tree(21); }
CompTree make_caterpillar() { return CompTree::caterpillar(600); }
CompTree make_random() { return CompTree::random_binary(20000, 0.72, 7); }

class TraceConsistency
    : public ::testing::TestWithParam<std::tuple<TraceCase, SimPolicy, int>> {};

TEST_P(TraceConsistency, EventStreamMatchesAggregateCounters) {
  const auto& [tc, policy, p] = GetParam();
  const CompTree tree = tc.make();
  Trace trace;
  SimConfig cfg = base_config(policy, p, &trace);
  const auto res = sim::simulate(tree, cfg);
  ASSERT_EQ(res.tasks, tree.num_nodes());
  const auto check = sim::check_trace(trace, p, res.tasks, res.steps_total, cfg.q);
  EXPECT_TRUE(check.ok) << check.error;
  // Steal accounting: Steal events are successful remote steals; attempts
  // cover both kinds.
  EXPECT_EQ(trace.count(TraceKind::Steal), res.steals);
  EXPECT_EQ(trace.count(TraceKind::Steal) + trace.count(TraceKind::StealAttempt),
            res.steal_attempts);
  // Supersteps = number of exec events.
  EXPECT_EQ(trace.count(TraceKind::ExecBFE) + trace.count(TraceKind::ExecDFE),
            res.supersteps);
  // The trace never outlives the makespan.
  EXPECT_GE(trace.end_time(), res.makespan);
}

INSTANTIATE_TEST_SUITE_P(
    TreesPoliciesCores, TraceConsistency,
    ::testing::Combine(::testing::Values(TraceCase{kTreeNames.perfect, make_perfect},
                                         TraceCase{kTreeNames.fib, make_fib},
                                         TraceCase{kTreeNames.caterpillar, make_caterpillar},
                                         TraceCase{kTreeNames.random, make_random}),
                       ::testing::Values(SimPolicy::Reexp, SimPolicy::Restart),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).tree_name) + "_" +
             sim::to_string(std::get<1>(info.param)) + "_p" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Trace, DeterministicForFixedSeed) {
  const CompTree tree = CompTree::fib_tree(18);
  Trace a, b;
  SimConfig cfg = base_config(SimPolicy::Restart, 4);
  cfg.trace = &a;
  (void)sim::simulate(tree, cfg);
  cfg.trace = &b;
  (void)sim::simulate(tree, cfg);
  EXPECT_EQ(a.events(), b.events());
}

TEST(Trace, ParkEventsCoverDfeSiblingPushes) {
  // Park records every block deposited on the leveled deque: DFE right
  // siblings under both policies, plus restart's sparse-block parks — so
  // restart on an unbalanced tree parks strictly more often than reexp.
  const CompTree tree = CompTree::fib_tree(20);
  std::uint64_t parks_reexp = 0, parks_restart = 0;
  for (const auto policy : {SimPolicy::Reexp, SimPolicy::Restart}) {
    Trace trace;
    SimConfig cfg = base_config(policy, 1, &trace);
    (void)sim::simulate(tree, cfg);
    EXPECT_GT(trace.count(TraceKind::Park), 0u);
    (policy == SimPolicy::Reexp ? parks_reexp : parks_restart) =
        trace.count(TraceKind::Park);
  }
  EXPECT_GT(parks_restart, parks_reexp);
}

TEST(Trace, MultiRootSeedsAreTraced) {
  // Multi-root trees model §5.3 data-parallel outer loops.
  std::vector<std::int32_t> parent;
  std::vector<std::int32_t> roots;
  for (int r = 0; r < 40; ++r) {
    const auto root = static_cast<std::int32_t>(parent.size());
    roots.push_back(root);
    parent.push_back(-1);
    parent.push_back(root);  // two children per root
    parent.push_back(root);
  }
  const CompTree tree = CompTree::from_parents_multi_root(parent);
  Trace trace;
  SimConfig cfg = base_config(SimPolicy::Restart, 2, &trace);
  const auto res = sim::simulate(tree, cfg, roots);
  EXPECT_EQ(res.tasks, tree.num_nodes());
  const auto check = sim::check_trace(trace, 2, res.tasks, res.steps_total, cfg.q);
  EXPECT_TRUE(check.ok) << check.error;
}

// ---- checker negative cases ---------------------------------------------------------

TEST(TraceCheck, DetectsOverlappingExecution) {
  Trace t;
  t.record(0, 10, 0, TraceKind::ExecDFE, 0, 80);
  t.record(5, 10, 0, TraceKind::ExecDFE, 1, 80);  // overlaps on core 0
  const auto check = sim::check_trace(t, 1);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("overlap"), std::string::npos);
}

TEST(TraceCheck, AcceptsBackToBackExecution) {
  Trace t;
  t.record(0, 10, 0, TraceKind::ExecDFE, 0, 80);
  t.record(10, 10, 0, TraceKind::ExecDFE, 1, 80);
  EXPECT_TRUE(sim::check_trace(t, 1).ok);
}

TEST(TraceCheck, DetectsEmptyExecBlock) {
  Trace t;
  t.record(0, 1, 0, TraceKind::ExecBFE, 0, 0);
  EXPECT_FALSE(sim::check_trace(t, 1).ok);
}

TEST(TraceCheck, DetectsCoreOutOfRange) {
  Trace t;
  t.record(0, 1, 3, TraceKind::ExecBFE, 0, 8);
  EXPECT_FALSE(sim::check_trace(t, 2).ok);
}

TEST(TraceCheck, DetectsTaskCountMismatch) {
  Trace t;
  t.record(0, 1, 0, TraceKind::ExecBFE, 0, 8);
  const auto check = sim::check_trace(t, 1, /*expected_tasks=*/9);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("tasks"), std::string::npos);
}

TEST(TraceCheck, DetectsMissingLevelOnExec) {
  Trace t;
  t.record(0, 1, 0, TraceKind::ExecBFE, -1, 8);
  EXPECT_FALSE(sim::check_trace(t, 1).ok);
}

// ---- rendering ------------------------------------------------------------------------

TEST(Timeline, HasOneRowPerCorePlusHeader) {
  const CompTree tree = CompTree::fib_tree(20);
  Trace trace;
  SimConfig cfg = base_config(SimPolicy::Restart, 4, &trace);
  (void)sim::simulate(tree, cfg);
  const std::string art = sim::render_timeline(trace, 4, cfg.q, 60);
  int rows = 0;
  for (const char c : art) rows += (c == '\n') ? 1 : 0;
  EXPECT_EQ(rows, 5);  // header + 4 cores
  EXPECT_NE(art.find("core0 |"), std::string::npos);
  EXPECT_NE(art.find("core3 |"), std::string::npos);
  // A dense tree must show some full-rate execution.
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Timeline, RowsHaveRequestedWidth) {
  Trace t;
  t.record(0, 4, 0, TraceKind::ExecDFE, 0, 32);
  t.record(4, 1, 0, TraceKind::Steal, 1, 8);
  const std::string art = sim::render_timeline(t, 1, 8, 40);
  const auto row_start = art.find("core0 |");
  ASSERT_NE(row_start, std::string::npos);
  const auto row_end = art.find('\n', row_start);
  // "core0 |" + 40 glyphs + "|"
  EXPECT_EQ(row_end - row_start, 7u + 40u + 1u);
}

TEST(Timeline, IdleCoresRenderAsDots) {
  Trace t;
  t.record(0, 8, 0, TraceKind::ExecDFE, 0, 64);
  const std::string art = sim::render_timeline(t, 2, 8, 20);
  // Core 1 had no events: its row is all '.'.
  const auto row = art.find("core1 |");
  ASSERT_NE(row, std::string::npos);
  const std::string glyphs = art.substr(row + 7, 20);
  EXPECT_EQ(glyphs, std::string(20, '.'));
}

TEST(UtilizationSeries, ValuesAreInUnitRange) {
  const CompTree tree = CompTree::fib_tree(22);
  Trace trace;
  SimConfig cfg = base_config(SimPolicy::Restart, 4, &trace);
  (void)sim::simulate(tree, cfg);
  const auto series = sim::utilization_series(trace, cfg.q, 48);
  ASSERT_EQ(series.size(), 48u);
  for (const double u : series) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

TEST(UtilizationSeries, DenseTreeReachesHighUtilization) {
  const CompTree tree = CompTree::perfect_binary(15);
  Trace trace;
  SimConfig cfg = base_config(SimPolicy::Restart, 1, &trace);
  (void)sim::simulate(tree, cfg);
  const auto series = sim::utilization_series(trace, cfg.q, 16);
  double peak = 0;
  for (const double u : series) peak = std::max(peak, u);
  EXPECT_GT(peak, 0.9);
}

// ---- space accounting (Lemma 8) ---------------------------------------------------------

TEST(SpaceAccounting, DisabledByDefault) {
  const CompTree tree = CompTree::fib_tree(18);
  SimConfig cfg = base_config(SimPolicy::Restart, 2);
  const auto res = sim::simulate(tree, cfg);
  EXPECT_EQ(res.peak_space_tasks, 0u);
}

class SpaceBound : public ::testing::TestWithParam<std::tuple<TraceCase, SimPolicy, int, int>> {
};

TEST_P(SpaceBound, PeakResidencyWithinLemma8Envelope) {
  const auto& [tc, policy, p, t_dfe] = GetParam();
  const CompTree tree = tc.make();
  SimConfig cfg = base_config(policy, p);
  cfg.t_dfe = static_cast<std::size_t>(t_dfe);
  cfg.t_bfe = cfg.t_dfe;
  cfg.t_restart = std::max<std::size_t>(cfg.t_dfe / 4, 1);
  cfg.track_space = true;
  const auto res = sim::simulate(tree, cfg);
  EXPECT_GT(res.peak_space_tasks, 0u);
  // Lemma 8: total space O(h·k·Q·P) with ≤2 blocks per level per worker,
  // blocks capped at 2·t_dfe (BFE doubling); the constant here absorbs
  // out-degree > 2 merges.  The bound must also never exceed n trivially.
  const std::uint64_t envelope =
      4ull * static_cast<std::uint64_t>(tree.height) * cfg.t_dfe * static_cast<std::uint64_t>(p);
  EXPECT_LE(res.peak_space_tasks, std::max<std::uint64_t>(envelope, 4ull * cfg.t_dfe))
      << "h=" << tree.height << " t_dfe=" << cfg.t_dfe << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpaceBound,
    ::testing::Combine(::testing::Values(TraceCase{kTreeNames.perfect, make_perfect},
                                         TraceCase{kTreeNames.fib, make_fib},
                                         TraceCase{kTreeNames.caterpillar, make_caterpillar}),
                       ::testing::Values(SimPolicy::Reexp, SimPolicy::Restart),
                       ::testing::Values(1, 4), ::testing::Values(32, 256)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).tree_name) + "_" +
             sim::to_string(std::get<1>(info.param)) + "_p" +
             std::to_string(std::get<2>(info.param)) + "_k" +
             std::to_string(std::get<3>(info.param));
    });

// ---- steal cost (§4.3's constant c) --------------------------------------------------

TEST(StealCost, TraceStealDurationsEqualC) {
  const CompTree tree = CompTree::fib_tree(18);
  for (const std::uint64_t c : {1u, 3u, 8u}) {
    Trace trace;
    SimConfig cfg = base_config(SimPolicy::Restart, 4, &trace);
    cfg.steal_cost = c;
    (void)sim::simulate(tree, cfg);
    for (const auto& e : trace.events()) {
      if (e.kind == TraceKind::Steal || e.kind == TraceKind::StealAttempt) {
        ASSERT_EQ(e.dur, c);
      }
    }
    const auto check = sim::check_trace(trace, 4);
    EXPECT_TRUE(check.ok) << check.error;
  }
}

TEST(StealCost, ExpensiveStealsNeverSpeedThingsUp) {
  const CompTree tree = CompTree::fib_tree(20);
  for (const auto policy : {SimPolicy::ScalarWS, SimPolicy::Reexp, SimPolicy::Restart}) {
    SimConfig cfg = base_config(policy, 4);
    cfg.steal_cost = 1;
    const auto cheap = sim::simulate(tree, cfg);
    cfg.steal_cost = 16;
    const auto dear = sim::simulate(tree, cfg);
    EXPECT_GE(dear.makespan, cheap.makespan) << sim::to_string(policy);
    EXPECT_EQ(dear.tasks, cheap.tasks);
  }
}

TEST(StealCost, ZeroClampsToOne) {
  // steal_cost = 0 would let an idle thief spin without advancing the
  // clock; the simulator clamps it.
  const CompTree tree = CompTree::fib_tree(14);
  SimConfig cfg = base_config(SimPolicy::Restart, 2);
  cfg.steal_cost = 0;
  const auto res = sim::simulate(tree, cfg);
  EXPECT_EQ(res.tasks, tree.num_nodes());
}

TEST(SpaceAccounting, GrowsWithBlockSizeCap) {
  // §3.5's space/parallelism trade: larger t_dfe ⇒ more resident tasks.
  const CompTree tree = CompTree::perfect_binary(16);
  std::uint64_t small = 0, large = 0;
  for (const std::size_t t_dfe : {16u, 1024u}) {
    SimConfig cfg = base_config(SimPolicy::Restart, 1);
    cfg.t_dfe = t_dfe;
    cfg.t_bfe = t_dfe;
    cfg.t_restart = t_dfe / 4;
    cfg.track_space = true;
    const auto res = sim::simulate(tree, cfg);
    (t_dfe == 16u ? small : large) = res.peak_space_tasks;
  }
  EXPECT_GT(large, 4 * small);
}

}  // namespace
