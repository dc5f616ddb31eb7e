// The benchmark suite of Table 1 (plus the minmaxdist traversal extension)
// behind a uniform interface — 12 benchmarks.
//
// Each benchmark exposes: the plain sequential recursion (Ts), the Cilk
// baseline derived from its program (core::run_cilk; T1/TP), and the
// blocked scheduler variants (policy × execution layer ×
// sequential-or-pool).  Every run returns a digest string so the harnesses
// can verify that all variants computed the same answer (k-NN's digest is
// the final neighbor lists, which are schedule-independent even though its
// traversal counts are not).
//
// Scales: "test" (seconds for the whole suite), "default" (the shipped
// bench scale), "paper" (the paper's problem sizes — hours of sequential
// work; use --benchmarks= to select).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/barneshut.hpp"
#include "apps/binomial.hpp"
#include "apps/fib.hpp"
#include "apps/graphcol.hpp"
#include "apps/knapsack.hpp"
#include "apps/knn.hpp"
#include "apps/minmax.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/nqueens.hpp"
#include "apps/parentheses.hpp"
#include "apps/pointcorr.hpp"
#include "apps/uts.hpp"
#include "core/driver.hpp"
#include "core/ideal_restart.hpp"
#include "runtime/hybrid.hpp"
#include "simd/dispatch.hpp"

namespace tbench {

enum class Layer { Aos, Soa, Simd };

inline const char* to_string(Layer l) {
  switch (l) {
    case Layer::Aos: return "block";
    case Layer::Soa: return "soa";
    case Layer::Simd: return "simd";
  }
  return "?";
}

// Canonical "isa=<name>" variant fragment for forced-ISA bench rungs, so
// table2's hybrid rungs and serve_latency's per-ISA serving rungs agree on
// identity-key spelling (the nightly join matches on it verbatim).
inline std::string isa_variant(const tb::simd::KernelTable& t) {
  return std::string("isa=") + t.name;
}

struct BlockedConfig {
  tb::core::SeqPolicy policy = tb::core::SeqPolicy::Restart;
  Layer layer = Layer::Simd;
  tb::rt::ForkJoinPool* pool = nullptr;  // null: single-core sequential scheduler
  tb::core::Thresholds th{};
  bool elide = true;
  // > 0 selects the ideal restart scheduler (Fig 3b / §3.4; per-worker block
  // deques) with this many workers, overriding policy/pool.
  int ideal_workers = 0;
};

inline std::string digest_of(std::uint64_t v) { return std::to_string(v); }
inline std::string digest_of(const tb::apps::KnapsackResult& r) {
  return std::to_string(r.leaves) + ":" + std::to_string(r.best);
}
inline std::string digest_of(const tb::apps::MinmaxResult& r) {
  return std::to_string(r.leaves) + ":" + std::to_string(r.x_wins) + ":" +
         std::to_string(r.o_wins);
}

template <class Prog>
std::string run_blocked_generic(const Prog& prog,
                                std::span<const typename Prog::Task> roots,
                                const BlockedConfig& c, tb::core::ExecStats* st) {
  namespace core = tb::core;
  auto run_with = [&]<class Exec>(std::type_identity<Exec>) {
    if (c.ideal_workers > 0) {
      return core::run_ideal_restart<Exec>(prog, roots, c.th, c.ideal_workers, st);
    }
    if (c.pool != nullptr) {
      if (c.policy == core::SeqPolicy::Reexp) {
        return core::run_par_reexp<Exec>(*c.pool, prog, roots, c.th, st);
      }
      return core::run_par_restart<Exec>(*c.pool, prog, roots, c.th, st, 0, c.elide);
    }
    return core::run_seq<Exec>(prog, roots, c.policy, c.th, st);
  };
  switch (c.layer) {
    case Layer::Aos: return digest_of(run_with(std::type_identity<core::AosExec<Prog>>{}));
    case Layer::Soa: return digest_of(run_with(std::type_identity<core::SoaExec<Prog>>{}));
    case Layer::Simd: return digest_of(run_with(std::type_identity<core::SimdExec<Prog>>{}));
  }
  return {};
}

class IBench {
public:
  virtual ~IBench() = default;
  virtual std::string name() const = 0;
  virtual std::string problem() const = 0;
  virtual int q() const = 0;  // natural SIMD width for this kernel's lanes
  virtual tb::core::TreeInfo census() = 0;
  virtual std::string run_sequential() = 0;
  virtual std::string run_cilk(tb::rt::ForkJoinPool& pool) = 0;
  virtual std::string run_blocked(const BlockedConfig& cfg,
                                  tb::core::ExecStats* st = nullptr) = 0;
  // Default scheduler block size / restart-block size for this benchmark.
  virtual std::size_t default_block() const { return 1u << 10; }
  virtual std::size_t default_restart() const { return default_block() / 8; }

  // Hybrid vector×multicore executor: lockstep SIMD blocks on the
  // work-stealing pool for the traversal benchmarks (runtime/hybrid.hpp),
  // strip-mined root blocks for the task-block benchmarks
  // (core/hybrid_taskblock.hpp).  The traversal benchmarks route through the
  // runtime-ISA dispatch tables (simd/dispatch.hpp): `lanes` = 0 runs the
  // active table (highest ISA the host + TB_SIMD_ISA allow), 4/8/16 force the
  // sse2/avx2/avx512 table of the cores×lanes sweep.  Returns "" when the
  // forced table is not compiled in or not runnable on this host — callers
  // skip that rung.  Task-block benchmarks have a fixed lane width (their
  // vectorized expand kernel) and report hybrid_fixed_width() = true; they
  // ignore `lanes` and t_reexp.
  virtual bool has_hybrid() const { return false; }
  virtual bool hybrid_fixed_width() const { return false; }
  virtual std::string run_hybrid(tb::rt::ForkJoinPool&, const tb::rt::HybridOptions&,
                                 tb::core::PerWorkerStats* = nullptr, int lanes = 0) {
    (void)lanes;
    return {};
  }
  // Default re-expansion threshold for the hybrid engine.
  std::size_t default_hybrid_reexp() const { return 4 * static_cast<std::size_t>(q()); }

  tb::core::Thresholds thresholds(std::size_t block = 0, std::size_t restart = 0) const {
    return tb::core::Thresholds::for_block_size(
        q(), block == 0 ? default_block() : block,
        restart == 0 ? default_restart() : restart);
  }
};

// ---- concrete benchmarks --------------------------------------------------------

class FibBench final : public IBench {
public:
  explicit FibBench(int n) : n_(n), roots_{tb::apps::FibProgram::root(n)} {}
  std::string name() const override { return "fib"; }
  std::string problem() const override { return std::to_string(n_); }
  int q() const override { return tb::apps::FibProgram::simd_width; }
  tb::core::TreeInfo census() override { return tb::core::count_tree(prog_, roots_); }
  std::string run_sequential() override { return digest_of(tb::apps::fib_sequential(n_)); }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    return digest_of(tb::core::run_cilk(pool, prog_, roots_));
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    return run_blocked_generic(prog_, roots_, cfg, st);
  }

private:
  int n_;
  tb::apps::FibProgram prog_{};
  std::vector<tb::apps::FibProgram::Task> roots_;
};

class KnapsackBench final : public IBench {
public:
  explicit KnapsackBench(int items)
      : inst_(tb::apps::KnapsackInstance::random(items)), prog_{&inst_},
        roots_{prog_.root()} {}
  std::string name() const override { return "knapsack"; }
  std::string problem() const override { return std::to_string(inst_.num_items()) + " items"; }
  int q() const override { return tb::apps::KnapsackProgram::simd_width; }
  tb::core::TreeInfo census() override { return tb::core::count_tree(prog_, roots_); }
  std::string run_sequential() override {
    return digest_of(tb::apps::knapsack_sequential(inst_, 0, inst_.capacity, 0));
  }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    return digest_of(tb::core::run_cilk(pool, prog_, roots_));
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    return run_blocked_generic(prog_, roots_, cfg, st);
  }
  std::size_t default_block() const override { return 1u << 12; }

private:
  tb::apps::KnapsackInstance inst_;
  tb::apps::KnapsackProgram prog_;
  std::vector<tb::apps::KnapsackProgram::Task> roots_;
};

class ParenthesesBench final : public IBench {
public:
  explicit ParenthesesBench(int pairs)
      : pairs_(pairs), roots_{tb::apps::ParenthesesProgram::root(pairs)} {}
  std::string name() const override { return "parentheses"; }
  std::string problem() const override { return std::to_string(pairs_); }
  int q() const override { return tb::apps::ParenthesesProgram::simd_width; }
  tb::core::TreeInfo census() override { return tb::core::count_tree(prog_, roots_); }
  std::string run_sequential() override {
    return digest_of(tb::apps::parentheses_sequential(pairs_, pairs_));
  }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    return digest_of(tb::core::run_cilk(pool, prog_, roots_));
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    return run_blocked_generic(prog_, roots_, cfg, st);
  }
  std::size_t default_block() const override { return 1u << 12; }

private:
  int pairs_;
  tb::apps::ParenthesesProgram prog_{};
  std::vector<tb::apps::ParenthesesProgram::Task> roots_;
};

class NQueensBench final : public IBench {
public:
  explicit NQueensBench(int n) : prog_{n}, roots_{tb::apps::NQueensProgram::root()} {}
  std::string name() const override { return "nqueens"; }
  std::string problem() const override { return std::to_string(prog_.n); }
  int q() const override { return tb::apps::NQueensProgram::simd_width; }
  tb::core::TreeInfo census() override { return tb::core::count_tree(prog_, roots_); }
  std::string run_sequential() override {
    return digest_of(tb::apps::nqueens_sequential(prog_.n, 0, 0, 0));
  }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    return digest_of(tb::core::run_cilk(pool, prog_, roots_));
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    return run_blocked_generic(prog_, roots_, cfg, st);
  }
  bool has_hybrid() const override { return true; }
  bool hybrid_fixed_width() const override { return true; }
  std::string run_hybrid(tb::rt::ForkJoinPool& pool, const tb::rt::HybridOptions& opt,
                         tb::core::PerWorkerStats* pw, int) override {
    return digest_of(tb::apps::nqueens_hybrid(pool, prog_, thresholds(), opt, pw));
  }

private:
  tb::apps::NQueensProgram prog_;
  std::vector<tb::apps::NQueensProgram::Task> roots_;
};

class GraphColBench final : public IBench {
public:
  GraphColBench(int vertices, double avg_degree)
      : inst_(tb::apps::GraphColInstance::random(vertices, avg_degree)), prog_{&inst_},
        roots_{tb::apps::GraphColProgram::root()} {}
  std::string name() const override { return "graphcol"; }
  std::string problem() const override {
    return "3(" + std::to_string(inst_.num_vertices) + ")";
  }
  int q() const override { return tb::apps::GraphColProgram::simd_width; }
  tb::core::TreeInfo census() override { return tb::core::count_tree(prog_, roots_); }
  std::string run_sequential() override {
    return digest_of(tb::apps::graphcol_sequential(inst_, tb::apps::GraphColProgram::root()));
  }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    return digest_of(tb::core::run_cilk(pool, prog_, roots_));
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    return run_blocked_generic(prog_, roots_, cfg, st);
  }

private:
  tb::apps::GraphColInstance inst_;
  tb::apps::GraphColProgram prog_;
  std::vector<tb::apps::GraphColProgram::Task> roots_;
};

class UtsBench final : public IBench {
public:
  explicit UtsBench(tb::apps::UtsParams params) : prog_(params), roots_(prog_.roots()) {}
  std::string name() const override { return "uts"; }
  std::string problem() const override {
    return "b0=" + std::to_string(prog_.params.b0) + ",m=" + std::to_string(prog_.params.m);
  }
  int q() const override { return tb::apps::UtsProgram::simd_width; }
  tb::core::TreeInfo census() override { return tb::core::count_tree(prog_, roots_); }
  std::string run_sequential() override { return digest_of(tb::apps::uts_sequential_all(prog_)); }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    return digest_of(tb::core::run_cilk(pool, prog_, roots_));
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    return run_blocked_generic(prog_, roots_, cfg, st);
  }
  std::size_t default_block() const override { return 1u << 11; }
  bool has_hybrid() const override { return true; }
  bool hybrid_fixed_width() const override { return true; }
  std::string run_hybrid(tb::rt::ForkJoinPool& pool, const tb::rt::HybridOptions& opt,
                         tb::core::PerWorkerStats* pw, int) override {
    return digest_of(tb::apps::uts_hybrid(pool, prog_, thresholds(), opt, pw));
  }

private:
  tb::apps::UtsProgram prog_;
  std::vector<tb::apps::UtsProgram::Task> roots_;
};

class BinomialBench final : public IBench {
public:
  BinomialBench(int n, int k) : n_(n), k_(k), roots_{tb::apps::BinomialProgram::root(n, k)} {}
  std::string name() const override { return "binomial"; }
  std::string problem() const override {
    return "C(" + std::to_string(n_) + "," + std::to_string(k_) + ")";
  }
  int q() const override { return tb::apps::BinomialProgram::simd_width; }
  tb::core::TreeInfo census() override { return tb::core::count_tree(prog_, roots_); }
  std::string run_sequential() override {
    return digest_of(tb::apps::binomial_sequential(n_, k_));
  }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    return digest_of(tb::core::run_cilk(pool, prog_, roots_));
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    return run_blocked_generic(prog_, roots_, cfg, st);
  }
  std::size_t default_block() const override { return 1u << 12; }

private:
  int n_, k_;
  tb::apps::BinomialProgram prog_{};
  std::vector<tb::apps::BinomialProgram::Task> roots_;
};

class MinmaxBench final : public IBench {
public:
  explicit MinmaxBench(int ply) : prog_{ply}, roots_{tb::apps::MinmaxProgram::root()} {}
  std::string name() const override { return "minmax"; }
  std::string problem() const override {
    return "4x4 ply " + std::to_string(prog_.ply_limit);
  }
  int q() const override { return tb::apps::MinmaxProgram::simd_width; }
  tb::core::TreeInfo census() override { return tb::core::count_tree(prog_, roots_); }
  std::string run_sequential() override {
    return digest_of(tb::apps::minmax_sequential(prog_, tb::apps::MinmaxProgram::root()));
  }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    return digest_of(tb::core::run_cilk(pool, prog_, roots_));
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    return run_blocked_generic(prog_, roots_, cfg, st);
  }

private:
  tb::apps::MinmaxProgram prog_;
  std::vector<tb::apps::MinmaxProgram::Task> roots_;
};

class BarnesHutBench final : public IBench {
public:
  BarnesHutBench(std::size_t bodies, float theta)
      : bodies_(tb::spatial::Bodies::plummer(bodies)),
        tree_(tb::spatial::Octree::build(bodies_, 8)), ax_(bodies, 0), ay_(bodies, 0),
        az_(bodies, 0),
        prog_{&bodies_, &tree_, ax_.data(), ay_.data(), az_.data()},
        theta_(theta), roots_(prog_.roots(theta)) {}
  std::string name() const override { return "barneshut"; }
  std::string problem() const override {
    return std::to_string(bodies_.size()) + " bodies";
  }
  int q() const override { return tb::apps::BarnesHutProgram::simd_width; }
  tb::core::TreeInfo census() override { return tb::core::count_tree(prog_, roots_); }
  std::string run_sequential() override {
    reset();
    return digest_of(tb::apps::barneshut_sequential(prog_, theta_));
  }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    reset();
    return digest_of(tb::core::run_cilk(pool, prog_, roots_));
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    reset();
    return run_blocked_generic(prog_, roots_, cfg, st);
  }
  std::size_t default_block() const override { return 1u << 9; }
  bool has_hybrid() const override { return true; }
  std::string run_hybrid(tb::rt::ForkJoinPool& pool, const tb::rt::HybridOptions& opt,
                         tb::core::PerWorkerStats* pw, int lanes) override {
    const auto* kt =
        lanes == 0 ? &tb::simd::kernels() : tb::simd::kernels_for_width(lanes);
    if (kt == nullptr) return {};
    reset();
    return digest_of(kt->hybrid_barneshut(pool, prog_, theta_, opt, pw));
  }

private:
  void reset() {
    std::fill(ax_.begin(), ax_.end(), 0.0f);
    std::fill(ay_.begin(), ay_.end(), 0.0f);
    std::fill(az_.begin(), az_.end(), 0.0f);
  }

  tb::spatial::Bodies bodies_;
  tb::spatial::Octree tree_;
  std::vector<float> ax_, ay_, az_;
  tb::apps::BarnesHutProgram prog_;
  float theta_;
  std::vector<tb::apps::BarnesHutProgram::Task> roots_;
};

class PointCorrBench final : public IBench {
public:
  PointCorrBench(std::size_t points, float rad2)
      : points_(tb::spatial::Bodies::uniform_cube(points)),
        tree_(tb::spatial::KdTree::build(points_, 16)), prog_{&points_, &tree_, rad2},
        roots_(prog_.roots()) {}
  std::string name() const override { return "pointcorr"; }
  std::string problem() const override {
    return std::to_string(points_.size()) + " pts";
  }
  int q() const override { return tb::apps::PointCorrProgram::simd_width; }
  tb::core::TreeInfo census() override { return tb::core::count_tree(prog_, roots_); }
  std::string run_sequential() override {
    return digest_of(tb::apps::pointcorr_sequential(prog_));
  }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    return digest_of(tb::core::run_cilk(pool, prog_, roots_));
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    return run_blocked_generic(prog_, roots_, cfg, st);
  }
  std::size_t default_block() const override { return 1u << 10; }
  bool has_hybrid() const override { return true; }
  std::string run_hybrid(tb::rt::ForkJoinPool& pool, const tb::rt::HybridOptions& opt,
                         tb::core::PerWorkerStats* pw, int lanes) override {
    const auto* kt =
        lanes == 0 ? &tb::simd::kernels() : tb::simd::kernels_for_width(lanes);
    if (kt == nullptr) return {};
    return digest_of(kt->hybrid_pointcorr(pool, prog_, opt, pw));
  }

private:
  tb::spatial::Bodies points_;
  tb::spatial::KdTree tree_;
  tb::apps::PointCorrProgram prog_;
  std::vector<tb::apps::PointCorrProgram::Task> roots_;
};

class KnnBench final : public IBench {
public:
  KnnBench(std::size_t points, int k)
      : points_(tb::spatial::Bodies::uniform_cube(points)),
        tree_(tb::spatial::KdTree::build(points_, 16)), k_(k) {}
  std::string name() const override { return "knn"; }
  std::string problem() const override {
    return std::to_string(points_.size()) + " pts k=" + std::to_string(k_);
  }
  int q() const override { return tb::apps::KnnProgram::simd_width; }
  tb::core::TreeInfo census() override {
    // Counts the actual pruned traversal of a fresh sequential run.
    tb::apps::KnnState state(points_.size(), k_);
    tb::apps::KnnProgram prog{&points_, &tree_, &state};
    tb::core::TreeInfo info;
    for (const auto& r : prog.roots()) census_walk(prog, r, 0, info);
    return info;
  }
  std::string run_sequential() override {
    tb::apps::KnnState state(points_.size(), k_);
    tb::apps::KnnProgram prog{&points_, &tree_, &state};
    tb::apps::knn_sequential(prog);
    return digest_state(state);
  }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    tb::apps::KnnState state(points_.size(), k_);
    tb::apps::KnnProgram prog{&points_, &tree_, &state};
    (void)tb::core::run_cilk(pool, prog, prog.roots());
    return digest_state(state);
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    tb::apps::KnnState state(points_.size(), k_);
    tb::apps::KnnProgram prog{&points_, &tree_, &state};
    const auto roots = prog.roots();
    (void)run_blocked_generic(prog, roots, cfg, st);
    return digest_state(state);
  }
  std::size_t default_block() const override { return 1u << 9; }
  bool has_hybrid() const override { return true; }
  std::string run_hybrid(tb::rt::ForkJoinPool& pool, const tb::rt::HybridOptions& opt,
                         tb::core::PerWorkerStats* pw, int lanes) override {
    const auto* kt =
        lanes == 0 ? &tb::simd::kernels() : tb::simd::kernels_for_width(lanes);
    if (kt == nullptr) return {};
    tb::apps::KnnState state(points_.size(), k_);
    tb::apps::KnnProgram prog{&points_, &tree_, &state};
    kt->hybrid_knn(pool, prog, opt, pw);
    return digest_state(state);
  }

private:
  static void census_walk(const tb::apps::KnnProgram& prog, const tb::apps::KnnProgram::Task& t,
                          int depth, tb::core::TreeInfo& info) {
    ++info.tasks;
    info.levels = std::max(info.levels, depth + 1);
    if (prog.is_base(t)) {
      ++info.leaves;
      tb::apps::KnnProgram::Result dummy = 0;
      prog.leaf(t, dummy);  // keep bounds shrinking so the census walk prunes
      return;
    }
    prog.expand(t, [&](int, const tb::apps::KnnProgram::Task& c) {
      census_walk(prog, c, depth + 1, info);
    });
  }

  // The final k-best distances are schedule-independent.
  std::string digest_state(const tb::apps::KnnState& state) const {
    std::uint64_t h = 1469598103934665603ull;
    for (std::int32_t q = 0; q < static_cast<std::int32_t>(points_.size()); ++q) {
      for (const float d : state.distances(q)) {
        const auto bits = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(static_cast<double>(d) * 1e6));
        h = (h ^ bits) * 1099511628211ull;
      }
    }
    return std::to_string(h);
  }

  tb::spatial::Bodies points_;
  tb::spatial::KdTree tree_;
  int k_;
};

class MinmaxDistBench final : public IBench {
public:
  explicit MinmaxDistBench(std::size_t points)
      : points_(tb::spatial::Bodies::uniform_cube(points)),
        tree_(tb::spatial::KdTree::build(points_, 16)) {}
  std::string name() const override { return "minmaxdist"; }
  std::string problem() const override { return std::to_string(points_.size()) + " pts"; }
  int q() const override { return tb::apps::MinmaxDistProgram::simd_width; }
  tb::core::TreeInfo census() override {
    // Counts the actual pruned traversal of a fresh sequential run (expand
    // depends on the evolving bounds, like knn).
    tb::apps::MinmaxDistState state(points_.size());
    tb::apps::MinmaxDistProgram prog{&points_, &tree_, &state};
    tb::core::TreeInfo info;
    for (const auto& r : prog.roots()) census_walk(prog, r, 0, info);
    return info;
  }
  std::string run_sequential() override {
    tb::apps::MinmaxDistState state(points_.size());
    tb::apps::MinmaxDistProgram prog{&points_, &tree_, &state};
    tb::apps::minmaxdist_sequential(prog);
    return tb::apps::minmaxdist_digest(state);
  }
  std::string run_cilk(tb::rt::ForkJoinPool& pool) override {
    tb::apps::MinmaxDistState state(points_.size());
    tb::apps::MinmaxDistProgram prog{&points_, &tree_, &state};
    (void)tb::core::run_cilk(pool, prog, prog.roots());
    return tb::apps::minmaxdist_digest(state);
  }
  std::string run_blocked(const BlockedConfig& cfg, tb::core::ExecStats* st) override {
    tb::apps::MinmaxDistState state(points_.size());
    tb::apps::MinmaxDistProgram prog{&points_, &tree_, &state};
    const auto roots = prog.roots();
    (void)run_blocked_generic(prog, roots, cfg, st);
    return tb::apps::minmaxdist_digest(state);
  }
  std::size_t default_block() const override { return 1u << 10; }
  bool has_hybrid() const override { return true; }
  std::string run_hybrid(tb::rt::ForkJoinPool& pool, const tb::rt::HybridOptions& opt,
                         tb::core::PerWorkerStats* pw, int lanes) override {
    const auto* kt =
        lanes == 0 ? &tb::simd::kernels() : tb::simd::kernels_for_width(lanes);
    if (kt == nullptr) return {};
    tb::apps::MinmaxDistState state(points_.size());
    tb::apps::MinmaxDistProgram prog{&points_, &tree_, &state};
    kt->hybrid_minmaxdist(pool, prog, opt, pw);
    return tb::apps::minmaxdist_digest(state);
  }

private:
  static void census_walk(const tb::apps::MinmaxDistProgram& prog,
                          const tb::apps::MinmaxDistProgram::Task& t, int depth,
                          tb::core::TreeInfo& info) {
    ++info.tasks;
    info.levels = std::max(info.levels, depth + 1);
    if (prog.is_base(t)) {
      ++info.leaves;
      tb::apps::MinmaxDistProgram::Result dummy = 0;
      prog.leaf(t, dummy);  // keep bounds moving so the census walk prunes
      return;
    }
    prog.expand(t, [&](int, const tb::apps::MinmaxDistProgram::Task& c) {
      census_walk(prog, c, depth + 1, info);
    });
  }

  tb::spatial::Bodies points_;
  tb::spatial::KdTree tree_;
};

// ---- suite factory ----------------------------------------------------------------

inline std::vector<std::unique_ptr<IBench>> make_suite(const std::string& scale) {
  std::vector<std::unique_ptr<IBench>> v;
  if (scale == "test") {
    v.push_back(std::make_unique<KnapsackBench>(16));
    v.push_back(std::make_unique<FibBench>(22));
    v.push_back(std::make_unique<ParenthesesBench>(10));
    v.push_back(std::make_unique<NQueensBench>(8));
    v.push_back(std::make_unique<GraphColBench>(14, 3.0));
    v.push_back(std::make_unique<UtsBench>(tb::apps::UtsParams{64, 4, 0.22, 19}));
    v.push_back(std::make_unique<BinomialBench>(20, 7));
    v.push_back(std::make_unique<MinmaxBench>(5));
    v.push_back(std::make_unique<BarnesHutBench>(2000, 0.5f));
    v.push_back(std::make_unique<PointCorrBench>(2000, 0.05f));
    v.push_back(std::make_unique<KnnBench>(2000, 4));
    v.push_back(std::make_unique<MinmaxDistBench>(2000));
  } else if (scale == "paper") {
    v.push_back(std::make_unique<KnapsackBench>(30));
    v.push_back(std::make_unique<FibBench>(45));
    v.push_back(std::make_unique<ParenthesesBench>(19));
    v.push_back(std::make_unique<NQueensBench>(15));
    v.push_back(std::make_unique<GraphColBench>(38, 3.4));
    v.push_back(std::make_unique<UtsBench>(tb::apps::UtsParams{2000, 8, 0.12475, 19}));
    v.push_back(std::make_unique<BinomialBench>(36, 13));
    v.push_back(std::make_unique<MinmaxBench>(12));
    v.push_back(std::make_unique<BarnesHutBench>(1000000, 0.5f));
    v.push_back(std::make_unique<PointCorrBench>(300000, 0.01f));
    v.push_back(std::make_unique<KnnBench>(100000, 4));
    v.push_back(std::make_unique<MinmaxDistBench>(300000));
  } else {  // default
    v.push_back(std::make_unique<KnapsackBench>(21));
    v.push_back(std::make_unique<FibBench>(32));
    v.push_back(std::make_unique<ParenthesesBench>(13));
    v.push_back(std::make_unique<NQueensBench>(11));
    v.push_back(std::make_unique<GraphColBench>(19, 3.0));
    v.push_back(std::make_unique<UtsBench>(tb::apps::UtsParams{2000, 4, 0.2493, 19}));
    v.push_back(std::make_unique<BinomialBench>(25, 9));
    v.push_back(std::make_unique<MinmaxBench>(6));
    v.push_back(std::make_unique<BarnesHutBench>(20000, 0.5f));
    v.push_back(std::make_unique<PointCorrBench>(20000, 0.02f));
    v.push_back(std::make_unique<KnnBench>(20000, 4));
    v.push_back(std::make_unique<MinmaxDistBench>(20000));
  }
  return v;
}

}  // namespace tbench
