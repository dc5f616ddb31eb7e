// taskblock: offline recursive task parallelism.  Each solve runs the
// Table-1 programs fib, binomial, parentheses, knapsack, graphcol and
// minmax through a pool task-block scheduler (par_restart or par_reexp over
// SimdExec), uts and nqueens through their hybrid entry points, and the
// spec-language fib, binomial and parentheses, compiled once in set-up,
// through the pool schedulers over the jitted scalar tier.  The time is in
// core, spec and fine-grained runtime spawn and steal; no lockstep engine,
// dispatch table or serve code runs.
#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/binomial.hpp"
#include "apps/fib.hpp"
#include "apps/graphcol.hpp"
#include "apps/knapsack.hpp"
#include "apps/minmax.hpp"
#include "apps/nqueens.hpp"
#include "apps/parentheses.hpp"
#include "apps/uts.hpp"
#include "bench.hpp"
#include "core/driver.hpp"
#include "offline.hpp"
#include "runtime/xoshiro.hpp"
#include "spec/vm.hpp"

namespace pb {
namespace {

namespace apps = tb::apps;
namespace core = tb::core;
namespace spec = tb::spec;

std::string digest_of(std::uint64_t v) { return std::to_string(v); }
std::string digest_of(const apps::KnapsackResult& r) {
  return std::to_string(r.leaves) + ":" + std::to_string(r.best);
}
std::string digest_of(const apps::MinmaxResult& r) {
  return std::to_string(r.leaves) + ":" + std::to_string(r.x_wins) + ":" +
         std::to_string(r.o_wins);
}

constexpr const char* kSpecFib = R"(
  def fib(n)
    base n < 2
    reduce n
    spawn fib(n - 1)
    spawn fib(n - 2)
)";
constexpr const char* kSpecBinomial = R"(
  def choose(n, k)
    base k == 0 || k == n
    reduce 1
    spawn choose(n - 1, k - 1)
    spawn choose(n - 1, k)
)";
constexpr const char* kSpecParens = R"(
  def paren(open, close)
    base open == 0 && close == 0
    reduce 1
    spawn if open > 0 : paren(open - 1, close)
    spawn if close > open : paren(open, close - 1)
)";

// Problem sizes: each program takes a few milliseconds per solve on the
// two-worker pool, a solve about 45 ms.  Each program call is one pool root,
// so smaller programs would weigh the pool's wake-up more than its work.
struct Sizes {
  int fib, binom_n, binom_k, parens, knapsack, graphcol_v, minmax_ply, nqueens;
  std::uint64_t uts_tasks, graphcol_tasks;
  int spec_fib, spec_binom_n, spec_binom_k, spec_parens;
};
constexpr Sizes kFull{29, 24, 9, 12, 21, 18, 5, 11, 1'200'000, 120'000, 26, 21, 8, 10};
constexpr Sizes kSmoke{16, 12, 5, 7, 10, 10, 3, 6, 2'000, 100, 14, 10, 4, 6};

// One program of the solve: a scheduler call returning its answer digest.
struct Job {
  const char* span;
  std::function<std::string(core::ExecStats*)> run;
  std::string oracle;
  std::uint64_t tasks = 0;  // census (core::count_tree)
  std::string result;
};

template <class P>
std::uint64_t census(const P& p, const std::vector<typename P::Task>& roots) {
  return core::count_tree(p, std::span<const typename P::Task>(roots)).tasks;
}

template <class P>
core::Thresholds thresholds(std::size_t block) {
  return core::Thresholds::for_block_size(P::simd_width, block, block / 8);
}

// Graph colouring trees vary by orders of magnitude between random graphs;
// take the first seeded graph whose tree is within 20% of the target, so
// every seed solves a problem of the same size.
apps::GraphColInstance sized_graph(int vertices, std::uint64_t target, std::uint64_t seed) {
  apps::GraphColInstance best;
  std::uint64_t best_gap = UINT64_MAX;
  for (std::uint64_t j = 0; j < 256; ++j) {
    auto g = apps::GraphColInstance::random(vertices, 3.0, tb::rt::splitmix64(seed + j));
    const apps::GraphColProgram p{&g};
    const std::uint64_t tasks = census(p, {apps::GraphColProgram::root()});
    const std::uint64_t gap = tasks > target ? tasks - target : target - tasks;
    if (gap < best_gap) {
      best = std::move(g);
      best_gap = gap;
    }
    if (5 * gap <= target) break;
  }
  return best;
}

// UTS subtree sizes are heavy-tailed; take the shortest prefix of the
// seeded root set whose trees hold at least `target` tasks.
apps::UtsParams sized_uts(std::uint64_t target, std::uint64_t seed) {
  apps::UtsParams params{static_cast<int>(target), 4, 0.225, seed};
  const apps::UtsProgram p(params);
  const auto roots = p.roots();
  std::uint64_t tasks = 0;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    tasks += census(p, {roots[i]});
    if (tasks >= target) {
      params.b0 = static_cast<int>(i + 1);
      break;
    }
  }
  return params;
}

class Taskblock final : public OfflineWorkload {
public:
  Taskblock(const Args& args, SpanLog* log, int rep)
      : sz_(args.smoke ? kSmoke : kFull),
        knapsack_(apps::KnapsackInstance::random(sz_.knapsack,
                                                 tb::rt::splitmix64(args.seed ^ 0x6b6e))),
        graph_(sized_graph(sz_.graphcol_v, sz_.graphcol_tasks,
                           tb::rt::splitmix64(args.seed ^ 0x6763))),
        knapsack_prog_{&knapsack_},
        graph_prog_{&graph_},
        minmax_prog_{sz_.minmax_ply},
        nqueens_prog_{sz_.nqueens},
        uts_prog_(sized_uts(sz_.uts_tasks, tb::rt::splitmix64(args.seed ^ 0x7574))),
        order_rng_(tb::rt::splitmix64(args.seed ^ 0x6f72)) {
    {
      ScopedSpan span(log, "spec.compile", rep, -1);
      spec_fib_ = std::make_unique<spec::CompiledSpecProgram>(
          spec::CompiledSpecProgram::parse(kSpecFib));
      spec_binom_ = std::make_unique<spec::CompiledSpecProgram>(
          spec::CompiledSpecProgram::parse(kSpecBinomial));
      spec_parens_ = std::make_unique<spec::CompiledSpecProgram>(
          spec::CompiledSpecProgram::parse(kSpecParens));
    }
    pool_ = std::make_unique<tb::rt::ForkJoinPool>(pool_workers(args));
    add_jobs();
    if (args.corrupt_oracle) jobs_.front().oracle += "x";
  }

  tb::rt::ForkJoinPool& pool() override { return *pool_; }
  void prepare() override {
    // A seeded program order per solve.
    std::shuffle(order_.begin(), order_.end(), order_rng_);
  }

  void solve(SpanLog* log, std::int32_t parent, std::int64_t req) override {
    for (const std::size_t i : order_) {
      Job& j = jobs_[i];
      core::ExecStats stats;
      {
        ScopedSpan span(log, j.span, req, parent);
        j.result = j.run(log != nullptr ? &stats : nullptr);
      }
      if (log != nullptr) counters_.merge(stats);
    }
  }

  bool verify() override {
    for (const Job& j : jobs_) {
      if (j.result != j.oracle) return false;
    }
    return true;
  }

  double items_per_solve() const override {
    double n = 0;
    for (const Job& j : jobs_) n += static_cast<double>(j.tasks);
    return n;
  }

  void layer_metrics(const SpanLog& log, int traced, Outcome& out) override {
    out.set("spec.compile_ms", median(span_ms(log, "spec.compile")), "ms");
    for (const Job& j : jobs_) {
      out.set(std::string(j.span) + "_ms", median(span_ms(log, j.span)), "ms");
    }
    const double n = static_cast<double>(traced);
    out.set("core.simd_util", counters_.simd_utilization(), "ratio");
    out.set("core.supersteps", static_cast<double>(counters_.supersteps) / n, "count");
    out.set("core.restart_actions", static_cast<double>(counters_.restart_actions) / n, "count");
    out.set("core.steal_actions", static_cast<double>(counters_.steal_actions) / n, "count");
    out.set("core.peak_space_tasks", static_cast<double>(counters_.peak_space_tasks), "count");
  }

private:
  // A program run through a pool task-block scheduler.
  template <class Exec>
  void add_pool_job(const char* span, const typename Exec::Program& p,
                    std::vector<typename Exec::Program::Task> roots, core::Thresholds th,
                    bool reexp, std::string oracle) {
    const std::uint64_t tasks = census(p, roots);
    jobs_.push_back(Job{span,
                        [this, &p, roots, th, reexp](core::ExecStats* st) {
                          const std::span<const typename Exec::Program::Task> r(roots);
                          return digest_of(reexp ? core::run_par_reexp<Exec>(*pool_, p, r, th, st)
                                                 : core::run_par_restart<Exec>(*pool_, p, r, th,
                                                                                st));
                        },
                        std::move(oracle), tasks, {}});
  }

  // A program run through its hybrid cores x lanes entry point.
  template <class P, class Run>
  void add_hybrid_job(const char* span, const P& p, std::vector<typename P::Task> roots,
                      Run run, std::string oracle) {
    jobs_.push_back(Job{span,
                        [this, run](core::ExecStats* st) {
                          core::PerWorkerStats pw;
                          const auto r = run(*pool_, st != nullptr ? &pw : nullptr);
                          if (st != nullptr) st->merge(pw.merged());
                          return digest_of(r);
                        },
                        std::move(oracle), census(p, roots), {}});
  }

  void add_jobs() {
    using apps::BinomialProgram, apps::FibProgram, apps::GraphColProgram,
        apps::KnapsackProgram, apps::MinmaxProgram, apps::NQueensProgram,
        apps::ParenthesesProgram, apps::UtsProgram;
    add_pool_job<core::SimdExec<FibProgram>>(
        "core.fib", fib_prog_, {FibProgram::root(sz_.fib)}, thresholds<FibProgram>(1u << 10),
        false, digest_of(apps::fib_sequential(sz_.fib)));
    add_pool_job<core::SimdExec<BinomialProgram>>(
        "core.binomial", binom_prog_, {BinomialProgram::root(sz_.binom_n, sz_.binom_k)},
        thresholds<BinomialProgram>(1u << 12), true,
        digest_of(apps::binomial_sequential(sz_.binom_n, sz_.binom_k)));
    add_pool_job<core::SimdExec<ParenthesesProgram>>(
        "core.parentheses", parens_prog_, {ParenthesesProgram::root(sz_.parens)},
        thresholds<ParenthesesProgram>(1u << 12), false,
        digest_of(apps::parentheses_sequential(sz_.parens, sz_.parens)));
    add_pool_job<core::SimdExec<KnapsackProgram>>(
        "core.knapsack", knapsack_prog_, {knapsack_prog_.root()},
        thresholds<KnapsackProgram>(1u << 12), true,
        digest_of(apps::knapsack_sequential(knapsack_, 0, knapsack_.capacity, 0)));
    add_pool_job<core::SimdExec<GraphColProgram>>(
        "core.graphcol", graph_prog_, {GraphColProgram::root()},
        thresholds<GraphColProgram>(1u << 10), false,
        digest_of(apps::graphcol_sequential(graph_, GraphColProgram::root())));
    add_pool_job<core::SimdExec<MinmaxProgram>>(
        "core.minmax", minmax_prog_, {MinmaxProgram::root()},
        thresholds<MinmaxProgram>(1u << 10), true,
        digest_of(apps::minmax_sequential(minmax_prog_, MinmaxProgram::root())));
    const auto uts_th = thresholds<UtsProgram>(1u << 11);
    add_hybrid_job(
        "core.uts", uts_prog_, uts_prog_.roots(),
        [this, uts_th](tb::rt::ForkJoinPool& pool, core::PerWorkerStats* pw) {
          return apps::uts_hybrid(pool, uts_prog_, uts_th, {}, pw);
        },
        digest_of(apps::uts_sequential_all(uts_prog_)));
    const auto nq_th = thresholds<NQueensProgram>(1u << 10);
    add_hybrid_job(
        "core.nqueens", nqueens_prog_, {NQueensProgram::root()},
        [this, nq_th](tb::rt::ForkJoinPool& pool, core::PerWorkerStats* pw) {
          return apps::nqueens_hybrid(pool, nqueens_prog_, nq_th, {}, pw);
        },
        digest_of(apps::nqueens_sequential(sz_.nqueens, 0, 0, 0)));

    using SpecExec = core::SoaExec<spec::CompiledSpecProgram>;
    const auto spec_th = core::Thresholds::for_block_size(4, 4096, 256);
    add_pool_job<SpecExec>("spec.fib", *spec_fib_, {spec_fib_->make_root({sz_.spec_fib})},
                           spec_th, false, digest_of(apps::fib_sequential(sz_.spec_fib)));
    add_pool_job<SpecExec>(
        "spec.binomial", *spec_binom_,
        {spec_binom_->make_root({sz_.spec_binom_n, sz_.spec_binom_k})}, spec_th, true,
        digest_of(apps::binomial_sequential(sz_.spec_binom_n, sz_.spec_binom_k)));
    add_pool_job<SpecExec>(
        "spec.parentheses", *spec_parens_,
        {spec_parens_->make_root({sz_.spec_parens, sz_.spec_parens})}, spec_th, false,
        digest_of(apps::parentheses_sequential(sz_.spec_parens, sz_.spec_parens)));

    order_.resize(jobs_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  }

  Sizes sz_;
  apps::KnapsackInstance knapsack_;
  apps::GraphColInstance graph_;
  apps::FibProgram fib_prog_{};
  apps::BinomialProgram binom_prog_{};
  apps::ParenthesesProgram parens_prog_{};
  apps::KnapsackProgram knapsack_prog_;
  apps::GraphColProgram graph_prog_;
  apps::MinmaxProgram minmax_prog_;
  apps::NQueensProgram nqueens_prog_;
  apps::UtsProgram uts_prog_;
  std::unique_ptr<spec::CompiledSpecProgram> spec_fib_, spec_binom_, spec_parens_;
  tb::rt::Xoshiro256 order_rng_;

  std::unique_ptr<tb::rt::ForkJoinPool> pool_;
  std::vector<Job> jobs_;
  std::vector<std::size_t> order_;
  core::ExecStats counters_;
};

}  // namespace

void run_taskblock(const Args& args, Outcome& out) {
  run_offline(args, out, [](const Args& a, SpanLog* log, int rep) {
    return std::unique_ptr<OfflineWorkload>(new Taskblock(a, log, rep));
  });
}

}  // namespace pb
