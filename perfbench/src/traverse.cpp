// traverse: offline data-parallel tree traversal.  Each solve runs knn,
// pointcorr and minmaxdist over a seeded uniform-cube kd-tree and
// barneshut over a seeded Plummer octree, each through the active kernel
// table's hybrid_* entry point on one persistent pool.  The time is in the
// lockstep engines and the simd kernels over large dense blocks, with
// coarse runtime ranges and no core or serve work.
#include <memory>
#include <string>
#include <vector>

#include "apps/barneshut.hpp"
#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "bench.hpp"
#include "offline.hpp"
#include "oracles.hpp"
#include "runtime/xoshiro.hpp"
#include "simd/dispatch.hpp"
#include "spatial/kdtree.hpp"
#include "spatial/octree.hpp"

namespace pb {
namespace {

namespace apps = tb::apps;
namespace spatial = tb::spatial;

constexpr int kK = 4;
constexpr float kRad2 = 0.2f;
constexpr float kTheta = 0.5f;

class Traverse final : public OfflineWorkload {
public:
  Traverse(const Args& args, SpanLog* log, int rep)
      : table_(tb::simd::kernels()),
        kd_n_(args.smoke ? 512 : 4096),
        bh_n_(args.smoke ? 256 : 2048) {
    {
      ScopedSpan span(log, "spatial.build", rep, -1);
      points_ = spatial::Bodies::uniform_cube(kd_n_, tb::rt::splitmix64(args.seed ^ 0x6b64));
      kdtree_ = spatial::KdTree::build(points_, 16);
      bodies_ = spatial::Bodies::plummer(bh_n_, tb::rt::splitmix64(args.seed ^ 0x6268));
      octree_ = spatial::Octree::build(bodies_, 8);
    }
    ax_.assign(bh_n_, 0.0f);
    ay_.assign(bh_n_, 0.0f);
    az_.assign(bh_n_, 0.0f);
    pc_prog_ = apps::PointCorrProgram{&points_, &kdtree_, kRad2};
    bh_prog_ = apps::BarnesHutProgram{&bodies_, &octree_, ax_.data(), ay_.data(), az_.data()};

    // Sequential oracles.
    prepare();
    apps::knn_sequential(knn_prog_);
    knn_oracle_ = knn_digest(*knn_state_);
    apps::minmaxdist_sequential(mm_prog_);
    mm_oracle_ = apps::minmaxdist_digest(*mm_state_);
    pc_oracle_ = apps::pointcorr_sequential(pc_prog_);
    bh_oracle_ = apps::barneshut_sequential(bh_prog_, kTheta);
    if (args.corrupt_oracle) pc_oracle_ += 1;

    pool_ = std::make_unique<tb::rt::ForkJoinPool>(pool_workers(args));
    opt_.t_reexp = 4 * static_cast<std::size_t>(table_.width);
  }

  tb::rt::ForkJoinPool& pool() override { return *pool_; }

  void prepare() override {
    knn_state_ = std::make_unique<apps::KnnState>(kd_n_, kK);
    knn_prog_ = apps::KnnProgram{&points_, &kdtree_, knn_state_.get()};
    mm_state_ = std::make_unique<apps::MinmaxDistState>(kd_n_);
    mm_prog_ = apps::MinmaxDistProgram{&points_, &kdtree_, mm_state_.get()};
    std::fill(ax_.begin(), ax_.end(), 0.0f);
    std::fill(ay_.begin(), ay_.end(), 0.0f);
    std::fill(az_.begin(), az_.end(), 0.0f);
  }

  void solve(SpanLog* log, std::int32_t parent, std::int64_t req) override {
    tb::core::PerWorkerStats* pw = log != nullptr ? &pw_ : nullptr;
    {
      ScopedSpan span(log, "simd.knn", req, parent);
      table_.hybrid_knn(*pool_, knn_prog_, opt_, pw);
    }
    if (pw != nullptr) counters_.merge(pw_.merged());
    {
      ScopedSpan span(log, "simd.pointcorr", req, parent);
      pc_result_ = table_.hybrid_pointcorr(*pool_, pc_prog_, opt_, pw);
    }
    if (pw != nullptr) counters_.merge(pw_.merged());
    {
      ScopedSpan span(log, "simd.minmaxdist", req, parent);
      table_.hybrid_minmaxdist(*pool_, mm_prog_, opt_, pw);
    }
    if (pw != nullptr) counters_.merge(pw_.merged());
    {
      ScopedSpan span(log, "simd.barneshut", req, parent);
      bh_result_ = table_.hybrid_barneshut(*pool_, bh_prog_, kTheta, opt_, pw);
    }
    if (pw != nullptr) counters_.merge(pw_.merged());
  }

  bool verify() override {
    return knn_digest(*knn_state_) == knn_oracle_ && pc_result_ == pc_oracle_ &&
           apps::minmaxdist_digest(*mm_state_) == mm_oracle_ && bh_result_ == bh_oracle_;
  }

  double items_per_solve() const override { return static_cast<double>(3 * kd_n_ + bh_n_); }

  void layer_metrics(const SpanLog& log, int traced, Outcome& out) override {
    out.set("spatial.build_ms", median(span_ms(log, "spatial.build")), "ms");
    out.set("simd.knn_ms", median(span_ms(log, "simd.knn")), "ms");
    out.set("simd.pointcorr_ms", median(span_ms(log, "simd.pointcorr")), "ms");
    out.set("simd.minmaxdist_ms", median(span_ms(log, "simd.minmaxdist")), "ms");
    out.set("simd.barneshut_ms", median(span_ms(log, "simd.barneshut")), "ms");
    out.set("lockstep.visits_per_query",
            static_cast<double>(counters_.tasks_executed) /
                (static_cast<double>(traced) * items_per_solve()),
            "count");
    out.set("lockstep.simd_util", counters_.simd_utilization(), "ratio");

    // Single-thread baseline: the single-core blocked engines of the same
    // table on the same inputs, run on this thread with the pool parked.
    wait_parked(*pool_);
    std::vector<double> engine_ms;
    for (int rep = 0; rep < 3; ++rep) {
      prepare();
      const std::int64_t t0 = now_ns();
      table_.blocked_knn(knn_prog_, opt_.t_reexp, nullptr);
      pc_result_ = table_.blocked_pointcorr(pc_prog_, opt_.t_reexp, nullptr);
      table_.blocked_minmaxdist(mm_prog_, opt_.t_reexp, nullptr);
      bh_result_ = table_.blocked_barneshut(bh_prog_, kTheta, opt_.t_reexp, nullptr);
      engine_ms.push_back(ms_since(t0));
      if (!verify()) throw RunFailure("wrong answer from the single-core blocked engines");
    }
    const double engine = median(engine_ms);
    out.set("lockstep.engine_us_per_query", engine * 1e3 / items_per_solve(), "us");
    out.set("runtime.parallel_eff",
            engine / (median(span_ms(log, "solve")) * pool_->num_workers()), "ratio");
  }

private:
  std::string knn_digest(const apps::KnnState& state) const {
    return pb::knn_digest(state, kd_n_);
  }

  const tb::simd::KernelTable& table_;
  std::size_t kd_n_, bh_n_;
  spatial::Bodies points_, bodies_;
  spatial::KdTree kdtree_;
  spatial::Octree octree_;
  std::vector<float> ax_, ay_, az_;

  std::unique_ptr<apps::KnnState> knn_state_;
  std::unique_ptr<apps::MinmaxDistState> mm_state_;
  apps::KnnProgram knn_prog_;
  apps::MinmaxDistProgram mm_prog_;
  apps::PointCorrProgram pc_prog_;
  apps::BarnesHutProgram bh_prog_;

  std::string knn_oracle_, mm_oracle_;
  std::uint64_t pc_oracle_ = 0, bh_oracle_ = 0;
  std::uint64_t pc_result_ = 0, bh_result_ = 0;

  std::unique_ptr<tb::rt::ForkJoinPool> pool_;
  tb::rt::HybridOptions opt_;
  tb::core::PerWorkerStats pw_;
  tb::core::ExecStats counters_;
};

}  // namespace

void run_traverse(const Args& args, Outcome& out) {
  run_offline(args, out, [](const Args& a, SpanLog* log, int rep) {
    return std::unique_ptr<OfflineWorkload>(new Traverse(a, log, rep));
  });
}

}  // namespace pb
