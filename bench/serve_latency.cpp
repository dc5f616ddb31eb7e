// Query-serving latency/throughput sweep over the hybrid executor.
//
// The serving story: the paper's traversal kernels are "N queries against a
// shared tree" — the shape of an online serving system.  This driver stands
// up the src/serve/ front end (bounded MPMC queue → admission batcher →
// persistent ForkJoinPool) for knn and pointcorr and sweeps offered load ×
// batch size:
//
//   load=low   open-loop Poisson arrivals at a fixed per-scale rate.
//              Latency stamps use *scheduled* arrival times, so queueing
//              delay from server stalls is charged to every affected query
//              (no coordinated omission).  Admission is work-conserving: a
//              batch holds what arrived while the previous one ran, so at
//              low load batches stay small and no timer adds latency.
//   load=sat   closed-loop: submit as fast as the queue accepts.  Latency
//              means time-in-system; throughput (completed/busy_seconds) is
//              the capacity measurement where batch=1 — the classic
//              serve-one-at-a-time baseline — must lose to batching,
//              because dense blocks amortize re-expansion exactly as the
//              offline path does.
//
// Group-commit, multi-kernel and deadline rungs over the same front end:
//
//   load=low/rate=4x  open-loop knn at 4x the low rate with 256-query
//                  batches (selected with knn); besides latency/qps it
//                  records the largest batch that formed while a dispatch
//                  ran ("batch_max", unit "tasks" — informational, ungated).
//   load=multi     one QueryServer multiplexing knn + pointcorr +
//                  minmaxdist lanes over one pool (closed loop, one
//                  producer thread per kernel); per-kernel records, all
//                  three digests checked against the sequential oracles.
//   load=deadline  open-loop knn with per-query deadlines (tight = 2 ms,
//                  loose = 100 ms after arrival); JSON carries only the shed
//                  fraction ("shed_rate", unit "shed" — lower-is-better,
//                  deliberately ungated: shed queries depend on host
//                  stalls, so gating them would flake).  No digest — a
//                  shed query's k-best list is legitimately unserved.
//   isa            per-ISA serving rungs: one closed-loop knn run and one
//                  multi-kernel run per runnable dispatch table, every
//                  lane forced to that table's width
//                  (ServerOptions::forced_width), variants carrying the
//                  "isa=<name>" identity fragment (tbench::isa_variant) so
//                  the nightly same-host pair can see serving-throughput
//                  deltas per ISA.  Digest-checked per table — serving
//                  must be bit-identical across every ISA level.
//
// All runners are table-driven (serve/pool_runner.hpp RunnerFactory): a
// lane executes whatever kernel table it was bound to at registration, so
// the default rungs follow TB_SIMD_ISA and the isa rungs pin each level.
//
// Each digest-checked run serves every query id exactly once (round-robin
// over the dataset), so knn's k-best digest is comparable against the
// sequential oracle — serving a query twice would corrupt its neighbor
// list with duplicate inserts.
//
// JSON records (bench-results v1): policy = metric ("p50"/"p99"/"p999" in
// unit "seconds", "qps" in unit "qps" — higher-is-better), variant =
// "load=<mode>/...", layer = "serve".  Latency percentiles carry tail
// noise; the nightly gate uses a wider threshold for them than for
// throughput, and selects only qps/seconds so the shed/tasks records ride
// ungated (see .github/workflows/nightly-bench.yml).
//
// Output: CSV `benchmark,load,batch,p50_us,p99_us,p999_us,qps`.
// Flags: --scale=test|default|paper, --workers=4,
//        --benchmarks=knn,pointcorr,multi,deadline,isa, --format=json, --out=
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "bench/suite.hpp"
#include "bench/support/report.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/hybrid.hpp"
#include "serve/latency.hpp"
#include "serve/loadgen.hpp"
#include "serve/pool_runner.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "simd/dispatch.hpp"
#include "spatial/kdtree.hpp"

namespace {

struct ScaleConfig {
  std::size_t points = 20000;
  int k = 4;
  float rad2 = 0.02f;
  double low_rate_qps = 5000.0;
  std::vector<std::size_t> batches{1, 16, 64, 256};
};

ScaleConfig scale_config(const std::string& scale) {
  if (scale == "test") return {2000, 4, 0.05f, 2000.0, {1, 32}};
  if (scale == "paper") return {100000, 4, 0.01f, 20000.0, {1, 64, 512}};
  return {};
}

struct RunResult {
  tb::serve::LatencySummary lat;
  double qps = 0.0;
  std::size_t max_batch_seen = 0;
  std::string digest;
};

// Serves every query id in [0, id_space) exactly once through a runner
// built from the resolved kernel table (forced_width 0 = active table),
// under the given load and batch cap, and summarizes what came back.
RunResult run_serve(const tb::serve::RunnerFactory& factory, std::int32_t id_space,
                    double rate_qps, std::size_t max_batch, int forced_width = 0) {
  tb::serve::ServerOptions sopt;
  sopt.policy.max_batch = max_batch;
  sopt.forced_width = forced_width;
  tb::serve::QueryServer server(sopt, factory);
  server.start();
  tb::serve::LoadGenOptions lg;
  lg.rate_qps = rate_qps;
  lg.total = static_cast<std::size_t>(id_space);
  lg.id_space = id_space;
  lg.round_robin = true;
  tb::serve::generate_load(server, lg);
  server.stop();
  RunResult r;
  r.lat = tb::serve::summarize_latencies(server.latencies_s());
  const double busy = server.busy_seconds();
  r.qps = busy > 0 ? static_cast<double>(server.completed()) / busy : 0.0;
  r.max_batch_seen = server.max_batch_seen();
  return r;
}

// Schedule-independent knn digest: FNV-1a over the final k-best distances
// (same formula as the table2 suite, so digests cross-check the oracle).
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

void record(tbench::Reporter& rep, const std::string& bench, const std::string& variant,
            int workers, const RunResult& r) {
  const auto metric = [&](const char* name, const char* unit, double value) {
    auto proto = rep.make(bench, variant, name, "serve", workers);
    proto.digest = r.digest;
    rep.add_metric(std::move(proto), unit, value);
  };
  metric("p50", "seconds", r.lat.p50);
  metric("p99", "seconds", r.lat.p99);
  metric("p999", "seconds", r.lat.p999);
  metric("qps", "qps", r.qps);
}

std::string variant_name(const char* load, std::size_t batch) {
  return std::string("load=") + load + "/batch=" + std::to_string(batch);
}

void print_row(const std::string& bench, const char* load, std::size_t batch,
               const RunResult& r) {
  std::printf("%s,%s,%zu,%.1f,%.1f,%.1f,%.0f\n", bench.c_str(), load, batch,
              r.lat.p50 * 1e6, r.lat.p99 * 1e6, r.lat.p999 * 1e6, r.qps);
}

// Sequential-oracle digests the multi-kernel rungs check against.
struct MultiOracles {
  std::string knn;
  std::uint64_t pc = 0;
  std::string mm;
};

MultiOracles multi_oracles(const tb::spatial::Bodies& points,
                           const tb::spatial::KdTree& tree, const ScaleConfig& cfg) {
  MultiOracles o;
  {
    tb::apps::KnnState state(points.size(), cfg.k);
    tb::apps::KnnProgram prog{&points, &tree, &state};
    tb::apps::knn_sequential(prog);
    o.knn = knn_digest(state, points.size());
  }
  tb::apps::PointCorrProgram pc_prog{&points, &tree, cfg.rad2};
  o.pc = tb::apps::pointcorr_sequential(pc_prog);
  {
    tb::apps::MinmaxDistState state(points.size());
    tb::apps::MinmaxDistProgram prog{&points, &tree, &state};
    tb::apps::minmaxdist_sequential(prog);
    o.mm = tb::apps::minmaxdist_digest(state);
  }
  return o;
}

// One multi-kernel closed-loop rung: knn + pointcorr + minmaxdist lanes
// over one pool, one producer per lane, every lane forced to
// `forced_width` (0 = the active table — shared by load=multi and the
// per-ISA isa rungs).  Records per-kernel latency/qps under `variant`;
// returns false on any digest mismatch.
bool run_multi_rung(tbench::Reporter& rep, tb::rt::ForkJoinPool& pool,
                    const tb::spatial::Bodies& points, const tb::spatial::KdTree& tree,
                    const ScaleConfig& cfg, const MultiOracles& oracle, std::size_t batch,
                    int forced_width, const std::string& variant, const char* load_label,
                    int workers) {
  const auto n = static_cast<std::int32_t>(points.size());
  tb::apps::KnnState knn_state(points.size(), cfg.k);
  tb::apps::KnnProgram knn_prog{&points, &tree, &knn_state};
  tb::apps::PointCorrProgram pc_prog{&points, &tree, cfg.rad2};
  tb::apps::MinmaxDistState mm_state(points.size());
  tb::apps::MinmaxDistProgram mm_prog{&points, &tree, &mm_state};
  std::vector<tb::rt::Padded<std::uint64_t>> pc_parts(
      static_cast<std::size_t>(tb::rt::hybrid_slots(pool)));

  tb::serve::ServerOptions sopt;
  sopt.forced_width = forced_width;
  tb::serve::QueryServer server(sopt);
  tb::serve::KernelOptions kopt;
  kopt.policy.max_batch = batch;
  tb::rt::HybridOptions hopt;
  const int width = forced_width != 0 ? forced_width : tb::simd::kernels().width;
  hopt.t_reexp = 4 * static_cast<std::size_t>(width);
  const int k_knn =
      server.register_kernel("knn", kopt, tb::serve::knn_pool_runner(pool, hopt, knn_prog));
  const int k_pc = server.register_kernel(
      "pointcorr", kopt,
      tb::serve::pointcorr_pool_runner(pool, hopt, pc_prog, pc_parts.data()));
  const int k_mm = server.register_kernel(
      "minmaxdist", kopt, tb::serve::minmaxdist_pool_runner(pool, hopt, mm_prog));

  server.start();
  // One closed-loop producer per kernel so the admission thread always
  // sees a mixed stream — the EDF arbitration path, not three serial
  // single-lane phases.
  std::vector<std::thread> producers;
  for (const int k : {k_knn, k_pc, k_mm}) {
    producers.emplace_back([&server, k, n] {
      tb::serve::LoadGenOptions lg;
      lg.rate_qps = 0.0;
      lg.total = static_cast<std::size_t>(n);
      lg.id_space = n;
      lg.round_robin = true;
      lg.kernel = k;
      tb::serve::generate_load(server, lg);
    });
  }
  for (auto& t : producers) t.join();
  server.stop();

  std::uint64_t pc_total = 0;
  for (const auto& p : pc_parts) pc_total += p.value;
  const struct {
    const char* bench;
    int k;
    std::string digest;
    std::string want;
  } lanes[] = {
      {"knn", k_knn, knn_digest(knn_state, points.size()), oracle.knn},
      {"pointcorr", k_pc, std::to_string(pc_total), std::to_string(oracle.pc)},
      {"minmaxdist", k_mm, tb::apps::minmaxdist_digest(mm_state), oracle.mm},
  };
  for (const auto& lane : lanes) {
    if (lane.digest != lane.want) {
      std::fprintf(stderr, "error: %s multi-kernel serve digest mismatch (%s)\n",
                   lane.bench, variant.c_str());
      return false;
    }
    RunResult r;
    r.lat = tb::serve::summarize_latencies(server.latencies_s(lane.k));
    const double busy = server.busy_seconds(lane.k);
    r.qps = busy > 0 ? static_cast<double>(server.completed(lane.k)) / busy : 0.0;
    r.digest = lane.digest;
    record(rep, lane.bench, variant, workers, r);
    print_row(lane.bench, load_label, batch, r);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  tbench::Flags flags(argc, argv);
  tbench::Reporter rep("serve_latency", flags);
  const ScaleConfig cfg = scale_config(rep.scale());
  const int workers = static_cast<int>(flags.get_int("workers", 4));
  const std::string filter = flags.get("benchmarks", "knn,pointcorr,multi,deadline,isa");

  tb::rt::ForkJoinPool pool(workers);
  tb::rt::HybridOptions opt;
  // All default rungs serve at the active table's width (TB_SIMD_ISA
  // honored); re-expansion threshold follows the serving lane width.
  const int active_width = tb::simd::kernels().width;

  std::printf("benchmark,load,batch,p50_us,p99_us,p999_us,qps\n");

  // (load mode, offered rate): rate 0 = closed-loop saturation.
  const std::pair<const char*, double> loads[] = {{"low", cfg.low_rate_qps}, {"sat", 0.0}};

  if (tbench::selected(filter, "knn")) {
    const auto points = tb::spatial::Bodies::uniform_cube(cfg.points);
    const auto tree = tb::spatial::KdTree::build(points, 16);
    const auto n = static_cast<std::int32_t>(points.size());
    opt.t_reexp = 4 * static_cast<std::size_t>(active_width);
    // Oracle digest for the per-run digest field.
    std::string oracle;
    {
      tb::apps::KnnState state(points.size(), cfg.k);
      tb::apps::KnnProgram prog{&points, &tree, &state};
      tb::apps::knn_sequential(prog);
      oracle = knn_digest(state, points.size());
    }
    double sat_qps_b1 = 0.0, sat_qps_batched = 0.0;
    for (const auto& [load, rate] : loads) {
      for (const std::size_t batch : cfg.batches) {
        // Fresh state per run: serving each id exactly once reproduces the
        // offline result, so the digest must match the sequential oracle.
        tb::apps::KnnState state(points.size(), cfg.k);
        tb::apps::KnnProgram prog{&points, &tree, &state};
        RunResult r = run_serve(tb::serve::knn_pool_runner(pool, opt, prog), n, rate, batch);
        r.digest = knn_digest(state, points.size());
        if (r.digest != oracle) {
          std::fprintf(stderr, "error: knn serve digest mismatch (%s)\n",
                       variant_name(load, batch).c_str());
          return 1;
        }
        record(rep, "knn", variant_name(load, batch), workers, r);
        print_row("knn", load, batch, r);
        if (std::string(load) == "sat") {
          if (batch == 1) sat_qps_b1 = r.qps;
          else sat_qps_batched = std::max(sat_qps_batched, r.qps);
        }
      }
    }
    if (sat_qps_b1 > 0 && sat_qps_batched > 0) {
      std::printf("# knn saturation: best batched %.0f qps vs batch=1 %.0f qps (%.2fx)\n",
                  sat_qps_batched, sat_qps_b1, sat_qps_batched / sat_qps_b1);
    }

    // Group commit under load: at 4x the low rate, queries pile up while a
    // batch runs and go out together in the next one.
    {
      constexpr std::size_t kBatch = 256;
      tb::apps::KnnState state(points.size(), cfg.k);
      tb::apps::KnnProgram prog{&points, &tree, &state};
      RunResult r = run_serve(tb::serve::knn_pool_runner(pool, opt, prog), n,
                              4 * cfg.low_rate_qps, kBatch);
      r.digest = knn_digest(state, points.size());
      const std::string variant = "load=low/rate=4x/batch=" + std::to_string(kBatch);
      if (r.digest != oracle) {
        std::fprintf(stderr, "error: knn serve digest mismatch (%s)\n", variant.c_str());
        return 1;
      }
      record(rep, "knn", variant, workers, r);
      auto proto = rep.make("knn", variant, "batch_max", "serve", workers);
      proto.digest = r.digest;
      rep.add_metric(std::move(proto), "tasks", static_cast<double>(r.max_batch_seen));
      print_row("knn", "low/rate=4x", kBatch, r);
      std::printf("# knn group commit at 4x the low rate: largest batch %zu of %zu\n",
                  r.max_batch_seen, kBatch);
    }
  }

  if (tbench::selected(filter, "pointcorr")) {
    const auto points = tb::spatial::Bodies::uniform_cube(cfg.points);
    const auto tree = tb::spatial::KdTree::build(points, 16);
    const auto n = static_cast<std::int32_t>(points.size());
    tb::apps::PointCorrProgram prog{&points, &tree, cfg.rad2};
    opt.t_reexp = 4 * static_cast<std::size_t>(active_width);
    const std::uint64_t oracle = tb::apps::pointcorr_sequential(prog);
    for (const auto& [load, rate] : loads) {
      for (const std::size_t batch : cfg.batches) {
        // Per-slot partial counts: slots never run concurrently, padded
        // against false sharing (same idiom as hybrid_pointcorr).
        std::vector<tb::rt::Padded<std::uint64_t>> parts(
            static_cast<std::size_t>(tb::rt::hybrid_slots(pool)));
        RunResult r = run_serve(
            tb::serve::pointcorr_pool_runner(pool, opt, prog, parts.data()), n, rate, batch);
        std::uint64_t total = 0;
        for (const auto& p : parts) total += p.value;
        r.digest = std::to_string(total);
        if (total != oracle) {
          std::fprintf(stderr, "error: pointcorr serve count mismatch (%s)\n",
                       variant_name(load, batch).c_str());
          return 1;
        }
        record(rep, "pointcorr", variant_name(load, batch), workers, r);
        print_row("pointcorr", load, batch, r);
      }
    }
  }

  // ---- load=multi: one server, three kernel lanes ---------------------------
  if (tbench::selected(filter, "multi")) {
    const auto points = tb::spatial::Bodies::uniform_cube(cfg.points);
    const auto tree = tb::spatial::KdTree::build(points, 16);
    const MultiOracles oracle = multi_oracles(points, tree, cfg);
    for (const std::size_t batch : cfg.batches) {
      if (!run_multi_rung(rep, pool, points, tree, cfg, oracle, batch, /*forced_width=*/0,
                          variant_name("multi", batch), "multi", workers)) {
        return 1;
      }
    }
  }

  // ---- per-ISA rungs: every runnable table, lanes forced to its width -------
  if (tbench::selected(filter, "isa")) {
    const auto points = tb::spatial::Bodies::uniform_cube(cfg.points);
    const auto tree = tb::spatial::KdTree::build(points, 16);
    const auto n = static_cast<std::int32_t>(points.size());
    const MultiOracles oracle = multi_oracles(points, tree, cfg);
    // One representative batch size: the largest of the scale's ladder —
    // the regime where lane width actually shows in throughput.
    const std::size_t batch = cfg.batches.back();
    int num_tables = 0;
    const auto* const* tables = tb::simd::available_tables(num_tables);
    for (int ti = 0; ti < num_tables; ++ti) {
      const tb::simd::KernelTable* kt = tables[ti];
      const std::string iv = tbench::isa_variant(*kt);
      tb::rt::HybridOptions fopt;
      fopt.t_reexp = 4 * static_cast<std::size_t>(kt->width);

      // Closed-loop single-kernel knn at this table's width.
      tb::apps::KnnState state(points.size(), cfg.k);
      tb::apps::KnnProgram prog{&points, &tree, &state};
      RunResult r = run_serve(tb::serve::knn_pool_runner(pool, fopt, prog), n,
                              /*rate_qps=*/0.0, batch, kt->width);
      r.digest = knn_digest(state, points.size());
      if (r.digest != oracle.knn) {
        std::fprintf(stderr, "error: knn serve digest mismatch (load=sat/%s)\n",
                     iv.c_str());
        return 1;
      }
      const std::string sat_variant =
          "load=sat/" + iv + "/batch=" + std::to_string(batch);
      record(rep, "knn", sat_variant, workers, r);
      print_row("knn", ("sat/" + iv).c_str(), batch, r);

      // Mixed three-lane traffic with every lane pinned to this table.
      if (!run_multi_rung(rep, pool, points, tree, cfg, oracle, batch, kt->width,
                          "load=multi/" + iv + "/batch=" + std::to_string(batch),
                          ("multi/" + iv).c_str(), workers)) {
        return 1;
      }
    }
  }

  // ---- load=deadline: shed-on-admission -------------------------------------
  if (tbench::selected(filter, "deadline")) {
    const auto points = tb::spatial::Bodies::uniform_cube(cfg.points);
    const auto tree = tb::spatial::KdTree::build(points, 16);
    const auto n = static_cast<std::int32_t>(points.size());
    opt.t_reexp = 4 * static_cast<std::size_t>(active_width);
    tb::apps::KnnState state(points.size(), cfg.k);  // no digest: sheds are legal
    tb::apps::KnnProgram prog{&points, &tree, &state};
    constexpr std::size_t kBatch = 64;
    const std::pair<const char*, std::int64_t> deadlines[] = {{"rel=tight", 2'000'000},
                                                              {"rel=loose", 100'000'000}};
    for (const auto& [tag, rel_ns] : deadlines) {
      tb::serve::ServerOptions sopt;
      sopt.policy.max_batch = kBatch;
      tb::serve::QueryServer server(sopt, tb::serve::knn_pool_runner(pool, opt, prog));
      server.start();
      tb::serve::LoadGenOptions lg;
      lg.rate_qps = cfg.low_rate_qps;
      lg.total = static_cast<std::size_t>(n);
      lg.id_space = n;
      lg.deadline_rel_ns = rel_ns;
      const std::size_t offered = tb::serve::generate_load(server, lg);
      server.stop();

      RunResult r;
      r.lat = tb::serve::summarize_latencies(server.latencies_s());
      const double busy = server.busy_seconds();
      r.qps = busy > 0 ? static_cast<double>(server.completed()) / busy : 0.0;
      const double shed_rate =
          offered > 0 ? static_cast<double>(server.shed()) / static_cast<double>(offered)
                      : 0.0;
      // JSON carries only the shed fraction: latency/qps of a shedding run
      // are conditioned on which queries survived, so gating them would
      // compare different populations across hosts.
      auto proto =
          rep.make("knn", std::string("load=deadline/") + tag, "shed_rate", "serve",
                   workers);
      rep.add_metric(std::move(proto), "shed", shed_rate);
      std::printf("# knn deadline %s: offered %zu shed %zu (%.1f%%), served_late %zu\n",
                  tag, offered, server.shed(), shed_rate * 100.0, server.served_late());
      print_row("knn", (std::string("deadline/") + tag).c_str(), kBatch, r);
    }
  }

  return rep.finish();
}
