// Google-benchmark microbenchmarks for the substrates: the Chase–Lev deque,
// streaming compaction, SoA block appends, block kernel expansion, and the
// fork-join pool's spawn/sync overhead (what makes T1 >> Ts for fine
// kernels, §7.1).
//
// The custom main wraps Google Benchmark so this driver speaks the same
// --format=json --out= protocol as the rest of bench/: every run is also
// captured as a taskbatch Result record (seconds per iteration).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bench/support/report.hpp"

#include "apps/fib.hpp"
#include "core/driver.hpp"
#include "core/program.hpp"
#include "runtime/chase_lev_deque.hpp"
#include "runtime/forkjoin.hpp"
#include "runtime/xoshiro.hpp"
#include "simd/batch.hpp"
#include "simd/compact.hpp"
#include "simd/soa.hpp"

namespace {

using namespace tb;

void BM_DequePushPop(benchmark::State& state) {
  rt::ChaseLevDeque<int> dq;
  int item = 7;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) dq.push_bottom(&item);
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(dq.pop_bottom());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_DequePushPop);

void BM_DequeStealUncontended(benchmark::State& state) {
  rt::ChaseLevDeque<int> dq;
  int item = 7;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) dq.push_bottom(&item);
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(dq.steal_top());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_DequeStealUncontended);

void BM_Compact32(benchmark::State& state) {
  rt::Xoshiro256 rng(1);
  const auto v = simd::batch<std::int32_t, 8>::iota(0);
  alignas(64) std::int32_t dst[16];
  std::uint32_t mask = 0x5au;
  for (auto _ : state) {
    mask = static_cast<std::uint32_t>(rng()) & 0xffu;
    benchmark::DoNotOptimize(simd::compact_store(dst, mask, v));
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_Compact32);

void BM_Compact64(benchmark::State& state) {
  rt::Xoshiro256 rng(2);
  simd::batch<std::uint64_t, 4> v;
  for (int i = 0; i < 4; ++i) v.set(i, static_cast<std::uint64_t>(i));
  alignas(64) std::uint64_t dst[8];
  for (auto _ : state) {
    const std::uint32_t mask = static_cast<std::uint32_t>(rng()) & 0xfu;
    benchmark::DoNotOptimize(simd::compact_store(dst, mask, v));
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_Compact64);

void BM_SoaAppendCompact(benchmark::State& state) {
  simd::SoaBlock<std::int32_t, std::int32_t> blk;
  blk.reserve(1 << 16);
  const auto a = simd::batch<std::int32_t, 8>::iota(0);
  const auto b = simd::batch<std::int32_t, 8>::iota(8);
  rt::Xoshiro256 rng(3);
  for (auto _ : state) {
    if (blk.size() > (1u << 15)) blk.clear();
    blk.append_compact<8>(static_cast<std::uint32_t>(rng()) & 0xffu, a, b);
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_SoaAppendCompact);

// One BFE expansion step of the fib kernel across the three layers — the
// per-task cost of the Table 2 rungs.
template <class Exec>
void expand_layer(benchmark::State& state) {
  apps::FibProgram prog;
  typename Exec::Block in;
  in.set_level(0);
  rt::Xoshiro256 rng(4);
  for (int i = 0; i < 4096; ++i) {
    Exec::append_task(in, apps::FibProgram::Task{static_cast<std::int32_t>(rng.below(40)) + 2});
  }
  typename Exec::Block out;
  std::array<typename Exec::Block*, 2> outs{&out, &out};
  for (auto _ : state) {
    out.clear();
    apps::FibProgram::Result r = 0;
    std::uint64_t leaves = 0;
    Exec::expand_into(prog, in, 0, in.size(), outs, r, leaves);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}

void BM_ExpandFibAos(benchmark::State& state) {
  expand_layer<core::AosExec<apps::FibProgram>>(state);
}
void BM_ExpandFibSoa(benchmark::State& state) {
  expand_layer<core::SoaExec<apps::FibProgram>>(state);
}
void BM_ExpandFibSimd(benchmark::State& state) {
  expand_layer<core::SimdExec<apps::FibProgram>>(state);
}
BENCHMARK(BM_ExpandFibAos);
BENCHMARK(BM_ExpandFibSoa);
BENCHMARK(BM_ExpandFibSimd);

void BM_SpawnSyncOverhead(benchmark::State& state) {
  rt::ForkJoinPool pool(1);
  const apps::FibProgram prog;
  const apps::FibProgram::Task roots[] = {apps::FibProgram::root(12)};
  for (auto _ : state) {
    const auto v = core::run_cilk(pool, prog, roots);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * 465);  // fib(12) call-tree size
}
BENCHMARK(BM_SpawnSyncOverhead);

void BM_Splitmix(benchmark::State& state) {
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = rt::splitmix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Splitmix);

// Console output as usual, plus capture of every run into the Reporter:
// seconds per iteration (lower is better), and — when the benchmark calls
// SetItemsProcessed — Google Benchmark's items_per_second as a
// higher-is-better "ratio" record, which is what lets the substrate
// microbenches join the nightly same-host regression gate (--units=ratio).
class CapturingReporter : public benchmark::ConsoleReporter {
public:
  explicit CapturingReporter(tbench::Reporter* rep) : rep_(rep) {}
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations <= 0) continue;
      tbench::Result r = rep_->make(run.benchmark_name(), "gbench");
      r.reps = 1;
      r.seconds_best = run.real_accumulated_time / static_cast<double>(run.iterations);
      r.seconds_all = {r.seconds_best};
      rep_->add(r);
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        tbench::Result ips = rep_->make(run.benchmark_name(), "gbench");
        ips.unit = "ratio";
        ips.reps = 1;
        ips.seconds_best = static_cast<double>(items->second);
        ips.seconds_all = {ips.seconds_best};
        rep_->add(ips);
      }
    }
  }

private:
  tbench::Reporter* rep_;
};

}  // namespace

int main(int argc, char** argv) {
  const tbench::Flags flags(argc, argv);
  // Strip the reporter's flags before Google Benchmark sees (and rejects)
  // unrecognized arguments.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--format=", 9) == 0 ||
        std::strncmp(argv[i], "--out=", 6) == 0 || std::strcmp(argv[i], "--format") == 0) {
      continue;
    }
    args.push_back(argv[i]);
  }
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  tbench::Reporter rep("micro_substrates", flags);
  CapturingReporter console(&rep);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  return rep.finish();
}
