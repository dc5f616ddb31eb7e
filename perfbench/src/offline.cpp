#include "offline.hpp"

#include <chrono>
#include <thread>
#include <vector>

namespace pb {

void wait_parked(tb::rt::ForkJoinPool& pool) {
  const std::int64_t give_up = now_ns() + 500'000'000;
  while (pool.parked_workers() < pool.num_workers() && now_ns() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Let the last worker settle into its futex wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

double pool_wake_us(tb::rt::ForkJoinPool& pool, int samples) {
  std::vector<double> us;
  for (int i = 0; i < samples; ++i) {
    wait_parked(pool);
    const std::int64_t t0 = now_ns();
    pool.run([] {});
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

void run_offline(const Args& args, Outcome& out, const MakeOffline& make) {
  const std::int64_t process_start = now_ns();
  ThreadBudget budget;
  SpanLog log(args.trace ? 1u << 20 : 0);
  SpanLog* tlog = args.trace ? &log : nullptr;

  // Set-up, repeated; the last instance is the one measured.  Warm-up
  // solves belong to set-up.
  std::unique_ptr<OfflineWorkload> w;
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps(args); ++rep) {
    const std::int64_t t0 = rep == 0 ? process_start : now_ns();
    w.reset();
    w = make(args, tlog, rep);
    budget.check("set-up");
    for (int i = 0; i < 2; ++i) {
      w->prepare();
      w->solve(nullptr, -1, -1);
      if (!w->verify()) throw RunFailure("wrong answer in a warm-up solve");
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  tb::rt::ForkJoinPool& pool = w->pool();
  wait_parked(pool);
  const CpuTicks ticks0 = read_cpu_ticks();
  const double ref_before = host_ref_ms(5);
  const std::uint64_t steals0 = pool.total_steals();
  const std::uint64_t attempts0 = pool.total_steal_attempts();

  std::vector<double> plain_ms, traced_ms;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t solves = 0;
  while (solves < 4 || now_ns() < deadline) {
    w->prepare();
    const bool traced = tlog != nullptr && solves % 2 == 0;
    const std::int64_t t0 = now_ns();
    const std::int32_t span = traced ? log.add("solve", solves, -1, t0, 0) : -1;
    w->solve(traced ? tlog : nullptr, span, solves);
    const std::int64_t t1 = now_ns();
    if (traced) log.end_at(span, t1);
    (traced ? traced_ms : plain_ms).push_back(static_cast<double>(t1 - t0) * 1e-6);
    ++out.attempted;
    if (!w->verify()) {
      ++out.failed;
      out.correct = false;
    }
    ++solves;
    budget.check("solve");
  }
  if (out.failed > 0) {
    throw RunFailure(std::to_string(out.failed) + " of " + std::to_string(out.attempted) +
                     " solves returned a wrong answer");
  }

  const std::uint64_t steals = pool.total_steals() - steals0;
  const std::uint64_t attempts = pool.total_steal_attempts() - attempts0;
  wait_parked(pool);
  const double ref_after = host_ref_ms(5);
  const double steal = steal_frac(ticks0, read_cpu_ticks());
  const double ref = (ref_before + ref_after) / 2.0;
  out.note("host.steal_frac", steal);
  out.note("host.ref_ms_before", ref_before);
  out.note("host.ref_ms_after", ref_after);
  out.note("solves", static_cast<double>(solves));
  out.note("setup_s_reps", setup_s);
  out.note("max_threads", static_cast<double>(budget.max_seen()));

  if (!args.trace) {
    const double solve_ms = median(plain_ms);
    out.set("setup_s", median(setup_s), "s");
    out.set("items_per_s", w->items_per_solve() / (solve_ms * 1e-3), "1/s");
    out.set("latency_ms_p50", solve_ms, "ms");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Each solve span must be covered by its layer spans: the benchmark's own
  // code between layer calls is a few instructions.
  const std::vector<double> whole = span_ms(log, "solve");
  const std::vector<double> self = self_ms(log, "solve");
  for (std::size_t i = 0; i < whole.size(); ++i) {
    if (self[i] > 0.02 * whole[i] + 0.5) {
      throw RunFailure("layer spans do not add up to solve span " + std::to_string(i) + ": " +
                       std::to_string(self[i]) + " ms of " + std::to_string(whole[i]) +
                       " ms unattributed");
    }
  }
  if (log.dropped() > 0) throw RunFailure("span buffer overflowed");
  w->layer_metrics(log, static_cast<int>(traced_ms.size()), out);
  out.set("runtime.steals_per_solve", static_cast<double>(steals) / static_cast<double>(solves),
          "count");
  out.set("runtime.steal_success",
          attempts == 0 ? 0.0 : static_cast<double>(steals) / static_cast<double>(attempts),
          "ratio");
  out.set("runtime.wake_us", pool_wake_us(pool, 21), "us");
  out.set("host.steal_frac", steal, "ratio");
  out.set("host.ref_ms", ref, "ms");
  out.set("tail.latency_ms_p90", percentile(plain_ms, 90.0), "ms");
  out.set("trace.overhead_pct", (median(traced_ms) / median(plain_ms) - 1.0) * 100.0, "%");
  write_spans(args.trace_out, {&log});
}

}  // namespace pb
