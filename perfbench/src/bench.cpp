#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

namespace pb {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_since(std::int64_t start_ns) { return static_cast<double>(now_ns() - start_ns) * 1e-6; }

std::int64_t spin_until_ns(std::int64_t deadline_ns) {
  for (;;) {
    const std::int64_t t = now_ns();
    if (t >= deadline_ns) return t;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

int pool_workers(const Args& args) {
  if (args.pool_workers > 0) return args.pool_workers;
  return std::max(1, nproc() - 2);
}

namespace {

// Value of a "Key:  <number> ..." line of /proc/self/status, or -1.
long status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtol(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return -1;
}

}  // namespace

ThreadBudget::ThreadBudget() : limit_(nproc()) {}

void ThreadBudget::check(const char* where) {
  const long threads = status_field("Threads");
  if (threads < 0) throw RunFailure("cannot read the thread count from /proc/self/status");
  max_seen_ = std::max(max_seen_, static_cast<int>(threads));
  if (threads > limit_) {
    throw RunFailure("thread budget exceeded at " + std::string(where) + ": " +
                     std::to_string(threads) + " threads > nproc = " + std::to_string(limit_));
  }
}

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice).
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const CpuTicks& a, const CpuTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0 : static_cast<double>(b.steal - a.steal) / static_cast<double>(total);
}

double host_ref_ms(int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    // Keep the loop: its result feeds an opaque barrier.
    asm volatile("" : : "r"(x));
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

double peak_rss_mb() {
  const long kb = status_field("VmHWM");
  return kb < 0 ? 0.0 : static_cast<double>(kb) / 1024.0;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

std::vector<double> span_ms(const SpanLog& log, const char* name) {
  std::vector<double> out;
  for (const Span& s : log.spans()) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

std::vector<double> self_ms(const SpanLog& log, const char* name) {
  const auto& spans = log.spans();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_b = 0, cur_e = 0;
    bool open = false;
    for (const auto& [b0, e0] : iv) {
      const std::int64_t b = std::max(b0, spans[i].start_ns);
      const std::int64_t e = std::min(e0, spans[i].end_ns);
      if (e <= b) continue;
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
      } else {
        if (open) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
        open = true;
      }
    }
    if (open) covered += cur_e - cur_b;
    out.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered) * 1e-6);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw RunFailure("cannot write the span dump " + path);
  std::fprintf(f, "log\tname\treq\tparent\tstart_ns\tend_ns\n");
  for (std::size_t l = 0; l < logs.size(); ++l) {
    for (const Span& s : logs[l]->spans()) {
      std::fprintf(f, "%zu\t%s\t%" PRId64 "\t%d\t%" PRId64 "\t%" PRId64 "\n", l, s.name, s.req,
                   s.parent, s.start_ns, s.end_ns);
    }
  }
  std::fclose(f);
}

void Outcome::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  meta[key] = buf;
}

void Outcome::note(const std::string& key, const std::vector<double>& values) {
  std::string s;
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", s.empty() ? "" : " ", v);
    s += buf;
  }
  meta[key] = s;
}

int setup_reps(const Args& args) { return args.smoke ? 1 : 5; }

const std::vector<std::pair<const char*, const char*>>& end_to_end_metrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"items_per_s", "1/s"},
      {"latency_ms_p50", "ms"},
  };
  return m;
}

const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> m = {
      {"spatial.build_ms", "ms"},
      {"spec.compile_ms", "ms"},
      {"simd.knn_ms", "ms"},
      {"simd.pointcorr_ms", "ms"},
      {"simd.minmaxdist_ms", "ms"},
      {"simd.barneshut_ms", "ms"},
      {"lockstep.engine_us_per_query", "us"},
      {"lockstep.visits_per_query", "count"},
      {"lockstep.simd_util", "ratio"},
      {"runtime.parallel_eff", "ratio"},
      {"runtime.steals_per_solve", "count"},
      {"runtime.steal_success", "ratio"},
      {"runtime.wake_us", "us"},
      {"core.fib_ms", "ms"},
      {"core.binomial_ms", "ms"},
      {"core.parentheses_ms", "ms"},
      {"core.knapsack_ms", "ms"},
      {"core.graphcol_ms", "ms"},
      {"core.minmax_ms", "ms"},
      {"core.uts_ms", "ms"},
      {"core.nqueens_ms", "ms"},
      {"spec.fib_ms", "ms"},
      {"spec.binomial_ms", "ms"},
      {"spec.parentheses_ms", "ms"},
      {"core.simd_util", "ratio"},
      {"core.supersteps", "count"},
      {"core.restart_actions", "count"},
      {"core.steal_actions", "count"},
      {"core.peak_space_tasks", "count"},
      {"serve.submit_us_p99", "us"},
      {"serve.wait_ms_p50", "ms"},
      {"serve.wait_ms_p90", "ms"},
      {"serve.service_ms_p50", "ms"},
      {"serve.service_ms_p90", "ms"},
      {"serve.batch_size_mean_open", "count"},
      {"serve.batch_size_mean_backlog", "count"},
      {"serve.dispatch_busy_frac", "ratio"},
      {"serve.gap_us_p50", "us"},
      {"gen.late_us_p50", "us"},
      {"gen.late_us_p99", "us"},
      {"host.steal_frac", "ratio"},
      {"host.ref_ms", "ms"},
      {"tail.latency_ms_p90", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return m;
}

}  // namespace pb
