// Shared plumbing of the perfbench workloads: arguments, clocks, the
// thread-budget check, host health probes, nearest-rank percentiles, the
// span recorder of the traced mode, and the result line.
//
// Everything here is the benchmark's own code; it calls into the library
// only through the public headers the workload files include.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace pb {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Smoke sizes: tiny inputs and one set-up, for the self-tests.
  bool smoke = false;
  // Test hooks (self-tests only): pool size override (0 = nproc - 2) and a
  // deliberately corrupted oracle.
  int pool_workers = 0;
  bool corrupt_oracle = false;
  std::string trace_out;  // span dump path of the traced mode ("" = none)
};

// A check the run must pass; thrown out of a workload, it ends the run with
// correct = false and a non-zero exit code.
struct RunFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::int64_t now_ns();
double ms_since(std::int64_t start_ns);

// Busy-polls the clock until `deadline_ns` (pause-hinted, never yields):
// the load generator's arrival timer.  Returns the time it stopped.
std::int64_t spin_until_ns(std::int64_t deadline_ns);

// CPUs this process may run on (what `nproc` prints).
int nproc();
// The pool size of every workload: nproc - 2 (at least 1), so the serve
// workload's admission and generator threads bring the process to nproc.
int pool_workers(const Args& args);

// Run-time thread budget: the process never runs more than nproc threads.
// check() reads /proc/self/status and throws RunFailure past the limit.
class ThreadBudget {
public:
  ThreadBudget();
  void check(const char* where);
  int max_seen() const { return max_seen_; }

private:
  int limit_;
  int max_seen_ = 0;
};

// Host health (recorded, never used to drop or rescale runs).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();
double steal_frac(const CpuTicks& a, const CpuTicks& b);
// Median wall time of a fixed single-thread integer loop, in ms.
double host_ref_ms(int reps);
double peak_rss_mb();

// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

// ---- traced mode ---------------------------------------------------------------

// One recorded interval.  `name` points at a string literal; `parent` is the
// index of the enclosing span in the same log (-1 for a root); `req` is the
// operation the span belongs to (solve index, or query sequence number).
struct Span {
  const char* name;
  std::int32_t parent;
  std::int64_t req;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

// Preallocated, single-writer span buffer.  Spans past the capacity are
// dropped and counted; nothing allocates while recording.
class SpanLog {
public:
  explicit SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

  std::int32_t begin(const char* name, std::int64_t req, std::int32_t parent) {
    return add(name, req, parent, now_ns(), 0);
  }
  void end(std::int32_t idx) { end_at(idx, now_ns()); }
  void end_at(std::int32_t idx, std::int64_t end_ns) {
    if (idx >= 0) spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
  }
  std::int32_t add(const char* name, std::int64_t req, std::int32_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, parent, req, start_ns, end_ns});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

private:
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

// Records one span around a scope when `log` is non-null.
class ScopedSpan {
public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t req, std::int32_t parent)
      : log_(log), idx_(log != nullptr ? log->begin(name, req, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  SpanLog* log_;
  std::int32_t idx_;
};

// Durations (ms) of every span with this name.
std::vector<double> span_ms(const SpanLog& log, const char* name);
// Self time (ms) of each span with this name: its duration minus the union
// of its direct children's intervals.
std::vector<double> self_ms(const SpanLog& log, const char* name);
// Writes all logs as tab-separated `log name req parent start_ns end_ns`.
void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs);

// ---- result ------------------------------------------------------------------

struct Metric {
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  // Run metadata and health checks, printed on their own line.
  std::map<std::string, std::string> meta;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& value) { meta[key] = value; }
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::vector<double>& values);
};

// Set-up of the workload, repeated `reps` times inside one process; the
// median is setup_s.  Each call builds everything from scratch.
int setup_reps(const Args& args);

// The end-to-end and per-layer metric names every run reports (a per-layer
// metric a workload never exercises reads 0).
const std::vector<std::pair<const char*, const char*>>& end_to_end_metrics();
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics();

// Workload entry points: fill `out` (end-to-end metrics, or per-layer ones
// when args.trace) or throw RunFailure.
void run_traverse(const Args& args, Outcome& out);
void run_taskblock(const Args& args, Outcome& out);
void run_serve(const Args& args, Outcome& out);

}  // namespace pb
