// The offline measurement loop shared by the traverse and taskblock
// workloads: repeated set-up, then back-to-back solves until the run's time
// is up, each solve timed alone (its mutable state is rebuilt before the
// timer starts and its answer is checked after it stops).
//
// Traced mode alternates traced and untraced solves, so the tracing
// overhead is measured against interleaved solves of the same process.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "runtime/forkjoin.hpp"

namespace pb {

class OfflineWorkload {
public:
  virtual ~OfflineWorkload() = default;

  virtual tb::rt::ForkJoinPool& pool() = 0;
  // Rebuilds the per-solve mutable state (untimed).
  virtual void prepare() = 0;
  // One timed solve.  With a log, records one child span per layer call
  // under `parent` and accumulates the layer counters.
  virtual void solve(SpanLog* log, std::int32_t parent, std::int64_t req) = 0;
  // True when the last solve's answers equal the set-up oracles.
  virtual bool verify() = 0;
  virtual double items_per_solve() const = 0;
  // Traced mode: per-layer metrics from the solve spans and counters
  // (`traced` solves were recorded).
  virtual void layer_metrics(const SpanLog& log, int traced, Outcome& out) = 0;
};

// Builds one workload instance; set-up spans go to `log` when tracing, with
// `rep` as their request id.
using MakeOffline =
    std::function<std::unique_ptr<OfflineWorkload>(const Args&, SpanLog*, int rep)>;

void run_offline(const Args& args, Outcome& out, const MakeOffline& make);

// Median latency of ForkJoinPool::run on an empty body once every worker
// has parked.
double pool_wake_us(tb::rt::ForkJoinPool& pool, int samples);

// Blocks until every worker of `pool` is parked (bounded wait).
void wait_parked(tb::rt::ForkJoinPool& pool);

}  // namespace pb
