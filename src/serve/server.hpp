// QueryServer: the in-process serving front end over the hybrid executor.
//
// Topology (stage handoffs in the nested-dataflow style):
//
//   producers ──try_submit──▶ MpmcQueue ──route──▶ KernelRouter
//                                │                    │ per-kernel lanes:
//                             doorbell                │ AdmissionBatcher
//                                ▼                    │
//                        admission thread ──EDF──▶ lane BatchRunner
//                                                  (hybrid_for over a
//                                                   ForkJoinPool)
//
// A single admission thread owns the router and the dispatch loop: it
// drains the MPMC queue, routes each request to its kernel's lane (where
// deadline-shed admission happens), picks the lane whose next batch has
// the earliest deadline, runs that batch synchronously through the lane's
// BatchRunner, and stamps per-query latency (completion − arrival) when
// the batch returns.  Batches serialize on the admission thread —
// intra-batch parallelism comes from the runner fanning each dense id
// block out over the pool, which is exactly the paper's traversal shape
// (many queries, one shared tree).
//
// Admission is work-conserving: the pool is idle whenever the loop picks a
// lane, so any pending query dispatches at once, and the queries that
// arrive while a batch runs form the next batch (group commit, capped by
// max_batch).  No timer ever holds a query back.
//
// Parking mirrors the ForkJoinPool fix this layer depends on: with nothing
// pending the admission thread sleeps on a condition variable until a
// submit or stop; producers ring a doorbell only when the thread
// advertised it was napping (napping_ is a seq_cst flag mirroring the
// pool's sleepers_ counter), so the steady-state fast path costs producers
// one atomic load per submit.
//
// Lifecycle contract (hardened):
//   * stop() is idempotent, safe without start(), and safe to call from
//     several threads at once;
//   * every submit that returns true is accounted for exactly once in
//     completed() + shed() + unserved_at_stop(), even when the submit
//     races stop() — see the seq_cst re-check in try_submit;
//   * after stop() returns, try_submit/submit return false immediately
//     (nothing is silently enqueued into a dead queue, and blocking
//     submit cannot hang on a full queue no one drains).
//
// Latency stamps use the ARRIVAL time supplied by the producer.  An
// open-loop load generator passes the *scheduled* arrival time, which
// makes the recorded latencies coordinated-omission-safe: a stalled server
// charges the stall to every query that should have been issued meanwhile.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/clock.hpp"
#include "serve/queue.hpp"
#include "serve/router.hpp"

namespace tb::serve {

struct ServerOptions {
  std::size_t queue_capacity = 4096;
  // Policy for the implicit kernel registered by the single-kernel
  // constructor; multi-kernel callers set policy per kernel instead.
  BatchPolicy policy{};
  // Server-wide forced serving width (0 = the process-wide active table,
  // i.e. CPUID probe + TB_SIMD_ISA; 4/8/16 pin that table).  A per-kernel
  // KernelOptions::forced_width overrides this for its lane.  Validated at
  // register_kernel time: an invalid width throws std::invalid_argument, a
  // valid-but-unrunnable one clamps down with a stderr notice — the same
  // rule TB_SIMD_ISA follows.
  int forced_width = 0;
};

class QueryServer {
public:
  using BatchRunner = serve::BatchRunner;
  using RunnerFactory = serve::RunnerFactory;

  // Multi-kernel form: register kernels, then start().
  explicit QueryServer(const ServerOptions& opt) : queue_(opt.queue_capacity) {
    router_.set_default_forced_width(opt.forced_width);
  }

  // Single-kernel convenience: the factory's runner becomes kernel 0
  // ("default") under opt.policy, and the kernel-less submit overloads
  // target it.  The factory is invoked with the resolved kernel table (see
  // ServerOptions::forced_width).
  QueryServer(const ServerOptions& opt, const RunnerFactory& factory) : QueryServer(opt) {
    KernelOptions kopt;
    kopt.policy = opt.policy;
    register_kernel("default", kopt, factory);
  }

  ~QueryServer() { stop(); }

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Registers a kernel lane; call before start().  The factory builds the
  // lane's runner from the kernel table resolved for this lane's forced
  // width.  Returns the kernel index used by submit().  Throws
  // std::invalid_argument (leaving the server unchanged) when the width is
  // not one of 0/4/8/16.
  int register_kernel(std::string name, const KernelOptions& kopt,
                      const RunnerFactory& factory) {
    return router_.add(std::move(name), kopt, factory);
  }

  std::size_t kernels() const { return router_.size(); }
  const std::string& kernel_name(int k) const { return router_.lane(k).name(); }
  int find_kernel(std::string_view name) const { return router_.find(name); }

  // The kernel table a lane was bound to at registration, plus its width
  // and ISA name; the kernel-less forms describe kernel 0.  Valid any time
  // after registration (tables are immutable process-wide statics).
  const simd::KernelTable& serving_table(int k) const { return router_.lane(k).table(); }
  const simd::KernelTable& serving_table() const { return serving_table(0); }
  int serving_width(int k) const { return router_.lane(k).width(); }
  int serving_width() const { return serving_width(0); }
  const char* serving_isa(int k) const { return router_.lane(k).isa_name(); }
  const char* serving_isa() const { return serving_isa(0); }

  void start() {
    if (thread_.joinable()) return;  // already running
    thread_ = std::thread([this] { loop(); });
  }

  // Non-blocking submit; false when the request queue is full or the
  // server is stopping (caller's choice to drop, spin, or backpressure).
  // `arrival_ns` is the stamp latency is measured from — open-loop
  // generators pass the scheduled arrival time, not now_ns().  A true
  // return guarantees the query is eventually counted in exactly one of
  // completed / shed / unserved_at_stop.
  bool try_submit(int kernel, std::int32_t id, std::int64_t arrival_ns,
                  std::int64_t deadline_ns = kNoDeadline) {
    if (kernel < 0 || static_cast<std::size_t>(kernel) >= router_.size()) return false;
    if (stopping_.load(std::memory_order_seq_cst)) return false;
    if (!queue_.try_push(Request{kernel, id, arrival_ns, deadline_ns})) return false;
    if (stopping_.load(std::memory_order_seq_cst)) {
      // Raced stop(): the admission thread may already be past its final
      // drain.  If our pre-push stopping load saw false before stop()'s
      // store, the post-join drain in stop() is still ahead of us and will
      // account the request; the ambiguous case is exactly this one, so
      // take the stop lock (waiting out a concurrent stop()) and run the
      // same tail drain ourselves.  Either way the request ends up served
      // or counted unserved — never stranded in a dead queue.
      std::lock_guard<std::mutex> g(stop_mu_);
      drain_unserved();
    } else {
      doorbell();
    }
    return true;
  }
  bool try_submit(std::int32_t id, std::int64_t arrival_ns) {
    return try_submit(0, id, arrival_ns);
  }

  // Blocking submit: yields until the queue accepts (closed-loop callers).
  // Returns false — instead of spinning forever — once the server is
  // stopping and the request was not accepted.
  bool submit(int kernel, std::int32_t id, std::int64_t arrival_ns,
              std::int64_t deadline_ns = kNoDeadline) {
    if (kernel < 0 || static_cast<std::size_t>(kernel) >= router_.size()) return false;
    while (!try_submit(kernel, id, arrival_ns, deadline_ns)) {
      if (stopping_.load(std::memory_order_acquire)) return false;
      std::this_thread::yield();
    }
    return true;
  }
  bool submit(std::int32_t id, std::int64_t arrival_ns) { return submit(0, id, arrival_ns); }

  // Serves everything already admitted, joins the admission thread, and
  // accounts any stragglers that raced the stop flag.  Idempotent; safe
  // without start(); safe concurrently (callers serialize on an internal
  // mutex).  Telemetry accessors are valid after the first stop() returns.
  void stop() {
    stopping_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(mu_);
      bell_ = true;
    }
    cv_.notify_one();
    std::lock_guard<std::mutex> g(stop_mu_);
    if (thread_.joinable()) thread_.join();
    // Requests pushed after the admission thread's final emptiness check
    // (or submitted before start() to a server that never started) would
    // otherwise sit in the queue unserved and uncounted.
    drain_unserved();
  }

  bool stopped() const { return stopping_.load(std::memory_order_acquire); }

  // --- telemetry (admission-thread-private until stop() returns) ---

  // Per-query latencies in seconds for one kernel, dispatch-completion
  // order; the kernel-less overload merges all lanes into a scratch vector
  // (rebuilt per call — summarize_latencies may sort it in place).
  std::vector<double>& latencies_s(int k) { return router_.lane(k).latencies_s(); }
  std::vector<double>& latencies_s() {
    merged_latencies_.clear();
    for (std::size_t k = 0; k < router_.size(); ++k) {
      const auto& lane = router_.lane(static_cast<int>(k)).latencies_s();
      merged_latencies_.insert(merged_latencies_.end(), lane.begin(), lane.end());
    }
    return merged_latencies_;
  }

  std::size_t completed(int k) const { return router_.lane(k).completed(); }
  std::size_t completed() const { return sum(&KernelLane::completed); }
  // Queries rejected at admission because their deadline was unmeetable.
  std::size_t shed(int k) const { return router_.lane(k).shed(); }
  std::size_t shed() const { return sum(&KernelLane::shed); }
  // Queries served after their deadline had already passed.
  std::size_t served_late(int k) const { return router_.lane(k).served_late(); }
  std::size_t served_late() const { return sum(&KernelLane::served_late); }
  // Accepted requests the stop()-tail drained instead of serving.
  std::size_t unserved_at_stop(int k) const { return router_.lane(k).unserved_at_stop(); }
  std::size_t unserved_at_stop() const { return sum(&KernelLane::unserved_at_stop); }
  std::size_t batches_dispatched(int k) const {
    return router_.lane(k).batches_dispatched();
  }
  std::size_t batches_dispatched() const { return sum(&KernelLane::batches_dispatched); }
  std::size_t max_batch_seen(int k) const { return router_.lane(k).max_batch_seen(); }
  std::size_t max_batch_seen() const {
    std::size_t m = 0;
    for (std::size_t k = 0; k < router_.size(); ++k) {
      m = std::max(m, router_.lane(static_cast<int>(k)).max_batch_seen());
    }
    return m;
  }

  // Wall-clock span from first dispatch to last completion — the
  // throughput denominator for closed-loop (saturation) runs.  Per-kernel
  // and across-lane (earliest first dispatch to latest completion) forms.
  double busy_seconds(int k) const { return router_.lane(k).busy_seconds(); }
  double busy_seconds() const {
    std::int64_t first = 0, last = 0;
    bool any = false;
    for (std::size_t k = 0; k < router_.size(); ++k) {
      const KernelLane& lane = router_.lane(static_cast<int>(k));
      if (lane.batches_dispatched() == 0) continue;
      if (!any || lane.first_dispatch_ns() < first) first = lane.first_dispatch_ns();
      if (!any || lane.last_complete_ns() > last) last = lane.last_complete_ns();
      any = true;
    }
    return any ? static_cast<double>(last - first) * 1e-9 : 0.0;
  }

private:
  struct Request {
    int kernel = 0;
    std::int32_t id = 0;
    std::int64_t arrival_ns = 0;
    std::int64_t deadline_ns = kNoDeadline;
  };

  std::size_t sum(std::size_t (KernelLane::*fn)() const) const {
    std::size_t n = 0;
    for (std::size_t k = 0; k < router_.size(); ++k) {
      n += (router_.lane(static_cast<int>(k)).*fn)();
    }
    return n;
  }

  void drain_queue() {
    while (auto req = queue_.try_pop()) {
      router_.lane(req->kernel).batcher().push(req->id, req->arrival_ns, req->deadline_ns,
                                               now_ns());
    }
  }

  // Stop-tail accounting: pops leftover requests into unserved counters.
  // Called with stop_mu_ held, after (or instead of) the admission thread.
  void drain_unserved() {
    while (auto req = queue_.try_pop()) {
      router_.lane(req->kernel).count_unserved_at_stop();
    }
  }

  void dispatch(KernelLane& lane, Batch& batch) {
    const std::int64_t start = now_ns();
    lane.runner()(batch.ids.data(), batch.size());
    lane.record_dispatch(batch, start, now_ns());
    batch.clear();
  }

  void loop() {
    Batch batch;
    for (;;) {
      drain_queue();
      const int k = router_.pick();
      if (k >= 0) {
        KernelLane& lane = router_.lane(k);
        lane.batcher().pop(batch);
        dispatch(lane, batch);
        continue;
      }
      // Every lane is empty.  On stop, exit once the queue is too;
      // otherwise loop to drain producers that raced the stop flag.
      if (stopping_.load(std::memory_order_acquire)) {
        if (queue_.size_approx() == 0) break;
        continue;
      }
      park();
    }
  }

  // Sleeps until a doorbell or stop.  The napping_ flag is the Dekker
  // handshake with doorbell(): we publish napping_ (seq_cst) before the
  // final queue emptiness check, producers publish their push before
  // loading napping_ — one side always sees the other, so a submit racing
  // with park either gets drained by the loop or rings a bell we cannot
  // miss.
  void park() {
    std::unique_lock<std::mutex> lock(mu_);
    napping_.store(true, std::memory_order_seq_cst);
    cv_.wait(lock, [this] {
      return bell_ || stopping_.load(std::memory_order_acquire) || queue_.size_approx() != 0;
    });
    napping_.store(false, std::memory_order_relaxed);
    bell_ = false;
  }

  // Producer-side wake: skip the lock entirely unless the admission thread
  // advertised it was napping.  The empty critical section orders the
  // bell-setting store against a sleeper between its predicate check and
  // its wait (same race-closing idiom as ForkJoinPool::wake_sleepers).
  void doorbell() {
    if (!napping_.load(std::memory_order_seq_cst)) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      bell_ = true;
    }
    cv_.notify_one();
  }

  MpmcQueue<Request> queue_;
  KernelRouter router_;
  std::thread thread_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::mutex stop_mu_;  // serializes stop() callers and the straggler drain
  bool bell_ = false;
  std::atomic<bool> napping_{false};
  std::atomic<bool> stopping_{false};

  std::vector<double> merged_latencies_;
};

}  // namespace tb::serve
