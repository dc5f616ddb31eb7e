// Kernel registry and routing for the multi-kernel QueryServer.
//
// One server multiplexes several traversal kernels (knn, pointcorr,
// minmaxdist, ...) over one request queue and one ForkJoinPool.  Each
// registered kernel gets a *lane*: its own AdmissionBatcher (batch shape is
// a per-kernel property — a cheap kernel wants bigger batches than an
// expensive one), its own BatchRunner (built from its kernel table, see
// below — for the pool runners, the table's serving entry point over the
// hybrid executor), and its own telemetry.  Stage dependencies stay in the
// nested-dataflow style of the single-kernel server: queue -> per-lane
// batcher -> dispatch; lanes share only the admission thread and the pool.
//
// Dispatch arbitration is earliest-deadline-first: among lanes with any
// pending query, the router picks the one whose next batch holds the
// tightest effective deadline (explicit query deadline, else arrival +
// the lane's budget_ns), ties going to the lower lane index, so a
// latency-SLO kernel is never starved behind a bulk kernel's full batches.
//
// Each lane is bound to one simd::KernelTable, resolved at registration:
// the server-wide ServerOptions::forced_width (0 = the process-wide active
// table, which already folds in the CPUID probe and TB_SIMD_ISA), possibly
// overridden per kernel by KernelOptions::forced_width.  An invalid width
// throws at add(); a valid width the host cannot run clamps down with a
// stderr notice — the same rule TB_SIMD_ISA follows (simd/isa.hpp).  Every
// lane is built from a RunnerFactory invoked with that table: the
// pool_runner.hpp factories execute the table's serving entry points, and
// a factory that ignores the table (a test's counting runner) still leaves
// the lane reporting the table it resolved.
//
// Everything here is admission-thread-private after QueryServer::start();
// registration happens before start, reads of telemetry after stop.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/clock.hpp"
#include "simd/dispatch.hpp"

namespace tb::serve {

// Runs one dense batch of query ids synchronously; called only from the
// admission thread.  Same call shape as simd::ServeRunner — the table
// factories in pool_runner.hpp produce these directly.
using BatchRunner = std::function<void(const std::int32_t* ids, std::size_t count)>;

// Builds a lane's BatchRunner from the lane's resolved kernel table — the
// registration-time hook that makes serving ISA-dispatch-native.  See
// pool_runner.hpp for the per-workload factories.
using RunnerFactory = std::function<BatchRunner(const simd::KernelTable&)>;

struct KernelOptions {
  BatchPolicy policy{};
  // Forced serving lane width (4 / 8 / 16) for this kernel; 0 inherits the
  // server-wide ServerOptions::forced_width.  Validated when the kernel is
  // registered (see header comment for the clamp rule).
  int forced_width = 0;
};

// Pure half of the forced-width clamp so the rule is unit-testable without
// faking the host: the widest available width at or below `requested`, or
// the narrowest available one when even that is too wide (defensive — the
// w=4 table is always compiled, and 4 is the smallest valid request).
inline int clamp_serve_width(int requested, const int* available, int count) {
  int best = 0;
  for (int i = 0; i < count; ++i) {
    if (available[i] <= requested && available[i] > best) best = available[i];
  }
  if (best == 0 && count > 0) best = available[0];
  return best;
}

// Resolves a forced serving width to the kernel table a lane will execute.
// 0 defers to the process-wide selection (CPUID probe + TB_SIMD_ISA);
// 4/8/16 pin the matching table, clamping down with a notice when the host
// cannot run it (or the build compiled it out); anything else throws —
// registration is the validation point, so a typo fails loudly instead of
// silently serving at some other width.
inline const simd::KernelTable& resolve_serve_table(int forced_width) {
  if (forced_width == 0) return simd::kernels();
  if (forced_width != 4 && forced_width != 8 && forced_width != 16) {
    throw std::invalid_argument("taskbatch: forced serving width must be 0, 4, 8, or 16; got " +
                                std::to_string(forced_width));
  }
  if (const simd::KernelTable* t = simd::kernels_for_width(forced_width)) return *t;
  int count = 0;
  const simd::KernelTable* const* tables = simd::available_tables(count);
  int widths[3] = {};
  for (int i = 0; i < count; ++i) widths[i] = tables[i]->width;
  const simd::KernelTable* t =
      simd::kernels_for_width(clamp_serve_width(forced_width, widths, count));
  std::fprintf(stderr,
               "taskbatch: forced serving width %d not runnable on this host; using %s "
               "(w=%d)\n",
               forced_width, t->name, t->width);
  return *t;
}

// Per-kernel serving lane: batcher + runner + telemetry.  Owned by the
// router; admission-thread-private after start().
class KernelLane {
public:
  // EWMA weight 1/2^shift of the measured per-batch service time.
  static constexpr int kServiceEwmaShift = 2;

  KernelLane(std::string name, const BatchPolicy& policy, BatchRunner runner,
             const simd::KernelTable* table)
      : name_(std::move(name)), batcher_(policy), runner_(std::move(runner)), table_(table) {}

  const std::string& name() const { return name_; }
  AdmissionBatcher& batcher() { return batcher_; }
  const AdmissionBatcher& batcher() const { return batcher_; }
  const BatchRunner& runner() const { return runner_; }

  // The kernel table this lane was bound to at registration; identity-
  // comparable against simd::kernels() / kernels_for_width() in tests.
  const simd::KernelTable& table() const { return *table_; }
  int width() const { return table_->width; }
  const char* isa_name() const { return table_->name; }

  // Books one dispatched batch: latency stamps, deadline misses, and the
  // measured per-batch service time feeding the shed horizon's EWMA (the
  // first batch seeds it).
  void record_dispatch(const Batch& batch, std::int64_t start_ns, std::int64_t done_ns) {
    if (batches_ == 0) first_dispatch_ns_ = start_ns;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      latencies_s_.push_back(static_cast<double>(done_ns - batch.arrival_ns[i]) * 1e-9);
      if (batch.deadline_ns[i] != kNoDeadline && done_ns > batch.deadline_ns[i]) {
        ++served_late_;
      }
    }
    const std::int64_t measured = std::max<std::int64_t>(done_ns - start_ns, 0);
    const std::int64_t est = batcher_.service_estimate_ns();
    batcher_.set_service_estimate(
        batches_ == 0 ? measured : est + ((measured - est) >> kServiceEwmaShift));
    completed_ += batch.size();
    ++batches_;
    max_batch_seen_ = std::max(max_batch_seen_, batch.size());
    last_complete_ns_ = done_ns;
  }

  // Books one request that was accepted but never served because the
  // server stopped underneath it (stop-vs-submit race tail; see
  // QueryServer::stop).
  void count_unserved_at_stop() { ++unserved_at_stop_; }

  // --- telemetry (valid after QueryServer::stop returns) ---
  std::vector<double>& latencies_s() { return latencies_s_; }
  std::size_t completed() const { return completed_; }
  std::size_t shed() const { return batcher_.shed(); }
  std::size_t served_late() const { return served_late_; }
  std::size_t unserved_at_stop() const { return unserved_at_stop_; }
  std::size_t batches_dispatched() const { return batches_; }
  std::size_t max_batch_seen() const { return max_batch_seen_; }
  std::int64_t first_dispatch_ns() const { return first_dispatch_ns_; }
  std::int64_t last_complete_ns() const { return last_complete_ns_; }
  double busy_seconds() const {
    if (batches_ == 0) return 0.0;
    return static_cast<double>(last_complete_ns_ - first_dispatch_ns_) * 1e-9;
  }

private:
  std::string name_;
  AdmissionBatcher batcher_;
  BatchRunner runner_;
  const simd::KernelTable* table_;

  std::vector<double> latencies_s_;
  std::size_t completed_ = 0;
  std::size_t served_late_ = 0;
  std::size_t unserved_at_stop_ = 0;
  std::size_t batches_ = 0;
  std::size_t max_batch_seen_ = 0;
  std::int64_t first_dispatch_ns_ = 0;
  std::int64_t last_complete_ns_ = 0;
};

// Dense kernel registry.  Lanes are heap-held so references stay stable
// across registration.
class KernelRouter {
public:
  // Server-wide fallback for lanes that leave KernelOptions::forced_width
  // at 0; set once by QueryServer from ServerOptions before registration.
  void set_default_forced_width(int width) { default_forced_width_ = width; }

  // Registers a lane whose runner is built FROM the resolved table.
  // Resolution (and any invalid-width throw) happens before the lane
  // exists, so a failed registration leaves the router unchanged.  A
  // caller with a fixed runner passes a factory that ignores its table;
  // the lane still reports the table it resolved.
  int add(std::string name, const KernelOptions& opt, const RunnerFactory& factory) {
    const simd::KernelTable& t = resolve_serve_table(effective_width(opt));
    BatchRunner runner = factory(t);
    lanes_.push_back(
        std::make_unique<KernelLane>(std::move(name), opt.policy, std::move(runner), &t));
    return static_cast<int>(lanes_.size()) - 1;
  }

  std::size_t size() const { return lanes_.size(); }
  KernelLane& lane(int k) { return *lanes_[static_cast<std::size_t>(k)]; }
  const KernelLane& lane(int k) const { return *lanes_[static_cast<std::size_t>(k)]; }

  // Index of the named kernel, -1 when absent (linear scan: a server hosts
  // a handful of kernels, not thousands).
  int find(std::string_view name) const {
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      if (lanes_[k]->name() == name) return static_cast<int>(k);
    }
    return -1;
  }

  // Earliest-deadline-first arbitration: the lane with any pending query
  // whose urgency key is smallest, or -1 when every lane is empty.  Ties go
  // to the lower index, keeping the choice deterministic in virtual-time
  // tests.
  int pick() const {
    int best = -1;
    std::int64_t best_urgency = kNoDeadline;
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      const AdmissionBatcher& b = lanes_[k]->batcher();
      if (b.pending() == 0) continue;
      const std::int64_t u = b.urgency_ns();
      if (best == -1 || u < best_urgency) {
        best = static_cast<int>(k);
        best_urgency = u;
      }
    }
    return best;
  }

private:
  int effective_width(const KernelOptions& opt) const {
    return opt.forced_width != 0 ? opt.forced_width : default_forced_width_;
  }

  std::vector<std::unique_ptr<KernelLane>> lanes_;
  int default_forced_width_ = 0;
};

}  // namespace tb::serve
