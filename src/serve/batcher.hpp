// Admission batching: work-conserving batches over arrival timestamps.
//
// The batcher is a pure state machine over std::int64_t nanoseconds — it
// never reads a clock.  The admission thread feeds it (id, arrival_ns,
// deadline_ns) tuples drained from the MPMC queue and pops batches from it;
// because all time flows in through parameters, the unit tests drive it in
// exact virtual time and assert batch boundaries deterministically.
//
// Rule: any pending query is dispatchable at once.  The server dispatches
// synchronously on its admission thread, so the pool is idle whenever that
// thread asks for a batch; waiting for batch-mates would only idle it.
// Batches form by group commit instead: queries that arrive while a batch
// runs make up the next one, capped at `max_batch` (dense blocks amortize
// re-expansion exactly as the offline path does).
//
// Deadlines: a query may carry an absolute `deadline_ns` (kNoDeadline =
// none).  Admission sheds — rejects without buffering — a query whose
// deadline has already passed, and a query that joins a non-empty window
// whose deadline cannot be met even by an immediate dispatch, using the
// current per-batch service estimate (`set_service_estimate`, fed by the
// server's measured dispatch times).  A query arriving at an empty batcher
// is never shed on the estimate: it dispatches at once, and that dispatch
// refreshes the estimate, so one slow batch cannot make the estimate shed
// every later query forever.
//
// Ranking: `urgency_ns` is the earliest-deadline-first key the router
// compares across lanes.  A query without a deadline ranks as if it were
// due at arrival + `budget_ns`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/clock.hpp"

namespace tb::serve {

struct BatchPolicy {
  std::size_t max_batch = 64;
  // EDF rank of a query without a deadline: it ranks as if due at
  // arrival + budget_ns.  Never delays a dispatch.
  std::int64_t budget_ns = 1'000'000;  // 1 ms
};

// One dispatchable batch: dense id block plus per-query arrival and
// deadline stamps (parallel arrays) so the dispatcher can compute per-query
// latency and count deadline misses.
struct Batch {
  std::vector<std::int32_t> ids;
  std::vector<std::int64_t> arrival_ns;
  std::vector<std::int64_t> deadline_ns;

  std::size_t size() const { return ids.size(); }
  void clear() {
    ids.clear();
    arrival_ns.clear();
    deadline_ns.clear();
  }
};

class AdmissionBatcher {
public:
  // Consumed-prefix length at which the pending window is compacted to the
  // front of the arrays (see pop()).  Public so the memory-bound tests can
  // assert buffered() against it.
  static constexpr std::size_t kCompactThreshold = 1024;

  explicit AdmissionBatcher(BatchPolicy policy) : policy_(policy) {
    if (policy_.max_batch == 0) policy_.max_batch = 1;
  }

  // Expected time to serve one batch, used for the shed horizon.  0 (the
  // default) means "dispatch is instantaneous": only already-expired
  // deadlines shed.
  void set_service_estimate(std::int64_t ns) {
    service_est_ns_ = std::max<std::int64_t>(ns, 0);
  }
  std::int64_t service_estimate_ns() const { return service_est_ns_; }

  // Admits one query with no deadline.  Arrivals must be pushed
  // oldest-first (the admission thread drains a FIFO queue, so this holds
  // by construction).
  void push(std::int32_t id, std::int64_t arrival_ns) {
    (void)push(id, arrival_ns, kNoDeadline, arrival_ns);
  }

  // Deadline-aware admission at virtual time `now_ns`.  Returns false —
  // and counts a shed — when `deadline_ns` has passed, or when the window
  // is non-empty and even an immediate dispatch would finish late (now +
  // service estimate past the deadline); the caller reports the rejection
  // instead of burying it.
  bool push(std::int32_t id, std::int64_t arrival_ns, std::int64_t deadline_ns,
            std::int64_t now_ns) {
    const std::int64_t horizon = pending() == 0 ? 0 : service_est_ns_;
    if (deadline_ns != kNoDeadline && now_ns + horizon > deadline_ns) {
      ++shed_;
      return false;
    }
    ids_.push_back(id);
    arrival_.push_back(arrival_ns);
    deadline_.push_back(deadline_ns);
    return true;
  }

  std::size_t pending() const { return ids_.size() - next_; }
  // Total slots held (pending window plus not-yet-compacted consumed
  // prefix) — the memory-bound observable: buffered() - pending() never
  // exceeds max(kCompactThreshold, pending()).
  std::size_t buffered() const { return ids_.size(); }
  // Queries rejected at admission because their deadline was unmeetable.
  std::size_t shed() const { return shed_; }

  // Moves up to max_batch oldest pending queries into `out` (appending).
  // Returns false (and appends nothing) when nothing is pending.
  bool pop(Batch& out) {
    const std::size_t n = std::min(pending(), policy_.max_batch);
    if (n == 0) return false;
    const auto b = static_cast<std::ptrdiff_t>(next_);
    const auto e = static_cast<std::ptrdiff_t>(next_ + n);
    out.ids.insert(out.ids.end(), ids_.begin() + b, ids_.begin() + e);
    out.arrival_ns.insert(out.arrival_ns.end(), arrival_.begin() + b, arrival_.begin() + e);
    out.deadline_ns.insert(out.deadline_ns.end(), deadline_.begin() + b,
                           deadline_.begin() + e);
    next_ += n;
    if (next_ == ids_.size()) {
      ids_.clear();
      arrival_.clear();
      deadline_.clear();
      next_ = 0;
    } else if (next_ >= kCompactThreshold && next_ >= ids_.size() - next_) {
      // A workload that always keeps >= 1 query pending never hits the
      // fully-drained clear above, so the consumed prefix must be erased
      // eagerly or the arrays grow without bound.  Compacting only once the
      // prefix reaches kCompactThreshold AND at least the pending count
      // keeps the erase amortized O(1) per consumed query.
      const auto cut = static_cast<std::ptrdiff_t>(next_);
      ids_.erase(ids_.begin(), ids_.begin() + cut);
      arrival_.erase(arrival_.begin(), arrival_.begin() + cut);
      deadline_.erase(deadline_.begin(), deadline_.begin() + cut);
      next_ = 0;
    }
    return true;
  }

  // Earliest-deadline-first key for arbitration *across* kernels: the
  // tightest effective deadline among the queries the next pop() would
  // take, where a no-deadline query is due at arrival + budget_ns.
  // kNoDeadline when empty.
  std::int64_t urgency_ns() const {
    const std::size_t n = std::min(pending(), policy_.max_batch);
    std::int64_t u = kNoDeadline;
    for (std::size_t i = next_; i < next_ + n; ++i) {
      const std::int64_t eff =
          deadline_[i] != kNoDeadline ? deadline_[i] : arrival_[i] + policy_.budget_ns;
      u = std::min(u, eff);
    }
    return u;
  }

private:
  BatchPolicy policy_;
  std::int64_t service_est_ns_ = 0;
  std::size_t shed_ = 0;
  // Pending queries live in [next_, ids_.size()) of these parallel arrays;
  // the consumed prefix is compacted on full drain or at kCompactThreshold.
  std::vector<std::int32_t> ids_;
  std::vector<std::int64_t> arrival_;
  std::vector<std::int64_t> deadline_;
  std::size_t next_ = 0;
};

}  // namespace tb::serve
