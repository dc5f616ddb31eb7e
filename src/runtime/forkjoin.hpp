// Child-stealing fork-join pool — the Cilk-runtime substitute (DESIGN.md §3).
//
// Spawn pushes a stack-resident job onto the spawning worker's Chase–Lev
// deque; sync pops the worker's own deque (running whatever comes off it)
// and steals from random victims while any of its children are outstanding.
// This preserves the properties the paper's schedulers rely on: LIFO local
// execution, steal-from-the-top (shallowest, largest work first), randomized
// victim selection, and a way to detect whether a particular spawn was
// stolen (used by the simplified-restart merge-elision optimization, §6).
//
// Lifetime protocol: a job object lives in its spawner's frame, and the
// spawner never leaves that frame before the job is Done, so thieves always
// dereference live memory.
//
// Completion protocol: a job completes with a release store of Done.  The
// only thread that waits for a pushed job is its spawner, and it polls in
// sync() while helping, so sync() must never block.  The one job a thread
// sleeps on is run()'s root (submit_root), and only it also notifies
// (ForkJoinPool::RootJob).
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/cacheline.hpp"
#include "runtime/chase_lev_deque.hpp"
#include "runtime/xoshiro.hpp"

namespace tb::rt {

enum class JobState : std::uint8_t { Pending = 0, Executing = 1, Done = 2 };

// Type-erased unit of work.  `run_fn` performs the work AND the state
// transition to Done (or self-deletes for detached jobs).
struct JobBase {
  using RunFn = void (*)(JobBase*);

  RunFn run_fn = nullptr;
  std::atomic<std::uint8_t> state{static_cast<std::uint8_t>(JobState::Pending)};

  bool try_acquire() {
    std::uint8_t expected = static_cast<std::uint8_t>(JobState::Pending);
    return state.compare_exchange_strong(expected,
                                         static_cast<std::uint8_t>(JobState::Executing),
                                         std::memory_order_acq_rel);
  }
  // The release store alone (see the completion protocol above): a
  // notify_all would cost every job a seq_cst read-modify-write on the
  // standard library's shared atomic-wait table, plus a futex wake whenever
  // the job's address hashes to the slot a run() caller sleeps on.
  void finish() {
    state.store(static_cast<std::uint8_t>(JobState::Done), std::memory_order_release);
  }
  bool done() const {
    return state.load(std::memory_order_acquire) ==
           static_cast<std::uint8_t>(JobState::Done);
  }
};

// Structured (stack-resident) spawn.  F is a void() callable.
template <class F>
struct SpawnJob : JobBase {
  explicit SpawnJob(F f) : fn(std::move(f)) {
    run_fn = [](JobBase* base) {
      auto* self = static_cast<SpawnJob*>(base);
      self->fn();
      self->finish();
    };
  }
  F fn;
};

// Completion counter for unstructured (fire-and-forget) spawn waves.
class WaitGroup {
public:
  void add(std::int64_t k = 1) { pending_.fetch_add(k, std::memory_order_relaxed); }
  void done() { pending_.fetch_sub(1, std::memory_order_acq_rel); }
  bool idle() const { return pending_.load(std::memory_order_acquire) == 0; }

private:
  std::atomic<std::int64_t> pending_{0};
};

template <class F>
struct DetachedJob : JobBase {
  DetachedJob(F f, WaitGroup* group) : fn(std::move(f)), wg(group) {
    run_fn = [](JobBase* base) {
      auto* self = static_cast<DetachedJob*>(base);
      self->fn();
      WaitGroup* g = self->wg;
      delete self;
      g->done();
    };
  }
  F fn;
  WaitGroup* wg;
};

class ForkJoinPool {
public:
  explicit ForkJoinPool(int workers)
      : workers_(static_cast<std::size_t>(workers > 0 ? workers : 1)) {
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      workers_[i] = std::make_unique<Worker>(static_cast<int>(i));
    }
    threads_.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      threads_.emplace_back([this, i] { worker_loop(static_cast<int>(i)); });
    }
  }

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  ~ForkJoinPool() {
    stop_.store(true, std::memory_order_release);
    // The empty critical section closes the race with a worker that checked
    // the park predicate but has not yet blocked: we cannot acquire mu_
    // between its predicate check and its wait, so our notify always lands.
    { std::lock_guard lock(mu_); }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Thread-local identity. -1 on threads that are not workers of any pool.
  static int worker_id() { return tls_.id; }
  static ForkJoinPool* current() { return tls_.pool; }

  // ---- external entry -------------------------------------------------------
  // Runs `f` as a root task on the pool and blocks until it completes.
  //
  // Reentrancy: called from one of THIS pool's workers, `f` executes inline
  // — the calling worker already participates in the pool, and routing the
  // job through the injector would deadlock a pool whose every worker is
  // blocked inside such a call (silently so in Release before this guard: a
  // 1-worker pool hung forever).  Called from a worker of a DIFFERENT pool
  // it throws std::logic_error: `f` would spawn onto the wrong pool's
  // deques, so there is no safe inline execution to fall back to.
  template <class F>
  std::invoke_result_t<F&> run(F&& f) {
    if (tls_.pool == this) return std::invoke(f);
    if (tls_.pool != nullptr) {
      throw std::logic_error("ForkJoinPool::run: called from a worker of a different pool");
    }
    using R = std::invoke_result_t<F&>;
    if constexpr (std::is_void_v<R>) {
      RootJob job{[&f] { std::invoke(f); }};
      submit_root(job);
      return;
    } else {
      std::optional<R> result;
      RootJob job{[&f, &result] { result.emplace(std::invoke(f)); }};
      submit_root(job);
      return std::move(*result);
    }
  }

  // ---- worker-side task API --------------------------------------------------
  void push(JobBase& job) {
    assert(tls_.pool == this);
    workers_[static_cast<std::size_t>(tls_.id)]->deque.push_bottom(&job);
  }

  template <class F>
  void spawn_detached(F&& f, WaitGroup& wg) {
    wg.add();
    // detached_live_ keeps the park predicate true until the job has RUN —
    // detached jobs can outlive the root that spawned them, and a worker
    // parked on an "no active roots" signal alone would never steal them.
    detached_live_.fetch_add(1);  // seq_cst: pairs with the sleepers_ handshake
    auto body = [this, fn = std::decay_t<F>(std::forward<F>(f))]() mutable {
      fn();
      detached_live_.fetch_sub(1);
    };
    auto* job = new DetachedJob<decltype(body)>(std::move(body), &wg);
    workers_[static_cast<std::size_t>(tls_.id)]->deque.push_bottom(job);
    wake_sleepers();
  }

  // Pops the calling worker's own deque.  Exposed so schedulers can run
  // their own elision-aware sync loops (see core/par_restart.hpp).
  JobBase* pop_bottom() {
    return workers_[static_cast<std::size_t>(tls_.id)]->deque.pop_bottom();
  }

  // True when the calling worker's own deque holds no stealable work — the
  // lazy-splitting signal of the hybrid executor (runtime/hybrid.hpp): an
  // empty local deque means a hungry thief would find nothing here.
  bool local_queue_empty() const {
    assert(tls_.pool == this);
    return workers_[static_cast<std::size_t>(tls_.id)]->deque.empty_approx();
  }

  // Runs a job taken from a deque or the injector.  Both queues hand each
  // entry to exactly one taker (the injector pops under its lock; the
  // Chase–Lev steal/pop protocol guarantees single ownership), so the
  // acquire cannot lose to a legitimate concurrent taker.  try_acquire is
  // defense for the enqueue-at-most-once invariant itself: a job object
  // accidentally enqueued twice runs once instead of twice.
  void execute(JobBase* job) {
    if (job->try_acquire()) job->run_fn(job);
  }

  // Wait for one structured child, helping with any available work.  It
  // polls: a pushed job completes without a notify.
  void sync(JobBase& job) {
    while (!job.done()) {
      if (!help_once()) relax();
    }
  }

  // Wait for a wave of detached jobs.
  void wait(WaitGroup& wg) {
    while (!wg.idle()) {
      if (!help_once()) relax();
    }
  }

  // Try to find and run one job (own deque, then random steals, then the
  // injector).  Returns false when no work was found.
  bool help_once() {
    Worker& self = *workers_[static_cast<std::size_t>(tls_.id)];
    if (JobBase* job = self.deque.pop_bottom()) {
      execute(job);
      return true;
    }
    if (JobBase* job = try_steal(self)) {
      execute(job);
      return true;
    }
    if (JobBase* job = injector_pop()) {
      execute(job);
      return true;
    }
    return false;
  }

  // ---- instrumentation -------------------------------------------------------
  std::uint64_t total_steals() const {
    std::uint64_t n = 0;
    for (const auto& w : workers_) n += w->steals.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t total_steal_attempts() const {
    std::uint64_t n = 0;
    for (const auto& w : workers_) n += w->steal_attempts.load(std::memory_order_relaxed);
    return n;
  }
  // Workers currently parked on the idle condition variable.  Exact only
  // while the pool is externally quiescent; used by the idle-CPU regression
  // tests and as serving-layer telemetry.
  int parked_workers() const { return sleepers_.load(); }

private:
  struct Worker {
    explicit Worker(int worker_id) : id(worker_id), rng(0x9e3779b9u * (worker_id + 1)) {}
    int id;
    ChaseLevDeque<JobBase> deque;
    Xoshiro256 rng;
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> steal_attempts{0};
  };

  // run()'s root job.  Its submitter sleeps in atomic::wait on the state
  // (submit_root), so unlike a pushed job it notifies on completion.
  template <class F>
  struct RootJob : JobBase {
    explicit RootJob(F f) : fn(std::move(f)) {
      run_fn = [](JobBase* base) {
        auto* self = static_cast<RootJob*>(base);
        self->fn();
        self->finish();
        self->state.notify_all();
      };
    }
    F fn;
  };

  struct Tls {
    ForkJoinPool* pool;
    int id;
    constexpr Tls() : pool(nullptr), id(-1) {}
    constexpr Tls(ForkJoinPool* p, int i) : pool(p), id(i) {}
  };
  inline static thread_local Tls tls_;

  // True when the pool may hold runnable work: an external root is in
  // flight, or detached jobs are live (they can outlive their root).  The
  // default seq_cst loads pair with the seq_cst increments in submit_root /
  // spawn_detached and the sleepers_ handshake: either the waker observes
  // the sleeper (and notifies), or the sleeper observes the new work.
  bool maybe_work() const { return active_roots_.load() > 0 || detached_live_.load() > 0; }

  // Edge-triggered idle parking: no timed poll, so an idle pool burns no
  // CPU and the first job after a quiet period is dispatched at
  // condition-variable wake latency instead of a poll-interval stall (the
  // old 5 ms wait_for put a floor under serving-layer tail latency).
  void worker_loop(int id) {
    tls_ = {this, id};
    while (!stop_.load(std::memory_order_acquire)) {
      if (maybe_work()) {
        if (!help_once()) relax();
        continue;
      }
      std::unique_lock lock(mu_);
      sleepers_.fetch_add(1);
      cv_.wait(lock,
               [this] { return stop_.load(std::memory_order_acquire) || maybe_work(); });
      sleepers_.fetch_sub(1);
    }
    tls_ = Tls{};
  }

  // Wakes parked workers after new detached work was published.  Callers
  // must have already made the work visible through a seq_cst store; if the
  // sleepers_ load here misses a worker that is about to park, that worker's
  // predicate re-check (which follows its own seq_cst sleepers_ increment)
  // is guaranteed to see the published work instead.
  void wake_sleepers() {
    if (sleepers_.load() == 0) return;
    { std::lock_guard lock(mu_); }
    cv_.notify_all();
  }

  void submit_root(JobBase& job) {
    // Publish before taking mu_: a worker parks only after re-checking the
    // predicate under mu_, so it either sees this increment or parks before
    // we acquire the lock — in which case the notify below wakes it.
    active_roots_.fetch_add(1);
    {
      std::lock_guard lock(mu_);
      injector_.push_back(&job);
    }
    cv_.notify_all();
    job.state.wait(static_cast<std::uint8_t>(JobState::Pending));
    while (!job.done()) {
      job.state.wait(static_cast<std::uint8_t>(JobState::Executing));
    }
    active_roots_.fetch_sub(1, std::memory_order_acq_rel);
  }

  JobBase* injector_pop() {
    std::lock_guard lock(mu_);
    if (injector_.empty()) return nullptr;
    JobBase* job = injector_.front();
    injector_.pop_front();
    return job;
  }

  JobBase* try_steal(Worker& self) {
    const int n = num_workers();
    if (n == 1) return nullptr;
    // One randomized sweep over the other workers.
    const std::uint32_t start = self.rng.below(static_cast<std::uint32_t>(n));
    for (int k = 0; k < n; ++k) {
      const int victim = static_cast<int>((start + static_cast<std::uint32_t>(k)) %
                                          static_cast<std::uint32_t>(n));
      if (victim == self.id) continue;
      self.steal_attempts.fetch_add(1, std::memory_order_relaxed);
      if (JobBase* job = workers_[static_cast<std::size_t>(victim)]->deque.steal_top()) {
        self.steals.fetch_add(1, std::memory_order_relaxed);
        return job;
      }
    }
    return nullptr;
  }

  static void relax() { std::this_thread::yield(); }

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<int> active_roots_{0};
  std::atomic<std::int64_t> detached_live_{0};  // spawned minus executed detached jobs
  std::atomic<int> sleepers_{0};                // workers parked on cv_
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<JobBase*> injector_;  // guarded by mu_
};

}  // namespace tb::rt
