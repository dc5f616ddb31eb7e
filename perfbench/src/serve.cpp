// serve: online query serving.  One QueryServer serves knn, pointcorr and
// minmaxdist lanes over a seeded uniform-cube kd-tree on one pool, with one
// batching configuration (256-query batches, 1 ms max-wait) for both phases:
//
//   open     a seeded Poisson mix at a fixed light rate: batches are formed
//            by the max-wait timer and each one wakes a parked pool.  Gives
//            the latency metrics (scheduled arrival -> completion).
//   backlog  every id of every lane submitted as fast as the queue takes
//            them, so batches are full and run back to back.  Gives the
//            capacity metric.
//
// The run alternates open windows with runs of backlog rounds.  Each lane
// serves an id at most once per window or round; the lane states are
// rebuilt in between, so every served answer is checked against the per-id
// *_sequential_one oracles computed in set-up.  The arrival generator is the
// benchmark's own: single-thread, seeded, busy-polling the clock up to each
// arrival (a sleep or a yield makes it run milliseconds late on a loaded
// host) and stamping each query with its scheduled arrival time.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "bench.hpp"
#include "offline.hpp"
#include "oracles.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/hybrid.hpp"
#include "runtime/xoshiro.hpp"
#include "serve/pool_runner.hpp"
#include "serve/server.hpp"
#include "simd/dispatch.hpp"
#include "spatial/kdtree.hpp"

namespace pb {
namespace {

namespace apps = tb::apps;
namespace spatial = tb::spatial;

constexpr int kLanes = 3;  // knn, pointcorr, minmaxdist
constexpr const char* kLaneNames[kLanes] = {"knn", "pointcorr", "minmaxdist"};
constexpr int kK = 4;
constexpr float kRad2 = 0.01f;
// Every full batch wakes the parked pool.  With 64-query batches that is
// 3000+ wake-ups a second in the backlog phase, and capacity fell 3.3x in
// a burst of hypervisor steal; 256-query batches cut the wake-ups 4x.
constexpr std::size_t kMaxBatch = 256;

// Load shape.  The open rate is a constant far below the knee of the
// open-loop latency curve on a 4-vCPU host; it is never derived at run time.
struct Shape {
  std::size_t points;  // ids per lane
  double open_qps;     // offered rate of an open window, all lanes
  double window_s;     // length of one open window
  int rounds;          // backlog rounds after each window
  double cycle_s;      // nominal length of one window and its rounds
};
constexpr Shape kFull{8192, 3000.0, 1.0, 3, 1.4};
constexpr Shape kSmoke{512, 2000.0, 0.25, 1, 0.4};

// What the lane wrapper records for one runner call.
struct BatchRec {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t count;
  std::uint64_t pc_delta;  // pointcorr: in-radius count the batch added
};

// Per-lane record of the dispatched queries, written by the admission
// thread inside the wrapped runner and read by the main thread only after
// `served` shows the lane quiescent.  Preallocated; never grows.
struct LaneLog {
  // The current window or round, cleared once it is checked.
  std::vector<std::int32_t> ids;
  std::vector<BatchRec> batches;
  // Traced mode: every query of the run in dispatch order (the order of
  // QueryServer::latencies_s), for the latency reconciliation.
  std::vector<std::int64_t> all_arrival_ns, all_end_ns;
  std::atomic<std::uint64_t> served{0};  // cumulative
  bool overflow = false;

  // Per-id state of the current window or round, written by the generator
  // before the submit that publishes it.
  std::vector<std::int64_t> id_arrival_ns;
  std::vector<std::int64_t> id_seq;  // query sequence number; -1 = no spans
};

// One window or round: its wall interval and, per lane, its range of the
// dispatch order.
struct Segment {
  bool open;
  bool traced;
  std::int64_t begin_ns, end_ns;
  std::uint64_t first[kLanes], last[kLanes];
  std::uint64_t queries;
  std::uint64_t refused;  // open windows: queries the queue refused
  double capacity;  // backlog rounds: completions / (last end - first start)
};

class Serve {
public:
  Serve(const Args& args, SpanLog* setup_log, int rep)
      : args_(args),
        shape_(args.smoke ? kSmoke : kFull),
        cycles_(std::max(1, static_cast<int>(args.seconds / shape_.cycle_s))),
        admit_log_(args.trace ? 1u << 19 : 0) {
    const std::size_t n = shape_.points;
    {
      ScopedSpan span(setup_log, "spatial.build", rep, -1);
      points_ = spatial::Bodies::uniform_cube(n, tb::rt::splitmix64(args.seed ^ 0x7376));
      tree_ = spatial::KdTree::build(points_, 16);
    }
    compute_oracles();
    if (args.corrupt_oracle) knn_oracle_[0] ^= 1;
    late_us_.reserve(static_cast<std::size_t>(cycles_ * shape_.window_s * shape_.open_qps * 1.5) +
                     1024);

    pool_ = std::make_unique<tb::rt::ForkJoinPool>(pool_workers(args));
    parts_.resize(static_cast<std::size_t>(tb::rt::hybrid_slots(*pool_)));
    reset_states();

    // Warm-up window and round, then every cycle's window and rounds.
    const auto whole_run = static_cast<std::size_t>((cycles_ + 1) * (shape_.rounds + 1)) * n;
    for (LaneLog& log : logs_) {
      log.ids.reserve(n);
      log.batches.reserve(n);
      if (args.trace) {
        log.all_arrival_ns.reserve(whole_run);
        log.all_end_ns.reserve(whole_run);
      }
      log.id_arrival_ns.assign(n, 0);
      log.id_seq.assign(n, -1);
    }

    tb::serve::KernelOptions kopt;
    kopt.policy = {kMaxBatch, 1'000'000};
    tb::rt::HybridOptions hopt;
    hopt.t_reexp = 4 * static_cast<std::size_t>(tb::simd::kernels().width);
    server_ = std::make_unique<tb::serve::QueryServer>(tb::serve::ServerOptions{});
    server_->register_kernel(kLaneNames[0], kopt,
                             probe(tb::serve::knn_pool_runner(*pool_, hopt, knn_prog_), 0));
    server_->register_kernel(
        kLaneNames[1], kopt,
        probe(tb::serve::pointcorr_pool_runner(*pool_, hopt, pc_prog_, parts_.data()), 1));
    server_->register_kernel(kLaneNames[2], kopt,
                             probe(tb::serve::minmaxdist_pool_runner(*pool_, hopt, mm_prog_), 2));
    server_->start();
  }

  ~Serve() { server_->stop(); }
  Serve(const Serve&) = delete;
  Serve& operator=(const Serve&) = delete;

  // Set-up's warm-up: a short open window and one full backlog round,
  // both checked.
  void warm_up() {
    open_window(-1, false, 0.2 * shape_.window_s);
    backlog_round(-1);
    if (wrong_ > 0) throw RunFailure("wrong answer in the warm-up");
    segments_.clear();
    late_us_.clear();
    attempted_ = refused_ = 0;
  }

  // One open window: a seeded Poisson schedule at the fixed rate over the
  // three lanes.  Queries of a traced window get spans.  window < 0 is the
  // set-up warm-up.
  void open_window(int window, bool traced, double seconds);
  // One backlog round: every id of every lane, submitted as fast as the
  // queue accepts them.  round < 0 is the set-up warm-up.
  void backlog_round(int round);

  const Shape& shape() const { return shape_; }
  int cycles() const { return cycles_; }
  tb::rt::ForkJoinPool& pool() { return *pool_; }
  tb::serve::QueryServer& server() { return *server_; }
  const std::vector<Segment>& segments() const { return segments_; }
  const LaneLog& lane_log(int l) const { return logs_[l]; }
  const SpanLog& admit_log() const { return admit_log_; }
  void set_gen_log(SpanLog* log) { gen_log_ = log; }
  const std::vector<double>& late_us() const { return late_us_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t refused() const { return refused_; }
  std::uint64_t wrong() const { return wrong_; }

  // Single-thread baseline: the single-core blocked engines of the active
  // table over every id, on this thread.  Returns ms; throws on a wrong
  // answer.
  double engine_ms() {
    const auto& table = tb::simd::kernels();
    const std::size_t t_reexp = 4 * static_cast<std::size_t>(table.width);
    reset_states();
    const std::int64_t t0 = now_ns();
    table.blocked_knn(knn_prog_, t_reexp, nullptr);
    const std::uint64_t pc = table.blocked_pointcorr(pc_prog_, t_reexp, nullptr);
    table.blocked_minmaxdist(mm_prog_, t_reexp, nullptr);
    const double ms = ms_since(t0);
    std::uint64_t pc_want = 0;
    for (const std::uint64_t v : pc_oracle_) pc_want += v;
    std::uint64_t wrong = pc != pc_want ? 1 : 0;
    for (std::size_t q = 0; q < shape_.points; ++q) wrong += knn_wrong(q) + mm_wrong(q);
    if (wrong > 0) throw RunFailure("wrong answer from the single-core blocked engines");
    return ms;
  }

private:
  tb::serve::RunnerFactory probe(tb::serve::RunnerFactory inner, int lane) {
    LaneLog* log = &logs_[lane];
    SpanLog* spans = args_.trace ? &admit_log_ : nullptr;
    const std::vector<tb::rt::Padded<std::uint64_t>>* parts = lane == 1 ? &parts_ : nullptr;
    return [inner, log, spans, parts](const tb::simd::KernelTable& t) -> tb::serve::BatchRunner {
      tb::serve::BatchRunner run = inner(t);
      return [run, log, spans, parts](const std::int32_t* ids, std::size_t count) {
        const auto partial_sum = [parts] {
          std::uint64_t s = 0;
          if (parts != nullptr) {
            for (const auto& p : *parts) s += p.value;
          }
          return s;
        };
        const std::int64_t t0 = now_ns();
        const std::uint64_t before = partial_sum();
        run(ids, count);
        const std::uint64_t delta = partial_sum() - before;
        const std::int64_t t1 = now_ns();
        if (log->ids.size() + count > log->ids.capacity() ||
            log->batches.size() == log->batches.capacity() ||
            (spans != nullptr &&
             log->all_end_ns.size() + count > log->all_end_ns.capacity())) {
          log->overflow = true;
        } else {
          log->ids.insert(log->ids.end(), ids, ids + count);
          log->batches.push_back(BatchRec{t0, t1, static_cast<std::uint32_t>(count), delta});
          if (spans != nullptr) {
            for (std::size_t i = 0; i < count; ++i) {
              log->all_arrival_ns.push_back(log->id_arrival_ns[static_cast<std::size_t>(ids[i])]);
              log->all_end_ns.push_back(t1);
            }
          }
        }
        if (spans != nullptr) {
          spans->add("serve.dispatch", ids[0], -1, t0, t1);
          for (std::size_t i = 0; i < count; ++i) {
            const auto id = static_cast<std::size_t>(ids[i]);
            const std::int64_t seq = log->id_seq[id];
            if (seq < 0) continue;
            const std::int64_t arrival = log->id_arrival_ns[id];
            const std::int32_t q = spans->add("serve.query", seq, -1, arrival, t1);
            spans->add("serve.wait", seq, q, arrival, t0);
            spans->add("serve.service", seq, q, t0, t1);
          }
        }
        log->served.fetch_add(count, std::memory_order_release);
      };
    };
  }

  void compute_oracles() {
    const std::size_t n = shape_.points;
    apps::KnnState knn_state(n, kK);
    const apps::KnnProgram knn{&points_, &tree_, &knn_state};
    apps::MinmaxDistState mm_state(n);
    const apps::MinmaxDistProgram mm{&points_, &tree_, &mm_state};
    pc_prog_ = apps::PointCorrProgram{&points_, &tree_, kRad2};
    knn_oracle_.resize(n * kK);
    mm_oracle_.resize(n);
    pc_oracle_.resize(n);
    for (std::size_t q = 0; q < n; ++q) {
      const auto id = static_cast<std::int32_t>(q);
      apps::knn_sequential_one(knn, {id, tree_.root});
      const auto d = knn_state.distances(id);
      for (std::size_t j = 0; j < kK; ++j) knn_oracle_[q * kK + j] = knn_bits(d[j]);
      apps::minmaxdist_sequential_one(mm, {id, tree_.root});
      mm_oracle_[q] = mm_bits(mm_state, id);
      pc_oracle_[q] = apps::pointcorr_sequential_one(pc_prog_, {id, tree_.root});
    }
  }

  static std::uint64_t mm_bits(const apps::MinmaxDistState& s, std::int32_t id) {
    return static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(s.min_bound(id))) |
           (static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(s.max_bound(id))) << 32);
  }
  std::uint64_t knn_wrong(std::size_t q) const {
    const auto d = knn_state_->distances(static_cast<std::int32_t>(q));
    for (int j = 0; j < kK; ++j) {
      if (knn_bits(d[j]) != knn_oracle_[q * kK + static_cast<std::size_t>(j)]) return 1;
    }
    return 0;
  }
  std::uint64_t mm_wrong(std::size_t q) const {
    return mm_bits(*mm_state_, static_cast<std::int32_t>(q)) != mm_oracle_[q] ? 1 : 0;
  }

  // Fresh lane states; called only while every lane is quiescent.
  void reset_states() {
    knn_state_ = std::make_unique<apps::KnnState>(shape_.points, kK);
    knn_prog_ = apps::KnnProgram{&points_, &tree_, knn_state_.get()};
    mm_state_ = std::make_unique<apps::MinmaxDistState>(shape_.points);
    mm_prog_ = apps::MinmaxDistProgram{&points_, &tree_, mm_state_.get()};
  }

  void begin_segment(Segment& seg, bool open, bool traced) {
    seg = Segment{};
    seg.open = open;
    seg.traced = traced;
    for (int l = 0; l < kLanes; ++l) {
      seg.first[l] = logs_[l].served.load(std::memory_order_acquire);
      std::fill(logs_[l].id_seq.begin(), logs_[l].id_seq.end(), -1);
    }
    seg.begin_ns = now_ns();
  }

  // Waits until every accepted query has been served, checks every answer
  // served in the segment, and rebuilds the lane states.
  void end_segment(Segment& seg) {
    const std::int64_t give_up = now_ns() + 60'000'000'000;
    for (;;) {
      std::uint64_t served = 0;
      for (const LaneLog& log : logs_) served += log.served.load(std::memory_order_acquire);
      if (served >= accepted_) break;
      if (now_ns() > give_up) throw RunFailure("server did not drain its queue");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    seg.end_ns = now_ns();

    std::int64_t first = INT64_MAX, last = INT64_MIN;
    for (int lane = 0; lane < kLanes; ++lane) {
      LaneLog& log = logs_[lane];
      if (log.overflow) throw RunFailure("lane log overflow");
      seg.last[lane] = log.served.load(std::memory_order_acquire);
      seg.queries += seg.last[lane] - seg.first[lane];
      std::size_t i = 0;
      for (const BatchRec& b : log.batches) {
        first = std::min(first, b.start_ns);
        last = std::max(last, b.end_ns);
        std::uint64_t pc_want = 0;
        for (const std::size_t end = i + b.count; i < end; ++i) {
          const auto q = static_cast<std::size_t>(log.ids[i]);
          if (lane == 0) {
            wrong_ += knn_wrong(q);
          } else if (lane == 1) {
            pc_want += pc_oracle_[q];
          } else {
            wrong_ += mm_wrong(q);
          }
        }
        if (lane == 1 && b.pc_delta != pc_want) wrong_ += b.count;
      }
      log.ids.clear();
      log.batches.clear();
    }
    seg.capacity =
        last > first ? static_cast<double>(seg.queries) * 1e9 / static_cast<double>(last - first)
                     : 0.0;
    segments_.push_back(seg);
    reset_states();
  }

  const Args args_;
  const Shape shape_;
  const int cycles_;

  spatial::Bodies points_;
  spatial::KdTree tree_;
  std::vector<std::uint64_t> knn_oracle_, mm_oracle_, pc_oracle_;
  std::unique_ptr<apps::KnnState> knn_state_;
  std::unique_ptr<apps::MinmaxDistState> mm_state_;
  apps::KnnProgram knn_prog_;
  apps::MinmaxDistProgram mm_prog_;
  apps::PointCorrProgram pc_prog_;
  std::vector<tb::rt::Padded<std::uint64_t>> parts_;

  LaneLog logs_[kLanes];
  SpanLog admit_log_;  // admission thread (lane wrappers)
  std::vector<Segment> segments_;

  std::unique_ptr<tb::rt::ForkJoinPool> pool_;
  std::unique_ptr<tb::serve::QueryServer> server_;

  // Generator state (main thread).
  std::uint64_t accepted_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t wrong_ = 0;
  std::int64_t seq_ = 0;
  std::vector<double> late_us_;
  SpanLog* gen_log_ = nullptr;
};

void Serve::open_window(int window, bool traced, double seconds) {
  const std::size_t n = shape_.points;
  tb::rt::Xoshiro256 rng(tb::rt::splitmix64(args_.seed ^ (0x6f70656eull + 977u * window)));
  // A fresh id permutation per lane: each id at most once per window.
  std::vector<std::int32_t> perm[kLanes];
  std::size_t pos[kLanes] = {};
  for (auto& p : perm) {
    p.resize(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::int32_t>(i);
    std::shuffle(p.begin(), p.end(), rng);
  }
  Segment seg;
  begin_segment(seg, true, traced);
  const std::uint64_t refused_before = refused_;

  const double gap_ns = 1e9 / shape_.open_qps;
  const std::int64_t start = now_ns() + 1'000'000;
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  double next = static_cast<double>(start);
  for (;;) {
    next += -std::log(1.0 - rng.uniform01()) * gap_ns;
    const auto at = static_cast<std::int64_t>(next);
    if (at >= stop) break;
    const int lane = static_cast<int>(rng.below(kLanes));
    if (pos[lane] == n) throw RunFailure("open window exhausted a lane's id space");
    const std::int32_t id = perm[lane][pos[lane]++];
    LaneLog& log = logs_[lane];
    log.id_arrival_ns[static_cast<std::size_t>(id)] = at;
    log.id_seq[static_cast<std::size_t>(id)] = traced ? seq_ : -1;

    const std::int64_t t0 = spin_until_ns(at);
    late_us_.push_back(static_cast<double>(t0 - at) * 1e-3);
    const bool ok = server_->try_submit(lane, id, at);
    if (traced && gen_log_ != nullptr) {
      gen_log_->add("gen.late", seq_, -1, at, t0);
      gen_log_->add("serve.submit", seq_, -1, t0, now_ns());
    }
    ++seq_;
    ++attempted_;
    if (ok) {
      ++accepted_;
    } else {
      ++refused_;
    }
  }
  seg.refused = refused_ - refused_before;
  end_segment(seg);
}

void Serve::backlog_round(int round) {
  const std::size_t n = shape_.points;
  tb::rt::Xoshiro256 rng(tb::rt::splitmix64(args_.seed ^ (0x626c6f67ull + 977u * (round + 1))));
  std::vector<std::pair<int, std::int32_t>> order;
  order.reserve(kLanes * n);
  for (int lane = 0; lane < kLanes; ++lane) {
    for (std::size_t i = 0; i < n; ++i) order.emplace_back(lane, static_cast<std::int32_t>(i));
  }
  std::shuffle(order.begin(), order.end(), rng);

  Segment seg;
  begin_segment(seg, false, false);
  for (const auto& [lane, id] : order) {
    const std::int64_t t = now_ns();
    logs_[lane].id_arrival_ns[static_cast<std::size_t>(id)] = t;
    const bool ok = server_->submit(lane, id, t);
    ++attempted_;
    if (ok) {
      ++accepted_;
    } else {
      ++refused_;
    }
  }
  end_segment(seg);
}

// Dispatch spans whose start falls inside [begin, end), sorted by start.
std::vector<std::pair<std::int64_t, std::int64_t>> dispatches(const SpanLog& log,
                                                              std::int64_t begin,
                                                              std::int64_t end) {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  for (const Span& s : log.spans()) {
    if (std::string_view(s.name) == "serve.dispatch" && s.start_ns >= begin && s.start_ns < end) {
      out.emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void run_serve(const Args& args, Outcome& out) {
  const std::int64_t process_start = now_ns();
  ThreadBudget budget;
  SpanLog setup_log(args.trace ? 64 : 0);
  SpanLog gen_log(args.trace ? 1u << 18 : 0);

  std::unique_ptr<Serve> s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps(args); ++rep) {
    const std::int64_t t0 = rep == 0 ? process_start : now_ns();
    s.reset();
    s = std::make_unique<Serve>(args, args.trace ? &setup_log : nullptr, rep);
    budget.check("set-up");
    s->warm_up();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  Serve& sv = *s;
  sv.set_gen_log(args.trace ? &gen_log : nullptr);

  wait_parked(sv.pool());
  const CpuTicks ticks0 = read_cpu_ticks();
  const double ref_before = host_ref_ms(5);
  budget.check("serving");

  std::uint64_t steals_backlog = 0, attempts_backlog = 0;
  for (int c = 0; c < sv.cycles(); ++c) {
    sv.open_window(c, args.trace && c % 2 == 0, sv.shape().window_s);
    budget.check("open window");
    for (int r = 0; r < sv.shape().rounds; ++r) {
      const std::uint64_t s0 = sv.pool().total_steals();
      const std::uint64_t a0 = sv.pool().total_steal_attempts();
      sv.backlog_round(c * sv.shape().rounds + r);
      steals_backlog += sv.pool().total_steals() - s0;
      attempts_backlog += sv.pool().total_steal_attempts() - a0;
    }
    budget.check("backlog rounds");
  }
  tb::serve::QueryServer& server = sv.server();
  server.stop();

  wait_parked(sv.pool());
  const double ref_after = host_ref_ms(5);
  const double steal = steal_frac(ticks0, read_cpu_ticks());

  // Accounting: every accepted query is completed, shed or unserved.
  const std::uint64_t shed = server.shed();
  const std::uint64_t unserved = server.unserved_at_stop();
  out.attempted = sv.attempted();
  out.failed = sv.refused() + shed + unserved;
  if (sv.wrong() > 0) {
    throw RunFailure(std::to_string(sv.wrong()) + " served answers differ from the oracles");
  }
  if (server.completed() + shed + unserved != sv.accepted()) {
    throw RunFailure("server accounting does not add up");
  }

  // Open-window latency from the server's own stamps (dispatch order per
  // lane); refused, shed and unserved queries are infinitely late.  Each
  // window gets its own percentiles; the run reports their medians, so a
  // host hiccup that spoils one window does not move the result.
  std::vector<double> p50s, p90s, plain_p90s, traced_ms, plain_ms;
  std::vector<double> capacity;
  std::size_t open_queries = 0, windows_left = 0;
  for (const Segment& seg : sv.segments()) windows_left += seg.open ? 1 : 0;
  for (const Segment& seg : sv.segments()) {
    if (!seg.open) {
      capacity.push_back(seg.capacity);
      continue;
    }
    std::vector<double> window;
    for (int l = 0; l < kLanes; ++l) {
      const auto& lat = server.latencies_s(l);
      for (std::uint64_t j = seg.first[l]; j < seg.last[l]; ++j) window.push_back(lat[j] * 1e3);
    }
    auto& side = seg.traced ? traced_ms : plain_ms;
    side.insert(side.end(), window.begin(), window.end());
    std::uint64_t lost = seg.refused + (--windows_left == 0 ? shed + unserved : 0);
    for (; lost > 0; --lost) window.push_back(INFINITY);
    open_queries += window.size();
    p50s.push_back(percentile(window, 50.0));
    p90s.push_back(percentile(window, 90.0));
    if (!seg.traced) plain_p90s.push_back(p90s.back());
  }

  out.note("host.steal_frac", steal);
  out.note("host.ref_ms_before", ref_before);
  out.note("host.ref_ms_after", ref_after);
  out.note("gen.late_us_p50", percentile(sv.late_us(), 50.0));
  out.note("gen.late_us_p99", percentile(sv.late_us(), 99.0));
  out.note("open_queries", static_cast<double>(open_queries));
  out.note("open_windows", static_cast<double>(p90s.size()));
  out.note("backlog_rounds", static_cast<double>(capacity.size()));
  out.note("window_p90_ms", p90s);
  out.note("setup_s_reps", setup_s);
  out.note("max_threads", static_cast<double>(budget.max_seen()));

  if (!args.trace) {
    out.set("setup_s", median(setup_s), "s");
    out.set("items_per_s", median(capacity), "1/s");
    out.set("latency_ms_p50", median(p50s), "ms");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run: per-layer metrics from the spans ----
  const SpanLog& admit = sv.admit_log();
  if (admit.dropped() > 0 || gen_log.dropped() > 0) throw RunFailure("span buffer overflowed");

  // serve.wait + serve.service must reconcile with the server's latency,
  // query by query (same lane, same dispatch order).
  std::vector<double> residual_us;
  for (int l = 0; l < kLanes; ++l) {
    const LaneLog& log = sv.lane_log(l);
    const auto& lat = server.latencies_s(l);
    if (lat.size() != log.all_end_ns.size()) {
      throw RunFailure("lane log and server latencies disagree on counts");
    }
    for (std::size_t j = 0; j < lat.size(); ++j) {
      const double mine = static_cast<double>(log.all_end_ns[j] - log.all_arrival_ns[j]) * 1e-9;
      residual_us.push_back((lat[j] - mine) * 1e6);
    }
  }
  const double res_min = percentile(residual_us, 0.0);
  const double res_p99 = percentile(residual_us, 99.0);
  out.note("reconcile_residual_us_p99", res_p99);
  if (res_min < -1.0 || res_p99 > 500.0) {
    throw RunFailure("serve.wait + serve.service does not reconcile with the server latency "
                     "(residual min " + std::to_string(res_min) + " us, p99 " +
                     std::to_string(res_p99) + " us)");
  }

  std::vector<double> submit_us = span_ms(gen_log, "serve.submit");
  for (double& v : submit_us) v *= 1e3;
  out.set("serve.submit_us_p99", percentile(submit_us, 99.0), "us");
  const std::vector<double> wait = span_ms(admit, "serve.wait");
  const std::vector<double> service = span_ms(admit, "serve.service");
  out.set("serve.wait_ms_p50", percentile(wait, 50.0), "ms");
  out.set("serve.wait_ms_p90", percentile(wait, 90.0), "ms");
  out.set("serve.service_ms_p50", percentile(service, 50.0), "ms");
  out.set("serve.service_ms_p90", percentile(service, 90.0), "ms");

  // Dispatch spans by phase, through the segments' wall intervals.
  double open_served = 0, open_batches = 0, backlog_served = 0, backlog_batches = 0;
  double busy_ns = 0, wall_ns = 0;
  std::vector<double> gaps_us;
  for (const Segment& seg : sv.segments()) {
    const auto d = dispatches(admit, seg.begin_ns, seg.end_ns);
    if (seg.open) {
      open_served += static_cast<double>(seg.queries);
      open_batches += static_cast<double>(d.size());
      continue;
    }
    backlog_served += static_cast<double>(seg.queries);
    backlog_batches += static_cast<double>(d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      busy_ns += static_cast<double>(d[i].second - d[i].first);
      if (i + 1 < d.size()) {
        gaps_us.push_back(static_cast<double>(d[i + 1].first - d[i].second) * 1e-3);
      }
    }
    if (!d.empty()) wall_ns += static_cast<double>(d.back().second - d.front().first);
  }
  out.set("serve.batch_size_mean_open", open_batches > 0 ? open_served / open_batches : 0.0,
          "count");
  out.set("serve.batch_size_mean_backlog",
          backlog_batches > 0 ? backlog_served / backlog_batches : 0.0, "count");
  out.set("serve.dispatch_busy_frac", wall_ns > 0 ? busy_ns / wall_ns : 0.0, "ratio");
  out.set("serve.gap_us_p50", percentile(gaps_us, 50.0), "us");

  std::vector<double> late = span_ms(gen_log, "gen.late");
  for (double& v : late) v *= 1e3;
  out.set("gen.late_us_p50", percentile(late, 50.0), "us");
  out.set("gen.late_us_p99", percentile(late, 99.0), "us");
  out.set("runtime.steals_per_solve",
          backlog_batches > 0 ? static_cast<double>(steals_backlog) / backlog_batches : 0.0,
          "count");
  out.set("runtime.steal_success",
          attempts_backlog > 0
              ? static_cast<double>(steals_backlog) / static_cast<double>(attempts_backlog)
              : 0.0,
          "ratio");
  out.set("runtime.wake_us", pool_wake_us(sv.pool(), 21), "us");
  out.set("spatial.build_ms", median(span_ms(setup_log, "spatial.build")), "ms");
  std::vector<double> engine;
  for (int rep = 0; rep < 3; ++rep) engine.push_back(sv.engine_ms());
  out.set("lockstep.engine_us_per_query",
          median(engine) * 1e3 / static_cast<double>(kLanes * sv.shape().points), "us");
  out.set("host.steal_frac", steal, "ratio");
  out.set("host.ref_ms", (ref_before + ref_after) / 2.0, "ms");
  out.set("tail.latency_ms_p90", median(plain_p90s), "ms");
  out.set("trace.overhead_pct", (median(traced_ms) / median(plain_ms) - 1.0) * 100.0, "%");
  write_spans(args.trace_out, {&setup_log, &gen_log, &admit});
}

}  // namespace pb
