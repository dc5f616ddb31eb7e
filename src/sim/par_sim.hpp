// Discrete-time simulator of the parallel schedulers (§3.4) on P virtual
// cores with Q-lane SIMD units.
//
// The host for this reproduction has a single physical core, so wall-clock
// multicore scaling cannot be observed directly; this simulator executes
// the same scheduling policies under the §4 cost model — a block of t tasks
// costs ceil(t/Q) time steps, a steal attempt costs `steal_cost` steps
// (§4.3's constant c, default 1) — and reports the makespan.  Speedup
// curves T_sim(1)/T_sim(P) reproduce the *shape* of Figure 5 and validate
// Theorem 4's O(n/QP + k·h) bound.
//
// Three policies:
//   ScalarWS — classic Cilk-style work stealing on individual unit tasks
//              (the paper's "scalar" baseline)
//   Reexp    — blocked re-expansion; steals the top block when out of work
//   Restart  — blocked restart; parks sparse blocks, scans/merges, steals
//              with the §3.4 protocol (bounded BFE regrowth after a steal)
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "core/block.hpp"
#include "core/leveled_deque.hpp"
#include "core/thresholds.hpp"
#include "runtime/xoshiro.hpp"
#include "sim/comp_tree.hpp"
#include "sim/trace.hpp"

namespace tb::sim {

enum class SimPolicy { ScalarWS, Reexp, Restart };

inline const char* to_string(SimPolicy p) {
  switch (p) {
    case SimPolicy::ScalarWS: return "scalar";
    case SimPolicy::Reexp: return "reexp";
    case SimPolicy::Restart: return "restart";
  }
  return "?";
}

struct SimConfig {
  int p = 1;
  int q = 8;
  std::size_t t_dfe = 256;
  std::size_t t_bfe = 256;
  std::size_t t_restart = 32;
  SimPolicy policy = SimPolicy::Restart;
  std::uint64_t seed = 1;
  // §4.3: "the proof can be generalized so that a steal attempt takes c
  // time for any constant c" — the simulated cost of one steal attempt.
  std::uint64_t steal_cost = 1;
  // Opt-in instrumentation (blocked policies only).
  Trace* trace = nullptr;       // event stream (see sim/trace.hpp)
  bool track_space = false;     // record peak resident tasks (Lemma 8)
};

struct SimResult {
  std::uint64_t makespan = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steals = 0;
  std::uint64_t steps_total = 0;
  std::uint64_t steps_complete = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t partial_supersteps = 0;
  std::uint64_t tasks = 0;
  std::uint64_t peak_space_tasks = 0;  // only when SimConfig.track_space

  double utilization() const {
    return steps_total == 0 ? 1.0
                            : static_cast<double>(steps_complete) /
                                  static_cast<double>(steps_total);
  }
};

class ParSimulator {
public:
  ParSimulator(const CompTree& tree, SimConfig cfg) : tree_(tree), cfg_(cfg) {
    cfg_.t_dfe = std::max<std::size_t>(cfg_.t_dfe, static_cast<std::size_t>(cfg_.q));
    cfg_.t_bfe = std::clamp<std::size_t>(cfg_.t_bfe, static_cast<std::size_t>(cfg_.q),
                                         cfg_.t_dfe);
    cfg_.t_restart = std::clamp<std::size_t>(cfg_.t_restart,
                                             static_cast<std::size_t>(cfg_.q), cfg_.t_dfe);
    cfg_.steal_cost = std::max<std::uint64_t>(cfg_.steal_cost, 1);
  }

  // `roots` defaults to the single node 0; multi-root trees (data-parallel
  // outer loops) seed the first core with a block of all roots.
  SimResult run(std::vector<std::int32_t> roots = {0}) {
    max_degree_ = std::max(2, tree_.max_degree());
    if (cfg_.policy == SimPolicy::ScalarWS) return run_scalar(std::move(roots));
    return run_blocked(std::move(roots));
  }

private:
  // The blocked policies park blocks in the task-block schedulers' own
  // leveled deque.  Every park merges, so a level holds at most one block.
  using Blk = core::AosBlock<std::int32_t>;
  using Deque = core::LeveledDeque<Blk>;

  enum class Kind { BFE, DFE };

  struct Core {
    std::uint64_t free_at = 0;
    // Pending block execution, applied when the clock reaches free_at.
    bool exec_pending = false;
    Kind exec_kind = Kind::DFE;
    Blk exec_block;
    // Scheduling state.
    Deque deque;  // parked blocks
    Blk cur;
    bool has_cur = false;
    bool bfe_mode = true;
    bool growing = true;
    int bfe_budget = 0;  // forced BFE actions after a sparse steal (restart)
    rt::Xoshiro256 rng{0};
    // Scalar-WS state.
    std::deque<std::int32_t> nodes;
    bool node_pending = false;
    std::int32_t exec_node = -1;
  };

  // ---- scalar work stealing -------------------------------------------------

  SimResult run_scalar(std::vector<std::int32_t> roots) {
    SimResult res;
    std::vector<Core> cores(static_cast<std::size_t>(cfg_.p));
    for (std::size_t w = 0; w < cores.size(); ++w) {
      cores[w].rng = rt::Xoshiro256(cfg_.seed + 0x9e37 * (w + 1));
    }
    for (const auto r : roots) cores[0].nodes.push_back(r);
    const std::uint64_t total = tree_.num_nodes();
    std::uint64_t executed = 0;
    std::uint64_t t = 0;
    std::uint64_t last_completion = 0;
    while (executed < total) {
      // Advance the clock to the next actionable core.
      std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
      for (const auto& w : cores) next = std::min(next, w.free_at);
      t = std::max(t, next);
      for (auto& w : cores) {
        if (w.free_at > t) continue;
        if (w.node_pending) {
          // Completion: children become available.
          const auto v = static_cast<std::size_t>(w.exec_node);
          for (std::int32_t i = tree_.first[v]; i < tree_.first[v + 1]; ++i) {
            w.nodes.push_back(tree_.child[static_cast<std::size_t>(i)]);
          }
          w.node_pending = false;
          ++executed;
          last_completion = t;
          res.tasks += 1;
          res.steps_total += 1;
          res.steps_complete += 1;
          if (executed == total) break;
        }
        if (!w.nodes.empty()) {
          w.exec_node = w.nodes.back();
          w.nodes.pop_back();
          w.node_pending = true;
          w.free_at = t + 1;  // unit-time task (§4 model)
        } else {
          // Steal attempt: costs cfg_.steal_cost steps (§4.3, constant c).
          res.steal_attempts += 1;
          w.free_at = t + cfg_.steal_cost;
          if (cores.size() > 1) {
            const auto victim =
                w.rng.below(static_cast<std::uint32_t>(cores.size()));
            auto& vic = cores[victim];
            if (&vic != &w && !vic.nodes.empty()) {
              w.nodes.push_back(vic.nodes.front());
              vic.nodes.pop_front();
              res.steals += 1;
            }
          }
        }
      }
    }
    res.makespan = last_completion;
    return res;
  }

  // ---- blocked policies (reexp / restart) ------------------------------------

  void expand_bfe(const Blk& in, Blk& next) {
    next.set_level(in.level() + 1);
    for (std::size_t j = 0; j < in.size(); ++j) {
      const auto vv = static_cast<std::size_t>(in[j]);
      for (std::int32_t i = tree_.first[vv]; i < tree_.first[vv + 1]; ++i) {
        next.push_back(tree_.child[static_cast<std::size_t>(i)]);
      }
    }
  }

  // Point blocking over arbitrary (bounded) out-degree: child i of every
  // node goes to dfe_kids_[i].  The child blocks are reused from step to
  // step: a block parked by merging keeps its storage for the next step.
  void expand_dfe(const Blk& in) {
    dfe_kids_.resize(static_cast<std::size_t>(max_degree_));
    for (auto& k : dfe_kids_) {
      k.clear();
      k.set_level(in.level() + 1);
    }
    for (std::size_t j = 0; j < in.size(); ++j) {
      const auto vv = static_cast<std::size_t>(in[j]);
      const std::int32_t deg = tree_.first[vv + 1] - tree_.first[vv];
      for (std::int32_t i = 0; i < deg; ++i) {
        dfe_kids_[static_cast<std::size_t>(i)].push_back(
            tree_.child[static_cast<std::size_t>(tree_.first[vv] + i)]);
      }
    }
  }

  void start_execution(Core& w, SimResult& res, std::uint64_t t, std::int32_t core) {
    const std::size_t s = w.cur.size();
    assert(s > 0);
    const auto qu = static_cast<std::uint64_t>(cfg_.q);
    const std::uint64_t cost = (s + qu - 1) / qu;
    res.steps_total += cost;
    res.steps_complete += s / qu;
    res.supersteps += 1;
    res.partial_supersteps += (s < cfg_.t_restart) ? 1 : 0;
    res.tasks += s;
    w.exec_block = std::move(w.cur);
    w.has_cur = false;
    w.exec_kind = w.bfe_mode ? Kind::BFE : Kind::DFE;
    w.exec_pending = true;
    w.free_at = t + cost;
    if (cfg_.trace) {
      cfg_.trace->record(t, cost, core,
                         w.exec_kind == Kind::BFE ? TraceKind::ExecBFE : TraceKind::ExecDFE,
                         w.exec_block.level(), static_cast<std::uint32_t>(s));
    }
  }

  // Parks b (if it holds tasks), merged into the block at its level.
  void park(Core& w, Blk&& b, std::uint64_t t, std::int32_t core) {
    if (b.empty()) return;
    if (cfg_.trace) {
      cfg_.trace->record(t, 0, core, TraceKind::Park, b.level(),
                         static_cast<std::uint32_t>(b.size()));
    }
    w.deque.push_merge(std::move(b));
  }

  void complete_execution(Core& w, std::uint64_t& executed, std::uint64_t& last_completion,
                          std::uint64_t t, std::int32_t core) {
    executed += w.exec_block.size();
    last_completion = t;
    if (w.exec_kind == Kind::BFE) {
      Blk next;
      expand_bfe(w.exec_block, next);
      if (!next.empty()) {
        w.cur = std::move(next);
        w.has_cur = true;
        if (w.cur.size() >= cfg_.t_dfe) {
          w.bfe_mode = false;
          w.growing = false;
        } else if (!w.growing) {
          // Restart's single-shot BFE (after a failed scan / sparse steal).
          w.bfe_mode = false;
        }
      }
      if (w.bfe_budget > 0) {
        --w.bfe_budget;
        if (w.has_cur && w.cur.size() < cfg_.t_restart && w.bfe_budget > 0) {
          w.bfe_mode = true;  // keep regrowing, budget permitting
        }
      }
    } else {
      expand_dfe(w.exec_block);
      for (std::size_t s = dfe_kids_.size(); s-- > 1;) park(w, std::move(dfe_kids_[s]), t, core);
      if (!dfe_kids_[0].empty()) {
        w.cur = std::move(dfe_kids_[0]);
        w.has_cur = true;
      }
    }
    w.exec_block = Blk{};
    w.exec_pending = false;
  }

  SimResult run_blocked(std::vector<std::int32_t> roots) {
    SimResult res;
    std::vector<Core> cores(static_cast<std::size_t>(cfg_.p));
    for (std::size_t w = 0; w < cores.size(); ++w) {
      cores[w].rng = rt::Xoshiro256(cfg_.seed + 0x9e37 * (w + 1));
    }
    for (const std::int32_t r : roots) cores[0].cur.push_back(r);
    cores[0].has_cur = true;
    const std::uint64_t total = tree_.num_nodes();
    std::uint64_t executed = 0;
    std::uint64_t t = 0;
    std::uint64_t last_completion = 0;
    const bool restart = cfg_.policy == SimPolicy::Restart;

    while (executed < total) {
      std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
      for (const auto& w : cores) next = std::min(next, w.free_at);
      t = std::max(t, next);
      for (auto& w : cores) {
        const auto self = static_cast<std::int32_t>(&w - cores.data());
        if (w.free_at > t) continue;
        if (w.exec_pending) {
          complete_execution(w, executed, last_completion, t, self);
          if (executed == total) break;
        }
        // Mode adjustments on the current block.
        if (w.has_cur && !w.bfe_mode) {
          if (!restart && w.cur.size() < cfg_.t_bfe) {
            w.bfe_mode = true;
            w.growing = true;  // re-expansion regrows to t_dfe
          } else if (restart && w.cur.size() < cfg_.t_restart && w.bfe_budget == 0) {
            park(w, std::move(w.cur), t, self);
            w.has_cur = false;
          }
        }
        if (w.has_cur && !w.cur.empty()) {
          start_execution(w, res, t, self);
          continue;
        }
        w.has_cur = false;
        // Acquire work.
        if (restart) {
          // §3.3 scan; a sparse top block goes back, as in IdealRestart.
          Blk found;
          const Deque::Scan scan = w.deque.restart_scan(cfg_.t_restart, found, 2 * cfg_.t_dfe);
          if (scan == Deque::Scan::Dense) {
            w.cur = std::move(found);
            w.has_cur = true;
            w.bfe_mode = false;
            start_execution(w, res, t, self);
            continue;
          }
          if (scan == Deque::Scan::Top) w.deque.push_merge(std::move(found));
          // Steal (victim may be self: then this is the BFE-at-top case).
          res.steal_attempts += 1;
          w.free_at = t + cfg_.steal_cost;
          const auto victim = w.rng.below(static_cast<std::uint32_t>(cores.size()));
          Blk stolen;
          if (cores[victim].deque.steal_shallowest(stolen, kUncapped)) {
            const bool remote = victim != static_cast<std::uint32_t>(self);
            res.steals += remote ? 1 : 0;
            if (cfg_.trace) {
              cfg_.trace->record(t, cfg_.steal_cost, self,
                                 remote ? TraceKind::Steal : TraceKind::StealAttempt,
                                 stolen.level(), static_cast<std::uint32_t>(stolen.size()));
            }
            w.cur = std::move(stolen);
            w.has_cur = true;
            if (w.cur.size() >= cfg_.t_restart) {
              w.bfe_mode = false;
            } else {
              w.bfe_mode = true;  // §3.4: regrow with a bounded number of BFEs
              w.growing = false;
              w.bfe_budget = core::kBfeAfterSteal;
            }
          } else if (cfg_.trace) {
            cfg_.trace->record(t, cfg_.steal_cost, self, TraceKind::StealAttempt, -1, 0);
          }
        } else {
          Blk popped;
          if (w.deque.pop_deepest(popped)) {
            w.cur = std::move(popped);
            w.has_cur = true;
            w.bfe_mode = false;
            start_execution(w, res, t, self);
            continue;
          }
          res.steal_attempts += 1;
          w.free_at = t + cfg_.steal_cost;
          bool stole = false;
          if (cores.size() > 1) {
            const auto victim = w.rng.below(static_cast<std::uint32_t>(cores.size()));
            if (victim != static_cast<std::uint32_t>(self)) {
              Blk stolen;
              if (cores[victim].deque.steal_shallowest(stolen, kUncapped)) {
                res.steals += 1;
                stole = true;
                if (cfg_.trace) {
                  cfg_.trace->record(t, cfg_.steal_cost, self, TraceKind::Steal, stolen.level(),
                                     static_cast<std::uint32_t>(stolen.size()));
                }
                w.cur = std::move(stolen);
                w.has_cur = true;
                // Reexp steal rule: DFE if above t_bfe, else regrow with BFE.
                w.bfe_mode = w.cur.size() < cfg_.t_bfe;
                w.growing = w.bfe_mode;
              }
            }
          }
          if (!stole && cfg_.trace) {
            cfg_.trace->record(t, cfg_.steal_cost, self, TraceKind::StealAttempt, -1, 0);
          }
        }
      }
      if (cfg_.track_space) {
        std::uint64_t resident = 0;
        for (const auto& w : cores) {
          resident += w.exec_block.size() + (w.has_cur ? w.cur.size() : 0);
          resident += w.deque.total_tasks();
        }
        res.peak_space_tasks = std::max(res.peak_space_tasks, resident);
      }
    }
    res.makespan = last_completion;
    return res;
  }

  // The simulator's steal takes a victim's whole shallowest block.
  static constexpr std::size_t kUncapped = std::numeric_limits<std::size_t>::max();

  const CompTree& tree_;
  SimConfig cfg_;
  int max_degree_ = 2;
  std::vector<Blk> dfe_kids_;  // expand_dfe's child blocks
};

inline SimResult simulate(const CompTree& tree, SimConfig cfg,
                          std::vector<std::int32_t> roots = {0}) {
  return ParSimulator(tree, cfg).run(std::move(roots));
}

}  // namespace tb::sim
