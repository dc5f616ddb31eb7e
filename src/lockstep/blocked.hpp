// Blocked re-expansion traversal engine — the one engine every traversal
// entry point runs on (lockstep/drivers.hpp): the classic lockstep model,
// single-core blocked re-expansion, the hybrid vector×multicore executor
// (runtime/hybrid.hpp), and the serving runners.
//
// The engine carries a *dense block* of query ids per frame (an explicit
// frame stack of (node, payload, id-block)) and applies the paper's two
// density-recovery moves at every node:
//
//   * streaming compaction (§6, simd/compact.hpp): the per-step descend
//     masks left-pack the surviving query ids into the child frame's block,
//     so dead lanes are squeezed out instead of idling;
//   * a re-expansion threshold: a frame whose block has fewer than t_reexp
//     live queries stops re-blocking — below the threshold compaction can no
//     longer amortize its cost — and finishes in classic masked-lockstep
//     mode.  A threshold above the query count IS the prior-work model
//     (lockstep.hpp): fixed W-groups walk the whole tree with lane masks.
//
// What the engine walks is a *kernel* (one per workload, lockstep/kernels.hpp):
//
//   Payload                          per-level value threaded down the walk
//   children(node, out) -> int       writes up to kMaxChildren child ids
//   descend(payload) -> payload      payload for the children
//   load(qids) -> State              per-lane values fixed for a lane's whole
//                                    walk (query coordinates, accumulators)
//   step(node, qids, State&, mask, payload) -> descend mask (subset of mask)
//                                    the per-node test, plus the leaf work
//   flush(qids, State&, mask)        writes back what State accumulated
//   reverses(node, qids, State, mask) optional: the lanes of `mask` (step's
//                                    nonzero survivors at `node`) that visit
//                                    the node's children last to first
//   finish()                         optional: hands what the kernel copy
//                                    kept across flushes to the program;
//                                    not called by the engine — the drivers
//                                    (lockstep/drivers.hpp) call it once per
//                                    kernel copy after a run, on the calling
//                                    thread, once the pool has joined
//
// Lane l of `qids` is a query id, valid when bit l of `mask` is set (invalid
// lanes replicate a valid id so gathers stay in bounds).  A blocked
// superstep runs load → step → flush per W-chunk, since compaction regroups
// the lanes at every node; masked mode loads once per W-group and flushes
// at the group's end, so its state stays in registers for the whole walk.
// All surviving lanes descend into every child; step runs again at each
// child, so child-specific pruning happens there.
//
// Children are visited first to last, unless the kernel has the reverses
// hook (knn: nearer child first).  Then a blocked superstep left-packs its
// survivors into two blocks, the lanes that keep the order and the lanes
// that reverse it, and pushes each block's child frames in its own order;
// masked mode splits a group's mask the same way.  Either way every lane
// walks its children in the order the kernel asks for, so its leaf visits
// come in the recursion's order in every mode.  A kernel without the hook
// compiles to the single-block path.
//
// Id blocks are recycled through an engine-local pool (one engine per pool
// worker under the hybrid executor — the per-worker block_pool instances),
// and sibling frames share their parent's survivor block by refcount, so
// the steady state is allocation-free.
//
// Frame-level work donation: when a Donor is installed (set_donor), the
// main loop polls it once per frame and, when the donor reports hungry
// peers, splits the bottom-most donatable frame — the tail half of a live
// block's query ids leaves through Donor::take as a (node, payload, ids)
// triple the recipient re-expands into a fresh root block on its own engine
// via run_frame.  Bottom frames sit closest to the root, so one donation
// moves the largest available subtree share; the per-query partition keeps
// results identical because every traversal app's state is per-query (or a
// commutative sum).  Without a donor installed the engine behaves exactly
// as before.
//
// Statistics land in core::ExecStats with the paper's step accounting: a
// blocked frame of t live queries is a superstep of ceil(t/W) steps
// (floor(t/W) complete); a masked node visit is one step, complete only
// when all W lanes are live.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/stats.hpp"
#include "simd/batch.hpp"
#include "simd/compact.hpp"

namespace tb::lockstep {

// A kernel whose lanes may visit a node's children in different orders.
template <class K>
concept ReversesChildren =
    requires(K& k, const simd::batch<std::int32_t, K::width>& q, std::int32_t node,
             std::uint32_t mask) {
      { k.reverses(node, q, k.load(q), mask) } -> std::convertible_to<std::uint32_t>;
    };

template <int W, class Payload = char>
class BlockedTraversal {
public:
  using BI = simd::batch<std::int32_t, W>;
  using payload_type = Payload;
  static constexpr std::uint32_t kFullMask = simd::mask_all<W>;
  static constexpr int kMaxChildren = 8;

  // Receives donated frames (runtime/hybrid.hpp implements this on top of
  // the pool).  want() must be cheap — it is polled once per frame; take()
  // must copy the ids out before returning (the engine reuses the block).
  struct Donor {
    virtual ~Donor() = default;
    virtual bool want() = 0;
    virtual void take(std::int32_t node, const Payload& payload, const std::int32_t* ids,
                      std::size_t n) = 0;
  };

  explicit BlockedTraversal(std::size_t t_reexp = 0) : t_reexp_(t_reexp) {}

  void set_reexp_threshold(std::size_t t) { t_reexp_ = t; }
  std::size_t reexp_threshold() const { return t_reexp_; }

  // Installing a donor enables frame-level donation for subsequent runs;
  // nullptr disables it (the default).
  void set_donor(Donor* d) { donor_ = d; }
  Donor* donor() const { return donor_; }

  // Walks the shared tree from `root` with the dense query block
  // [first_query, first_query + num_queries).
  template <class Kernel>
  void run(std::int32_t root, Payload root_payload, std::int32_t first_query,
           std::int32_t num_queries, Kernel& k, core::ExecStats* stats = nullptr) {
    if (num_queries <= 0) return;
    IdBlock* rootb = alloc(static_cast<std::size_t>(num_queries));
    for (std::int32_t i = 0; i < num_queries; ++i) {
      rootb->ids[static_cast<std::size_t>(i)] = first_query + i;
    }
    rootb->n = static_cast<std::size_t>(num_queries);
    rootb->refs = 1;
    frames_.push_back(Frame{root, root_payload, rootb});
    main_loop(k, stats);
  }

  // Walks the shared tree from an arbitrary (node, payload, explicit id
  // list) triple — the receiving side of frame-level donation, and the
  // serving runners' entry: the ids become a fresh dense root block on THIS
  // engine (its block pool) and the subtree is traversed with the usual
  // compaction + re-expansion.
  template <class Kernel>
  void run_frame(std::int32_t node, Payload payload, const std::int32_t* qids,
                 std::size_t num_queries, Kernel& k, core::ExecStats* stats = nullptr) {
    if (num_queries == 0) return;
    IdBlock* rootb = alloc(num_queries);
    std::copy_n(qids, num_queries, rootb->ids.data());
    rootb->n = num_queries;
    rootb->refs = 1;
    frames_.push_back(Frame{node, payload, rootb});
    main_loop(k, stats);
  }

private:
  struct IdBlock {
    std::vector<std::int32_t> ids;  // capacity carries W slack for compact stores
    std::size_t n = 0;
    int refs = 0;
  };

  struct Frame {
    std::int32_t node;
    Payload payload;
    IdBlock* blk;
  };

  struct MaskedFrame {
    std::int32_t node;
    std::uint32_t mask;
    Payload payload;
  };

  template <class Kernel>
  void main_loop(Kernel& k, core::ExecStats* stats) {
    core::ExecStats local;
    core::ExecStats& st = stats ? *stats : local;
    std::int32_t kids[kMaxChildren];
    while (!frames_.empty()) {
      if (donor_ != nullptr && donor_->want()) try_donate(st);
      Frame f = frames_.back();
      frames_.pop_back();
      if (f.blk->n == 0) {
        release(f.blk);
        continue;
      }
      if (f.blk->n < t_reexp_) {
        // Below the re-expansion threshold: finish this subtree in classic
        // masked-lockstep mode (no further compaction).
        st.on_action(core::Action::Restart);
        masked_subtree(f, k, st);
        release(f.blk);
        continue;
      }

      // Blocked superstep: evaluate the whole block W lanes at a time and
      // left-pack the survivors into a fresh dense block.
      st.on_block_executed(f.blk->n, W, std::max<std::size_t>(t_reexp_, W));
      st.on_action(core::Action::DFE);
      IdBlock* surv = alloc(f.blk->n + static_cast<std::size_t>(W));
      [[maybe_unused]] IdBlock* rsurv = nullptr;  // the survivors that reverse
      if constexpr (ReversesChildren<Kernel>) {
        rsurv = alloc(f.blk->n + static_cast<std::size_t>(W));
      }
      const std::int32_t* ids = f.blk->ids.data();
      for (std::size_t i = 0; i < f.blk->n; i += static_cast<std::size_t>(W)) {
        const int lanes =
            static_cast<int>(std::min<std::size_t>(W, f.blk->n - i));
        BI q;
        if (lanes == W) {
          q = BI::loadu(ids + i);
        } else {
          for (int l = 0; l < W; ++l) {
            q.set(l, ids[i + static_cast<std::size_t>(l < lanes ? l : 0)]);
          }
        }
        const std::uint32_t valid = lanes == W ? kFullMask : ((1u << lanes) - 1u);
        auto state = k.load(q);
        const std::uint32_t m = k.step(f.node, q, state, valid, f.payload) & valid;
        if constexpr (ReversesChildren<Kernel>) {
          const std::uint32_t rv = m != 0 ? k.reverses(f.node, q, state, m) & m : 0u;
          k.flush(q, state, valid);
          if ((m & ~rv) != 0) {
            surv->n += static_cast<std::size_t>(
                simd::compact_store(surv->ids.data() + surv->n, m & ~rv, q));
          }
          if (rv != 0) {
            rsurv->n += static_cast<std::size_t>(
                simd::compact_store(rsurv->ids.data() + rsurv->n, rv, q));
          }
          continue;
        }
        k.flush(q, state, valid);
        if (m != 0) {
          surv->n += static_cast<std::size_t>(
              simd::compact_store(surv->ids.data() + surv->n, m, q));
        }
      }
      release(f.blk);
      if constexpr (ReversesChildren<Kernel>) {
        const int nk = surv->n + rsurv->n != 0 ? k.children(f.node, kids) : 0;
        const Payload cp = k.descend(f.payload);
        // The reversing lanes' frames go below the others'.
        push_children(rsurv, kids, nk, cp, true);
        push_children(surv, kids, nk, cp, false);
        continue;
      }
      if (surv->n == 0) {
        release(surv);
        continue;
      }
      const int nk = k.children(f.node, kids);
      if (nk == 0) {
        release(surv);
        continue;
      }
      const Payload cp = k.descend(f.payload);
      surv->refs = nk;  // siblings share the survivor block
      for (int s = nk; s-- > 0;) frames_.push_back(Frame{kids[s], cp, surv});
    }
  }

  // One frame per child for the survivor block b, which they share, the
  // first child to visit on top (the last one when `reversed`); an empty
  // block is released.
  void push_children(IdBlock* b, const std::int32_t* kids, int nk, const Payload& cp,
                     bool reversed) {
    if (b->n == 0 || nk == 0) {
      release(b);
      return;
    }
    b->refs = nk;
    for (int i = 0; i < nk; ++i) {
      frames_.push_back(Frame{kids[reversed ? i : nk - 1 - i], cp, b});
    }
  }

  // Splits the bottom-most donatable frame and hands the tail half of its
  // query ids to the donor.  Both halves stay at or above max(t_reexp, W),
  // so a donation never flips the remaining half below the blocked regime it
  // was already in; frames below that floor (including everything in the
  // degenerate classic-lockstep configuration) are never donated.
  void try_donate(core::ExecStats& st) {
    const std::size_t min_n =
        2 * std::max<std::size_t>(t_reexp_, static_cast<std::size_t>(W));
    for (Frame& f : frames_) {  // frames_[0] is the bottom: nearest the root
      if (f.blk->n < min_n) continue;
      const std::size_t keep = f.blk->n / 2;
      donor_->take(f.node, f.payload, f.blk->ids.data() + keep, f.blk->n - keep);
      if (f.blk->refs == 1) {
        f.blk->n = keep;
      } else {
        // The block is shared with sibling frames, which each still own the
        // full survivor set — give this frame a private kept-half copy.
        IdBlock* nb = alloc(keep);
        std::copy_n(f.blk->ids.data(), keep, nb->ids.data());
        nb->n = keep;
        release(f.blk);
        f.blk = nb;
      }
      st.donated_frames += 1;
      return;
    }
  }

  // Classic masked-lockstep DFS over one small block: fixed W-groups of the
  // block's (dense) survivors, lane masks carried, no compaction — the
  // prior-work execution model, reached only below t_reexp.  Each group
  // loads its State once and flushes it once, after its whole walk.
  template <class Kernel>
  void masked_subtree(const Frame& f, Kernel& k, core::ExecStats& st) {
    const std::int32_t* ids = f.blk->ids.data();
    std::int32_t kids[kMaxChildren];
    for (std::size_t g = 0; g < f.blk->n; g += static_cast<std::size_t>(W)) {
      const int lanes = static_cast<int>(std::min<std::size_t>(W, f.blk->n - g));
      BI q;
      for (int l = 0; l < W; ++l) q.set(l, ids[g + static_cast<std::size_t>(l < lanes ? l : 0)]);
      const std::uint32_t init = lanes == W ? kFullMask : ((1u << lanes) - 1u);
      auto state = k.load(q);
      st.supersteps += 1;
      st.partial_supersteps += 1;  // by construction below the threshold
      mstack_.push_back(MaskedFrame{f.node, init, f.payload});
      while (!mstack_.empty()) {
        const MaskedFrame mf = mstack_.back();
        mstack_.pop_back();
        if (mf.mask == 0) continue;
        st.steps_total += 1;
        st.steps_complete += (mf.mask == kFullMask) ? 1 : 0;
        st.tasks_executed += static_cast<std::uint64_t>(std::popcount(mf.mask));
        const std::uint32_t m = k.step(mf.node, q, state, mf.mask, mf.payload) & mf.mask;
        if (m == 0) continue;
        const int nk = k.children(mf.node, kids);
        if (nk == 0) continue;
        const Payload cp = k.descend(mf.payload);
        if constexpr (ReversesChildren<Kernel>) {
          // The reversing lanes' frames go below the others'.
          const std::uint32_t rv = k.reverses(mf.node, q, state, m) & m;
          if (rv != 0) {
            for (int s = 0; s < nk; ++s) mstack_.push_back(MaskedFrame{kids[s], rv, cp});
          }
          if (rv != m) {
            for (int s = nk; s-- > 0;) mstack_.push_back(MaskedFrame{kids[s], m & ~rv, cp});
          }
          continue;
        }
        for (int s = nk; s-- > 0;) mstack_.push_back(MaskedFrame{kids[s], m, cp});
      }
      k.flush(q, state, init);
    }
  }

  IdBlock* alloc(std::size_t cap) {
    // W slack past the logical size: compact_store always writes a full
    // vector and the caller bumps n by popcount (same contract as
    // SoaBlock::ensure_slack).
    const std::size_t want = cap + static_cast<std::size_t>(W);
    IdBlock* b;
    if (!free_.empty()) {
      b = free_.back();
      free_.pop_back();
    } else {
      arena_.push_back(std::make_unique<IdBlock>());
      b = arena_.back().get();
    }
    if (b->ids.size() < want) b->ids.resize(want);
    b->n = 0;
    b->refs = 1;
    return b;
  }

  void release(IdBlock* b) {
    if (--b->refs == 0) {
      b->n = 0;
      free_.push_back(b);
    }
  }

  std::size_t t_reexp_;
  Donor* donor_ = nullptr;
  std::vector<Frame> frames_;
  std::vector<MaskedFrame> mstack_;
  std::vector<std::unique_ptr<IdBlock>> arena_;
  std::vector<IdBlock*> free_;
};

}  // namespace tb::lockstep
