// Program model and execution layers.
//
// A *program* describes one recursive method in the paper's specification
// language (§2.1/§5.2): a task either executes a base case (reducing into a
// monoid result) or expands into up to `max_children` child tasks.  The
// scheduler is written against task blocks only; the three execution layers
// below turn "execute this block" into actual loops, which every scheduler
// runs through the shared block step (step.hpp):
//
//   AosExec  — scalar loop over an array-of-structs block (Table 2 "Block")
//   SoaExec  — scalar loop over a structure-of-arrays block ("SOA";
//              auto-vectorizer candidate); a program may run the whole
//              range itself through an optional expand_soa hook
//              (CompiledSpecProgram's jitted block loop), which returns
//              false when it cannot and leaves the range to this loop
//   SimdExec — the program's vectorized kernel (expand_simd) over SoA
//              columns with masked execution and streaming compaction
//              ("SIMD"); apps::TaskRule derives it (for apps::KdQuery's
//              kd-tree queries too) from the same rule as the scalar expand
//
// Children are emitted through a slot index in [0, max_children): BFE maps
// every slot to one next-level block, DFE maps slot s to child block s
// (point blocking, Fig. 1c).  The layers index slots unchecked; a program
// whose fan-out is a parameter rejects values its slots cannot hold when
// it is constructed, and TaskRule asserts every slot it emits.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <type_traits>

#include "core/block.hpp"

namespace tb::core {

namespace detail {
template <class Task>
struct NullEmit {
  void operator()(int, const Task&) const {}
};
}  // namespace detail

// ---- concepts ----------------------------------------------------------------

template <class P>
concept TaskProgram = requires(const P p, const typename P::Task& t, typename P::Result& r) {
  typename P::Task;
  typename P::Result;
  { P::max_children } -> std::convertible_to<int>;
  { P::identity() } -> std::same_as<typename P::Result>;
  { p.is_base(t) } -> std::convertible_to<bool>;
  p.leaf(t, r);
  p.expand(t, detail::NullEmit<typename P::Task>{});
};

// A program that additionally defines a structure-of-arrays block type plus
// row<->task conversion.
template <class P>
concept SoaProgram = TaskProgram<P> && requires(const typename P::Block& b, std::size_t i,
                                                typename P::Block& mb,
                                                const typename P::Task& t) {
  typename P::Block;
  { P::task_at(b, i) } -> std::same_as<typename P::Task>;
  P::append_task(mb, t);
};

// A SoA program with a hand-written vector kernel.
template <class P>
concept SimdProgram =
    SoaProgram<P> && requires { { P::simd_width } -> std::convertible_to<int>; };

// ---- execution layers ---------------------------------------------------------

template <TaskProgram P>
struct AosExec {
  using Program = P;
  using Task = typename P::Task;
  using Result = typename P::Result;
  using Block = AosBlock<Task>;
  static constexpr int out_degree = P::max_children;
  static constexpr const char* name = "block";

  static void append_task(Block& b, const Task& t) { b.push_back(t); }

  static void expand_into(const P& p, const Block& in, std::size_t begin, std::size_t end,
                          const std::array<Block*, static_cast<std::size_t>(out_degree)>& outs,
                          Result& r, std::uint64_t& leaves) {
    for (std::size_t i = begin; i < end; ++i) {
      const Task& t = in[i];
      if (p.is_base(t)) {
        p.leaf(t, r);
        ++leaves;
      } else {
        p.expand(t, [&](int slot, const Task& c) {
          outs[static_cast<std::size_t>(slot)]->push_back(c);
        });
      }
    }
  }
};

template <SoaProgram P>
struct SoaExec {
  using Program = P;
  using Task = typename P::Task;
  using Result = typename P::Result;
  using Block = typename P::Block;
  static constexpr int out_degree = P::max_children;
  static constexpr const char* name = "soa";

  static void append_task(Block& b, const Task& t) { P::append_task(b, t); }

  static void expand_into(const P& p, const Block& in, std::size_t begin, std::size_t end,
                          const std::array<Block*, static_cast<std::size_t>(out_degree)>& outs,
                          Result& r, std::uint64_t& leaves) {
    if constexpr (requires {
                    { p.expand_soa(in, begin, end, outs, r, leaves) } -> std::same_as<bool>;
                  }) {
      if (p.expand_soa(in, begin, end, outs, r, leaves)) return;
    }
    for (std::size_t i = begin; i < end; ++i) {
      const Task t = P::task_at(in, i);
      if (p.is_base(t)) {
        p.leaf(t, r);
        ++leaves;
      } else {
        p.expand(t, [&](int slot, const Task& c) {
          P::append_task(*outs[static_cast<std::size_t>(slot)], c);
        });
      }
    }
  }
};

template <SimdProgram P>
struct SimdExec {
  using Program = P;
  using Task = typename P::Task;
  using Result = typename P::Result;
  using Block = typename P::Block;
  static constexpr int out_degree = P::max_children;
  static constexpr int width = P::simd_width;
  static constexpr const char* name = "simd";

  static void append_task(Block& b, const Task& t) { P::append_task(b, t); }

  static void expand_into(const P& p, const Block& in, std::size_t begin, std::size_t end,
                          const std::array<Block*, static_cast<std::size_t>(out_degree)>& outs,
                          Result& r, std::uint64_t& leaves) {
    const std::size_t n_vec =
        begin + (end - begin) / static_cast<std::size_t>(width) * static_cast<std::size_t>(width);
    if (n_vec > begin) p.expand_simd(in, begin, n_vec, outs, r, leaves);
    // Remainder lanes take the scalar SoA path.
    SoaExec<P>::expand_into(p, in, n_vec, end, outs, r, leaves);
  }
};

}  // namespace tb::core
