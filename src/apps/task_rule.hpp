// The task program shared by the eight integer Table 1 programs (fib,
// binomial, parentheses, knapsack, graphcol, minmax, nqueens, uts): the
// integer counterpart of KdQuery (kdquery.hpp).  A program states its
// recursive method once, as the base/reduce/spawn clauses of the paper's
// specification language (§5.2), over a task row templated on lane width:
//
//   Row<W>                the task's fields as simd::lanes<T, W>: W = 1 is
//                         one task of scalars (the program's Task), W > 1 is
//                         W tasks as simd::batch<T, W> columns.  Its
//                         fields() ties them in SoA column order;
//   base(t)               the lane mask of the base-case tasks;
//   reduce(t, m, r)       the leaf reduction of the lanes in m into r;
//   spawn(t, live, emit)  the children of the lanes in live: each
//                         emit(slot, mask, child) sends the child row of the
//                         lanes in mask to spawn slot `slot`.
//
// A program derives from TaskRule<Program, Row> and adds its Result,
// identity, combine, max_children, state and those three member templates.
// TaskRule derives from them the scalar is_base/leaf/expand (task-major:
// each task's children in slot order), the SoA block with
// task_at/append_task, and expand_simd (per W-chunk: the leaf lanes reduce
// first, then each slot's children are left-packed, slots in increasing
// order), so the AoS, SoA and SIMD layers run one rule.  A rule may read a
// field every task of a block shares (the tree level: knapsack's item,
// graphcol's vertex, minmax's ply) from lane 0 with simd::first_lane.
//
// Codegen notes (GCC 12, measured with the single-core SIMD layer): the
// rules are forced inline and take rows by const reference, and a
// conditional spawn is written `if (const std::uint32_t m = ...) emit(...)`.
// Rows passed by value were split into 32-bit lanes that were re-packed
// before every left-pack store, and so was a row built for an empty mask
// inside a slot loop; either made parentheses, nqueens and minmax 1.5-3x
// slower.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>

#include "simd/batch.hpp"
#include "simd/soa.hpp"

namespace tb::apps {

namespace detail {

// The SoA block and SIMD width of a row whose fields() returns Fields.
template <class Fields>
struct RowColumns;
template <class... Fs>
struct RowColumns<std::tuple<Fs...>> {
  using Block = simd::SoaBlock<std::remove_cvref_t<Fs>...>;
  static constexpr int width = std::min({simd::natural_width<std::remove_cvref_t<Fs>>...});
};

template <int W, class T>
[[gnu::always_inline]] inline simd::lanes<T, W> load_lanes(const T* p) {
  if constexpr (W == 1) {
    return *p;
  } else {
    return simd::batch<T, W>::loadu(p);
  }
}

}  // namespace detail

template <class Program, template <int> class RowT>
struct TaskRule {
  template <int W>
  using Row = RowT<W>;
  using Task = Row<1>;
  using Block = typename detail::RowColumns<decltype(std::declval<Task>().fields())>::Block;
  // The widest field sets the lane count.
  static constexpr int simd_width =
      detail::RowColumns<decltype(std::declval<Task>().fields())>::width;

  bool is_base(const Task& t) const { return (self().base(t) & 1u) != 0; }
  template <class Result>
  void leaf(const Task& t, Result& r) const {
    self().reduce(t, 1u, r);
  }
  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    self().spawn(t, 1u, [&](int slot, std::uint32_t m, const Task& child) {
      assert(slot >= 0 && slot < Program::max_children);
      if (m != 0) emit(slot, child);
    });
  }

  // ---- SoA layer -------------------------------------------------------------
  static Task task_at(const Block& b, std::size_t i) { return load<1>(b, i); }
  static void append_task(Block& b, const Task& t) {
    std::apply([&](auto... f) { b.push_back(f...); }, t.fields());
  }

  // ---- SIMD layer ------------------------------------------------------------
  template <class Result, std::size_t N>
  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, N>& outs, Result& r, std::uint64_t& leaves) const {
    static_assert(N == Program::max_children);
    constexpr int W = simd_width;
    constexpr std::uint32_t full = simd::mask_all<W>;
    const Program& p = self();
    Result acc = Program::identity();
    std::uint64_t leaf_lanes = 0;
    for (std::size_t i = begin; i < end; i += W) {
      const Row<W> t = load<W>(in, i);
      const std::uint32_t base = p.base(t) & full;
      if (base != 0) {
        leaf_lanes += std::popcount(base);
        p.reduce(t, base, acc);
        if (base == full) continue;
      }
      p.spawn(t, ~base & full, [&](int slot, std::uint32_t m, const Row<W>& child) {
        assert(slot >= 0 && slot < Program::max_children);
        std::apply([&](const auto&... f) { outs[slot]->append_compact(m, f...); },
                   child.fields());
      });
    }
    Program::combine(r, acc);
    leaves += leaf_lanes;
  }

private:
  template <int W>
  [[gnu::always_inline]] static Row<W> load(const Block& b, std::size_t i) {
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
      return Row<W>{detail::load_lanes<W>(b.template data<I>() + i)...};
    }(std::make_index_sequence<Block::num_fields>{});
  }

  const Program& self() const { return static_cast<const Program&>(*this); }
};

}  // namespace tb::apps
