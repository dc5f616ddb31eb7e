// graphcol — count proper 3-colorings of a graph (Table 1 row 5).
//
// Vertices are colored in index order; a task carries the next vertex to
// color plus the packed color assignment (2 bits per vertex, two 64-bit
// words for up to 64 vertices).  A spawn slot is a color (out-degree 3);
// the per-color feasibility check over already-colored neighbors is the
// paper's nested data parallelism.  Like knapsack, the vertex index is
// uniform across a block (level == vertex), so the neighbor list and shift
// amounts are scalar-uniform inside the SIMD kernel.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/program.hpp"
#include "runtime/xoshiro.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"

namespace tb::apps {

struct GraphColInstance {
  int num_vertices = 0;
  // Per vertex: the neighbors with a smaller index (only those constrain
  // the coloring order).
  std::vector<std::vector<int>> lower_adj;

  // Erdős–Rényi-style random graph with expected degree `avg_degree`.
  static GraphColInstance random(int vertices, double avg_degree, std::uint64_t seed = 7) {
    GraphColInstance g;
    g.num_vertices = vertices;
    g.lower_adj.resize(static_cast<std::size_t>(vertices));
    rt::Xoshiro256 rng(seed);
    const double p = vertices > 1 ? avg_degree / static_cast<double>(vertices - 1) : 0.0;
    for (int v = 1; v < vertices; ++v) {
      for (int u = 0; u < v; ++u) {
        if (rng.uniform01() < p) g.lower_adj[static_cast<std::size_t>(v)].push_back(u);
      }
    }
    return g;
  }
};

struct GraphColProgram {
  struct Task {
    std::int32_t vertex;  // next vertex to color (== tree level)
    std::uint64_t lo;     // colors of vertices 0..31, 2 bits each
    std::uint64_t hi;     // colors of vertices 32..63
  };
  using Result = std::uint64_t;
  static constexpr int max_children = 3;
  static constexpr int num_colors = 3;

  const GraphColInstance* inst = nullptr;

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  bool is_base(const Task& t) const { return t.vertex == inst->num_vertices; }
  void leaf(const Task&, Result& r) const { r += 1; }

  static std::uint32_t color_of(const Task& t, int u) {
    const std::uint64_t word = (u < 32) ? t.lo : t.hi;
    const int shift = 2 * (u & 31);
    return static_cast<std::uint32_t>((word >> shift) & 3u);
  }

  static Task with_color(const Task& t, int v, std::uint32_t c) {
    Task n{t.vertex + 1, t.lo, t.hi};
    const int shift = 2 * (v & 31);
    if (v < 32) {
      n.lo |= static_cast<std::uint64_t>(c) << shift;
    } else {
      n.hi |= static_cast<std::uint64_t>(c) << shift;
    }
    return n;
  }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    const int v = t.vertex;
    const auto& adj = inst->lower_adj[static_cast<std::size_t>(v)];
    for (std::uint32_t c = 0; c < num_colors; ++c) {
      bool ok = true;
      for (const int u : adj) {
        if (color_of(t, u) == c) {
          ok = false;
          break;
        }
      }
      if (ok) emit(static_cast<int>(c), with_color(t, v, c));
    }
  }

  // ---- SoA layer -------------------------------------------------------------
  using Block = simd::SoaBlock<std::int32_t, std::uint64_t, std::uint64_t>;
  static Task task_at(const Block& b, std::size_t i) {
    const auto [v, lo, hi] = b.row(i);
    return Task{v, lo, hi};
  }
  static void append_task(Block& b, const Task& t) { b.push_back(t.vertex, t.lo, t.hi); }

  // ---- SIMD layer ------------------------------------------------------------
  // 64-bit color words dominate; 4 lanes on AVX2.
  static constexpr int simd_width = simd::natural_width<std::uint64_t>;

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, 3>& outs, Result& r, std::uint64_t& leaves) const {
    using B64 = simd::batch<std::uint64_t, simd_width>;
    using B32 = simd::batch<std::int32_t, simd_width>;
    const std::int32_t* vs = in.data<0>();
    const std::uint64_t* los = in.data<1>();
    const std::uint64_t* his = in.data<2>();
    const int nv = inst->num_vertices;
    std::uint64_t leaf_count = 0;
    constexpr std::uint32_t full = simd::mask_all<simd_width>;
    for (std::size_t i = begin; i < end; i += simd_width) {
      const std::int32_t v = vs[i];  // uniform per level
      const B64 lo = B64::loadu(los + i);
      const B64 hi = B64::loadu(his + i);
      if (v == nv) {
        leaf_count += simd_width;
        continue;
      }
      const B32 vnext = B32::broadcast(v + 1);
      const auto& adj = inst->lower_adj[static_cast<std::size_t>(v)];
      const int shift_v = 2 * (v & 31);
      for (std::uint32_t c = 0; c < num_colors; ++c) {
        const B64 cbits = B64::broadcast(c);
        std::uint32_t ok = full;
        for (const int u : adj) {
          const B64 word = (u < 32) ? lo : hi;
          const B64 col = (word >> (2 * (u & 31))) & B64::broadcast(3);
          ok &= ~simd::cmp_eq(col, cbits) & full;
          if (ok == 0) break;
        }
        if (ok == 0) continue;
        const B64 set = B64::broadcast(static_cast<std::uint64_t>(c) << shift_v);
        const B64 nlo = (v < 32) ? (lo | set) : lo;
        const B64 nhi = (v < 32) ? hi : (hi | set);
        outs[static_cast<std::size_t>(c)]->append_compact(ok, vnext, nlo, nhi);
      }
    }
    r += leaf_count;
    leaves += leaf_count;
  }

  static Task root() { return Task{0, 0, 0}; }
};

inline std::uint64_t graphcol_sequential(const GraphColInstance& g,
                                         const GraphColProgram::Task& t) {
  GraphColProgram prog{&g};
  if (prog.is_base(t)) return 1;
  std::uint64_t total = 0;
  prog.expand(t, [&](int, const GraphColProgram::Task& child) {
    total += graphcol_sequential(g, child);
  });
  return total;
}

}  // namespace tb::apps
