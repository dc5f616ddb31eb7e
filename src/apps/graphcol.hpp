// graphcol — count proper 3-colorings of a graph (Table 1 row 5).
//
// Vertices are colored in index order; a task carries the next vertex to
// color plus the packed color assignment (2 bits per vertex, two 64-bit
// words for up to 64 vertices).  A spawn slot is a color (out-degree 3);
// the per-color feasibility check over already-colored neighbors is the
// paper's nested data parallelism.  Like knapsack, the vertex index is
// uniform across a block (level == vertex), so the neighbor list and shift
// amounts are scalar-uniform inside the rule.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "apps/task_rule.hpp"
#include "runtime/xoshiro.hpp"

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

template <int W>
struct GraphColRow {
  simd::lanes<std::int32_t, W> vertex;  // next vertex to color (== tree level)
  simd::lanes<std::uint64_t, W> lo;     // colors of vertices 0..31, 2 bits each
  simd::lanes<std::uint64_t, W> hi;     // colors of vertices 32..63
  auto fields() const { return std::tie(vertex, lo, hi); }
};

struct GraphColProgram : TaskRule<GraphColProgram, GraphColRow> {
  using Result = std::uint64_t;
  static constexpr int max_children = 3;
  static constexpr int num_colors = 3;
  static constexpr int max_vertices = 64;  // two 64-bit color words

  const GraphColInstance* inst = nullptr;

  explicit GraphColProgram(const GraphColInstance* instance = nullptr) : inst(instance) {
    if (inst != nullptr && inst->num_vertices > max_vertices) {
      throw std::invalid_argument("GraphColProgram: more than 64 vertices");
    }
  }

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  template <int W>
  [[gnu::always_inline]] std::uint32_t base(const Row<W>& t) const {
    return simd::cmp_eq(t.vertex, inst->num_vertices);
  }
  template <int W>
  [[gnu::always_inline]] void reduce(const Row<W>&, std::uint32_t m, Result& r) const {
    r += static_cast<Result>(std::popcount(m));
  }
  // Slot c gives the vertex color c where no already-colored neighbor has it.
  template <int W, class Emit>
  [[gnu::always_inline]] void spawn(const Row<W>& t, std::uint32_t live, Emit&& emit) const {
    const int v = simd::first_lane(t.vertex);  // uniform per level
    const auto& adj = inst->lower_adj[static_cast<std::size_t>(v)];
    for (std::uint32_t c = 0; c < num_colors; ++c) {
      std::uint32_t ok = live;
      for (const int u : adj) {
        const auto color = ((u < 32 ? t.lo : t.hi) >> (2 * (u & 31))) & 3u;
        ok &= ~simd::cmp_eq(color, c);
        if (ok == 0) break;
      }
      if (ok == 0) continue;
      const std::uint64_t set = std::uint64_t{c} << (2 * (v & 31));
      emit(static_cast<int>(c), ok,
           v < 32 ? Row<W>{t.vertex + 1, t.lo | set, t.hi}
                  : Row<W>{t.vertex + 1, t.lo, t.hi | set});
    }
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
