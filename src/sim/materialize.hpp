// Materialize the computation tree of any TaskProgram into a CompTree so
// the discrete multicore simulator can replay the benchmark's exact tree
// shape (fig5_scalability --mode=simulated).
//
// Nodes are assigned ids in depth-first preorder, so parents always precede
// children (the CompTree CSR invariant).  Multi-root programs (data-
// parallel outer loops) become multi-root trees — the simulator seeds the
// first core's initial block with all roots, mirroring §5.3.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/program.hpp"
#include "sim/comp_tree.hpp"

namespace tb::sim {

struct MaterializeResult {
  CompTree tree;
  std::vector<std::int32_t> roots;
};

template <core::TaskProgram P>
MaterializeResult materialize(const P& p, std::span<const typename P::Task> root_tasks,
                              std::size_t max_nodes = 64u << 20,
                              bool call_leaf = false) {
  using Task = typename P::Task;
  std::vector<std::int32_t> parent;
  std::vector<std::int32_t> roots;
  std::vector<std::pair<Task, std::int32_t>> stack;  // (task, parent id)
  for (auto it = root_tasks.rbegin(); it != root_tasks.rend(); ++it) {
    stack.emplace_back(*it, -1);
  }
  typename P::Result sink = P::identity();
  while (!stack.empty()) {
    auto [t, par] = stack.back();
    stack.pop_back();
    const auto id = static_cast<std::int32_t>(parent.size());
    if (parent.size() >= max_nodes) {
      throw std::runtime_error("materialize: tree exceeds max_nodes");
    }
    parent.push_back(par);
    if (par < 0) roots.push_back(id);
    if (p.is_base(t)) {
      if (call_leaf) p.leaf(t, sink);  // e.g. knn: bounds must shrink to prune
      continue;
    }
    // Push children in reverse so preorder visits them in emit order.
    std::vector<Task> kids;
    p.expand(t, [&](int, const Task& c) { kids.push_back(c); });
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.emplace_back(*it, id);
  }
  MaterializeResult out;
  out.tree = CompTree::from_parents_multi_root(parent);
  out.roots = std::move(roots);
  return out;
}

}  // namespace tb::sim
