// Tutorial: bringing your own recursive kernel to the task-block framework.
//
// The walkthrough implements subset-sum counting — how many subsets of a
// multiset of weights sum exactly to a target — as a brand-new program (it
// is not one of the paper's 11 benchmarks).  A program states its recursive
// method once, on apps::TaskRule (src/apps/task_rule.hpp), as three rules
// over a task row of W lanes:
//
//   base    which lanes are base cases            (the spec's `base`)
//   reduce  what the base-case lanes add up to    (the spec's `reduce`)
//   spawn   each child, under the lanes that spawn it (the spec's `spawn`)
//
// At W = 1 the row is one task of scalars; at W > 1 each field is a
// simd::batch of W tasks.  TaskRule derives all three execution layers from
// those rules: the scalar task program (is_base/leaf/expand), the SoA block
// and the vectorized expand_simd (masked compare + streaming compaction), so
// the layers cannot disagree.  The program is then run through the
// sequential policies, the auto-tuner and the multicore pool, verifying
// everything against a plain recursion.
//
// Usage: ./custom_kernel [num-weights]
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "apps/task_rule.hpp"
#include "core/autotune.hpp"
#include "core/driver.hpp"
#include "runtime/forkjoin.hpp"

namespace {

namespace simd = tb::simd;

// A task is a suspended call f(item, remaining): "count subsets of
// weights[item..] that sum to exactly `remaining`".  The row lists its
// fields once, as W lanes each; fields() gives the SoA column order.
template <int W>
struct SubsetSumRow {
  simd::lanes<std::int32_t, W> item;
  simd::lanes<std::int32_t, W> remaining;
  auto fields() const { return std::tie(item, remaining); }
};

struct SubsetSumProgram : tb::apps::TaskRule<SubsetSumProgram, SubsetSumRow> {
  using Result = std::uint64_t;  // number of exact-sum subsets
  static constexpr int max_children = 2;

  const std::vector<std::int32_t>* weights = nullptr;

  explicit SubsetSumProgram(const std::vector<std::int32_t>* w) : weights(w) {}

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  // Masks are lane bitmasks (bit l = lane l; one task is bit 0).  Rules are
  // forced inline and take rows by const reference (task_rule.hpp says why).
  //
  // A base case is an exact hit (remaining == 0) or a miss (no items left).
  template <int W>
  [[gnu::always_inline]] std::uint32_t base(const Row<W>& t) const {
    return simd::cmp_eq(t.remaining, 0) |
           simd::cmp_eq(t.item, static_cast<std::int32_t>(weights->size()));
  }
  // Only the hits count.
  template <int W>
  [[gnu::always_inline]] void reduce(const Row<W>& t, std::uint32_t m, Result& r) const {
    r += static_cast<Result>(std::popcount(m & simd::cmp_eq(t.remaining, 0)));
  }
  // Slot 0 takes the item where it fits, slot 1 skips it.  Tasks at one
  // depth share `item`, so its weight is read once from lane 0.
  template <int W, class Emit>
  [[gnu::always_inline]] void spawn(const Row<W>& t, std::uint32_t live, Emit&& emit) const {
    const std::int32_t w = (*weights)[static_cast<std::size_t>(simd::first_lane(t.item))];
    if (const std::uint32_t m = live & simd::cmp_ge(t.remaining, w)) {
      emit(0, m, Row<W>{t.item + 1, t.remaining - w});
    }
    emit(1, live, Row<W>{t.item + 1, t.remaining});
  }
};

// The plain recursion — every framework run is verified against this.
std::uint64_t subset_sum_recursive(const std::vector<std::int32_t>& w, std::size_t i,
                                   std::int32_t remaining) {
  if (remaining == 0) return 1;
  if (i == w.size()) return 0;
  std::uint64_t total = subset_sum_recursive(w, i + 1, remaining);
  if (remaining >= w[i]) total += subset_sum_recursive(w, i + 1, remaining - w[i]);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const int n = argc > 1 ? std::atoi(argv[1]) : 26;
  std::vector<std::int32_t> weights;
  std::int32_t total = 0;
  for (int i = 0; i < n; ++i) {
    weights.push_back(1 + (i * 7919) % 23);  // deterministic pseudo-random weights
    total += weights.back();
  }
  const std::int32_t target = total / 3;

  const SubsetSumProgram prog{&weights};
  const std::vector<SubsetSumProgram::Task> roots{{0, target}};
  const std::uint64_t expected = subset_sum_recursive(weights, 0, target);
  std::printf("subset-sum: %d weights, target %d -> %llu subsets (oracle)\n", n, target,
              static_cast<unsigned long long>(expected));

  // Sequential policies × the SIMD layer.
  using Simd = tb::core::SimdExec<SubsetSumProgram>;
  for (const auto pol : {tb::core::SeqPolicy::Basic, tb::core::SeqPolicy::Reexp,
                         tb::core::SeqPolicy::Restart}) {
    tb::core::ExecStats st;
    const auto th = tb::core::Thresholds::for_block_size(SubsetSumProgram::simd_width, 2048);
    const auto got = tb::core::run_seq<Simd>(prog, roots, pol, th, &st);
    std::printf("  %-8s: %llu  (%s, utilization %.1f%%)\n", tb::core::to_string(pol),
                static_cast<unsigned long long>(got), got == expected ? "ok" : "MISMATCH",
                st.simd_utilization() * 100.0);
  }

  // Let the auto-tuner pick the block size.
  tb::core::TuneOptions opts;
  opts.q = SubsetSumProgram::simd_width;
  const auto rep = tb::core::autotune_block_size<Simd>(prog, roots, opts);
  std::printf("  autotuned t_dfe=%zu (%.2f ms best)\n", rep.best.t_dfe,
              rep.best_seconds * 1e3);

  // Multicore: the parallel restart scheduler on a work-stealing pool.
  tb::rt::ForkJoinPool pool(4);
  const auto par = tb::core::run_par_restart<Simd>(pool, prog, roots, rep.best);
  std::printf("  parallel restart (4 workers): %llu  (%s)\n",
              static_cast<unsigned long long>(par), par == expected ? "ok" : "MISMATCH");
  return par == expected ? 0 : 1;
}
