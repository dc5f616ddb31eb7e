// Runtime multi-ISA kernel dispatch.
//
// One binary, many hosts: each traversal workload is one width-templated
// kernel (lockstep/kernels.hpp) and every entry point is a generic driver
// over it (lockstep/drivers.hpp).  Those are compiled three times — W=4
// under baseline SSE2 flags, W=8 under -mavx2, W=16 under
// -mavx512{f,bw,vl} — in separate translation units (per-ISA OBJECT
// libraries in CMake), and bound here by a table of plain function
// pointers.  Library callers never instantiate a kernel at an explicit
// width; they ask for a `KernelTable` and call through it, so baseline code
// paths contain no AVX instructions and the AVX paths execute only after
// the CPUID probe (simd/isa.hpp) has cleared them.
//
// Adding a traversal workload: write one Kernel<W> in lockstep/kernels.hpp
// (the interface is in lockstep/blocked.hpp), add its fields below, and
// bind each field to its driver in simd/dispatch_table.ipp — one line per
// field, no per-workload body.  A kd-tree query writes no kernel: its
// program derives from apps::KdQuery (apps/kdquery.hpp), whose pruning rule
// every layer calls, and its Kernel<W> is KdTreeKernel<W, Program>.
//
// ODR discipline (why this stays correct under one definition rule):
//   * Width-disjoint instantiation — the sse2 TU instantiates only W=4
//     kernels and drivers, avx2 only W=8, avx512 only W=16, so no two
//     differently-flagged TUs emit the same kernel symbol.  A helper the
//     kernels share is either width-templated or plain scalar code.
//   * Link order — binaries list their own objects before the dispatch
//     archive, and the archive orders sse2 before avx2 before avx512, so
//     any COMDAT shared across TUs (scalar inline helpers such as
//     KnnState::offer) resolves to baseline codegen first.  Shared scalar
//     helpers collapsing to one copy is also what makes digests bit-
//     comparable across ISA levels.
//   * Per-op float math — the per-ISA TUs compile with -ffp-contract=off
//     and without FMA, so a lane's float sequence is the same IEEE op
//     sequence at every width and the dispatch-equivalence matrix
//     (tests/dispatch_test.cpp) can assert bit-identical digests.
//
// Selection: `kernels()` picks the highest table that is (a) compiled in,
// (b) at or below `active_isa()` — which already folds in the host probe
// and the TB_SIMD_ISA override.  `kernels_for()` / `kernels_for_width()`
// fetch a specific level for forced-ISA sweeps and return nullptr when the
// level is missing or the host cannot execute it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "apps/barneshut.hpp"
#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "core/stats.hpp"
#include "lockstep/lockstep.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/hybrid.hpp"
#include "simd/isa.hpp"

namespace tb::simd {

// A type-erased serving runner: traverses one dense batch of query ids
// from the tree root.  Built by a table's make_serve_* factory and owned
// by a QueryServer kernel lane (serve/router.hpp BatchRunner has the same
// call shape — the serving layer binds lanes to tables through these).
using ServeRunner = std::function<void(const std::int32_t* ids, std::size_t count)>;

// Entry points of one ISA level.  The three scheduler rows are the generic
// drivers of lockstep/drivers.hpp: classic masked lockstep (run_classic),
// single-core blocked re-expansion with a t_reexp threshold (run_blocked),
// and the hybrid vector×multicore executor (run_hybrid).
// `compact_store_u32` exposes the level's streaming-compaction
// rung (VPCOMPRESS / VPERMD / scalar) for differential testing: it
// left-packs the first `width` lanes of `src` by `mask` into `dst`
// (which needs `width` slots of slack) and returns the count.
struct KernelTable {
  Isa isa;
  int width;
  const char* name;

  int (*compact_store_u32)(std::uint32_t* dst, std::uint32_t mask, const std::uint32_t* src);

  void (*lockstep_knn)(const apps::KnnProgram&, lockstep::LockstepStats*);
  std::uint64_t (*lockstep_pointcorr)(const apps::PointCorrProgram&,
                                      lockstep::LockstepStats*);
  std::uint64_t (*lockstep_barneshut)(const apps::BarnesHutProgram&, float theta,
                                      lockstep::LockstepStats*);
  void (*lockstep_minmaxdist)(const apps::MinmaxDistProgram&, lockstep::LockstepStats*);

  void (*blocked_knn)(const apps::KnnProgram&, std::size_t t_reexp, core::ExecStats*);
  std::uint64_t (*blocked_pointcorr)(const apps::PointCorrProgram&, std::size_t t_reexp,
                                     core::ExecStats*);
  std::uint64_t (*blocked_barneshut)(const apps::BarnesHutProgram&, float theta,
                                     std::size_t t_reexp, core::ExecStats*);
  void (*blocked_minmaxdist)(const apps::MinmaxDistProgram&, std::size_t t_reexp,
                             core::ExecStats*);

  void (*hybrid_knn)(rt::ForkJoinPool&, const apps::KnnProgram&, const rt::HybridOptions&,
                     core::PerWorkerStats*);
  std::uint64_t (*hybrid_pointcorr)(rt::ForkJoinPool&, const apps::PointCorrProgram&,
                                    const rt::HybridOptions&, core::PerWorkerStats*);
  std::uint64_t (*hybrid_barneshut)(rt::ForkJoinPool&, const apps::BarnesHutProgram&,
                                    float theta, const rt::HybridOptions&,
                                    core::PerWorkerStats*);
  void (*hybrid_minmaxdist)(rt::ForkJoinPool&, const apps::MinmaxDistProgram&,
                            const rt::HybridOptions&, core::PerWorkerStats*);

  // Serving factories (lockstep::make_serve): each returns a runner that
  // fans a dense id batch out over `pool` — the hybrid executor's per-slot
  // driver, donation included when `opt` asks for it — and re-expands every
  // subrange from the root on a persistent per-slot engine of the table's
  // width (engines stay warm across batches; ranges mapped to one slot
  // never run concurrently, so the engines need no locking).  The program —
  // and for pointcorr the per-slot partials array, rt::hybrid_slots(pool)
  // entries, indexed by hybrid slot and added to after every batch — must
  // outlive the returned runner.
  ServeRunner (*make_serve_knn)(rt::ForkJoinPool&, const rt::HybridOptions&,
                                const apps::KnnProgram&);
  ServeRunner (*make_serve_pointcorr)(rt::ForkJoinPool&, const rt::HybridOptions&,
                                      const apps::PointCorrProgram&,
                                      rt::Padded<std::uint64_t>* parts);
  ServeRunner (*make_serve_minmaxdist)(rt::ForkJoinPool&, const rt::HybridOptions&,
                                       const apps::MinmaxDistProgram&);
};

// The table for `isa`, or nullptr when that level was not compiled in or
// the host cannot execute it.  Lower levels always run on higher hosts.
const KernelTable* kernels_for(Isa isa);

// The table whose lane width is `width` (4 → sse2, 8 → avx2, 16 → avx512);
// nullptr under the same conditions as kernels_for.
const KernelTable* kernels_for_width(int width);

// The process-wide active table: the highest compiled level at or below
// active_isa().  The sse2 table is always compiled, so this never fails.
const KernelTable& kernels();

// Runnable-on-this-host tables, ascending by width (sse2 first).  `count`
// receives the number of entries; the pointer is to static storage.
const KernelTable* const* available_tables(int& count);

}  // namespace tb::simd
