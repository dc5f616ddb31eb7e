// Bridges QueryServer batches onto the hybrid executor — through the
// runtime ISA dispatch tables.
//
// Each factory below returns a serve::RunnerFactory: the router invokes it
// with the lane's *resolved* kernel table (forced width honored,
// TB_SIMD_ISA honored when unforced), and the table's make_serve_* entry
// point builds the actual runner — lockstep::make_serve at THAT table's
// width: the hybrid executor's per-slot driver (per-slot engines and
// kernel copies, frame donation when HybridOptions::donation asks for it),
// kept warm across batches, re-expanding each dense id batch from the root.
// No caller instantiates an engine at a compile-time width.
//
// Engines persist across batches (per-slot block pools stay warm), which
// is the point of a persistent serving pool: no per-request engine or
// worker setup.  Ranges mapped to one slot never run concurrently
// (hybrid_for's contract), so the per-slot engines need no locking.  In a
// multi-kernel server each registered kernel lane gets its own runner
// (hence its own per-slot engines) over the SAME pool — batches serialize
// on the admission thread, so two lanes never race on the pool's slots.
//
// Lifetimes: the pool, the program, and (for pointcorr) the per-slot
// partials array — rt::hybrid_slots(pool) Padded<uint64_t> entries,
// indexed by hybrid slot, each added to after every batch — must outlive
// the server that owns the runner.
#pragma once

#include "apps/knn.hpp"
#include "apps/minmaxdist.hpp"
#include "apps/pointcorr.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/hybrid.hpp"
#include "serve/server.hpp"
#include "simd/dispatch.hpp"

namespace tb::serve {

inline RunnerFactory knn_pool_runner(rt::ForkJoinPool& pool, const rt::HybridOptions& opt,
                                     const apps::KnnProgram& prog) {
  return [&pool, opt, &prog](const simd::KernelTable& t) -> BatchRunner {
    return t.make_serve_knn(pool, opt, prog);
  };
}

inline RunnerFactory pointcorr_pool_runner(rt::ForkJoinPool& pool,
                                           const rt::HybridOptions& opt,
                                           const apps::PointCorrProgram& prog,
                                           rt::Padded<std::uint64_t>* parts) {
  return [&pool, opt, &prog, parts](const simd::KernelTable& t) -> BatchRunner {
    return t.make_serve_pointcorr(pool, opt, prog, parts);
  };
}

inline RunnerFactory minmaxdist_pool_runner(rt::ForkJoinPool& pool,
                                            const rt::HybridOptions& opt,
                                            const apps::MinmaxDistProgram& prog) {
  return [&pool, opt, &prog](const simd::KernelTable& t) -> BatchRunner {
    return t.make_serve_minmaxdist(pool, opt, prog);
  };
}

}  // namespace tb::serve
