// The interpreter and the block VM for the §5 specification language.
//
// One evaluator, run_chunk<V>, executes the straight-line chunks produced by
// compiler.hpp over a lane type V:
//
//   V = std::int64_t — one task at a time: the interpreter tier;
//   V = IBatch<W>    — W tasks in lock-step: every stack slot is a
//                      batch<int64,W>, every instruction executes on all
//                      lanes, and divergence is handled by the *caller's*
//                      masks — the masked-execution discipline of the
//                      paper's hand-vectorized kernels (§6), obtained here
//                      mechanically from the program text.
//
// A third tier runs the same chunks as jitted native step functions
// (spec/jit/jit_compiler.hpp), and the SoA layer runs a whole block range
// through the method's jitted block loop.  The interpreter remains the
// always-available fallback — non-x86 builds, TB_SPEC_JIT=off, or any chunk
// the JIT declines compute exactly the same results (the JIT reproduces
// wrap/total semantics bit for bit).
//
// CompiledSpecProgram packages one compiled method into a program satisfying
// the same TaskProgram / SoaProgram / SimdProgram concepts as the
// hand-written kernels, which means a *text* spec program runs through every
// scheduler and every execution layer (Block / SOA / SIMD) unchanged — the
// full §5.3 transformation pipeline: parse → compile → blocked, vectorized
// execution.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/program.hpp"
#include "simd/batch.hpp"
#include "simd/soa.hpp"
#include "spec/arith.hpp"
#include "spec/bytecode.hpp"
#include "spec/compiler.hpp"
#include "spec/jit/jit_compiler.hpp"
#include "spec/spec_lang.hpp"

namespace tb::spec {

template <int W>
using IBatch = simd::batch<std::int64_t, W>;

namespace detail {
// r = f(a, b) on every lane: the one place the evaluator's two lane types
// differ.
template <class F>
inline std::int64_t lanewise(F f, std::int64_t a, std::int64_t b) {
  return f(a, b);
}
template <class F, int W>
inline IBatch<W> lanewise(F f, const IBatch<W>& a, const IBatch<W>& b) {
  IBatch<W> r;
  for (int i = 0; i < W; ++i) r.lane[i] = f(a.lane[i], b.lane[i]);
  return r;
}
}  // namespace detail

// Evaluates a verified chunk on V's lanes; `params[i]` supplies parameter i.
// `stack` must provide at least `ch.verify(arity).max_stack` slots;
// CompiledSpecProgram sizes it statically.
template <class V>
inline V run_chunk(const Chunk& ch, std::span<const V> params,
                   std::span<std::type_identity_t<V>> stack) {
  using I = std::int64_t;
  std::size_t sp = 0;
  const auto binary = [&](auto f) {
    stack[sp - 2] = detail::lanewise(f, stack[sp - 2], stack[sp - 1]);
    --sp;
  };
  const auto unary = [&](auto f) {
    stack[sp - 1] = detail::lanewise(f, stack[sp - 1], stack[sp - 1]);
  };
  for (const Instr in : ch.code()) {
    switch (in.op) {
      case OpCode::PushConst: {
        const I c = ch.consts()[static_cast<std::size_t>(in.arg)];
        if constexpr (std::is_same_v<V, I>) {
          stack[sp++] = c;
        } else {
          stack[sp++] = V::broadcast(c);
        }
        break;
      }
      case OpCode::PushParam: stack[sp++] = params[static_cast<std::size_t>(in.arg)]; break;
      case OpCode::Add: binary([](I a, I b) { return wrap_add(a, b); }); break;
      case OpCode::Sub: binary([](I a, I b) { return wrap_sub(a, b); }); break;
      case OpCode::Mul: binary([](I a, I b) { return wrap_mul(a, b); }); break;
      case OpCode::Div: binary([](I a, I b) { return div_total(a, b); }); break;
      case OpCode::Mod: binary([](I a, I b) { return mod_total(a, b); }); break;
      case OpCode::Neg: unary([](I a, I) { return wrap_neg(a); }); break;
      case OpCode::Shl: unary([s = in.arg](I a, I) { return wrap_shl(a, s); }); break;
      case OpCode::CmpEq: binary([](I a, I b) -> I { return a == b; }); break;
      case OpCode::CmpNe: binary([](I a, I b) -> I { return a != b; }); break;
      case OpCode::CmpLt: binary([](I a, I b) -> I { return a < b; }); break;
      case OpCode::CmpLe: binary([](I a, I b) -> I { return a <= b; }); break;
      case OpCode::CmpGt: binary([](I a, I b) -> I { return a > b; }); break;
      case OpCode::CmpGe: binary([](I a, I b) -> I { return a >= b; }); break;
      case OpCode::LogicNot: unary([](I a, I) -> I { return a == 0; }); break;
      case OpCode::LogicAnd: binary([](I a, I b) -> I { return (a != 0) & (b != 0); }); break;
      case OpCode::LogicOr: binary([](I a, I b) -> I { return (a != 0) | (b != 0); }); break;
      case OpCode::Bool: unary([](I a, I) -> I { return a != 0; }); break;
      case OpCode::Return: return stack[sp - 1];
    }
  }
  throw std::logic_error("chunk fell off the end (verifier should reject this)");
}

// Whether CompiledSpecProgram compiles its chunks to native code.
//   Auto — platform support AND the TB_SPEC_JIT env switch (the default);
//   Off  — interpreter only (the bench's `vm` tier, fallback tests);
//   On   — ignore the env switch; still interpreter on unsupported builds.
enum class JitMode { Auto, Off, On };

inline bool jit_mode_active(JitMode m) {
  switch (m) {
    case JitMode::Off: return false;
    case JitMode::On: return jit::supported();
    case JitMode::Auto: return jit::supported() && jit::runtime_enabled();
  }
  return false;
}

// ---- compiled spec program ----------------------------------------------------------

// A spec method compiled once to bytecode, exposed as a SimdProgram: the
// per-task tiers (is_base/leaf/expand) run each chunk jitted or on the
// interpreter; expand_soa runs a SoA block range through the jitted block
// loop; expand_simd runs the same chunks on the block VM over batches of 4
// tasks with masked child compaction.  Drop-in replacement for the
// AST-walking SpecProgram — same Task, same Block, same results.
class CompiledSpecProgram {
public:
  using Task = SpecProgram::Task;
  using Result = std::uint64_t;
  static constexpr int max_children = SpecProgram::max_children;
  static constexpr int kMaxStack = 64;

  explicit CompiledSpecProgram(const Method& m, JitMode jit_mode = JitMode::Auto)
      : method_(std::make_shared<const CompiledMethod>(compile_method(m))) {
    if (method_->max_stack > kMaxStack) {
      throw CompileError("expression too deep: needs stack " +
                         std::to_string(method_->max_stack));
    }
    if (method_->spawns.size() > static_cast<std::size_t>(max_children)) {
      throw CompileError("too many spawns (max 8)");
    }
    prepare_chunks(jit_mode);
  }

  static CompiledSpecProgram parse(std::string_view source,
                                   JitMode jit_mode = JitMode::Auto) {
    return CompiledSpecProgram(Parser(source).parse_method(), jit_mode);
  }

  // The compiled method every tier runs; copies share it.
  const CompiledMethod& method() const { return *method_; }
  int arity() const { return method_->arity; }

  // True when at least the base chunk runs jitted (all-or-nothing in
  // practice: the baseline JIT covers the whole verified opcode set).
  bool jit_active() const { return base_pc_.fn != nullptr; }
  // True when the SoA layer runs blocks through the jitted block loop.
  bool block_loop_active() const { return jit_code_.loop() != nullptr; }

  static Result identity() { return 0; }
  static void combine(Result& a, const Result& b) { a += b; }

  bool is_base(const Task& t) const { return eval_scalar(base_pc_, t) != 0; }
  void leaf(const Task& t, Result& r) const {
    r += static_cast<Result>(eval_scalar(reduce_pc_, t));
  }

  template <class Emit>
  void expand(const Task& t, Emit&& emit) const {
    int slot = 0;
    for (const PreparedSpawn& s : spawn_pcs_) {
      if (!s.has_guard || eval_scalar(s.guard, t) != 0) {
        Task child{};
        for (std::size_t i = 0; i < s.args.size(); ++i) {
          child.p[i] = eval_scalar(s.args[i], t);
        }
        emit(slot, child);
      }
      ++slot;
    }
  }

  // ---- SoA layer (same storage as SpecProgram) --------------------------------
  using Block = SpecProgram::Block;
  static Task task_at(const Block& b, std::size_t i) { return SpecProgram::task_at(b, i); }
  static void append_task(Block& b, const Task& t) { SpecProgram::append_task(b, t); }

  // The SoA layer's hook (core::SoaExec): runs rows [begin, end) of `in`
  // through the jitted block loop, which appends the same children in the
  // same order (task-major, slots ascending) and adds the same leaf sum and
  // count as SoaExec's per-task loop.  Returns false, having done nothing,
  // when the method has no loop; SoaExec then runs that per-task loop.
  bool expand_soa(const Block& in, std::size_t begin, std::size_t end,
                  const std::array<Block*, static_cast<std::size_t>(max_children)>& outs,
                  Result& r, std::uint64_t& leaves) const {
    if (jit_code_.loop() == nullptr) return false;
    if (begin != end) run_block_loop(in, begin, end, outs, r, leaves);
    return true;
  }

  // ---- SIMD layer ---------------------------------------------------------------
  static constexpr int simd_width = 4;  // 4 × i64 per 256-bit vector

  void expand_simd(const Block& in, std::size_t begin, std::size_t end,
                   const std::array<Block*, static_cast<std::size_t>(max_children)>& outs,
                   Result& r, std::uint64_t& leaves) const {
    using B = IBatch<simd_width>;
    const CompiledMethod& m = *method_;
    std::array<B, kMaxStack> stack;
    std::array<B, 4> params;
    const auto eval = [&](const Chunk& ch) { return run_chunk<B>(ch, params, stack); };
    const auto truthy = [](const B& v) { return simd::cmp_ne(v, B::zero()); };
    Result sum = 0;
    std::uint64_t leaf_count = 0;
    for (std::size_t i = begin; i < end; i += simd_width) {
      params[0] = B::loadu(in.data<0>() + i);
      params[1] = B::loadu(in.data<1>() + i);
      params[2] = B::loadu(in.data<2>() + i);
      params[3] = B::loadu(in.data<3>() + i);
      const std::uint32_t base = truthy(eval(m.base));
      if (base != 0) {
        // Summed as Result: unsigned lanes wrap where int64 lanes would overflow.
        sum += simd::reduce_add_masked<Result>(base, eval(m.reduce));
        leaf_count += std::popcount(base);
      }
      const std::uint32_t rec = base ^ simd::mask_all<simd_width>;
      if (rec == 0) continue;
      int slot = 0;
      for (const CompiledSpawn& s : m.spawns) {
        std::uint32_t mask = rec;
        if (s.has_guard) mask &= truthy(eval(s.guard));
        if (mask != 0) {
          std::array<B, 4> child{B::zero(), B::zero(), B::zero(), B::zero()};
          for (std::size_t a = 0; a < s.args.size(); ++a) child[a] = eval(s.args[a]);
          outs[static_cast<std::size_t>(slot)]->append_compact(mask, child[0], child[1],
                                                               child[2], child[3]);
        }
        ++slot;
      }
    }
    r += sum;
    leaves += leaf_count;
  }

  Task make_root(std::initializer_list<std::int64_t> args) const {
    Task t{};
    std::size_t i = 0;
    for (const auto a : args) t.p[i++] = a;
    return t;
  }

private:
  // A chunk of *method_ paired with its jitted entry (null: interpret it).
  struct PreparedChunk {
    const Chunk* chunk = nullptr;
    jit::Fn fn = nullptr;
  };
  struct PreparedSpawn {
    bool has_guard = false;
    PreparedChunk guard;
    std::vector<PreparedChunk> args;
  };

  // expand_soa's call into the loop.  Kept out of line: the schedulers
  // inline the SoA layer at every block step, and the per-task loop they
  // keep for JIT-off programs should not grow with it.
  [[gnu::noinline]] void run_block_loop(
      const Block& in, std::size_t begin, std::size_t end,
      const std::array<Block*, static_cast<std::size_t>(max_children)>& outs, Result& r,
      std::uint64_t& leaves) const {
    // The distinct out blocks (one in BFE, one per slot in DFE), each with
    // its row cursor and the rows reserved for it: a task emits at most one
    // child per slot.
    std::array<Block*, max_children> blocks{};
    std::array<std::uint64_t, max_children> cursor{};
    std::array<std::uint64_t, max_children> bound{};
    std::size_t n_blocks = 0;
    jit::LoopFrame f{};
    for (std::size_t s = 0; s < spawn_pcs_.size(); ++s) {
      std::size_t j = 0;
      while (j < n_blocks && blocks[j] != outs[s]) ++j;
      if (j == n_blocks) {
        blocks[j] = outs[s];
        cursor[j] = bound[j] = outs[s]->size();
        ++n_blocks;
      }
      bound[j] += end - begin;
      f.slots[s].cursor = &cursor[j];
    }
    for (std::size_t j = 0; j < n_blocks; ++j) blocks[j]->reserve(bound[j]);
    for (std::size_t s = 0; s < spawn_pcs_.size(); ++s) {
      Block& b = *outs[s];
      f.slots[s].col[0] = b.data<0>();
      f.slots[s].col[1] = b.data<1>();
      f.slots[s].col[2] = b.data<2>();
      f.slots[s].col[3] = b.data<3>();
    }
    f.in[0] = in.data<0>();
    f.in[1] = in.data<1>();
    f.in[2] = in.data<2>();
    f.in[3] = in.data<3>();
    f.begin = begin;
    f.end = end;
    f.sum = r;
    f.leaves = leaves;
    jit_code_.loop()(&f);
    for (std::size_t j = 0; j < n_blocks; ++j) {
      // ASan cannot see the jitted stores, so the bound is checked in every
      // build.
      if (cursor[j] > bound[j]) std::abort();
      blocks[j]->resize_up(cursor[j]);
    }
    r = f.sum;
    leaves = f.leaves;
  }

  // The tier switch: native code when the JIT produced it, the interpreter
  // otherwise.  The jitted function allocates its own evaluation frame.
  static std::int64_t eval_scalar(const PreparedChunk& pc, const Task& t) {
    if (pc.fn != nullptr) return pc.fn(t.p.data());
    std::array<std::int64_t, kMaxStack> stack;
    return run_chunk<std::int64_t>(*pc.chunk, t.p, stack);
  }

  // Jit the method (one function per chunk plus the block loop) and pair
  // each chunk with its entry, walking in method_chunks() order.
  void prepare_chunks(JitMode jit_mode) {
    const CompiledMethod& m = *method_;
    if (jit_mode_active(jit_mode)) jit_code_ = jit::compile_method(m);
    std::size_t idx = 0;
    const auto next = [&](const Chunk& ch) { return PreparedChunk{&ch, jit_code_.fn(idx++)}; };
    base_pc_ = next(m.base);
    reduce_pc_ = next(m.reduce);
    for (const CompiledSpawn& s : m.spawns) {
      PreparedSpawn ps;
      ps.has_guard = s.has_guard;
      if (s.has_guard) ps.guard = next(s.guard);
      for (const Chunk& a : s.args) ps.args.push_back(next(a));
      spawn_pcs_.push_back(std::move(ps));
    }
  }

  // Shared and immutable, like the jitted page, so the prepared chunks'
  // pointers stay valid in every copy.
  std::shared_ptr<const CompiledMethod> method_;
  jit::ChunkSet jit_code_;
  PreparedChunk base_pc_;
  PreparedChunk reduce_pc_;
  std::vector<PreparedSpawn> spawn_pcs_;
};

static_assert(tb::core::SimdProgram<CompiledSpecProgram>);
static_assert(CompiledSpecProgram::max_children == jit::LoopFrame::kSlots);

}  // namespace tb::spec
