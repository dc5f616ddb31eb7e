// Baseline JIT: verified spec bytecode -> straight-line x86-64 code.
//
// Each chunk compiles to one native function
//
//     std::int64_t fn(const std::int64_t* params)   // params in rdi
//
// that reproduces the interpreter (vm.hpp run_chunk) bit for bit: wrap-around
// add/sub/mul/neg/shl map to the hardware instructions (two's-complement
// wrap *is* the hardware behaviour), comparisons and logic produce exact
// 0/1 values via setcc, and Div/Mod emit the guarded total-division
// sequence (b == 0 -> 0; INT64_MIN / -1 -> INT64_MIN, INT64_MIN % -1 -> 0;
// otherwise cqo+idiv) so the verifier's totality contract survives
// compilation.
//
// The operand stack disappears at compile time: chunks are straight-line,
// so the stack-effect table (bytecode.hpp) gives a single static depth per
// instruction and every slot gets a fixed home — slots 0..3 live in
// r8..r11, deeper slots in the native frame at [rsp + 8*(slot-4)].  No
// dispatch, no stack-pointer arithmetic, no memory traffic for shallow
// expressions (the common case: spec chunks rarely exceed depth 4).
//
// A whole method also compiles to one block loop
//
//     void loop(LoopFrame* f)                        // f in rdi
//
// that runs core::SoaExec's per-task loop over rows [begin, end) of a spec
// block with every chunk lowered inline by the same ChunkCompiler: load
// the row's parameters, evaluate base; add reduce to the leaf sum and
// count the leaf, or evaluate each spawn's guard and arguments and append
// the child to its slot's out columns, task-major and slots ascending,
// zeros past the arity.  One call per block replaces one indirect call per
// chunk per task.  The chunk functions stay for the per-task interface.
//
// Fallback rules (the interpreter is always the reference tier):
//   * non-x86-64 or forced-off builds: compile_chunks()/compile_method()
//     report no code;
//   * TB_SPEC_JIT=off|0|false at runtime: callers skip compilation;
//   * a chunk that fails verification (an unknown opcode included): that
//     chunk's entry is null, and the interpreter runs it; its method gets
//     no block loop.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "spec/bytecode.hpp"
#include "spec/compiler.hpp"
#include "spec/jit/exec_page.hpp"
#include "spec/jit/x64_emitter.hpp"

namespace tb::spec::jit {

using Fn = std::int64_t (*)(const std::int64_t* params);

// What a block loop reads and writes.  Every slot the method spawns into
// names its out block's four columns and that block's row cursor; slots
// mapped to one block (BFE) share one cursor.  The caller reserves the rows
// the loop may append and commits the cursors afterwards.
struct LoopFrame {
  static constexpr int kSlots = 8;
  struct Slot {
    std::int64_t* col[4];
    std::uint64_t* cursor;
  };
  const std::int64_t* in[4];  // the block's parameter columns
  std::uint64_t begin, end;   // rows [begin, end), begin < end
  std::uint64_t sum;          // the leaf values are added here
  std::uint64_t leaves;       // and the leaves counted here
  Slot slots[kSlots];
};

using LoopFn = void (*)(LoopFrame* frame);

constexpr bool supported() { return TB_SPEC_JIT_SUPPORTED != 0; }

// Runtime kill switch: TB_SPEC_JIT=off (or 0/false) forces the interpreter
// even on supported hosts.  Read once; serving processes don't re-poll env.
inline bool runtime_enabled() {
  static const bool on = [] {
    const char* v = std::getenv("TB_SPEC_JIT");
    if (v == nullptr) return true;
    const std::string_view s(v);
    return !(s == "off" || s == "OFF" || s == "0" || s == "false");
  }();
  return on;
}

// Compiled code for a set of chunks (one method), and for a method its
// block loop.  Entry i is null when chunk i fell back to the interpreter.
// The ExecPage is shared so copies of a program stay cheap and keep the
// code alive.
class ChunkSet {
public:
  ChunkSet() = default;
  ChunkSet(std::shared_ptr<ExecPage> page, std::vector<Fn> fns, LoopFn loop)
      : page_(std::move(page)), fns_(std::move(fns)), loop_(loop) {}

  bool valid() const { return page_ != nullptr && page_->is_executable(); }
  std::size_t size() const { return fns_.size(); }
  Fn fn(std::size_t i) const { return i < fns_.size() ? fns_[i] : nullptr; }
  LoopFn loop() const { return loop_; }

private:
  std::shared_ptr<ExecPage> page_;
  std::vector<Fn> fns_;
  LoopFn loop_ = nullptr;
};

#if TB_SPEC_JIT_SUPPORTED

namespace detail {

// Where a stack slot lives: a register for the hot shallow slots, the
// native frame beyond.
struct Loc {
  bool in_reg;
  Reg reg;            // valid when in_reg
  std::int32_t disp;  // [rsp + disp] when !in_reg
};

inline Loc slot_loc(int slot) {
  static constexpr Reg kSlotRegs[4] = {R8, R9, R10, R11};
  if (slot < 4) return {true, kSlotRegs[slot], 0};
  return {false, RSP, static_cast<std::int32_t>(8 * (slot - 4))};
}

// Bytes of native frame a chunk of stack depth `max_stack` spills into.
inline std::int32_t spill_bytes(int max_stack) { return max_stack > 4 ? 8 * (max_stack - 4) : 0; }

class ChunkCompiler {
public:
  ChunkCompiler(X64Emitter& em, const Chunk& ch) : em_(em), ch_(ch) {}

  // Appends one complete function to the emitter; false = rejected chunk.
  // Verification runs before emission starts, so a rejected chunk emits
  // nothing.
  bool compile(int arity) {
    const VerifyResult v = ch_.verify(arity);
    if (!v.ok) return false;
    const std::int32_t frame = spill_bytes(v.max_stack);
    if (frame > 0) em_.sub_rsp(frame);
    lower();
    if (frame > 0) em_.add_rsp(frame);
    em_.ret();
    return true;
  }

  // Emits the verified chunk's body, leaving its value in rax.  Parameter i
  // is read from [rdi + 8i]; slots past r11 spill to [rsp + 8*(slot-4)],
  // which the caller reserved (spill_bytes).  Clobbers rax, rcx, rdx and
  // r8-r11 only.
  void lower() {
    const auto& consts = ch_.consts();
    int d = 0;  // static stack depth before the instruction
    for (const Instr in : ch_.code()) {
      const OpInfo& info = *op_info(in.op);
      const Loc a = slot_loc(d - info.pops);  // push target, unary operand, or binary lhs
      switch (in.op) {
        case OpCode::PushConst:
          emit_push_const(consts[static_cast<std::size_t>(in.arg)], a);
          break;
        case OpCode::PushParam:
          emit_push_param(in.arg, a);
          break;
        case OpCode::Add:
        case OpCode::Sub:
        case OpCode::Mul:
          emit_arith(in.op, a, slot_loc(d - 1));
          break;
        case OpCode::Div:
        case OpCode::Mod:
          emit_divmod(/*want_rem=*/in.op == OpCode::Mod, a, slot_loc(d - 1));
          break;
        case OpCode::Neg:
          if (a.in_reg) {
            em_.neg_r(a.reg);
          } else {
            em_.neg_m(RSP, a.disp);
          }
          break;
        case OpCode::Shl: {
          const auto amount = static_cast<std::uint8_t>(in.arg);
          if (a.in_reg) {
            em_.shl_ri(a.reg, amount);
          } else {
            em_.shl_mi(RSP, a.disp, amount);
          }
          break;
        }
        case OpCode::CmpEq:
        case OpCode::CmpNe:
        case OpCode::CmpLt:
        case OpCode::CmpLe:
        case OpCode::CmpGt:
        case OpCode::CmpGe: {
          static constexpr Cond kCond[] = {Cond::Eq, Cond::Ne, Cond::Lt,
                                           Cond::Le, Cond::Gt, Cond::Ge};
          emit_compare(kCond[static_cast<int>(in.op) - static_cast<int>(OpCode::CmpEq)], a,
                       slot_loc(d - 1));
          break;
        }
        case OpCode::LogicNot:
          emit_truth(Cond::Eq, a);
          break;
        case OpCode::Bool:
          emit_truth(Cond::Ne, a);
          break;
        case OpCode::LogicAnd:
        case OpCode::LogicOr:
          emit_logic(/*is_and=*/in.op == OpCode::LogicAnd, a, slot_loc(d - 1));
          break;
        case OpCode::Return:
          load(RAX, a);
          break;
      }
      d += info.pushes - info.pops;
    }
  }

private:
  void load(Reg dst, const Loc& l) {
    if (l.in_reg) {
      em_.mov_rr(dst, l.reg);
    } else {
      em_.mov_rm(dst, RSP, l.disp);
    }
  }
  void store(const Loc& l, Reg src) {
    if (l.in_reg) {
      em_.mov_rr(l.reg, src);
    } else {
      em_.mov_mr(RSP, l.disp, src);
    }
  }

  void emit_push_const(std::int64_t v, const Loc& t) {
    if (t.in_reg) {
      em_.mov_ri(t.reg, v);
    } else if (X64Emitter::fits_i32(v)) {
      em_.mov_mi32(RSP, t.disp, static_cast<std::int32_t>(v));
    } else {
      em_.mov_ri(RAX, v);
      em_.mov_mr(RSP, t.disp, RAX);
    }
  }

  void emit_push_param(std::int32_t idx, const Loc& t) {
    const auto off = static_cast<std::int32_t>(8 * idx);
    if (t.in_reg) {
      em_.mov_rm(t.reg, RDI, off);
    } else {
      em_.mov_rm(RAX, RDI, off);
      em_.mov_mr(RSP, t.disp, RAX);
    }
  }

  // a <- a op b for the wrap-around ops (hardware semantics already match).
  void emit_arith(OpCode op, const Loc& a, const Loc& b) {
    if (a.in_reg) {
      if (b.in_reg) {
        switch (op) {
          case OpCode::Add: em_.add_rr(a.reg, b.reg); break;
          case OpCode::Sub: em_.sub_rr(a.reg, b.reg); break;
          default: em_.imul_rr(a.reg, b.reg); break;
        }
      } else {
        switch (op) {
          case OpCode::Add: em_.add_rm(a.reg, RSP, b.disp); break;
          case OpCode::Sub: em_.sub_rm(a.reg, RSP, b.disp); break;
          default: em_.imul_rm(a.reg, RSP, b.disp); break;
        }
      }
      return;
    }
    em_.mov_rm(RAX, RSP, a.disp);
    if (b.in_reg) {
      switch (op) {
        case OpCode::Add: em_.add_rr(RAX, b.reg); break;
        case OpCode::Sub: em_.sub_rr(RAX, b.reg); break;
        default: em_.imul_rr(RAX, b.reg); break;
      }
    } else {
      switch (op) {
        case OpCode::Add: em_.add_rm(RAX, RSP, b.disp); break;
        case OpCode::Sub: em_.sub_rm(RAX, RSP, b.disp); break;
        default: em_.imul_rm(RAX, RSP, b.disp); break;
      }
    }
    em_.mov_mr(RSP, a.disp, RAX);
  }

  // a <- (a cond b) ? 1 : 0
  void emit_compare(Cond c, const Loc& a, const Loc& b) {
    if (a.in_reg && b.in_reg) {
      em_.cmp_rr(a.reg, b.reg);
    } else if (a.in_reg) {
      em_.cmp_rm(a.reg, RSP, b.disp);
    } else {
      em_.mov_rm(RAX, RSP, a.disp);
      if (b.in_reg) {
        em_.cmp_rr(RAX, b.reg);
      } else {
        em_.cmp_rm(RAX, RSP, b.disp);
      }
    }
    em_.setcc(c, RAX);
    em_.movzx_r64_r8(RAX, RAX);
    store(a, RAX);
  }

  void emit_cmp_zero(const Loc& l) {
    if (l.in_reg) {
      em_.test_rr(l.reg, l.reg);
    } else {
      em_.cmp_mi8(RSP, l.disp, 0);
    }
  }

  // t <- (t == 0) for LogicNot (cond Eq), (t != 0) for Bool (cond Ne).
  void emit_truth(Cond c, const Loc& t) {
    emit_cmp_zero(t);
    em_.setcc(c, RAX);
    em_.movzx_r64_r8(RAX, RAX);
    store(t, RAX);
  }

  // a <- (a != 0) &/| (b != 0); both sides are already evaluated.
  void emit_logic(bool is_and, const Loc& a, const Loc& b) {
    emit_cmp_zero(a);
    em_.setcc(Cond::Ne, RAX);
    emit_cmp_zero(b);
    em_.setcc(Cond::Ne, RCX);
    if (is_and) {
      em_.and_r8(RAX, RCX);
    } else {
      em_.or_r8(RAX, RCX);
    }
    em_.movzx_r64_r8(RAX, RAX);
    store(a, RAX);
  }

  // a <- div_total(a, b) / mod_total(a, b):
  //   b == 0                    -> 0
  //   a == INT64_MIN && b == -1 -> a (div) / 0 (mod)    [idiv would #DE]
  //   otherwise                 -> cqo; idiv
  void emit_divmod(bool want_rem, const Loc& a, const Loc& b) {
    load(RAX, a);
    load(RCX, b);
    em_.test_rr(RCX, RCX);
    const std::size_t to_nonzero = em_.jcc(Cond::Ne);
    em_.xor_r32(RAX);  // b == 0: result 0
    const std::size_t to_end_zero = em_.jmp();
    em_.patch_to_here(to_nonzero);
    em_.cmp_ri8(RCX, -1);
    const std::size_t to_div1 = em_.jcc(Cond::Ne);
    em_.mov_ri(RDX, std::numeric_limits<std::int64_t>::min());
    em_.cmp_rr(RAX, RDX);
    const std::size_t to_div2 = em_.jcc(Cond::Ne);
    if (want_rem) em_.xor_r32(RAX);  // INT64_MIN % -1 == 0; div keeps rax == a
    const std::size_t to_end_min = em_.jmp();
    em_.patch_to_here(to_div1);
    em_.patch_to_here(to_div2);
    em_.cqo();
    em_.idiv_r(RCX);
    if (want_rem) em_.mov_rr(RAX, RDX);
    em_.patch_to_here(to_end_zero);
    em_.patch_to_here(to_end_min);
    store(a, RAX);
  }

  X64Emitter& em_;
  const Chunk& ch_;
};

// Appends the method's block loop (see the header comment); false, having
// emitted nothing, when a chunk fails verification or the method's shape
// does not fit a LoopFrame.
//
// Registers across the loop: rbx = the frame, rbp = the row, r12 = end,
// r13 = the leaf sum, r14 = the leaf count, rdi = the row's parameters
// (copied to the native frame above the spill slots), rsi = the child's row
// in its out block.  The lowered chunks clobber only rax, rcx, rdx and
// r8-r11.
inline bool compile_loop(X64Emitter& em, const CompiledMethod& m) {
  const auto arity = static_cast<std::size_t>(m.arity);
  if (arity > 4 || m.spawns.size() > static_cast<std::size_t>(LoopFrame::kSlots)) return false;
  std::int32_t spill = 0;
  for (const Chunk* ch : method_chunks(m)) {
    const VerifyResult v = ch->verify(m.arity);
    if (!v.ok) return false;
    spill = std::max(spill, spill_bytes(v.max_stack));
  }
  for (const CompiledSpawn& s : m.spawns) {
    if (s.args.size() > 4) return false;
  }
  const auto at = [](std::size_t off) { return static_cast<std::int32_t>(off); };
  const auto slot_at = [&](std::size_t s, std::size_t member) {
    return at(offsetof(LoopFrame, slots) + s * sizeof(LoopFrame::Slot) + member);
  };
  const auto lower = [&em](const Chunk& ch) { ChunkCompiler(em, ch).lower(); };
  const std::int32_t frame = spill + 32;
  static constexpr Reg kSaved[] = {RBX, RBP, R12, R13, R14};

  for (const Reg r : kSaved) em.push(r);
  em.sub_rsp(frame);
  em.mov_rr(RBX, RDI);
  em.lea(RDI, RSP, spill);
  em.mov_rm(RBP, RBX, at(offsetof(LoopFrame, begin)));
  em.mov_rm(R12, RBX, at(offsetof(LoopFrame, end)));
  em.mov_rm(R13, RBX, at(offsetof(LoopFrame, sum)));
  em.mov_rm(R14, RBX, at(offsetof(LoopFrame, leaves)));

  const std::size_t head = em.size();
  for (std::size_t k = 0; k < arity; ++k) {
    em.mov_rm(RAX, RBX, at(offsetof(LoopFrame, in) + 8 * k));
    em.mov_r_idx(RAX, RAX, RBP);
    em.mov_mr(RDI, at(8 * k), RAX);
  }
  lower(m.base);
  em.test_rr(RAX, RAX);
  const std::size_t to_expand = em.jcc(Cond::Eq);
  lower(m.reduce);
  em.add_rr(R13, RAX);
  em.add_ri8(R14, 1);
  const std::size_t to_next = em.jmp();

  em.patch_to_here(to_expand);
  for (std::size_t s = 0; s < m.spawns.size(); ++s) {
    const CompiledSpawn& sp = m.spawns[s];
    std::size_t to_skip = 0;
    if (sp.has_guard) {
      lower(sp.guard);
      em.test_rr(RAX, RAX);
      to_skip = em.jcc(Cond::Eq);
    }
    const std::int32_t cursor = slot_at(s, offsetof(LoopFrame::Slot, cursor));
    em.mov_rm(RSI, RBX, cursor);
    em.mov_rm(RSI, RSI, 0);
    for (std::size_t k = 0; k < 4; ++k) {
      if (k < sp.args.size()) {
        lower(sp.args[k]);
      } else if (k == sp.args.size()) {
        em.xor_r32(RAX);
      }
      em.mov_rm(RCX, RBX, slot_at(s, offsetof(LoopFrame::Slot, col) + 8 * k));
      em.mov_idx_r(RCX, RSI, RAX);
    }
    em.mov_rm(RCX, RBX, cursor);
    em.add_mi8(RCX, 0, 1);
    if (sp.has_guard) em.patch_to_here(to_skip);
  }

  em.patch_to_here(to_next);
  em.add_ri8(RBP, 1);
  em.cmp_rr(RBP, R12);
  em.patch_to(em.jcc(Cond::Lt), head);

  em.mov_mr(RBX, at(offsetof(LoopFrame, sum)), R13);
  em.mov_mr(RBX, at(offsetof(LoopFrame, leaves)), R14);
  em.add_rsp(frame);
  for (auto r = std::rbegin(kSaved); r != std::rend(kSaved); ++r) em.pop(*r);
  em.ret();
  return true;
}

// Emits one function per chunk and, given a method, its block loop into one
// executable page.  Per-chunk fallback: an unsupported chunk yields a null
// entry; page-allocation or mprotect failure yields an entirely invalid
// (all-interpreter) set.
inline ChunkSet compile(std::span<const Chunk* const> chunks, int arity,
                        const CompiledMethod* method) {
  X64Emitter em;
  std::vector<std::size_t> offsets(chunks.size());
  std::vector<bool> ok(chunks.size(), false);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    offsets[i] = em.size();
    ChunkCompiler cc(em, *chunks[i]);
    ok[i] = cc.compile(arity);
  }
  const std::size_t loop_offset = em.size();
  const bool loop_ok = method != nullptr && compile_loop(em, *method);
  if (em.size() == 0) return {};
  auto page = std::make_shared<ExecPage>(ExecPage::allocate(em.size()));
  if (!page->is_valid()) return {};
  std::memcpy(page->writable(), em.code().data(), em.size());
  if (!page->protect_exec()) return {};
  const auto entry = [&page](std::size_t off) {
    return const_cast<std::uint8_t*>(page->code() + off);
  };
  std::vector<Fn> fns(chunks.size(), nullptr);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (ok[i]) fns[i] = reinterpret_cast<Fn>(entry(offsets[i]));
  }
  const LoopFn loop = loop_ok ? reinterpret_cast<LoopFn>(entry(loop_offset)) : nullptr;
  return {std::move(page), std::move(fns), loop};
}

}  // namespace detail

// Compile chunks into one executable page; entry i is chunk i's function.
inline ChunkSet compile_chunks(std::span<const Chunk* const> chunks, int arity) {
  return detail::compile(chunks, arity, nullptr);
}

// Compile a method: one function per chunk, in method_chunks() order, plus
// its block loop, all in one executable page.
inline ChunkSet compile_method(const CompiledMethod& m) {
  const std::vector<const Chunk*> chunks = method_chunks(m);
  return detail::compile(chunks, m.arity, &m);
}

#else  // !TB_SPEC_JIT_SUPPORTED

// Fallback build: no code is ever produced; every entry stays null and the
// interpreter runs everything.
inline ChunkSet compile_chunks(std::span<const Chunk* const>, int) { return {}; }
inline ChunkSet compile_method(const CompiledMethod&) { return {}; }

#endif  // TB_SPEC_JIT_SUPPORTED

}  // namespace tb::spec::jit
