// Minimal x86-64 machine-code emitter for the spec-bytecode baseline JIT.
//
// Covers exactly the instruction set jit_compiler.hpp needs to lower
// verified stack bytecode: 64-bit moves (reg/imm/memory with [base+disp]
// and [base+index*8] addressing), the ALU ops behind the language's
// wrap-around arithmetic (add/sub/imul/neg/shl are two's-complement wrap in
// hardware, which is precisely wrap_add/wrap_sub/wrap_mul/wrap_neg/wrap_shl),
// cqo+idiv for the guarded total-division sequence, setcc/movzx for
// 0/1-valued comparisons, push/pop of the callee-saved registers, and rel32
// jumps patched once their target is known (spec chunks themselves are
// jump-free: the guarded division sequence jumps forward, the block loop
// branches on base/guard values and jumps back to its head).
//
// Code is emitted into a plain byte vector; the caller copies it into an
// ExecPage afterwards.  All generated code is position-independent — the
// only absolute values are int64 immediates.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "spec/jit/exec_page.hpp"

namespace tb::spec::jit {

enum Reg : std::uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
};

// setcc / jcc condition codes (the low nibble of the 0F 9x / 0F 8x opcode).
enum class Cond : std::uint8_t {
  Eq = 0x4,   // ZF
  Ne = 0x5,
  Lt = 0xC,   // signed <
  Ge = 0xD,
  Le = 0xE,
  Gt = 0xF,
};

class X64Emitter {
public:
  const std::vector<std::uint8_t>& code() const { return code_; }
  std::size_t size() const { return code_.size(); }

  // ---- moves ----------------------------------------------------------------------
  void mov_ri(Reg dst, std::int64_t imm) {
    if (fits_i32(imm)) {
      // REX.W C7 /0 id — sign-extended 32-bit immediate.
      rex(1, 0, dst);
      u8(0xC7);
      modrm_reg(0, dst);
      i32(static_cast<std::int32_t>(imm));
    } else {
      rex(1, 0, dst);
      u8(static_cast<std::uint8_t>(0xB8 | (dst & 7)));
      i64(imm);
    }
  }
  void mov_rr(Reg dst, Reg src) {
    rex(1, src, dst);
    u8(0x89);
    modrm_reg(src, dst);
  }
  void mov_rm(Reg dst, Reg base, std::int32_t disp) {  // dst = [base+disp]
    rex(1, dst, base);
    u8(0x8B);
    modrm_mem(dst, base, disp);
  }
  void mov_mr(Reg base, std::int32_t disp, Reg src) {  // [base+disp] = src
    rex(1, src, base);
    u8(0x89);
    modrm_mem(src, base, disp);
  }
  void mov_mi32(Reg base, std::int32_t disp, std::int32_t imm) {  // [base+disp] = simm32
    rex(1, 0, base);
    u8(0xC7);
    modrm_mem(0, base, disp);
    i32(imm);
  }
  void mov_r_idx(Reg dst, Reg base, Reg index) {  // dst = [base + index*8]
    rex(1, dst, base, index);
    u8(0x8B);
    modrm_idx(dst, base, index);
  }
  void mov_idx_r(Reg base, Reg index, Reg src) {  // [base + index*8] = src
    rex(1, src, base, index);
    u8(0x89);
    modrm_idx(src, base, index);
  }
  void lea(Reg dst, Reg base, std::int32_t disp) {  // dst = base + disp
    rex(1, dst, base);
    u8(0x8D);
    modrm_mem(dst, base, disp);
  }

  // ---- ALU ------------------------------------------------------------------------
  // op in {add 0x01/0x03, sub 0x29/0x2B, cmp 0x39/0x3B, and 0x21, or 0x09,
  // xor 0x31, test 0x85}; expressed as dedicated emitters for clarity.
  void add_rr(Reg dst, Reg src) { alu_rr(0x01, src, dst); }
  void sub_rr(Reg dst, Reg src) { alu_rr(0x29, src, dst); }
  void cmp_rr(Reg a, Reg b) { alu_rr(0x39, b, a); }
  void test_rr(Reg a, Reg b) { alu_rr(0x85, b, a); }

  void add_rm(Reg dst, Reg base, std::int32_t disp) { alu_rm(0x03, dst, base, disp); }
  void sub_rm(Reg dst, Reg base, std::int32_t disp) { alu_rm(0x2B, dst, base, disp); }
  void cmp_rm(Reg a, Reg base, std::int32_t disp) { alu_rm(0x3B, a, base, disp); }

  void imul_rr(Reg dst, Reg src) {
    rex(1, dst, src);
    u8(0x0F);
    u8(0xAF);
    modrm_reg(dst, src);
  }
  void imul_rm(Reg dst, Reg base, std::int32_t disp) {
    rex(1, dst, base);
    u8(0x0F);
    u8(0xAF);
    modrm_mem(dst, base, disp);
  }

  void neg_r(Reg r) {  // F7 /3
    rex(1, 0, r);
    u8(0xF7);
    modrm_reg(3, r);
  }
  void neg_m(Reg base, std::int32_t disp) {
    rex(1, 0, base);
    u8(0xF7);
    modrm_mem(3, base, disp);
  }

  void shl_ri(Reg r, std::uint8_t amount) {  // C1 /4 ib
    rex(1, 0, r);
    u8(0xC1);
    modrm_reg(4, r);
    u8(amount);
  }
  void shl_mi(Reg base, std::int32_t disp, std::uint8_t amount) {
    rex(1, 0, base);
    u8(0xC1);
    modrm_mem(4, base, disp);
    u8(amount);
  }

  void cmp_ri8(Reg r, std::int8_t imm) {  // 83 /7 ib
    rex(1, 0, r);
    u8(0x83);
    modrm_reg(7, r);
    u8(static_cast<std::uint8_t>(imm));
  }
  void cmp_mi8(Reg base, std::int32_t disp, std::int8_t imm) {
    rex(1, 0, base);
    u8(0x83);
    modrm_mem(7, base, disp);
    u8(static_cast<std::uint8_t>(imm));
  }

  void add_ri8(Reg r, std::int8_t imm) {  // 83 /0 ib
    rex(1, 0, r);
    u8(0x83);
    modrm_reg(0, r);
    u8(static_cast<std::uint8_t>(imm));
  }
  void add_mi8(Reg base, std::int32_t disp, std::int8_t imm) {
    rex(1, 0, base);
    u8(0x83);
    modrm_mem(0, base, disp);
    u8(static_cast<std::uint8_t>(imm));
  }

  void xor_r32(Reg r) {  // xor r32,r32 zeroes the full 64-bit register
    if (r >= R8) rex(0, r, r);
    u8(0x31);
    modrm_reg(r, r);
  }

  // ---- flags -> 0/1 ---------------------------------------------------------------
  // setcc al / cl only (no REX needed for the legacy low-byte registers).
  void setcc(Cond c, Reg r8lo) {
    assert(r8lo == RAX || r8lo == RCX);
    u8(0x0F);
    u8(static_cast<std::uint8_t>(0x90 | static_cast<std::uint8_t>(c)));
    modrm_reg(0, r8lo);
  }
  void movzx_r64_r8(Reg dst, Reg src8) {  // REX.W 0F B6 /r
    rex(1, dst, src8);
    u8(0x0F);
    u8(0xB6);
    modrm_reg(dst, src8);
  }
  void and_r8(Reg dst8, Reg src8) {  // and al, cl (byte form 0x20)
    assert(dst8 <= RDX && src8 <= RDX);
    u8(0x20);
    modrm_reg(src8, dst8);
  }
  void or_r8(Reg dst8, Reg src8) {
    assert(dst8 <= RDX && src8 <= RDX);
    u8(0x08);
    modrm_reg(src8, dst8);
  }

  // ---- division -------------------------------------------------------------------
  void cqo() {
    u8(0x48);
    u8(0x99);
  }
  void idiv_r(Reg r) {  // F7 /7; quotient -> rax, remainder -> rdx
    rex(1, 0, r);
    u8(0xF7);
    modrm_reg(7, r);
  }

  // ---- control flow ---------------------------------------------------------------
  // jcc/jmp emit a rel32 placeholder and return its patch position; patch_to
  // points it at any code position, before or after it.
  std::size_t jcc(Cond c) {
    u8(0x0F);
    u8(static_cast<std::uint8_t>(0x80 | static_cast<std::uint8_t>(c)));
    const std::size_t at = code_.size();
    i32(0);
    return at;
  }
  std::size_t jmp() {
    u8(0xE9);
    const std::size_t at = code_.size();
    i32(0);
    return at;
  }
  void patch_to(std::size_t fixup, std::size_t target) {
    const std::int64_t rel =
        static_cast<std::int64_t>(target) - static_cast<std::int64_t>(fixup + 4);
    assert(fits_i32(rel));
    const std::int32_t r32 = static_cast<std::int32_t>(rel);
    std::memcpy(code_.data() + fixup, &r32, 4);
  }
  // Point the rel32 at `fixup` to the current end of code.
  void patch_to_here(std::size_t fixup) { patch_to(fixup, code_.size()); }

  // ---- frame ----------------------------------------------------------------------
  void sub_rsp(std::int32_t n) {
    rex(1, 0, RSP);
    u8(0x81);
    modrm_reg(5, RSP);
    i32(n);
  }
  void add_rsp(std::int32_t n) {
    rex(1, 0, RSP);
    u8(0x81);
    modrm_reg(0, RSP);
    i32(n);
  }
  void push(Reg r) {  // 50+r
    if (r >= R8) rex(0, 0, r);
    u8(static_cast<std::uint8_t>(0x50 | (r & 7)));
  }
  void pop(Reg r) {  // 58+r
    if (r >= R8) rex(0, 0, r);
    u8(static_cast<std::uint8_t>(0x58 | (r & 7)));
  }
  void ret() { u8(0xC3); }

  static bool fits_i32(std::int64_t v) {
    return v >= INT32_MIN && v <= INT32_MAX;
  }

private:
  void u8(std::uint8_t b) { code_.push_back(b); }
  void i32(std::int32_t v) {
    const std::size_t at = code_.size();
    code_.resize(at + 4);
    std::memcpy(code_.data() + at, &v, 4);
  }
  void i64(std::int64_t v) {
    const std::size_t at = code_.size();
    code_.resize(at + 8);
    std::memcpy(code_.data() + at, &v, 8);
  }

  // REX prefix; `r` is the ModRM.reg field operand, `b` the r/m (or opcode
  // register) operand, `x` the SIB index.  Emitted whenever W, R, X or B is
  // set.
  void rex(int w, int r, int b, int x = 0) {
    const std::uint8_t v = static_cast<std::uint8_t>(
        0x40 | (w << 3) | (((r >> 3) & 1) << 2) | (((x >> 3) & 1) << 1) | ((b >> 3) & 1));
    if (v != 0x40 || w) code_.push_back(v);
  }

  void modrm_reg(int reg, int rm) {
    code_.push_back(static_cast<std::uint8_t>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }

  // [base + disp] with mod=01 (disp8) or mod=10 (disp32); RSP/R12 as base
  // needs the SIB escape.  mod=00 is never used so RBP/R13 need no special
  // case.
  void modrm_mem(int reg, Reg base, std::int32_t disp) {
    const bool d8 = disp >= -128 && disp <= 127;
    const std::uint8_t mod = d8 ? 0x40 : 0x80;
    code_.push_back(static_cast<std::uint8_t>(mod | ((reg & 7) << 3) | (base & 7)));
    if ((base & 7) == RSP) code_.push_back(0x24);  // SIB: no index, base=rsp
    if (d8) {
      code_.push_back(static_cast<std::uint8_t>(disp));
    } else {
      i32(disp);
    }
  }

  // [base + index*8]: mod=00 with a SIB byte, except that RBP/R13 as base
  // need mod=01 and a zero disp8 (mod=00 there means "no base").  RSP
  // cannot be an index.
  void modrm_idx(int reg, Reg base, Reg index) {
    assert(index != RSP);
    const bool needs_disp = (base & 7) == RBP;
    code_.push_back(static_cast<std::uint8_t>((needs_disp ? 0x44 : 0x04) | ((reg & 7) << 3)));
    code_.push_back(static_cast<std::uint8_t>(0xC0 | ((index & 7) << 3) | (base & 7)));
    if (needs_disp) code_.push_back(0);
  }

  // ALU helpers.  alu_rr uses the /r "MR" form (op r/m64, r64): reg field =
  // src, r/m = dst.  alu_rm uses the "RM" form opcode passed in.
  void alu_rr(std::uint8_t opcode, Reg regfield, Reg rm) {
    rex(1, regfield, rm);
    u8(opcode);
    modrm_reg(regfield, rm);
  }
  void alu_rm(std::uint8_t opcode, Reg regfield, Reg base, std::int32_t disp) {
    rex(1, regfield, base);
    u8(opcode);
    modrm_mem(regfield, base, disp);
  }

  std::vector<std::uint8_t> code_;
};

}  // namespace tb::spec::jit
