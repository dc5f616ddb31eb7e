// Bytecode representation for §5 specification-language expressions.
//
// The spec-language front-end (spec_lang.hpp) interprets expression ASTs one
// task at a time.  That is the "input program" of the paper; its blocked
// execution wants the same expression evaluated over a whole task block.
// This module defines the compilation target that makes that efficient: a
// small stack machine whose instructions are total (no traps — division by
// zero yields 0, as in the AST interpreter), so a block VM can evaluate all
// lanes eagerly under a mask, exactly the masked-execution discipline the
// paper's hand-vectorized kernels use (§6).
//
// Chunks are straight-line: there are no jumps, && and || are eager
// (LogicAnd/LogicOr), so every lane of a block runs the same instruction
// sequence and every program point has one static stack depth.  The one
// stack-effect table below gives each opcode's pops and pushes; the
// verifier and the JIT both walk it.
//
// A chunk carries its own static verifier and a disassembler for debugging
// and tests.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace tb::spec {

enum class OpCode : std::uint8_t {
  // Stack pushes.
  PushConst,   // push consts[arg]
  PushParam,   // push params[arg]
  // Arithmetic (binary ops pop rhs then lhs, push result).
  Add,
  Sub,
  Mul,
  Div,         // total: x / 0 == 0
  Mod,         // total: x % 0 == 0
  Neg,
  Shl,         // strength-reduced multiply: push(pop() << arg), arg in [0,62]
  // Comparisons (push 0 or 1).
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  // Logic (0/1-valued).
  LogicNot,
  LogicAnd,    // eager: (a != 0) & (b != 0)
  LogicOr,     // eager: (a != 0) | (b != 0)
  Bool,        // normalize: push(pop() != 0)
  Return,      // stop; the result is the single remaining stack slot
};

// Stack effect and mnemonic of one opcode, indexed by its byte value.
struct OpInfo {
  const char* mnemonic;
  int pops;
  int pushes;
};

inline constexpr std::array<OpInfo, 20> kOpInfo = {{
    {"push.const", 0, 1}, {"push.param", 0, 1}, {"add", 2, 1},    {"sub", 2, 1},
    {"mul", 2, 1},        {"div", 2, 1},        {"mod", 2, 1},    {"neg", 1, 1},
    {"shl", 1, 1},        {"cmp.eq", 2, 1},     {"cmp.ne", 2, 1}, {"cmp.lt", 2, 1},
    {"cmp.le", 2, 1},     {"cmp.gt", 2, 1},     {"cmp.ge", 2, 1}, {"not", 1, 1},
    {"and", 2, 1},        {"or", 2, 1},         {"bool", 1, 1},   {"ret", 1, 0},
}};
static_assert(kOpInfo.size() == static_cast<std::size_t>(OpCode::Return) + 1);

// Null for a byte outside the opcode set.
inline const OpInfo* op_info(OpCode op) {
  const auto i = static_cast<std::size_t>(op);
  return i < kOpInfo.size() ? &kOpInfo[i] : nullptr;
}

struct Instr {
  OpCode op;
  std::int32_t arg = 0;  // const-pool index, param index, or shift amount

  friend bool operator==(const Instr&, const Instr&) = default;
};

// Verification outcome: max operand-stack depth, or an error description.
struct VerifyResult {
  bool ok = false;
  int max_stack = 0;
  std::string error;
};

class Chunk {
public:
  void emit(OpCode op, std::int32_t arg = 0) { code_.push_back({op, arg}); }

  std::int32_t add_const(std::int64_t v) {
    for (std::size_t i = 0; i < consts_.size(); ++i) {
      if (consts_[i] == v) return static_cast<std::int32_t>(i);
    }
    consts_.push_back(v);
    return static_cast<std::int32_t>(consts_.size() - 1);
  }

  const std::vector<Instr>& code() const { return code_; }
  const std::vector<std::int64_t>& consts() const { return consts_; }
  bool empty() const { return code_.empty(); }

  // Convenience for optimizer tests: a chunk of the form [push.const, ret].
  std::optional<std::int64_t> as_constant() const {
    if (code_.size() == 2 && code_[0].op == OpCode::PushConst &&
        code_[1].op == OpCode::Return) {
      return consts_[static_cast<std::size_t>(code_[0].arg)];
    }
    return std::nullopt;
  }

  // ---- static verification ---------------------------------------------------
  //
  // One straight-line pass over the stack-effect table.  Rejects unknown
  // opcodes, underflow, out-of-range operands, and a `ret` that is missing,
  // early, or not at depth 1.  The returned max depth lets VMs allocate
  // fixed-size evaluation stacks.
  VerifyResult verify(int arity) const {
    VerifyResult res;
    const auto fail = [&res](const std::string& what, std::size_t i) {
      res.error = what + " at " + std::to_string(i);
      return res;
    };
    if (code_.empty() || code_.back().op != OpCode::Return) {
      res.error = "chunk must end with ret";
      return res;
    }
    int depth = 0;
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Instr in = code_[i];
      const OpInfo* info = op_info(in.op);
      if (info == nullptr) {
        return fail("unknown opcode " + std::to_string(static_cast<int>(in.op)), i);
      }
      if (depth < info->pops) return fail("stack underflow", i);
      switch (in.op) {
        case OpCode::PushConst:
          if (in.arg < 0 || static_cast<std::size_t>(in.arg) >= consts_.size()) {
            return fail("const index out of range", i);
          }
          break;
        case OpCode::PushParam:
          if (in.arg < 0 || in.arg >= arity) return fail("param index out of range", i);
          break;
        case OpCode::Shl:
          if (in.arg < 0 || in.arg > 62) return fail("shift amount out of range", i);
          break;
        case OpCode::Return:
          if (depth != 1) {
            return fail("ret requires exactly one stack slot, have " + std::to_string(depth),
                        i);
          }
          if (i + 1 != code_.size()) return fail("ret before the end of the chunk", i);
          break;
        default:
          break;
      }
      depth += info->pushes - info->pops;
      res.max_stack = std::max(res.max_stack, depth);
    }
    res.ok = true;
    return res;
  }

  // ---- disassembly -------------------------------------------------------------
  std::string disassemble(const std::string& label = "") const {
    std::ostringstream os;
    if (!label.empty()) os << label << ":\n";
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const Instr& in = code_[i];
      const OpInfo* info = op_info(in.op);
      os << "  " << i << "\t" << (info != nullptr ? info->mnemonic : "?");
      switch (in.op) {
        case OpCode::PushConst:
          os << "\t" << consts_[static_cast<std::size_t>(in.arg)];
          break;
        case OpCode::PushParam:
          os << "\tp" << in.arg;
          break;
        case OpCode::Shl:
          os << "\t" << in.arg;
          break;
        default:
          break;
      }
      os << "\n";
    }
    return os.str();
  }

private:
  std::vector<Instr> code_;
  std::vector<std::int64_t> consts_;
};

}  // namespace tb::spec
