// Expression and method compiler for the §5 specification language.
//
// Lowers the parser's AST (spec_lang.hpp) to straight-line stack bytecode
// (bytecode.hpp).  && and || compile to eager LogicAnd/LogicOr, so a chunk
// has no jumps and a block VM can run all SIMD lanes in lock-step.  Eager
// evaluation is semantics-preserving because spec expressions are total and
// side-effect-free (arith.hpp) — this is precisely the transformation that
// makes the language vectorizable (§6).  The same chunk runs on every tier:
// the JIT, the interpreter, and the block VM.
//
// The compiler performs constant folding (bottom-up, with the language's
// wrap-around/total semantics), the algebraic identities x+0, x-0, x*0, x*1,
// !!x, and strength-reduces multiplication by powers of two to shifts.
// Every produced chunk is run through the bytecode verifier; compilation
// fails loudly rather than emit an unverifiable chunk.
#pragma once

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "spec/arith.hpp"
#include "spec/bytecode.hpp"
#include "spec/spec_lang.hpp"

namespace tb::spec {

class CompileError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

class Compiler {
public:
  // Compile one expression into a verified chunk ending in `ret`.
  static Chunk compile(const Expr& e, int arity) {
    Chunk ch;
    emit(e, ch);
    ch.emit(OpCode::Return);
    const VerifyResult v = ch.verify(arity);
    if (!v.ok) throw CompileError("compiler produced invalid chunk: " + v.error);
    return ch;
  }

private:
  // Bottom-up constant evaluation; nullopt when the subtree reads a
  // parameter.  Logic short-circuits exactly like the AST interpreter, so a
  // constant lhs can decide && / || even when the rhs is non-constant — the
  // emitter handles that case separately.
  static std::optional<std::int64_t> fold(const Expr& e) {
    switch (e.op) {
      case Op::Const: return e.value;
      case Op::Param: return std::nullopt;
      case Op::Neg: {
        const auto a = fold(*e.lhs);
        return a ? std::optional(wrap_neg(*a)) : std::nullopt;
      }
      case Op::Not: {
        const auto a = fold(*e.lhs);
        return a ? std::optional<std::int64_t>(*a == 0 ? 1 : 0) : std::nullopt;
      }
      case Op::And: {
        const auto a = fold(*e.lhs);
        if (a && *a == 0) return 0;
        const auto b = fold(*e.rhs);
        return (a && b) ? std::optional<std::int64_t>((*a != 0 && *b != 0) ? 1 : 0)
                        : std::nullopt;
      }
      case Op::Or: {
        const auto a = fold(*e.lhs);
        if (a && *a != 0) return 1;
        const auto b = fold(*e.rhs);
        return (a && b) ? std::optional<std::int64_t>((*a != 0 || *b != 0) ? 1 : 0)
                        : std::nullopt;
      }
      default: break;
    }
    const auto a = fold(*e.lhs);
    const auto b = fold(*e.rhs);
    if (!a || !b) return std::nullopt;
    switch (e.op) {
      case Op::Add: return wrap_add(*a, *b);
      case Op::Sub: return wrap_sub(*a, *b);
      case Op::Mul: return wrap_mul(*a, *b);
      case Op::Div: return div_total(*a, *b);
      case Op::Mod: return mod_total(*a, *b);
      case Op::Eq: return *a == *b;
      case Op::Ne: return *a != *b;
      case Op::Lt: return *a < *b;
      case Op::Le: return *a <= *b;
      case Op::Gt: return *a > *b;
      case Op::Ge: return *a >= *b;
      default: throw CompileError("unexpected op in fold");
    }
  }

  static void emit_const(std::int64_t v, Chunk& ch) {
    ch.emit(OpCode::PushConst, ch.add_const(v));
  }

  static void emit(const Expr& e, Chunk& ch) {
    if (const auto c = fold(e)) {
      emit_const(*c, ch);
      return;
    }
    switch (e.op) {
      case Op::Const:
      case Op::Param:
        // Const is handled by fold; Param is the only non-constant leaf.
        ch.emit(OpCode::PushParam, static_cast<std::int32_t>(e.value));
        return;
      case Op::Neg:
        emit(*e.lhs, ch);
        ch.emit(OpCode::Neg);
        return;
      case Op::Not:
        // !!x normalizes to bool(x); deeper stacks of ! reduce pairwise.
        if (e.lhs->op == Op::Not) {
          emit(*e.lhs->lhs, ch);
          ch.emit(OpCode::Bool);
        } else {
          emit(*e.lhs, ch);
          ch.emit(OpCode::LogicNot);
        }
        return;
      case Op::And:
        emit_logic(e, /*is_and=*/true, ch);
        return;
      case Op::Or:
        emit_logic(e, /*is_and=*/false, ch);
        return;
      case Op::Add:
        if (is_const_zero(*e.lhs)) return emit(*e.rhs, ch);
        if (is_const_zero(*e.rhs)) return emit(*e.lhs, ch);
        return emit_binary(e, OpCode::Add, ch);
      case Op::Sub:
        if (is_const_zero(*e.rhs)) return emit(*e.lhs, ch);
        return emit_binary(e, OpCode::Sub, ch);
      case Op::Mul:
        if (const auto r = try_mul_simplify(*e.lhs, *e.rhs, ch)) return;
        if (const auto r = try_mul_simplify(*e.rhs, *e.lhs, ch)) return;
        return emit_binary(e, OpCode::Mul, ch);
      case Op::Div: return emit_binary(e, OpCode::Div, ch);
      case Op::Mod: return emit_binary(e, OpCode::Mod, ch);
      case Op::Eq: return emit_binary(e, OpCode::CmpEq, ch);
      case Op::Ne: return emit_binary(e, OpCode::CmpNe, ch);
      case Op::Lt: return emit_binary(e, OpCode::CmpLt, ch);
      case Op::Le: return emit_binary(e, OpCode::CmpLe, ch);
      case Op::Gt: return emit_binary(e, OpCode::CmpGt, ch);
      case Op::Ge: return emit_binary(e, OpCode::CmpGe, ch);
    }
    throw CompileError("unexpected op in emit");
  }

  static void emit_binary(const Expr& e, OpCode op, Chunk& ch) {
    emit(*e.lhs, ch);
    emit(*e.rhs, ch);
    ch.emit(op);
  }

  // Multiplication by a constant 0, 1, or 2^k (k >= 1); returns true when a
  // simplified form was emitted.  Safe because operands are side-effect-free.
  static std::optional<bool> try_mul_simplify(const Expr& konst, const Expr& other,
                                              Chunk& ch) {
    const auto c = fold(konst);
    if (!c) return std::nullopt;
    if (*c == 0) {
      emit_const(0, ch);
      return true;
    }
    if (*c == 1) {
      emit(other, ch);
      return true;
    }
    if (*c > 1 && std::has_single_bit(static_cast<std::uint64_t>(*c))) {
      emit(other, ch);
      ch.emit(OpCode::Shl, std::countr_zero(static_cast<std::uint64_t>(*c)));
      return true;
    }
    return std::nullopt;
  }

  static void emit_logic(const Expr& e, bool is_and, Chunk& ch) {
    // A constant side decides (or reduces to bool(other)); fold() already
    // handled the fully-constant case.
    if (const auto a = fold(*e.lhs)) {
      if (is_and ? (*a == 0) : (*a != 0)) {
        emit_const(is_and ? 0 : 1, ch);
      } else {
        emit(*e.rhs, ch);
        ch.emit(OpCode::Bool);
      }
      return;
    }
    emit_binary(e, is_and ? OpCode::LogicAnd : OpCode::LogicOr, ch);
  }

  static bool is_const_zero(const Expr& e) {
    const auto c = fold(e);
    return c && *c == 0;
  }
};

// ---- whole-method compilation ---------------------------------------------------

struct CompiledSpawn {
  bool has_guard = false;
  Chunk guard;              // valid when has_guard
  std::vector<Chunk> args;  // one per method parameter
};

struct CompiledMethod {
  std::string name;
  int arity = 0;
  Chunk base;    // eb: nonzero => base case
  Chunk reduce;  // sb: value added to the running sum at base cases
  std::vector<CompiledSpawn> spawns;
  int max_stack = 0;  // max over all chunks; VMs size evaluation stacks from this

  std::string disassemble() const {
    std::string out = base.disassemble(name + ".base");
    out += reduce.disassemble(name + ".reduce");
    for (std::size_t s = 0; s < spawns.size(); ++s) {
      const std::string tag = name + ".spawn" + std::to_string(s);
      if (spawns[s].has_guard) out += spawns[s].guard.disassemble(tag + ".guard");
      for (std::size_t a = 0; a < spawns[s].args.size(); ++a) {
        out += spawns[s].args[a].disassemble(tag + ".arg" + std::to_string(a));
      }
    }
    return out;
  }
};

// Every chunk of a method in the one order the tiers walk it: base, reduce,
// then each spawn's guard (when it has one) and arguments.
inline std::vector<const Chunk*> method_chunks(const CompiledMethod& m) {
  std::vector<const Chunk*> chunks{&m.base, &m.reduce};
  for (const CompiledSpawn& s : m.spawns) {
    if (s.has_guard) chunks.push_back(&s.guard);
    for (const Chunk& a : s.args) chunks.push_back(&a);
  }
  return chunks;
}

inline CompiledMethod compile_method(const Method& m) {
  const int arity = static_cast<int>(m.params.size());
  CompiledMethod out;
  out.name = m.name;
  out.arity = arity;
  const auto compile = [&out, arity](const Expr& e) {
    Chunk ch = Compiler::compile(e, arity);
    out.max_stack = std::max(out.max_stack, ch.verify(arity).max_stack);
    return ch;
  };
  out.base = compile(*m.base);
  out.reduce = compile(*m.reduce);
  out.spawns.reserve(m.spawns.size());
  for (const SpawnClause& s : m.spawns) {
    CompiledSpawn cs;
    if (s.guard) {
      cs.has_guard = true;
      cs.guard = compile(*s.guard);
    }
    cs.args.reserve(s.args.size());
    for (const auto& a : s.args) cs.args.push_back(compile(*a));
    out.spawns.push_back(std::move(cs));
  }
  return out;
}

}  // namespace tb::spec
