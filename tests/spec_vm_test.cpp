// Tests for the spec-language compiler pipeline: bytecode verifier,
// AST→bytecode compilation (constant folding, algebraic simplification,
// eager logic), the interpreter, the block VM, and the CompiledSpecProgram
// end-to-end through every scheduler and layer.
//
// The core property, checked on thousands of random expressions: the AST
// interpreter (which short-circuits && and ||), the interpreter and the
// block VM agree bit-for-bit on every input (the language's
// wrap-around/total arithmetic makes this exact, not approximate).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/binomial.hpp"
#include "apps/fib.hpp"
#include "apps/parentheses.hpp"
#include "core/driver.hpp"
#include "runtime/xoshiro.hpp"
#include "spec/compiler.hpp"
#include "spec/jit/jit_compiler.hpp"
#include "spec/spec_lang.hpp"
#include "spec/vm.hpp"
#include "tests/support/harness.hpp"

namespace {

using namespace tb;
using core::SeqPolicy;
using spec::Chunk;
using spec::CompiledSpecProgram;
using spec::Compiler;
using spec::Expr;
using spec::Op;
using spec::OpCode;
using spec::SpecProgram;

// ---- helpers -----------------------------------------------------------------------

std::unique_ptr<Expr> konst(std::int64_t v) {
  auto e = std::make_unique<Expr>();
  e->op = Op::Const;
  e->value = v;
  return e;
}
std::unique_ptr<Expr> param(int i) {
  auto e = std::make_unique<Expr>();
  e->op = Op::Param;
  e->value = i;
  return e;
}
std::unique_ptr<Expr> node(Op op, std::unique_ptr<Expr> l, std::unique_ptr<Expr> r = nullptr) {
  auto e = std::make_unique<Expr>();
  e->op = op;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

std::int64_t run_scalar(const Chunk& ch, std::span<const std::int64_t> params) {
  std::array<std::int64_t, 64> stack;
  return spec::run_chunk(ch, params, stack);
}

// Evaluate a blocked chunk on one logical lane (others get sentinel values
// that must not leak into lane 0).
std::int64_t run_blocked_lane0(const Chunk& ch, std::span<const std::int64_t> params) {
  using B = spec::IBatch<4>;
  std::array<B, 64> stack;
  std::array<B, 4> p{B::broadcast(-77), B::broadcast(-77), B::broadcast(-77),
                     B::broadcast(-77)};
  for (std::size_t i = 0; i < params.size(); ++i) {
    p[i] = B::broadcast(params[i]);
    p[i].set(1, spec::wrap_add(params[i], 1));  // perturb other lanes
  }
  return spec::run_chunk<B>(ch, p, stack)[0];
}

// ---- bytecode verifier -----------------------------------------------------------

TEST(BytecodeVerify, AcceptsMinimalChunk) {
  Chunk ch;
  ch.emit(OpCode::PushConst, ch.add_const(42));
  ch.emit(OpCode::Return);
  const auto v = ch.verify(0);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.max_stack, 1);
  EXPECT_EQ(ch.as_constant(), 42);
}

TEST(BytecodeVerify, ComputesMaxStackDepth) {
  Chunk ch;  // ((p0 + 1) * (p0 + 2)) needs 3 slots with naive left-to-right order
  ch.emit(OpCode::PushParam, 0);
  ch.emit(OpCode::PushConst, ch.add_const(1));
  ch.emit(OpCode::Add);
  ch.emit(OpCode::PushParam, 0);
  ch.emit(OpCode::PushConst, ch.add_const(2));
  ch.emit(OpCode::Add);
  ch.emit(OpCode::Mul);
  ch.emit(OpCode::Return);
  const auto v = ch.verify(1);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.max_stack, 3);
}

TEST(BytecodeVerify, RejectsMissingReturn) {
  Chunk ch;
  ch.emit(OpCode::PushConst, ch.add_const(1));
  EXPECT_FALSE(ch.verify(0).ok);
}

TEST(BytecodeVerify, RejectsStackUnderflow) {
  Chunk ch;
  ch.emit(OpCode::Add);
  ch.emit(OpCode::Return);
  const auto v = ch.verify(0);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("underflow"), std::string::npos);
}

TEST(BytecodeVerify, RejectsBadConstIndex) {
  Chunk ch;
  ch.emit(OpCode::PushConst, 3);  // no consts added
  ch.emit(OpCode::Return);
  EXPECT_FALSE(ch.verify(0).ok);
}

TEST(BytecodeVerify, RejectsBadParamIndex) {
  Chunk ch;
  ch.emit(OpCode::PushParam, 2);
  ch.emit(OpCode::Return);
  EXPECT_FALSE(ch.verify(2).ok);  // arity 2 => params 0..1
  EXPECT_TRUE(ch.verify(3).ok);
}

TEST(BytecodeVerify, RejectsUnknownOpcode) {
  // A byte outside the opcode set has no stack effect to check, so it must
  // be rejected rather than run as a no-op.
  for (const int byte : {static_cast<int>(OpCode::Return) + 1, 99, 255}) {
    Chunk ch;
    ch.emit(OpCode::PushConst, ch.add_const(7));
    ch.emit(static_cast<OpCode>(byte));
    ch.emit(OpCode::Return);
    const auto v = ch.verify(0);
    EXPECT_FALSE(v.ok) << "op byte " << byte;
    EXPECT_NE(v.error.find("unknown opcode"), std::string::npos) << v.error;
  }
}

TEST(BytecodeVerify, RejectsEarlyReturn) {
  Chunk ch;
  ch.emit(OpCode::PushConst, ch.add_const(1));
  ch.emit(OpCode::Return);
  ch.emit(OpCode::PushConst, ch.add_const(2));
  ch.emit(OpCode::Return);
  EXPECT_FALSE(ch.verify(0).ok);
}

TEST(BytecodeVerify, RejectsReturnWithDeepStack) {
  Chunk ch;
  ch.emit(OpCode::PushConst, ch.add_const(1));
  ch.emit(OpCode::PushConst, ch.add_const(2));
  ch.emit(OpCode::Return);
  const auto v = ch.verify(0);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("ret"), std::string::npos);
}

TEST(BytecodeVerify, RejectsShiftOutOfRange) {
  Chunk ch;
  ch.emit(OpCode::PushConst, ch.add_const(1));
  ch.emit(OpCode::Shl, 63);
  ch.emit(OpCode::Return);
  EXPECT_FALSE(ch.verify(0).ok);
}

TEST(BytecodeVerify, ConstPoolDeduplicates) {
  Chunk ch;
  const auto a = ch.add_const(7);
  const auto b = ch.add_const(7);
  const auto c = ch.add_const(9);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(ch.consts().size(), 2u);
}

TEST(BytecodeDisassemble, ShowsMnemonicsAndOperands) {
  Chunk ch;
  ch.emit(OpCode::PushParam, 1);
  ch.emit(OpCode::PushConst, ch.add_const(10));
  ch.emit(OpCode::CmpLt);
  ch.emit(OpCode::Return);
  const std::string text = ch.disassemble("test");
  EXPECT_NE(text.find("test:"), std::string::npos);
  EXPECT_NE(text.find("push.param\tp1"), std::string::npos);
  EXPECT_NE(text.find("push.const\t10"), std::string::npos);
  EXPECT_NE(text.find("cmp.lt"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

// ---- compiler: folding and simplification ------------------------------------------

TEST(SpecCompiler, FoldsConstantExpressions) {
  // (2 + 3 * 4) == 14  =>  1
  auto e = node(Op::Eq, node(Op::Add, konst(2), node(Op::Mul, konst(3), konst(4))), konst(14));
  const Chunk ch = Compiler::compile(*e, 0);
  EXPECT_EQ(ch.as_constant(), 1);
}

TEST(SpecCompiler, FoldsTotalDivisionByZero) {
  auto e = node(Op::Div, konst(5), konst(0));
  EXPECT_EQ(Compiler::compile(*e, 0).as_constant(), 0);
  auto m = node(Op::Mod, konst(5), konst(0));
  EXPECT_EQ(Compiler::compile(*m, 0).as_constant(), 0);
}

TEST(SpecCompiler, FoldsIntMinNegationByWrapping) {
  const std::int64_t int_min = std::numeric_limits<std::int64_t>::min();
  auto e = node(Op::Neg, konst(int_min));
  EXPECT_EQ(Compiler::compile(*e, 0).as_constant(), int_min);
}

TEST(SpecCompiler, ElidesAdditiveIdentity) {
  auto e = node(Op::Add, param(0), konst(0));
  const Chunk ch = Compiler::compile(*e, 1);
  ASSERT_EQ(ch.code().size(), 2u);  // push.param, ret — no add
  EXPECT_EQ(ch.code()[0].op, OpCode::PushParam);
}

TEST(SpecCompiler, ElidesMultiplicativeIdentity) {
  auto e = node(Op::Mul, konst(1), param(0));
  const Chunk ch = Compiler::compile(*e, 1);
  ASSERT_EQ(ch.code().size(), 2u);
  EXPECT_EQ(ch.code()[0].op, OpCode::PushParam);
}

TEST(SpecCompiler, MulByZeroBecomesConstant) {
  auto e = node(Op::Mul, param(0), konst(0));
  EXPECT_EQ(Compiler::compile(*e, 1).as_constant(), 0);
}

TEST(SpecCompiler, StrengthReducesMulByPowerOfTwo) {
  auto e = node(Op::Mul, param(0), konst(8));
  const Chunk ch = Compiler::compile(*e, 1);
  ASSERT_EQ(ch.code().size(), 3u);  // push.param, shl 3, ret
  EXPECT_EQ(ch.code()[1].op, OpCode::Shl);
  EXPECT_EQ(ch.code()[1].arg, 3);
  const std::int64_t p[] = {11};
  EXPECT_EQ(run_scalar(ch, p), 88);
}

TEST(SpecCompiler, DoubleNegationNormalizesToBool) {
  auto e = node(Op::Not, node(Op::Not, param(0)));
  const Chunk ch = Compiler::compile(*e, 1);
  ASSERT_EQ(ch.code().size(), 3u);  // push.param, bool, ret
  EXPECT_EQ(ch.code()[1].op, OpCode::Bool);
  const std::int64_t p5[] = {5};
  const std::int64_t p0[] = {0};
  EXPECT_EQ(run_scalar(ch, p5), 1);
  EXPECT_EQ(run_scalar(ch, p0), 0);
}

TEST(SpecCompiler, ConstantLhsDecidesLogic) {
  // 0 && p0  =>  0 without evaluating p0
  auto e1 = node(Op::And, konst(0), param(0));
  EXPECT_EQ(Compiler::compile(*e1, 1).as_constant(), 0);
  // 7 || p0  =>  1
  auto e2 = node(Op::Or, konst(7), param(0));
  EXPECT_EQ(Compiler::compile(*e2, 1).as_constant(), 1);
  // 1 && p0  =>  bool(p0)
  auto e3 = node(Op::And, konst(1), param(0));
  const Chunk ch = Compiler::compile(*e3, 1);
  ASSERT_EQ(ch.code().size(), 3u);  // push.param, bool, ret
  EXPECT_EQ(ch.code()[1].op, OpCode::Bool);
  const std::int64_t p[] = {-4};
  EXPECT_EQ(run_scalar(ch, p), 1);
}

TEST(SpecCompiler, LogicCompilesEager) {
  // && evaluates both sides and combines them with one `and`: the chunk is
  // straight-line, so every lane of a block runs the same instructions.
  auto e = node(Op::And, node(Op::Gt, param(0), konst(0)), node(Op::Lt, param(1), konst(9)));
  const Chunk ch = Compiler::compile(*e, 2);
  const auto& code = ch.code();
  ASSERT_EQ(code.size(), 8u);  // p0 0 gt, p1 9 lt, and, ret
  EXPECT_EQ(code[6].op, OpCode::LogicAnd);
  for (const std::int64_t a : {-1, 0, 1, 5}) {
    for (const std::int64_t b : {3, 9, 20}) {
      const std::int64_t p[] = {a, b};
      const std::int64_t expect = (a > 0 && b < 9) ? 1 : 0;
      EXPECT_EQ(run_scalar(ch, p), expect);
      EXPECT_EQ(run_blocked_lane0(ch, p), expect);
    }
  }
}

TEST(SpecCompiler, OrShortCircuitNormalizesTakenValue) {
  // 2 is truthy but not 1: the || result must still be exactly 1.
  auto e = node(Op::Or, param(0), param(1));
  const Chunk ch = Compiler::compile(*e, 2);
  const std::int64_t p[] = {2, 0};
  EXPECT_EQ(run_scalar(ch, p), 1);
}

TEST(SpecCompiler, RejectsTooDeepExpressions) {
  // 70 nested additions exceed the 64-slot VM stack budget.
  auto e = param(0);
  for (int i = 0; i < 70; ++i) e = node(Op::Add, param(0), std::move(e));
  const std::string src_unused;  // (builder-based; no parser involvement)
  spec::Method m;
  m.name = "f";
  m.params = {"n"};
  m.base = konst(1);
  m.reduce = std::move(e);
  spec::SpawnClause s;
  s.args.push_back(param(0));
  m.spawns.push_back(std::move(s));
  EXPECT_THROW((void)CompiledSpecProgram(std::move(m)), spec::CompileError);
}

// Mutation fuzzing: corrupt one instruction of a valid compiled chunk, with
// op bytes drawn from the whole uint8_t range.  The verifier must never
// crash; if it accepts the mutant, every tier must run it within the stack
// bound the verifier computed and agree on the result.
class VerifierMutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerifierMutation, CorruptedChunksAreRejectedOrStillSafe) {
  rt::Xoshiro256 rng(GetParam());
  const bool jit_on = spec::jit::supported() && spec::jit::runtime_enabled();
  int accepted = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    // Small random expression over 2 params.
    auto e = node(Op::Add, node(Op::Mul, param(0), konst(static_cast<std::int64_t>(rng()))),
                  node(Op::And, node(Op::Lt, param(1), konst(9)), param(0)));
    Chunk ch = Compiler::compile(*e, 2);
    ASSERT_TRUE(ch.verify(2).ok);
    // Mutate one instruction in place via a rebuilt chunk.
    const auto& code = ch.code();
    const std::size_t victim = rng.below(static_cast<std::uint32_t>(code.size()));
    Chunk mutant;
    for (std::int64_t c : ch.consts()) (void)mutant.add_const(c);
    for (std::size_t i = 0; i < code.size(); ++i) {
      spec::Instr in = code[i];
      if (i == victim) {
        switch (rng.below(3)) {
          case 0: in.op = static_cast<OpCode>(rng.below(256)); break;  // any op byte
          case 1: in.arg = static_cast<std::int32_t>(rng()) % 100 - 50; break;
          default:
            in.op = static_cast<OpCode>(rng.below(256));
            in.arg = static_cast<std::int32_t>(rng()) % 100 - 50;
        }
      }
      mutant.emit(in.op, in.arg);
    }
    const auto v = mutant.verify(2);
    if (!v.ok) continue;  // rejected: fine
    ++accepted;
    // Accepted mutants must still execute within the verified stack bound.
    ASSERT_LE(v.max_stack, 64);
    const std::int64_t params[2] = {5, -3};
    const std::int64_t expect = run_scalar(mutant, params);  // must not crash / overrun
    ASSERT_EQ(run_blocked_lane0(mutant, params), expect) << mutant.disassemble("mutant");
    const std::array<const Chunk*, 1> chunks{&mutant};
    const auto jitted = spec::jit::compile_chunks(chunks, 2);
    if (jit_on) {
      ASSERT_NE(jitted.fn(0), nullptr) << mutant.disassemble("mutant");
      ASSERT_EQ(jitted.fn(0)(params), expect) << mutant.disassemble("mutant");
    }
  }
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierMutation, ::testing::Values(101u, 202u, 303u, 404u));

// ---- random differential testing -----------------------------------------------------

class ExprGen {
public:
  ExprGen(std::uint64_t seed, int arity) : rng_(seed), arity_(arity) {}

  std::unique_ptr<Expr> gen(int depth) {
    if (depth <= 0 || rng_.below(5) == 0) return leaf();
    switch (rng_.below(15)) {
      case 0: return node(Op::Add, gen(depth - 1), gen(depth - 1));
      case 1: return node(Op::Sub, gen(depth - 1), gen(depth - 1));
      case 2: return node(Op::Mul, gen(depth - 1), gen(depth - 1));
      case 3: return node(Op::Div, gen(depth - 1), gen(depth - 1));
      case 4: return node(Op::Mod, gen(depth - 1), gen(depth - 1));
      case 5: return node(Op::Neg, gen(depth - 1));
      case 6: return node(Op::Not, gen(depth - 1));
      case 7: return node(Op::And, gen(depth - 1), gen(depth - 1));
      case 8: return node(Op::Or, gen(depth - 1), gen(depth - 1));
      case 9: return node(Op::Eq, gen(depth - 1), gen(depth - 1));
      case 10: return node(Op::Ne, gen(depth - 1), gen(depth - 1));
      case 11: return node(Op::Lt, gen(depth - 1), gen(depth - 1));
      case 12: return node(Op::Le, gen(depth - 1), gen(depth - 1));
      case 13: return node(Op::Gt, gen(depth - 1), gen(depth - 1));
      default: return node(Op::Ge, gen(depth - 1), gen(depth - 1));
    }
  }

  std::int64_t pick_value() {
    switch (rng_.below(8)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 2;
      case 3: return 16;  // power of two: exercises strength reduction
      case 4: return -5;
      case 5: return std::numeric_limits<std::int64_t>::min();
      case 6: return std::numeric_limits<std::int64_t>::max();
      default: return static_cast<std::int64_t>(rng_());
    }
  }

private:
  std::unique_ptr<Expr> leaf() {
    if (arity_ > 0 && rng_.below(2) == 0) {
      return param(static_cast<int>(rng_.below(static_cast<std::uint32_t>(arity_))));
    }
    return konst(pick_value());
  }

  rt::Xoshiro256 rng_;
  int arity_;
};

class RandomExprDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomExprDifferential, AstScalarVmAndBlockVmAgree) {
  const std::uint64_t seed = GetParam();
  ExprGen gen(seed, 4);
  for (int trial = 0; trial < 200; ++trial) {
    const auto e = gen.gen(5);
    const Chunk ch = Compiler::compile(*e, 4);
    ASSERT_TRUE(ch.verify(4).ok);
    for (int pv = 0; pv < 4; ++pv) {
      const std::int64_t params[4] = {gen.pick_value(), gen.pick_value(), gen.pick_value(),
                                      gen.pick_value()};
      const std::int64_t expect = spec::eval(*e, params);
      ASSERT_EQ(run_scalar(ch, params), expect) << "interpreter, trial " << trial;
      ASSERT_EQ(run_blocked_lane0(ch, params), expect) << "block VM, trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExprDifferential,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

TEST(BlockVm, LanesAreIndependent) {
  // p0 % p1 with a zero divisor in exactly one lane: only that lane is 0.
  auto e = node(Op::Mod, param(0), param(1));
  const Chunk ch = Compiler::compile(*e, 2);
  using B = spec::IBatch<4>;
  std::array<B, 64> stack;
  std::array<B, 4> params{B::zero(), B::zero(), B::zero(), B::zero()};
  params[0] = B::iota(10, 1);                    // 10 11 12 13
  params[1] = B{{3, 0, 5, 7}};                   // lane 1 divides by zero
  const B r = spec::run_chunk<B>(ch, params, stack);
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(r[1], 0);
  EXPECT_EQ(r[2], 2);
  EXPECT_EQ(r[3], 6);
}

// ---- totality / wrap / nested-logic edge cases -------------------------------------

// Assert AST eval, the interpreter and block VM lane 0 agree.
void expect_tiers_agree(const Expr& e, int arity, std::span<const std::int64_t> params) {
  const std::int64_t expect = spec::eval(e, params);
  const Chunk ch = Compiler::compile(e, arity);
  ASSERT_EQ(run_scalar(ch, params), expect);
  ASSERT_EQ(run_blocked_lane0(ch, params), expect);
}

TEST(EdgeCases, DivModTotalityAcrossTiers) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto div = node(Op::Div, param(0), param(1));
  const auto mod = node(Op::Mod, param(0), param(1));
  const std::int64_t cases[][2] = {
      {kMin, -1},  // the hardware-trap pair: wraps to kMin / 0
      {kMax, -1},  {kMin, 1}, {7, 0}, {-7, 0}, {kMin, 0}, {0, kMin}, {kMax, kMax},
  };
  for (const auto& c : cases) {
    const std::int64_t params[] = {c[0], c[1]};
    expect_tiers_agree(*div, 2, params);
    expect_tiers_agree(*mod, 2, params);
    // Oracle values for the trap pair, straight from §5's total semantics.
    if (c[0] == kMin && c[1] == -1) {
      EXPECT_EQ(spec::eval(*div, params), kMin);
      EXPECT_EQ(spec::eval(*mod, params), 0);
    }
  }
}

TEST(EdgeCases, ShlBeyondVerifierBoundIsRejected) {
  // The strength-reduction window is 0..62; 63 and beyond (where native shl
  // semantics diverge from wrap_shl) must never reach an execution tier.
  for (const int amount : {63, 64, 100}) {
    Chunk ch;
    ch.emit(OpCode::PushConst, ch.add_const(1));
    ch.emit(OpCode::Shl, amount);
    ch.emit(OpCode::Return);
    EXPECT_FALSE(ch.verify(0).ok) << "Shl " << amount;
  }
  // Shl 62 (p0 * 2^62) is admitted and wraps identically everywhere.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto e = node(Op::Mul, param(0), konst(std::int64_t{1} << 62));
  for (const std::int64_t v : {std::int64_t{1}, std::int64_t{3}, std::int64_t{-1}, kMin, kMax}) {
    const std::int64_t params[] = {v};
    expect_tiers_agree(*e, 1, params);
  }
}

TEST(EdgeCases, NestedLogicChains) {
  // (p0 && (p1 || (p2 && p3))) || (p1 && p2): the AST oracle short-circuits
  // every level, the compiled chunk evaluates every side eagerly.
  const auto e = node(Op::Or,
                      node(Op::And, param(0),
                           node(Op::Or, param(1), node(Op::And, param(2), param(3)))),
                      node(Op::And, param(1), param(2)));
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t vals[] = {0, 1, -1, kMin};
  for (const std::int64_t a : vals) {
    for (const std::int64_t b : vals) {
      for (const std::int64_t c : vals) {
        for (const std::int64_t d : vals) {
          const std::int64_t params[] = {a, b, c, d};
          expect_tiers_agree(*e, 4, params);
        }
      }
    }
  }
}

// ---- compiled method / end-to-end ---------------------------------------------------

constexpr const char* kFib = R"(
  def fib(n)
    base n < 2
    reduce n
    spawn fib(n - 1)
    spawn fib(n - 2)
)";

constexpr const char* kBinomial = R"(
  def choose(n, k)
    base k == 0 || k == n
    reduce 1
    spawn choose(n - 1, k - 1)
    spawn choose(n - 1, k)
)";

constexpr const char* kParens = R"(
  def paren(open, close)
    base open == 0 && close == 0
    reduce 1
    spawn if open > 0 : paren(open - 1, close)
    spawn if close > open : paren(open, close - 1)
)";

TEST(CompiledMethod, DisassemblyListsAllChunks) {
  const auto prog = CompiledSpecProgram::parse(kParens);
  const std::string text = prog.method().disassemble();
  EXPECT_NE(text.find("paren.base:"), std::string::npos);
  EXPECT_NE(text.find("paren.reduce:"), std::string::npos);
  EXPECT_NE(text.find("paren.spawn0.guard:"), std::string::npos);
  EXPECT_NE(text.find("paren.spawn1.arg1:"), std::string::npos);
}

TEST(CompiledProgram, TaskLevelSemanticsMatchAstProgram) {
  const auto ast = SpecProgram::parse(kParens);
  const auto vm = CompiledSpecProgram::parse(kParens);
  rt::Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    SpecProgram::Task t{};
    t.p[0] = static_cast<std::int64_t>(rng.below(12));
    t.p[1] = static_cast<std::int64_t>(rng.below(12));
    ASSERT_EQ(vm.is_base(t), ast.is_base(t));
    if (ast.is_base(t)) {
      std::uint64_t ra = 0, rv = 0;
      ast.leaf(t, ra);
      vm.leaf(t, rv);
      ASSERT_EQ(rv, ra);
    } else {
      std::vector<std::pair<int, std::array<std::int64_t, 4>>> ca, cv;
      ast.expand(t, [&](int s, const SpecProgram::Task& c) { ca.emplace_back(s, c.p); });
      vm.expand(t, [&](int s, const SpecProgram::Task& c) { cv.emplace_back(s, c.p); });
      ASSERT_EQ(cv, ca);
    }
  }
}

struct E2ECase {
  const char* name;
  const char* src;
  std::array<std::int64_t, 2> root;
  std::uint64_t expected;
};

class CompiledProgramE2E : public ::testing::TestWithParam<std::tuple<E2ECase, SeqPolicy>> {};

TEST_P(CompiledProgramE2E, AllLayersMatchSequentialOracle) {
  const auto& [c, policy] = GetParam();
  const auto prog = CompiledSpecProgram::parse(c.src);
  const auto roots = std::vector{prog.make_root({c.root[0], c.root[1]})};
  const auto th = core::Thresholds::for_block_size(4, 128, 16);
  EXPECT_EQ((core::run_seq<core::AosExec<CompiledSpecProgram>>(prog, roots, policy, th)),
            c.expected);
  EXPECT_EQ((core::run_seq<core::SoaExec<CompiledSpecProgram>>(prog, roots, policy, th)),
            c.expected);
  EXPECT_EQ((core::run_seq<core::SimdExec<CompiledSpecProgram>>(prog, roots, policy, th)),
            c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    ProgramsAndPolicies, CompiledProgramE2E,
    ::testing::Combine(
        ::testing::Values(E2ECase{"fib", kFib, {21, 0}, 10946u},
                          E2ECase{"binomial", kBinomial, {19, 8}, 75582u},
                          E2ECase{"paren", kParens, {9, 9}, 4862u}),
        ::testing::ValuesIn(tbtest::kPolicies)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             core::to_string(std::get<1>(info.param));
    });

TEST(CompiledProgram, SimdRungHandlesRemainderLanes) {
  // Block sizes that are not multiples of the 4-lane width force the scalar
  // remainder path inside SimdExec.
  const auto prog = CompiledSpecProgram::parse(kFib);
  for (const std::size_t block : {1u, 3u, 5u, 7u, 13u}) {
    const auto th = core::Thresholds::for_block_size(4, block, 1);
    const auto roots = std::vector{prog.make_root({18})};
    EXPECT_EQ((core::run_seq<core::SimdExec<CompiledSpecProgram>>(
                  prog, roots, SeqPolicy::Restart, th)),
              apps::fib_sequential(18));
  }
}

TEST(CompiledProgram, SimdStatsCensusMatchesTreeWalk) {
  const auto prog = CompiledSpecProgram::parse(kBinomial);
  const auto roots = std::vector{prog.make_root({16, 7})};
  const auto info = core::count_tree(prog, roots);
  core::ExecStats st;
  const auto th = core::Thresholds::for_block_size(4, 64, 8);
  (void)core::run_seq<core::SimdExec<CompiledSpecProgram>>(prog, roots, SeqPolicy::Restart,
                                                           th, &st);
  EXPECT_EQ(st.tasks_executed, info.tasks);
  EXPECT_EQ(st.leaves, info.leaves);
}

TEST(CompiledProgram, RunsOnParallelSchedulers) {
  const auto prog = CompiledSpecProgram::parse(kParens);
  const auto roots = std::vector{prog.make_root({10, 10})};
  const std::uint64_t expected = apps::parentheses_sequential(10, 10);
  const auto th = core::Thresholds::for_block_size(4, 128, 16);
  rt::ForkJoinPool pool(3);
  EXPECT_EQ((core::run_par_reexp<core::SimdExec<CompiledSpecProgram>>(pool, prog, roots, th)),
            expected);
  EXPECT_EQ(
      (core::run_par_restart<core::SimdExec<CompiledSpecProgram>>(pool, prog, roots, th)),
      expected);
}

TEST(CompiledProgram, AgreesWithAstProgramAcrossBlockSizes) {
  const auto ast = SpecProgram::parse(kBinomial);
  const auto vm = CompiledSpecProgram::parse(kBinomial);
  for (const std::size_t block : {4u, 32u, 256u, 2048u}) {
    const auto th = core::Thresholds::for_block_size(4, block);
    const auto ast_roots = std::vector{ast.make_root({20, 9})};
    const auto vm_roots = std::vector{vm.make_root({20, 9})};
    const auto a =
        core::run_seq<core::SoaExec<SpecProgram>>(ast, ast_roots, SeqPolicy::Restart, th);
    const auto v = core::run_seq<core::SimdExec<CompiledSpecProgram>>(vm, vm_roots,
                                                                      SeqPolicy::Restart, th);
    EXPECT_EQ(v, a);
  }
}

}  // namespace
