// Tests for the spec-bytecode baseline JIT (src/spec/jit/):
//
//   * ExecPage W^X lifecycle (allocate RW -> write -> protect RX);
//   * direct jitted-chunk semantics vs the interpreter, including the
//     totality edge cases the verifier's contract promises (x/0, x%0,
//     INT64_MIN/-1, INT64_MIN%-1, wrap-around shl) and nested logic chains;
//   * differential fuzzing: random expressions AND random *verified spec
//     programs* (terminating methods generated by construction) asserted
//     identical across the AST interpreter, the interpreter, the block VM
//     and the JIT, over randomized parameters with a deterministic xoshiro
//     seed;
//   * the interpreter fallback: JitMode::Off programs and verifier-rejected
//     chunks must never run native code, and a TB_SPEC_JIT=off environment
//     (the CTest `spec_jit_test.interp_fallback` variant re-runs this whole
//     binary that way) must disable JitMode::Auto.
//
// On unsupported builds (non-x86, TASKBATCH_SPEC_JIT=OFF) the jit-requiring
// tests skip and the differential tests keep running on the interpreter —
// the fallback path stays continuously covered either way.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
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
#include "spec/jit/exec_page.hpp"
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
using spec::JitMode;
using spec::Method;
using spec::Op;
using spec::OpCode;
using spec::SpawnClause;
using spec::SpecProgram;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

bool jit_on() { return spec::jit::supported() && spec::jit::runtime_enabled(); }

// ---- expression builders (same shape as spec_vm_test) ------------------------------

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

std::int64_t run_interp(const Chunk& ch, std::span<const std::int64_t> params) {
  std::array<std::int64_t, 64> stack;
  return spec::run_chunk(ch, params, stack);
}

// Jit a single chunk; null when unsupported/rejected.
spec::jit::ChunkSet jit_one(const Chunk& ch, int arity) {
  const std::array<const Chunk*, 1> chunks{&ch};
  return spec::jit::compile_chunks(chunks, arity);
}

// Assert interpreter == JIT on one chunk for one parameter vector; the
// caller guarantees the chunk verifies.  Returns the (shared) value.
std::int64_t check_chunk(const Chunk& ch, int arity, std::span<const std::int64_t> params) {
  const std::int64_t expect = run_interp(ch, params);
  if (jit_on()) {
    const auto code = jit_one(ch, arity);
    EXPECT_TRUE(code.valid());
    spec::jit::Fn fn = code.fn(0);
    EXPECT_NE(fn, nullptr);
    if (fn != nullptr) {
      EXPECT_EQ(fn(params.data()), expect) << ch.disassemble("chunk");
    }
  }
  return expect;
}

// Assert every tier agrees on an expression: AST eval, the interpreter,
// the JIT, and block VM lane 0.
void check_expr_all_tiers(const Expr& e, int arity, std::span<const std::int64_t> params) {
  const std::int64_t expect = spec::eval(e, params);
  const Chunk ch = Compiler::compile(e, arity);
  ASSERT_EQ(check_chunk(ch, arity, params), expect);
  using B = spec::IBatch<4>;
  std::array<B, 64> stack;
  std::array<B, 4> bp{B::zero(), B::zero(), B::zero(), B::zero()};
  for (std::size_t i = 0; i < params.size(); ++i) bp[i] = B::broadcast(params[i]);
  ASSERT_EQ(spec::run_chunk<B>(ch, bp, stack)[0], expect);
}

// ---- ExecPage lifecycle ------------------------------------------------------------

TEST(ExecPage, DefaultIsInvalid) {
  spec::jit::ExecPage p;
  EXPECT_FALSE(p.is_valid());
  EXPECT_EQ(p.code(), nullptr);
}

TEST(ExecPage, WxLifecycle) {
  if (!spec::jit::supported()) GTEST_SKIP() << "jit unsupported on this build";
  auto p = spec::jit::ExecPage::allocate(64);
  ASSERT_TRUE(p.is_valid());
  EXPECT_FALSE(p.is_executable());
  EXPECT_GE(p.size(), 64u);
  EXPECT_EQ(p.code(), nullptr);  // not executable yet
  ASSERT_NE(p.writable(), nullptr);
  // mov rax, 7; ret
  const std::uint8_t code[] = {0x48, 0xC7, 0xC0, 0x07, 0x00, 0x00, 0x00, 0xC3};
  std::memcpy(p.writable(), code, sizeof code);
  ASSERT_TRUE(p.protect_exec());
  EXPECT_TRUE(p.is_executable());
  EXPECT_EQ(p.writable(), nullptr);  // never writable again (W^X)
  ASSERT_NE(p.code(), nullptr);
  const auto fn = reinterpret_cast<std::int64_t (*)(const std::int64_t*)>(
      const_cast<std::uint8_t*>(p.code()));
  EXPECT_EQ(fn(nullptr), 7);
  EXPECT_TRUE(p.protect_exec());  // idempotent
}

TEST(ExecPage, MoveTransfersOwnership) {
  if (!spec::jit::supported()) GTEST_SKIP() << "jit unsupported on this build";
  auto p = spec::jit::ExecPage::allocate(16);
  ASSERT_TRUE(p.is_valid());
  spec::jit::ExecPage q = std::move(p);
  EXPECT_TRUE(q.is_valid());
  EXPECT_FALSE(p.is_valid());  // NOLINT(bugprone-use-after-move): post-move state is defined
}

// ---- direct chunk compilation ------------------------------------------------------

TEST(JitChunk, ConstantChunk) {
  Chunk ch;
  ch.emit(OpCode::PushConst, ch.add_const(42));
  ch.emit(OpCode::Return);
  check_chunk(ch, 0, {});
}

TEST(JitChunk, RejectedChunkGetsNullEntry) {
  if (!jit_on()) GTEST_SKIP() << "jit disabled";
  Chunk bad;  // stack underflow: verifier rejects, JIT must refuse
  bad.emit(OpCode::Add);
  bad.emit(OpCode::Return);
  Chunk good;
  good.emit(OpCode::PushConst, good.add_const(5));
  good.emit(OpCode::Return);
  Chunk unknown;  // an op byte outside the opcode set
  unknown.emit(OpCode::PushConst, unknown.add_const(7));
  unknown.emit(static_cast<OpCode>(99));
  unknown.emit(OpCode::Return);
  const std::array<const Chunk*, 3> chunks{&bad, &good, &unknown};
  const auto code = spec::jit::compile_chunks(chunks, 0);
  ASSERT_TRUE(code.valid());
  EXPECT_EQ(code.fn(0), nullptr);  // interpreter fallback for the bad chunk
  ASSERT_NE(code.fn(1), nullptr);
  EXPECT_EQ(code.fn(1)(nullptr), 5);
  EXPECT_EQ(code.fn(2), nullptr);
}

TEST(JitChunk, DeepStackSpillsToFrame) {
  // Left-leaning addition chain deep enough to spill past the four slot
  // registers into the native frame ([rsp + 8k] homes).
  auto e = param(0);
  for (int i = 1; i < 20; ++i) {
    e = node(Op::Add, std::move(e), node(Op::Mul, param(0), konst(i)));
  }
  // Force right-heavy nesting too: (p0 + (p0 + (p0 + ...))) grows depth.
  auto deep = param(0);
  for (int i = 0; i < 20; ++i) deep = node(Op::Add, param(0), std::move(deep));
  const Chunk ch = Compiler::compile(*deep, 1);
  ASSERT_GT(ch.verify(1).max_stack, 4) << "expression no longer spills; deepen it";
  const std::int64_t params[] = {3};
  check_chunk(ch, 1, params);
  const std::int64_t params2[] = {kMax / 2};  // wrap-around on the way up
  check_chunk(ch, 1, params2);
}

// ---- totality / wrap edge cases across every tier ----------------------------------

TEST(JitEdgeCases, DivisionTotality) {
  // p0 / p1 and p0 % p1 straight through div_total/mod_total.
  const auto div = node(Op::Div, param(0), param(1));
  const auto mod = node(Op::Mod, param(0), param(1));
  const std::int64_t cases[][2] = {
      {kMin, -1},  // idiv would #DE: must wrap to kMin (div) / 0 (mod)
      {kMax, -1},
      {kMin, 1},
      {7, 0},      // total: x/0 == x%0 == 0
      {-7, 0},
      {kMin, 0},
      {0, kMin},
      {kMax, kMax},
      {-100, 7},
      {100, -7},
  };
  for (const auto& c : cases) {
    const std::int64_t params[] = {c[0], c[1]};
    check_expr_all_tiers(*div, 2, params);
    check_expr_all_tiers(*mod, 2, params);
  }
}

TEST(JitEdgeCases, WrapArithmetic) {
  const std::int64_t params[] = {kMin, kMax, -1, 2};
  for (const Op op : {Op::Add, Op::Sub, Op::Mul}) {
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        const auto e = node(op, param(a), param(b));
        check_expr_all_tiers(*e, 4, params);
      }
    }
  }
  const auto neg = node(Op::Neg, param(0));
  check_expr_all_tiers(*neg, 4, params);  // -INT64_MIN wraps to INT64_MIN
}

TEST(JitEdgeCases, ShiftStrengthReductionWraps) {
  // p0 * 2^62 compiles to Shl 62 — the largest shift the verifier admits;
  // wrap-around must match wrap_shl exactly, including sign-bit shifts.
  const auto e = node(Op::Mul, param(0), konst(std::int64_t{1} << 62));
  for (const std::int64_t v : {std::int64_t{1}, std::int64_t{3}, std::int64_t{-1}, kMin, kMax}) {
    const std::int64_t params[] = {v};
    check_expr_all_tiers(*e, 1, params);
  }
  // The verifier's upper bound: Shl 63+ must stay rejected, so the JIT can
  // trust arg <= 62 (shl semantics diverge from wrap_shl only past 63).
  Chunk ch;
  ch.emit(OpCode::PushConst, ch.add_const(1));
  ch.emit(OpCode::Shl, 63);
  ch.emit(OpCode::Return);
  EXPECT_FALSE(ch.verify(0).ok);
  ch = Chunk{};
  ch.emit(OpCode::PushConst, ch.add_const(1));
  ch.emit(OpCode::Shl, 64);
  ch.emit(OpCode::Return);
  EXPECT_FALSE(ch.verify(0).ok);
}

TEST(JitEdgeCases, NestedLogicChains) {
  // (p0 && (p1 || (p2 && p3))) || (p1 && p2): the AST oracle short-circuits
  // every level; the chunk, jitted or not, evaluates every side eagerly.
  const auto e = node(Op::Or,
                      node(Op::And, param(0),
                           node(Op::Or, param(1), node(Op::And, param(2), param(3)))),
                      node(Op::And, param(1), param(2)));
  const std::int64_t vals[] = {0, 1, -1, kMin, kMax, 2};
  for (const std::int64_t a : vals) {
    for (const std::int64_t b : vals) {
      for (const std::int64_t c : vals) {
        for (const std::int64_t d : vals) {
          const std::int64_t params[] = {a, b, c, d};
          check_expr_all_tiers(*e, 4, params);
        }
      }
    }
  }
}

// ---- random differential testing ---------------------------------------------------

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
      case 3: return 16;
      case 4: return -5;
      case 5: return kMin;
      case 6: return kMax;
      default: return static_cast<std::int64_t>(rng_());
    }
  }

  rt::Xoshiro256& rng() { return rng_; }

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

class RandomExprJitDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomExprJitDifferential, AllTiersAgreeOnRandomExpressions) {
  ExprGen gen(GetParam(), 4);
  for (int trial = 0; trial < 120; ++trial) {
    const auto e = gen.gen(5);
    for (int pv = 0; pv < 4; ++pv) {
      const std::int64_t params[4] = {gen.pick_value(), gen.pick_value(), gen.pick_value(),
                                      gen.pick_value()};
      check_expr_all_tiers(*e, 4, params);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExprJitDifferential,
                         ::testing::Values(7u, 11u, 23u, 42u, 77u, 131u));

// ---- random verified spec programs -------------------------------------------------

// Generates a random *terminating* method: parameter 0 strictly decreases
// on every spawn (n - 1 or n - 2) and the base predicate `n < K || <extra>`
// catches it, so the task tree is finite by construction.  Reduce, guards
// and the second parameter's argument expression are unconstrained random
// expressions — they exercise the whole opcode surface, including Div/Mod
// totality, in base/guard/arg position.  Deterministic: same seed, same
// method.
Method gen_method(std::uint64_t seed) {
  ExprGen gen(seed, 2);
  auto& rng = gen.rng();
  Method m;
  m.name = "rnd";
  m.params = {"n", "x"};
  const std::int64_t k = 1 + rng.below(3);
  m.base = node(Op::Or, node(Op::Lt, param(0), konst(k)),
                node(Op::Eq, gen.gen(2), konst(0)));
  m.reduce = gen.gen(3);
  const std::uint32_t spawn_count = 1 + rng.below(2);
  for (std::uint32_t s = 0; s < spawn_count; ++s) {
    SpawnClause sc;
    if (rng.below(2) == 0) sc.guard = gen.gen(2);
    sc.args.push_back(node(Op::Sub, param(0), konst(1 + rng.below(2))));
    sc.args.push_back(gen.gen(2));
    m.spawns.push_back(std::move(sc));
  }
  return m;
}

class RandomProgramJitDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramJitDifferential, AstVmBlockVmAndJitAgree) {
  const std::uint64_t seed = GetParam();
  for (int trial = 0; trial < 12; ++trial) {
    // Method is move-only; regenerate identically for each consumer.
    const auto mk = [&] { return gen_method(seed * 1000 + static_cast<std::uint64_t>(trial)); };
    const SpecProgram ast(mk());
    const CompiledSpecProgram interp(mk(), JitMode::Off);
    const CompiledSpecProgram jitted(mk(), JitMode::On);
    EXPECT_FALSE(interp.jit_active());
    if (jit_on()) {
      EXPECT_TRUE(jitted.jit_active());
    }

    rt::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ull);
    const auto th = core::Thresholds::for_block_size(4, 64, 8);
    for (int root = 0; root < 4; ++root) {
      const std::int64_t n = static_cast<std::int64_t>(rng.below(9));
      const std::int64_t x = static_cast<std::int64_t>(rng());
      const std::vector ast_roots{ast.make_root({n, x})};
      const std::vector vm_roots{interp.make_root({n, x})};
      const auto expect = core::run_seq<core::SoaExec<SpecProgram>>(ast, ast_roots,
                                                                    SeqPolicy::Restart, th);
      ASSERT_EQ((core::run_seq<core::SoaExec<CompiledSpecProgram>>(interp, vm_roots,
                                                                   SeqPolicy::Restart, th)),
                expect)
          << "interp vm, seed " << seed << " trial " << trial;
      ASSERT_EQ((core::run_seq<core::SoaExec<CompiledSpecProgram>>(jitted, vm_roots,
                                                                   SeqPolicy::Restart, th)),
                expect)
          << "jit, seed " << seed << " trial " << trial;
      ASSERT_EQ((core::run_seq<core::SimdExec<CompiledSpecProgram>>(jitted, vm_roots,
                                                                    SeqPolicy::Restart, th)),
                expect)
          << "jit+block vm, seed " << seed << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramJitDifferential,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ---- program-level integration -----------------------------------------------------

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

TEST(JitProgram, ModeOffNeverActivates) {
  const auto prog = CompiledSpecProgram::parse(kFib, JitMode::Off);
  EXPECT_FALSE(prog.jit_active());
}

TEST(JitProgram, ModeOnActivatesWhenSupported) {
  const auto prog = CompiledSpecProgram::parse(kFib, JitMode::On);
  EXPECT_EQ(prog.jit_active(), spec::jit::supported());
}

TEST(JitProgram, ModeAutoHonorsEnvKillSwitch) {
  // Under the `spec_jit_test.interp_fallback` CTest variant TB_SPEC_JIT=off
  // is set before the process starts, so Auto must stay interpreted there.
  const auto prog = CompiledSpecProgram::parse(kFib, JitMode::Auto);
  EXPECT_EQ(prog.jit_active(), jit_on());
}

TEST(JitProgram, CopyAndMoveKeepCodeCallable) {
  auto prog = std::make_unique<CompiledSpecProgram>(
      CompiledSpecProgram::parse(kBinomial, JitMode::On));
  const auto copy = *prog;  // shares the compiled method and the exec page
  auto assigned = CompiledSpecProgram::parse(kFib, JitMode::On);
  assigned = *prog;
  auto moved = CompiledSpecProgram::parse(kBinomial, JitMode::On);
  const auto moved2 = std::move(moved);
  prog.reset();  // the copies keep the shared state alive
  const auto th = core::Thresholds::for_block_size(4, 128, 16);
  const std::vector roots{copy.make_root({19, 8})};
  const CompiledSpecProgram* const progs[] = {&copy, &assigned, &moved2};
  for (const CompiledSpecProgram* p : progs) {
    EXPECT_EQ(p->jit_active(), spec::jit::supported());
    EXPECT_EQ((core::run_seq<core::SoaExec<CompiledSpecProgram>>(*p, roots,
                                                                 SeqPolicy::Restart, th)),
              75582u);
    EXPECT_EQ((core::run_seq<core::SimdExec<CompiledSpecProgram>>(*p, roots,
                                                                  SeqPolicy::Restart, th)),
              75582u);
  }
}

struct E2ECase {
  const char* name;
  const char* src;
  std::array<std::int64_t, 2> root;
  std::uint64_t expected;
};

class JitProgramE2E : public ::testing::TestWithParam<std::tuple<E2ECase, SeqPolicy>> {};

TEST_P(JitProgramE2E, JittedProgramMatchesOracleOnEveryLayer) {
  const auto& [c, policy] = GetParam();
  const auto prog = CompiledSpecProgram::parse(c.src, JitMode::On);
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
    ProgramsAndPolicies, JitProgramE2E,
    ::testing::Combine(
        ::testing::Values(E2ECase{"fib", kFib, {21, 0}, 10946u},
                          E2ECase{"binomial", kBinomial, {19, 8}, 75582u},
                          E2ECase{"paren", kParens, {9, 9}, 4862u}),
        ::testing::ValuesIn(tbtest::kPolicies)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             core::to_string(std::get<1>(info.param));
    });

TEST(JitProgram, ParallelSchedulersSeeJittedCode) {
  const auto prog = CompiledSpecProgram::parse(kParens, JitMode::On);
  const auto roots = std::vector{prog.make_root({10, 10})};
  const std::uint64_t expected = apps::parentheses_sequential(10, 10);
  const auto th = core::Thresholds::for_block_size(4, 128, 16);
  rt::ForkJoinPool pool(3);
  EXPECT_EQ((core::run_par_reexp<core::SimdExec<CompiledSpecProgram>>(pool, prog, roots, th)),
            expected);
  EXPECT_EQ((core::run_par_restart<core::SimdExec<CompiledSpecProgram>>(pool, prog, roots, th)),
            expected);
}

}  // namespace
