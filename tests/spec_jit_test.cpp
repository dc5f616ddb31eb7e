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

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
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

TEST(JitMethod, ARejectedChunkLeavesTheMethodWithoutABlockLoop) {
  if (!jit_on()) GTEST_SKIP() << "jit disabled";
  spec::CompiledMethod m =
      spec::compile_method(spec::Parser("def f(n) base n < 2 reduce n spawn f(n - 1)").parse_method());
  EXPECT_NE(spec::jit::compile_method(m).loop(), nullptr);
  m.reduce = Chunk{};  // no ret: the verifier rejects it
  m.reduce.emit(OpCode::PushParam, 0);
  const auto code = spec::jit::compile_method(m);
  ASSERT_TRUE(code.valid());
  EXPECT_NE(code.fn(0), nullptr);  // base still runs jitted
  EXPECT_EQ(code.fn(1), nullptr);
  EXPECT_EQ(code.loop(), nullptr);
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

  // A right-leaning chain p_a op (p_b op (… op p_c)) over `len` parameter
  // leaves: every operand waits on the stack, so its depth is `len`.
  std::unique_ptr<Expr> chain(int len) {
    static constexpr Op kOps[] = {Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Mod, Op::Lt, Op::Ne};
    auto e = any_param();
    for (int i = 1; i < len; ++i) {
      e = node(kOps[rng_.below(std::size(kOps))], any_param(), std::move(e));
    }
    return e;
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
  std::unique_ptr<Expr> any_param() {
    return param(static_cast<int>(rng_.below(static_cast<std::uint32_t>(arity_))));
  }
  std::unique_ptr<Expr> leaf() {
    if (arity_ > 0 && rng_.below(2) == 0) return any_param();
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

// A random terminating method and the largest root n that keeps its task
// tree to a few thousand tasks.
struct RandomMethod {
  Method method;
  std::int64_t max_n;
};

// Generates a random *terminating* method of arity 1–4 with 1–8 spawns,
// each guarded or not: parameter 0 strictly decreases on every spawn (n - 1
// or n - 2) and the base predicate `n < K || <extra> == 3` catches it, so
// the task tree is finite by construction.  The reduce value, the extra
// base term, the guards and the other parameters' arguments are random
// expressions over the whole opcode surface; the extra base term, one
// guard (when any spawn has one) and one argument have a `/` or `%` at
// their root, and about one expression in four is a right-leaning chain
// deep enough to spill past r8–r11 into the native frame.  Deterministic:
// same seed, same method.
RandomMethod gen_method(std::uint64_t seed) {
  const int arity = 1 + static_cast<int>(rt::Xoshiro256(seed).below(4));
  ExprGen gen(seed ^ 0x2545f4914f6cdd1dull, arity);
  auto& rng = gen.rng();
  const auto expr = [&](int depth) {
    return rng.below(4) == 0 ? gen.chain(6 + static_cast<int>(rng.below(4))) : gen.gen(depth);
  };
  const auto divmod = [&](int depth) {
    return node(rng.below(2) == 0 ? Op::Div : Op::Mod, expr(depth), expr(depth));
  };
  Method m;
  m.name = "rnd";
  static constexpr const char* kNames[] = {"n", "x", "y", "z"};
  m.params.assign(kNames, kNames + arity);
  const std::int64_t k = 1 + rng.below(3);
  // `== 3`: an extra term that is rarely true keeps most trees deep.
  m.base = node(Op::Or, node(Op::Lt, param(0), konst(k)), node(Op::Eq, divmod(2), konst(3)));
  m.reduce = expr(3);
  const std::uint32_t spawns = 1 + rng.below(8);
  const std::uint32_t divmod_guard = rng.below(spawns);
  const std::uint32_t divmod_arg = rng.below(spawns);
  bool guard_has_divmod = false;
  for (std::uint32_t s = 0; s < spawns; ++s) {
    SpawnClause sc;
    if (rng.below(2) == 0) {
      const bool want = !guard_has_divmod && s >= divmod_guard;
      sc.guard = want ? divmod(2) : expr(2);
      guard_has_divmod |= want;
    }
    auto n_arg = node(Op::Sub, param(0), konst(1 + rng.below(2)));
    // With one parameter the division rides on n's argument: e % 1 == 0.
    if (s == divmod_arg && arity == 1) {
      n_arg = node(Op::Add, std::move(n_arg), node(Op::Mod, expr(2), konst(1)));
    }
    sc.args.push_back(std::move(n_arg));
    for (int a = 1; a < arity; ++a) {
      sc.args.push_back(s == divmod_arg && a == 1 ? divmod(2) : expr(2));
    }
    m.spawns.push_back(std::move(sc));
  }
  // A tree of L levels (n down to K - 1) holds at most 1 + b + … + b^(L-1)
  // tasks for b spawns.
  const int levels =
      spawns == 1 ? 60 : 1 + static_cast<int>(std::log(3000.0) / std::log(double(spawns)));
  return {std::move(m), k - 2 + levels};
}

bool has_divmod(const Chunk& ch) {
  for (const spec::Instr in : ch.code()) {
    if (in.op == OpCode::Div || in.op == OpCode::Mod) return true;
  }
  return false;
}

TEST(RandomMethodGenerator, CoversArityFanOutSpillsAndDivision) {
  std::array<int, 5> arities{};
  std::array<int, 9> fan_outs{};
  int spills = 0, guarded = 0, unguarded = 0, div_base = 0, div_guard = 0, div_arg = 0;
  std::vector<std::uint64_t> tree_sizes;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const RandomMethod rm = gen_method(seed);
    const auto cm = spec::compile_method(rm.method);
    const SpecProgram ast(gen_method(seed).method);
    SpecProgram::Task root{};
    root.p[0] = rm.max_n;
    tree_sizes.push_back(core::count_tree(ast, std::span(&root, 1)).tasks);
    ++arities[static_cast<std::size_t>(cm.arity)];
    ++fan_outs[cm.spawns.size()];
    spills += cm.max_stack > 4;
    div_base += has_divmod(cm.base);
    bool g = false, a = false;
    for (const auto& s : cm.spawns) {
      (s.has_guard ? guarded : unguarded) += 1;
      g |= s.has_guard && has_divmod(s.guard);
      for (const Chunk& c : s.args) a |= has_divmod(c);
    }
    div_guard += g;
    div_arg += a;
  }
  for (int a = 1; a <= 4; ++a) EXPECT_GT(arities[static_cast<std::size_t>(a)], 0) << a;
  EXPECT_GT(fan_outs[1], 0);
  EXPECT_GT(fan_outs[8], 0);
  EXPECT_GT(spills, 20);
  EXPECT_GT(guarded, 100);
  EXPECT_GT(unguarded, 100);
  // Division folds away only when both operands are constants.
  EXPECT_GT(div_base, 150);
  EXPECT_GT(div_guard, 100);
  EXPECT_GT(div_arg, 150);
  // Deep enough to run many blocks, bounded enough to stay fast.
  std::sort(tree_sizes.begin(), tree_sizes.end());
  EXPECT_GT(tree_sizes[tree_sizes.size() / 2], 30u);
  EXPECT_LT(tree_sizes.back(), 20000u);
}

// A run's result and every field of its statistics.
struct Outcome {
  std::uint64_t result;
  core::ExecStats st;
};

auto fields(const core::ExecStats& s) {
  return std::tuple(s.steps_total, s.steps_complete, s.supersteps, s.partial_supersteps,
                    s.tasks_executed, s.leaves, s.bfe_actions, s.dfe_actions, s.restart_actions,
                    s.steal_actions, s.merges, s.max_block_size, s.peak_space_tasks,
                    s.peak_frames, s.donated_frames);
}

void expect_same(const Outcome& want, const Outcome& got, const char* what) {
  EXPECT_EQ(want.result, got.result) << what;
  EXPECT_EQ(fields(want.st), fields(got.st)) << what;
}

template <class Exec>
Outcome run_layer(const typename Exec::Program& p, std::span<const spec::SpecProgram::Task> roots,
                  SeqPolicy policy, const core::Thresholds& th) {
  Outcome o{};
  o.result = core::run_seq<Exec>(p, roots, policy, th, &o.st);
  return o;
}

class RandomProgramJitDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProgramJitDifferential, AstVmBlockVmAndJitAgree) {
  const std::uint64_t seed = GetParam();
  rt::ForkJoinPool pool(2);
  const auto& presets = tbtest::threshold_presets();
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t method_seed = seed * 1000 + static_cast<std::uint64_t>(trial);
    SCOPED_TRACE("method seed " + std::to_string(method_seed));
    // Method is move-only; regenerate identically for each consumer.
    const auto mk = [&] { return gen_method(method_seed).method; };
    const SpecProgram ast(mk());
    const CompiledSpecProgram interp(mk(), JitMode::Off);
    const CompiledSpecProgram jitted(mk(), JitMode::On);
    EXPECT_FALSE(interp.jit_active());
    EXPECT_FALSE(interp.block_loop_active());
    EXPECT_EQ(jitted.jit_active(), spec::jit::supported());
    EXPECT_EQ(jitted.block_loop_active(), spec::jit::supported());

    rt::Xoshiro256 rng(method_seed ^ 0x9e3779b97f4a7c15ull);
    const auto max_n = gen_method(method_seed).max_n;
    const auto& th = presets[static_cast<std::size_t>(trial) % presets.size()];
    for (int root = 0; root < 3; ++root) {
      SpecProgram::Task t{};
      t.p[0] = root == 0 ? max_n
                         : static_cast<std::int64_t>(rng.below(static_cast<std::uint32_t>(max_n)));
      for (std::size_t i = 1; i < ast.arity(); ++i) t.p[i] = static_cast<std::int64_t>(rng());
      const std::vector roots{t};
      const std::uint64_t expect = spec::interpret_sequential(ast, t);
      for (const SeqPolicy policy : tbtest::kPolicies) {
        SCOPED_TRACE(core::to_string(policy));
        const auto aos = run_layer<core::AosExec<SpecProgram>>(ast, roots, policy, th);
        ASSERT_EQ(aos.result, expect);
        expect_same(aos, run_layer<core::AosExec<CompiledSpecProgram>>(interp, roots, policy, th),
                    "interpreter, AoS");
        expect_same(aos, run_layer<core::AosExec<CompiledSpecProgram>>(jitted, roots, policy, th),
                    "jit, AoS");
        const auto soa = run_layer<core::SoaExec<SpecProgram>>(ast, roots, policy, th);
        ASSERT_EQ(soa.result, expect);
        expect_same(soa, run_layer<core::SoaExec<CompiledSpecProgram>>(interp, roots, policy, th),
                    "interpreter, SoA");
        expect_same(soa, run_layer<core::SoaExec<CompiledSpecProgram>>(jitted, roots, policy, th),
                    "jit block loop, SoA");
        // The AST program has no SIMD layer: the interpreter is the reference.
        const auto simd =
            run_layer<core::SimdExec<CompiledSpecProgram>>(interp, roots, policy, th);
        ASSERT_EQ(simd.result, expect);
        expect_same(simd, run_layer<core::SimdExec<CompiledSpecProgram>>(jitted, roots, policy, th),
                    "jit + block VM, SIMD");
        if (::testing::Test::HasFailure()) return;
      }
      using JitSoa = core::SoaExec<CompiledSpecProgram>;
      EXPECT_EQ(core::run_par_reexp<JitSoa>(pool, jitted, roots, th), expect);
      EXPECT_EQ(core::run_par_restart<JitSoa>(pool, jitted, roots, th), expect);
      EXPECT_EQ(core::run_par_reexp<JitSoa>(pool, interp, roots, th), expect);
      EXPECT_EQ(core::run_par_restart<JitSoa>(pool, interp, roots, th), expect);
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

// ---- the SoA block loop ---------------------------------------------------------------

// Arity 3 (column 3 is past it), guarded and unguarded spawns, `/` and `%`
// in the base, a guard and the arguments.
constexpr const char* kLoopShape = R"(
  def g(n, x, y)
    base n < 2 || x % 7 == 3
    reduce x / 3 + n * y
    spawn g(n - 1, x * 3 + 1, y % 5)
    spawn if x % 2 == 0 : g(n - 2, x / 2, y + n)
    spawn if n > 4 : g(n - 3, -x, y / (n - 5))
)";

using Block = CompiledSpecProgram::Block;
using Outs = std::array<Block*, CompiledSpecProgram::max_children>;

// A 40-row input block: n over 0..9, wide x and y, and nonzero garbage in
// column 3, which no child may inherit.
Block loop_input() {
  Block in;
  rt::Xoshiro256 rng(77);
  for (std::int64_t i = 0; i < 40; ++i) {
    in.push_back(i % 10, static_cast<std::int64_t>(rng()) >> (i % 40), i * 1000 - 7,
                 static_cast<std::int64_t>(rng()) | 1);
  }
  return in;
}

// Out blocks that already hold rows.
std::vector<Block> prefilled_outs(std::size_t n) {
  std::vector<Block> outs(n);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::int64_t i = 0; i < 3 + static_cast<std::int64_t>(b); ++i) {
      outs[b].push_back(-1, -2 - i, -3, -4 - static_cast<std::int64_t>(b));
    }
  }
  return outs;
}

// BFE maps every slot to block 0; DFE maps slot s to block s.
Outs wire(std::vector<Block>& blocks, bool bfe) {
  Outs outs{};
  for (std::size_t s = 0; s < outs.size(); ++s) outs[s] = &blocks[bfe ? 0 : s];
  return outs;
}

void expect_same_rows(const Block& want, const Block& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want.row(i), got.row(i)) << "row " << i;
  }
}

TEST(SoaBlockLoop, MatchesThePerTaskPathInBfeAndDfeShape) {
  const auto interp = CompiledSpecProgram::parse(kLoopShape, JitMode::Off);
  const auto jitted = CompiledSpecProgram::parse(kLoopShape, JitMode::On);
  EXPECT_EQ(jitted.block_loop_active(), spec::jit::supported());
  const Block in = loop_input();
  const std::pair<std::size_t, std::size_t> ranges[] = {{0, 40}, {0, 1}, {7, 23}, {39, 40},
                                                        {5, 5}};
  for (const bool bfe : {true, false}) {
    for (const auto& [begin, end] : ranges) {
      SCOPED_TRACE(std::string(bfe ? "BFE" : "DFE") + " rows [" + std::to_string(begin) + ", " +
                   std::to_string(end) + ")");
      const std::size_t n_blocks = bfe ? 1 : CompiledSpecProgram::max_children;
      auto want_blocks = prefilled_outs(n_blocks);
      auto got_blocks = prefilled_outs(n_blocks);
      std::uint64_t want_r = 11, got_r = 11, want_leaves = 5, got_leaves = 5;
      core::SoaExec<CompiledSpecProgram>::expand_into(interp, in, begin, end,
                                                      wire(want_blocks, bfe), want_r, want_leaves);
      core::SoaExec<CompiledSpecProgram>::expand_into(jitted, in, begin, end,
                                                      wire(got_blocks, bfe), got_r, got_leaves);
      EXPECT_EQ(want_r, got_r);
      EXPECT_EQ(want_leaves, got_leaves);
      for (std::size_t b = 0; b < n_blocks; ++b) {
        SCOPED_TRACE("out block " + std::to_string(b));
        expect_same_rows(want_blocks[b], got_blocks[b]);
        const auto first_child = prefilled_outs(n_blocks)[b].size();
        for (std::size_t i = first_child; i < got_blocks[b].size(); ++i) {
          EXPECT_EQ(std::get<3>(got_blocks[b].row(i)), 0) << "row " << i << " past the arity";
        }
      }
      if (begin == 0 && end == 40) {
        EXPECT_GT(want_leaves, 5u);
        EXPECT_GT(want_blocks[0].size(), 3u + 20u);
      }
    }
  }
}

TEST(SoaBlockLoop, JitOffTakesThePerTaskPath) {
  const auto interp = CompiledSpecProgram::parse(kLoopShape, JitMode::Off);
  EXPECT_FALSE(interp.block_loop_active());
  const Block in = loop_input();
  auto blocks = prefilled_outs(1);
  std::uint64_t r = 0, leaves = 0;
  EXPECT_FALSE(interp.expand_soa(in, 0, in.size(), wire(blocks, true), r, leaves));
  EXPECT_EQ(blocks[0].size(), 3u);
  EXPECT_EQ(r, 0u);
  EXPECT_EQ(leaves, 0u);
}

// Counts the SoA layer's calls into the block hook and how many ran the
// jitted loop.
struct LoopProbe : CompiledSpecProgram {
  explicit LoopProbe(CompiledSpecProgram p) : CompiledSpecProgram(std::move(p)) {}
  bool expand_soa(const Block& in, std::size_t begin, std::size_t end, const Outs& outs,
                  Result& r, std::uint64_t& leaves) const {
    ++calls;
    const bool ran = CompiledSpecProgram::expand_soa(in, begin, end, outs, r, leaves);
    loops += ran ? 1 : 0;
    return ran;
  }
  mutable int calls = 0;
  mutable int loops = 0;
};

TEST(SoaBlockLoop, SoaLayerRunsTheLoopWhenTheJitIsOn) {
  const LoopProbe probe(CompiledSpecProgram::parse(kFib));
  const std::vector roots{probe.make_root({18})};
  const auto th = core::Thresholds::for_block_size(4, 64, 8);
  for (const SeqPolicy policy : tbtest::kPolicies) {
    EXPECT_EQ(core::run_seq<core::SoaExec<LoopProbe>>(probe, roots, policy, th), 2584u);
  }
  EXPECT_GT(probe.calls, 0);
  EXPECT_EQ(probe.loops, jit_on() ? probe.calls : 0);
  EXPECT_EQ(probe.block_loop_active(), jit_on());
}

// ---- parser mutation ------------------------------------------------------------------

// Whether p's tree under `root` holds at most `cap` tasks.  The walk stops
// at the cap: an accepted mutant need not terminate.
bool census_under(const CompiledSpecProgram& p, const SpecProgram::Task& root, std::size_t cap) {
  std::vector<SpecProgram::Task> stack{root};
  std::size_t tasks = 0;
  while (!stack.empty()) {
    if (++tasks > cap) return false;
    const SpecProgram::Task t = stack.back();
    stack.pop_back();
    if (!p.is_base(t)) p.expand(t, [&](int, const SpecProgram::Task& c) { stack.push_back(c); });
  }
  return true;
}

// One random edit: flip, insert, delete or overwrite a byte, duplicate a
// span, or swap a digit or operator for another of its kind (the edit that
// most often keeps a program valid).  Inserted bytes favour the language's
// own characters.
void mutate(std::string& src, rt::Xoshiro256& rng) {
  static constexpr std::string_view kAlphabet = "()+-*/%!<>=&|:,#_ 0123456789nkxdefbasicpwu\n";
  static constexpr std::string_view kDigits = "0123456789";
  static constexpr std::string_view kOperators = "+-*/%<>=!";
  const auto one_of = [&](std::string_view set) {
    return set[rng.below(static_cast<std::uint32_t>(set.size()))];
  };
  const auto byte = [&]() -> char {
    return rng.below(4) == 0 ? static_cast<char>(rng.below(256)) : one_of(kAlphabet);
  };
  const auto at = [&](std::size_t n) { return rng.below(static_cast<std::uint32_t>(n + 1)); };
  if (!src.empty() && rng.below(2) == 0) {
    char& c = src[at(src.size() - 1)];
    if (kDigits.find(c) != std::string_view::npos) c = one_of(kDigits);
    if (kOperators.find(c) != std::string_view::npos) c = one_of(kOperators);
    return;
  }
  switch (rng.below(5)) {
    case 0:
      if (!src.empty()) src[at(src.size() - 1)] ^= static_cast<char>(1 << rng.below(8));
      break;
    case 1: src.insert(src.begin() + at(src.size()), byte()); break;
    case 2:
      if (!src.empty()) src.erase(at(src.size() - 1), 1);
      break;
    case 3:
      if (!src.empty()) src[at(src.size() - 1)] = byte();
      break;
    default: {
      const std::size_t from = at(src.size());
      const std::size_t len = std::min<std::size_t>(src.size() - from, 1 + rng.below(12));
      src.insert(at(src.size()), src.substr(from, len));
      break;
    }
  }
}

TEST(SpecParserMutation, EveryInputThrowsOrCompilesAndAcceptedProgramsAgree) {
  const std::string_view sources[] = {kFib, kBinomial, kParens, kLoopShape};
  rt::Xoshiro256 rng(20240521);
  const auto th = core::Thresholds::for_block_size(4, 64, 8);
  int accepted = 0, compared = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string src;
    if (i % 5 == 0) {
      src.resize(rng.below(96));
      for (char& c : src) c = static_cast<char>(rng.below(256));
    } else {
      src = sources[rng.below(std::size(sources))];
      for (std::uint32_t m = 1 + rng.below(3); m > 0; --m) mutate(src, rng);
    }
    std::optional<CompiledSpecProgram> interp, jitted;
    try {
      interp.emplace(CompiledSpecProgram::parse(src, JitMode::Off));
      jitted.emplace(CompiledSpecProgram::parse(src, JitMode::On));
    } catch (const spec::ParseError&) {
      continue;
    } catch (const spec::CompileError&) {
      continue;
    }
    ++accepted;
    SpecProgram::Task root{};
    for (int p = 0; p < interp->arity(); ++p) root.p[static_cast<std::size_t>(p)] = 9 - 2 * p;
    if (!census_under(*interp, root, 4000)) continue;
    ++compared;
    const std::vector roots{root};
    SCOPED_TRACE(src);
    expect_same(run_layer<core::SoaExec<CompiledSpecProgram>>(*interp, roots, SeqPolicy::Restart, th),
                run_layer<core::SoaExec<CompiledSpecProgram>>(*jitted, roots, SeqPolicy::Restart, th),
                "interpreter vs jitted block loop");
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(accepted, 4000);
  EXPECT_GT(compared, 4000);
}

}  // namespace
