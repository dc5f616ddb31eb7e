// Tests for the §5 specification-language front-end: parsing, expression
// evaluation, and end-to-end agreement between spec-language programs run
// through the task-block schedulers and (a) the reference interpreter,
// (b) the equivalent hand-written kernels.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/binomial.hpp"
#include "apps/fib.hpp"
#include "apps/parentheses.hpp"
#include "core/driver.hpp"
#include "core/ideal_restart.hpp"
#include "spec/spec_lang.hpp"
#include "tests/support/harness.hpp"

namespace {

using namespace tb;
using core::SeqPolicy;
using spec::SpecProgram;
using tbtest::for_each_policy;

constexpr const char* kFib = R"(
  # fib(n): leaves (n < 2) sum to fib(n)
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

TEST(SpecParser, AcceptsTheThreeClassicPrograms) {
  EXPECT_NO_THROW((void)SpecProgram::parse(kFib));
  EXPECT_NO_THROW((void)SpecProgram::parse(kBinomial));
  EXPECT_NO_THROW((void)SpecProgram::parse(kParens));
}

TEST(SpecParser, ReportsErrors) {
  EXPECT_THROW((void)SpecProgram::parse("def f(n) base n reduce 1"), spec::ParseError);
  EXPECT_THROW((void)SpecProgram::parse("def f(n) base n reduce 1 spawn g(n)"),
               spec::ParseError);
  EXPECT_THROW((void)SpecProgram::parse("def f(n) base n reduce 1 spawn f(n, n)"),
               spec::ParseError);
  EXPECT_THROW((void)SpecProgram::parse("def f(a,b,c,d,e) base a reduce 1 spawn f(a,b,c,d,e)"),
               spec::ParseError);
  EXPECT_THROW((void)SpecProgram::parse("def f(n) base q < 2 reduce 1 spawn f(n)"),
               spec::ParseError);
}

// Hostile input fails with ParseError.  Before the parser bounded literals
// and depth, the first input was signed-overflow UB and the other two
// crashed a Release build with a stack overflow.
std::string with_reduce(const std::string& e) {
  return "def f(n) base n < 2 reduce " + e + " spawn f(n - 1)";
}

TEST(SpecParser, RejectsAnIntegerLiteralAboveInt64Max) {
  EXPECT_NO_THROW((void)SpecProgram::parse(with_reduce("9223372036854775807")));
  EXPECT_THROW((void)SpecProgram::parse(with_reduce("9223372036854775808")), spec::ParseError);
  EXPECT_THROW((void)SpecProgram::parse(with_reduce("99999999999999999999999")),
               spec::ParseError);
}

TEST(SpecParser, RejectsTwentyThousandNestedParentheses) {
  const std::string deep = std::string(20000, '(') + "n" + std::string(20000, ')');
  EXPECT_THROW((void)SpecProgram::parse(with_reduce(deep)), spec::ParseError);
  EXPECT_THROW((void)SpecProgram::parse(with_reduce(std::string(20000, '-') + "n")),
               spec::ParseError);
  // Nesting below the bound still parses, and evaluates.
  const int ok = spec::kMaxExprDepth - 2;
  const auto p = SpecProgram::parse(
      with_reduce(std::string(ok, '(') + "n + 1" + std::string(ok, ')')));
  std::uint64_t r = 0;
  p.leaf(p.make_root({1}), r);
  EXPECT_EQ(r, 2u);
}

TEST(SpecParser, RejectsATwoHundredThousandTermChain) {
  const auto chain = [](int terms) {
    std::string e = "1";
    for (int i = 1; i < terms; ++i) e += "+n";
    return e;
  };
  EXPECT_THROW((void)SpecProgram::parse(with_reduce(chain(200000))), spec::ParseError);
  // A chain of kMaxExprDepth terms is as tall as the bound allows.
  const auto p = SpecProgram::parse(with_reduce(chain(spec::kMaxExprDepth)));
  std::uint64_t r = 0;
  p.leaf(p.make_root({2}), r);
  EXPECT_EQ(r, 1u + 2u * (spec::kMaxExprDepth - 1));
  EXPECT_THROW((void)SpecProgram::parse(with_reduce(chain(spec::kMaxExprDepth + 1))),
               spec::ParseError);
}

TEST(SpecExpr, EvaluatesOperatorsAndPrecedence) {
  const auto prog = SpecProgram::parse(R"(
    def f(n)
      base 2 + 3 * 4 == 14 && !(n < 0) && (10 % 3) == 1 && 7 / 2 == 3
      reduce n * n - 1
      spawn f(n - 1)
  )");
  // With the base expression a tautology for n >= 0, the root is a leaf.
  const auto t = prog.make_root({5});
  EXPECT_TRUE(prog.is_base(t));
  SpecProgram::Result r = 0;
  prog.leaf(t, r);
  EXPECT_EQ(r, 24u);
}

TEST(SpecLang, FibMatchesHandWrittenKernel) {
  const auto prog = SpecProgram::parse(kFib);
  const auto roots = std::vector{prog.make_root({21})};
  const std::uint64_t expected = apps::fib_sequential(21);
  EXPECT_EQ(spec::interpret_sequential(prog, roots[0]), expected);
  tbtest::expect_seq_matrix(prog, roots, core::Thresholds::for_block_size(4, 256, 32),
                            expected, tbtest::kAos | tbtest::kSoa);
}

TEST(SpecLang, BinomialMatchesHandWrittenKernel) {
  const auto prog = SpecProgram::parse(kBinomial);
  const auto roots = std::vector{prog.make_root({19, 8})};
  const std::uint64_t expected = apps::binomial_sequential(19, 8);
  const auto th = core::Thresholds::for_block_size(4, 128, 16);
  EXPECT_EQ(core::run_seq<core::SoaExec<SpecProgram>>(prog, roots, SeqPolicy::Restart, th),
            expected);
}

TEST(SpecLang, GuardedSpawnsParenthesesMatch) {
  const auto prog = SpecProgram::parse(kParens);
  const auto roots = std::vector{prog.make_root({9, 9})};
  const std::uint64_t expected = apps::parentheses_sequential(9, 9);
  tbtest::expect_seq_matrix(prog, roots, core::Thresholds::for_block_size(4, 64, 8), expected,
                            tbtest::kSoa);
}

TEST(SpecLang, RunsOnParallelSchedulers) {
  const auto prog = SpecProgram::parse(kParens);
  const auto roots = std::vector{prog.make_root({10, 10})};
  const std::uint64_t expected = apps::parentheses_sequential(10, 10);
  const auto th = core::Thresholds::for_block_size(4, 128, 16);
  rt::ForkJoinPool pool(3);
  EXPECT_EQ(core::run_par_reexp<core::SoaExec<SpecProgram>>(pool, prog, roots, th), expected);
  EXPECT_EQ(core::run_par_restart<core::SoaExec<SpecProgram>>(pool, prog, roots, th), expected);
  EXPECT_EQ(core::run_ideal_restart<core::SoaExec<SpecProgram>>(prog, roots, th, 3), expected);
}

TEST(SpecLang, ForeachOuterLoopIsDataParallel) {
  // §5.2: foreach (d : data) f(d, …) — each iteration roots one traversal;
  // here: sum of fib(d) for d in [0, 18).
  const auto prog = SpecProgram::parse(kFib);
  const auto roots = prog.foreach_roots(0, 18);
  std::uint64_t expected = 0;
  for (int d = 0; d < 18; ++d) expected += apps::fib_sequential(d);
  const auto th = core::Thresholds::for_block_size(4, 32, 8);
  EXPECT_EQ(core::run_seq<core::SoaExec<SpecProgram>>(prog, roots, SeqPolicy::Restart, th),
            expected);
  rt::ForkJoinPool pool(2);
  EXPECT_EQ(core::run_par_restart<core::SoaExec<SpecProgram>>(pool, prog, roots, th), expected);
}

TEST(SpecLang, StatsCensusMatchesTreeWalk) {
  const auto prog = SpecProgram::parse(kFib);
  const auto roots = std::vector{prog.make_root({16})};
  const auto info = core::count_tree(prog, roots);
  core::ExecStats st;
  const auto th = core::Thresholds::for_block_size(4, 64, 8);
  (void)core::run_seq<core::SoaExec<SpecProgram>>(prog, roots, SeqPolicy::Restart, th, &st);
  EXPECT_EQ(st.tasks_executed, info.tasks);
  EXPECT_EQ(st.leaves, info.leaves);
}

TEST(SpecLang, CommentsAndWhitespaceIgnored) {
  const auto prog = SpecProgram::parse(
      "def f(n) # comment\n base n<1 # another\n reduce 1\n spawn f(n-1)");
  EXPECT_EQ(spec::interpret_sequential(prog, prog.make_root({5})), 1u);
}

// ---- §5.2 foreach front-end ---------------------------------------------------------

constexpr const char* kForeachFib = R"(
  # sum of fib(2d+1) for d in [0, 9)
  foreach d in 0 .. 9 : fib(2 * d + 1)
  def fib(n)
    base n < 2
    reduce n
    spawn fib(n - 1)
    spawn fib(n - 2)
)";

TEST(SpecForeach, ParsesClauseAndGeneratesRoots) {
  const auto unit = spec::Parser(kForeachFib).parse_unit();
  ASSERT_TRUE(unit.has_foreach());
  EXPECT_EQ(unit.loop->var, "d");
  EXPECT_EQ(unit.loop->lo, 0);
  EXPECT_EQ(unit.loop->hi, 9);
  const auto roots = spec::clause_roots(*unit.loop);
  ASSERT_EQ(roots.size(), 9u);
  for (std::size_t d = 0; d < roots.size(); ++d) {
    EXPECT_EQ(roots[d].p[0], static_cast<std::int64_t>(2 * d + 1));
  }
}

TEST(SpecForeach, BareMethodHasNoClause) {
  const auto unit = spec::Parser("def f(n) base n<1 reduce 1 spawn f(n-1)").parse_unit();
  EXPECT_FALSE(unit.has_foreach());
}

TEST(SpecForeach, ConstantExpressionBounds) {
  const auto unit = spec::Parser(R"(
    foreach i in 2*3 .. 40/4 : f(i)
    def f(n) base n < 1 reduce 1 spawn f(n - 1)
  )").parse_unit();
  ASSERT_TRUE(unit.has_foreach());
  EXPECT_EQ(unit.loop->lo, 6);
  EXPECT_EQ(unit.loop->hi, 10);
}

TEST(SpecForeach, EmptyRangeYieldsNoRoots) {
  const auto unit = spec::Parser(R"(
    foreach i in 5 .. 5 : f(i)
    def f(n) base n < 1 reduce 1 spawn f(n - 1)
  )").parse_unit();
  EXPECT_TRUE(spec::clause_roots(*unit.loop).empty());
}

TEST(SpecForeach, RejectsMalformedClauses) {
  const char* kBody = "def f(n) base n<1 reduce 1 spawn f(n-1)";
  // Wrong callee.
  EXPECT_THROW((void)spec::Parser(("foreach d in 0..3 : g(d)\n" + std::string(kBody)))
                   .parse_unit(),
               spec::ParseError);
  // Arity mismatch.
  EXPECT_THROW((void)spec::Parser(("foreach d in 0..3 : f(d, d)\n" + std::string(kBody)))
                   .parse_unit(),
               spec::ParseError);
  // Missing '..'.
  EXPECT_THROW((void)spec::Parser(("foreach d in 0 : f(d)\n" + std::string(kBody)))
                   .parse_unit(),
               spec::ParseError);
  // Parameters are not in scope in the bounds.
  EXPECT_THROW((void)spec::Parser(("foreach d in n..3 : f(d)\n" + std::string(kBody)))
                   .parse_unit(),
               spec::ParseError);
}

TEST(SpecForeach, LoadSpecRunsEndToEnd) {
  const auto loaded = spec::load_spec(kForeachFib);
  ASSERT_TRUE(loaded.had_foreach);
  std::uint64_t expected = 0;
  for (int d = 0; d < 9; ++d) expected += apps::fib_sequential(2 * d + 1);
  tbtest::expect_seq_matrix(loaded.program, loaded.roots,
                            core::Thresholds::for_block_size(4, 64, 8), expected, tbtest::kSoa);
}

TEST(SpecForeach, LoadSpecFallbackRootForBareMethod) {
  const auto loaded = spec::load_spec("def f(n) base n<2 reduce n spawn f(n-1) spawn f(n-2)",
                                      {20});
  EXPECT_FALSE(loaded.had_foreach);
  ASSERT_EQ(loaded.roots.size(), 1u);
  EXPECT_EQ(loaded.roots[0].p[0], 20);
  EXPECT_EQ(spec::interpret_sequential(loaded.program, loaded.roots[0]),
            apps::fib_sequential(20));
}

TEST(SpecForeach, NegativeBoundsWork) {
  const auto unit = spec::Parser(R"(
    foreach i in -3 .. 3 : f(i * i)
    def f(n) base n < 1 reduce 1 spawn f(n - 1)
  )").parse_unit();
  const auto roots = spec::clause_roots(*unit.loop);
  ASSERT_EQ(roots.size(), 6u);
  EXPECT_EQ(roots[0].p[0], 9);   // (-3)^2
  EXPECT_EQ(roots[5].p[0], 4);   // 2^2
}

#ifdef TB_SOURCE_DIR
// The .spec files shipped under examples/specs/ must stay parseable and
// runnable — they are user-facing artifacts, not documentation.
TEST(SpecFiles, ShippedExamplesParseAndRun) {
  const struct {
    const char* path;
    std::initializer_list<std::int64_t> fallback;
    std::uint64_t expected;
  } cases[] = {
      {TB_SOURCE_DIR "/examples/specs/fib.spec", {20}, 6765u},
      {TB_SOURCE_DIR "/examples/specs/paren.spec", {8, 8}, 1430u},
      // foreach_fib: sum of fib(0..23) = fib(25) - 1.
      {TB_SOURCE_DIR "/examples/specs/foreach_fib.spec", {}, 75024u},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.path);
    std::ifstream in(c.path);
    ASSERT_TRUE(in.good()) << "missing shipped spec file";
    std::ostringstream ss;
    ss << in.rdbuf();
    const auto loaded = spec::load_spec(ss.str(), c.fallback);
    const auto th = core::Thresholds::for_block_size(4, 64, 8);
    EXPECT_EQ(core::run_seq<core::SoaExec<SpecProgram>>(loaded.program, loaded.roots,
                                                        SeqPolicy::Restart, th),
              c.expected);
  }
}
#endif

}  // namespace
