// Ablation — execution tiers of the §5 specification language.
//
// The same textual program runs through six tiers:
//
//   ast      — AST-walking interpreter per task (the naive front-end)
//   vm       — bytecode interpreter per task (compiled, jump-free)
//   jit      — the same bytecode jitted (spec/jit/): the SoA layer runs
//              each block through the method's native block loop
//   jit:aos  — the jitted program on the AoS layer, which calls the
//              per-chunk native functions once per task (the per-task
//              interface AosExec, count_tree and run_cilk still use)
//   vm+simd  — block VM: the same bytecode evaluated 4 lanes at a time
//              with masked child compaction
//   native   — the equivalent hand-written C++ kernel's SIMD rung
//              (the ceiling the compiler pipeline is chasing)
//
// All tiers run under the sequential restart scheduler with the same
// thresholds, so the delta is purely the per-task/per-block execution cost.
// Every tier's result is cross-checked against every other; a mismatch is a
// hard failure (exit 1) — the JIT's contract is bit-identity, not "close".
//
// Flags: --scale=default|paper, --programs=fib,binomial,paren,
//        --tiers=ast,vm,jit,jit:aos,vm+simd,native (default: all; isolate
//        single tiers when diffing), --format=json, --out=
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "apps/binomial.hpp"
#include "apps/fib.hpp"
#include "apps/parentheses.hpp"
#include "bench/support/report.hpp"
#include "core/driver.hpp"
#include "spec/spec_lang.hpp"
#include "spec/vm.hpp"

namespace {

using namespace tb;
using core::SeqPolicy;

struct ProgramCase {
  std::string name;
  const char* src;
  std::array<std::int64_t, 2> root;
  // Native-kernel runner (returns result) — the hand-written ceiling.
  std::uint64_t (*native)(const core::Thresholds&, std::array<std::int64_t, 2>);
};

template <class P>
std::uint64_t run_native(const P& prog, typename P::Task root, const core::Thresholds& th) {
  const std::vector roots{root};
  return core::run_seq<core::SimdExec<P>>(prog, roots, SeqPolicy::Restart, th);
}

std::uint64_t native_fib(const core::Thresholds& th, std::array<std::int64_t, 2> r) {
  return run_native(apps::FibProgram{}, apps::FibProgram::root(static_cast<int>(r[0])), th);
}
std::uint64_t native_binomial(const core::Thresholds& th, std::array<std::int64_t, 2> r) {
  return run_native(apps::BinomialProgram{},
                    apps::BinomialProgram::root(static_cast<int>(r[0]), static_cast<int>(r[1])),
                    th);
}
std::uint64_t native_paren(const core::Thresholds& th, std::array<std::int64_t, 2> r) {
  return run_native(apps::ParenthesesProgram{},
                    apps::ParenthesesProgram::root(static_cast<int>(r[0])), th);
}

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

// One tier's measurement for one program; `run` distinguishes "filtered
// out" from "measured zero".
struct TierRun {
  bool run = false;
  double secs = 0.0;
  std::uint64_t result = 0;
};

double geo_or_nan(const std::vector<double>& v) {
  return v.empty() ? 0.0 : tbench::geomean(v);
}

void cell(char* buf, std::size_t n, const TierRun& t) {
  if (t.run) {
    std::snprintf(buf, n, "%9.4f", t.secs);
  } else {
    std::snprintf(buf, n, "%9s", "-");
  }
}

}  // namespace

int main(int argc, char** argv) {
  tbench::Flags flags(argc, argv);
  const bool paper = flags.get("scale", "default") == "paper";
  const std::string filter = flags.get("programs");
  const std::string tiers = flags.get("tiers");
  tbench::Reporter rep("ablation_spec_vm", flags);

  const bool want_ast = tbench::selected(tiers, "ast");
  const bool want_vm = tbench::selected(tiers, "vm");
  const bool want_jit = tbench::selected(tiers, "jit");
  const bool want_jit_aos = tbench::selected(tiers, "jit:aos");
  const bool want_simd = tbench::selected(tiers, "vm+simd");
  const bool want_native = tbench::selected(tiers, "native");

  const std::vector<ProgramCase> cases = {
      {"fib", kFib, {paper ? 34 : 29, 0}, native_fib},
      {"binomial", kBinomial, {paper ? 32 : 24, paper ? 13 : 10}, native_binomial},
      {"paren", kParens, {paper ? 16 : 12, paper ? 16 : 12}, native_paren},
  };

  if ((want_jit || want_jit_aos) && !spec::jit::supported()) {
    std::printf("note: spec JIT unsupported on this build; jit tiers run the interpreter\n");
  }

  std::printf("spec-language execution tiers (restart policy, sequential scheduler)\n");
  std::printf("%-10s | %10s | %9s %9s %9s %9s %9s %9s | %7s %7s %7s %7s %7s\n", "program",
              "tasks", "ast(s)", "vm(s)", "jit(s)", "jit:aos", "vm+simd", "native", "vm/ast",
              "jit/vm", "aos/vm", "simd/ast", "nat/ast");

  std::vector<double> g_vm, g_jit, g_jit_vm, g_jit_aos_vm, g_simd, g_native;
  for (const auto& c : cases) {
    if (!tbench::selected(filter, c.name)) continue;
    const auto ast = spec::SpecProgram::parse(c.src);
    const auto vm = spec::CompiledSpecProgram::parse(c.src, spec::JitMode::Off);
    const auto jit = spec::CompiledSpecProgram::parse(c.src, spec::JitMode::On);
    const auto th = core::Thresholds::for_block_size(/*Q=*/4, /*block=*/4096, /*restart=*/256);

    const std::vector ast_roots{ast.make_root({c.root[0], c.root[1]})};
    const std::vector vm_roots{vm.make_root({c.root[0], c.root[1]})};
    const auto info = core::count_tree(ast, ast_roots);

    TierRun t_ast, t_vm, t_jit, t_jit_aos, t_simd, t_native;
    if (want_ast) {
      t_ast.run = true;
      t_ast.secs = rep.add_timed(rep.make(c.name, "ast", "restart", "soa"), 3, [&] {
        t_ast.result = core::run_seq<core::SoaExec<spec::SpecProgram>>(ast, ast_roots,
                                                                       SeqPolicy::Restart, th);
      });
    }
    if (want_vm) {
      t_vm.run = true;
      t_vm.secs = rep.add_timed(rep.make(c.name, "vm", "restart", "soa"), 3, [&] {
        t_vm.result = core::run_seq<core::SoaExec<spec::CompiledSpecProgram>>(
            vm, vm_roots, SeqPolicy::Restart, th);
      });
    }
    if (want_jit) {
      t_jit.run = true;
      t_jit.secs = rep.add_timed(rep.make(c.name, "jit", "restart", "soa"), 3, [&] {
        t_jit.result = core::run_seq<core::SoaExec<spec::CompiledSpecProgram>>(
            jit, vm_roots, SeqPolicy::Restart, th);
      });
    }
    if (want_jit_aos) {
      t_jit_aos.run = true;
      t_jit_aos.secs = rep.add_timed(rep.make(c.name, "jit:aos", "restart", "block"), 3, [&] {
        t_jit_aos.result = core::run_seq<core::AosExec<spec::CompiledSpecProgram>>(
            jit, vm_roots, SeqPolicy::Restart, th);
      });
    }
    if (want_simd) {
      t_simd.run = true;
      t_simd.secs = rep.add_timed(rep.make(c.name, "vm+simd", "restart", "simd"), 3, [&] {
        t_simd.result = core::run_seq<core::SimdExec<spec::CompiledSpecProgram>>(
            vm, vm_roots, SeqPolicy::Restart, th);
      });
    }
    if (want_native) {
      t_native.run = true;
      t_native.secs = rep.add_timed(rep.make(c.name, "native", "restart", "simd"), 3,
                                    [&] { t_native.result = c.native(th, c.root); });
    }

    // Bit-identity across every tier that ran.
    std::optional<std::uint64_t> reference;
    bool mismatch = false;
    for (const TierRun* t : {&t_ast, &t_vm, &t_jit, &t_jit_aos, &t_simd, &t_native}) {
      if (!t->run) continue;
      if (!reference) reference = t->result;
      if (t->result != *reference) mismatch = true;
    }
    if (mismatch) {
      std::printf("MISMATCH %s: ast=%llu vm=%llu jit=%llu jit:aos=%llu simd=%llu native=%llu\n",
                  c.name.c_str(), static_cast<unsigned long long>(t_ast.result),
                  static_cast<unsigned long long>(t_vm.result),
                  static_cast<unsigned long long>(t_jit.result),
                  static_cast<unsigned long long>(t_jit_aos.result),
                  static_cast<unsigned long long>(t_simd.result),
                  static_cast<unsigned long long>(t_native.result));
      return 1;
    }

    char c_ast[16], c_vm[16], c_jit[16], c_jit_aos[16], c_simd[16], c_native[16];
    cell(c_ast, sizeof c_ast, t_ast);
    cell(c_vm, sizeof c_vm, t_vm);
    cell(c_jit, sizeof c_jit, t_jit);
    cell(c_jit_aos, sizeof c_jit_aos, t_jit_aos);
    cell(c_simd, sizeof c_simd, t_simd);
    cell(c_native, sizeof c_native, t_native);
    const double r_vm = (t_ast.run && t_vm.run) ? t_ast.secs / t_vm.secs : 0.0;
    const double r_jit_vm = (t_vm.run && t_jit.run) ? t_vm.secs / t_jit.secs : 0.0;
    const double r_jit_aos_vm = (t_vm.run && t_jit_aos.run) ? t_vm.secs / t_jit_aos.secs : 0.0;
    const double r_simd = (t_ast.run && t_simd.run) ? t_ast.secs / t_simd.secs : 0.0;
    const double r_native = (t_ast.run && t_native.run) ? t_ast.secs / t_native.secs : 0.0;
    std::printf("%-10s | %10llu | %s %s %s %s %s %s | %7.2f %7.2f %7.2f %7.2f %7.2f\n",
                c.name.c_str(), static_cast<unsigned long long>(info.tasks), c_ast, c_vm, c_jit,
                c_jit_aos, c_simd, c_native, r_vm, r_jit_vm, r_jit_aos_vm, r_simd, r_native);
    if (t_ast.run && t_vm.run) g_vm.push_back(t_ast.secs / t_vm.secs);
    if (t_ast.run && t_jit.run) g_jit.push_back(t_ast.secs / t_jit.secs);
    if (t_vm.run && t_jit.run) g_jit_vm.push_back(t_vm.secs / t_jit.secs);
    if (t_vm.run && t_jit_aos.run) g_jit_aos_vm.push_back(t_vm.secs / t_jit_aos.secs);
    if (t_ast.run && t_simd.run) g_simd.push_back(t_ast.secs / t_simd.secs);
    if (t_ast.run && t_native.run) g_native.push_back(t_ast.secs / t_native.secs);
  }

  if (!g_vm.empty()) rep.add_metric(rep.make("geomean", "vm/ast"), "ratio", geo_or_nan(g_vm));
  if (!g_jit.empty()) {
    rep.add_metric(rep.make("geomean", "jit/ast"), "ratio", geo_or_nan(g_jit));
  }
  if (!g_jit_vm.empty()) {
    rep.add_metric(rep.make("geomean", "jit/vm"), "ratio", geo_or_nan(g_jit_vm));
  }
  if (!g_jit_aos_vm.empty()) {
    rep.add_metric(rep.make("geomean", "jit:aos/vm"), "ratio", geo_or_nan(g_jit_aos_vm));
  }
  if (!g_simd.empty()) {
    rep.add_metric(rep.make("geomean", "simd/ast"), "ratio", geo_or_nan(g_simd));
  }
  if (!g_native.empty()) {
    rep.add_metric(rep.make("geomean", "native/ast"), "ratio", geo_or_nan(g_native));
  }
  std::printf("%-10s | %10s | %9s %9s %9s %9s %9s %9s | %7.2f %7.2f %7.2f %7.2f %7.2f\n",
              "geomean", "", "", "", "", "", "", "", geo_or_nan(g_vm), geo_or_nan(g_jit_vm),
              geo_or_nan(g_jit_aos_vm), geo_or_nan(g_simd), geo_or_nan(g_native));
  return rep.finish();
}
