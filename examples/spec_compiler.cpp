// The full §5 compiler pipeline, end to end: parse a recursive method from
// text, compile it once to straight-line stack bytecode, print the
// disassembly, then execute the *same program text* at three tiers — AST
// interpreter, per-task bytecode (jitted where supported), and the 4-lane
// block VM with masked child compaction — through the restart scheduler,
// verifying they agree.
//
// Usage: ./spec_compiler [file.spec [root-args...]]
// With no arguments, runs a built-in binomial-coefficient program.  Sources
// with a §5.2 `foreach` header supply their own roots (see
// specs/foreach_fib.spec); bare methods take theirs from the command line.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "spec/spec_lang.hpp"
#include "spec/vm.hpp"

namespace {

constexpr const char* kDefaultProgram = R"(
  # C(n, k): paths in Pascal's triangle — every leaf contributes 1.
  def choose(n, k)
    base k == 0 || k == n
    reduce 1
    spawn choose(n - 1, k - 1)
    spawn choose(n - 1, k)
)";

template <class F>
double time_best(F&& fn, int reps = 3) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source = kDefaultProgram;
  std::vector<std::int64_t> root_args = {26, 11};
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
    root_args.clear();
    for (int i = 2; i < argc; ++i) root_args.push_back(std::atoll(argv[i]));
  }

  using namespace tb;
  spec::SpecUnit unit = spec::Parser(source).parse_unit();
  spec::CompiledSpecProgram vm(unit.method);  // compiles; does not consume the method
  std::vector<spec::SpecProgram::Task> roots;
  if (unit.has_foreach()) {
    roots = spec::clause_roots(*unit.loop);
    std::printf("foreach %s in %lld..%lld: %zu root tasks\n\n", unit.loop->var.c_str(),
                static_cast<long long>(unit.loop->lo), static_cast<long long>(unit.loop->hi),
                roots.size());
  } else {
    if (root_args.size() != unit.method.params.size()) {
      std::fprintf(stderr, "program takes %zu root arguments, got %zu\n",
                   unit.method.params.size(), root_args.size());
      return 1;
    }
    spec::SpecProgram::Task root{};
    for (std::size_t i = 0; i < root_args.size(); ++i) root.p[i] = root_args[i];
    roots.push_back(root);
  }
  spec::SpecProgram ast(std::move(unit.method));

  std::printf("=== bytecode (jump-free; %s per task, block VM per 4 tasks) ===\n%s\n",
              vm.jit_active() ? "jitted" : "interpreted", vm.method().disassemble().c_str());

  const std::vector<spec::SpecProgram::Task>& ast_roots = roots;
  const std::vector<spec::SpecProgram::Task>& vm_roots = roots;
  const auto th = core::Thresholds::for_block_size(/*Q=*/4, /*block=*/2048, /*restart=*/128);

  std::uint64_t r_ast = 0, r_vm = 0, r_simd = 0;
  const double t_ast = time_best([&] {
    r_ast = core::run_seq<core::SoaExec<spec::SpecProgram>>(ast, ast_roots,
                                                            core::SeqPolicy::Restart, th);
  });
  const double t_vm = time_best([&] {
    r_vm = core::run_seq<core::SoaExec<spec::CompiledSpecProgram>>(vm, vm_roots,
                                                                   core::SeqPolicy::Restart, th);
  });
  core::ExecStats st;
  const double t_simd = time_best([&] {
    st = core::ExecStats{};
    r_simd = core::run_seq<core::SimdExec<spec::CompiledSpecProgram>>(
        vm, vm_roots, core::SeqPolicy::Restart, th, &st);
  });

  std::printf("result: ast=%llu  vm=%llu  vm+simd=%llu  (%s)\n",
              static_cast<unsigned long long>(r_ast), static_cast<unsigned long long>(r_vm),
              static_cast<unsigned long long>(r_simd),
              (r_ast == r_vm && r_vm == r_simd) ? "agree" : "MISMATCH");
  std::printf("time:   ast=%.4fs  vm=%.4fs (%.2fx)  vm+simd=%.4fs (%.2fx)\n", t_ast, t_vm,
              t_ast / t_vm, t_simd, t_ast / t_simd);
  std::printf("schedule: %llu tasks, SIMD utilization %.1f%%\n",
              static_cast<unsigned long long>(st.tasks_executed),
              st.simd_utilization() * 100.0);
  return (r_ast == r_vm && r_vm == r_simd) ? 0 : 1;
}
