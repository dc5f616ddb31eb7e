// perfbench: runs one named workload for a fixed time and prints its
// metrics as one JSON line (see perfbench/README.md).
//
//   perfbench --workload traverse|taskblock|serve --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--smoke]
//             [--pool-workers N] [--corrupt-oracle]
//
// The last line of stdout is {"correct", "attempted", "failed", "metrics"};
// the line before it carries the run's metadata and health checks.  A wrong
// answer or a broken run-time check prints correct = false and exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "simd/dispatch.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Shortest round-tripping decimal; an infinite percentile (the unserved
// share of a serve run reached it) prints as 1e12.
std::string number(double v) {
  if (!std::isfinite(v)) v = 1e12;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

pb::Args parse(int argc, char** argv) {
  pb::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.trace = std::stoi(value()) != 0;
      } else if (flag == "--trace-out") {
        a.trace_out = value();
      } else if (flag == "--smoke") {
        a.smoke = true;
      } else if (flag == "--pool-workers") {
        a.pool_workers = std::stoi(value());
      } else if (flag == "--corrupt-oracle") {
        a.corrupt_oracle = true;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workload != "traverse" && a.workload != "taskblock" && a.workload != "serve") {
    usage("--workload must be traverse, taskblock or serve");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Args args = parse(argc, argv);
  pb::Outcome out;
  std::string error;
  try {
    if (args.workload == "traverse") {
      pb::run_traverse(args, out);
    } else if (args.workload == "taskblock") {
      pb::run_taskblock(args, out);
    } else {
      pb::run_serve(args, out);
    }
  } catch (const pb::RunFailure& e) {
    error = e.what();
  } catch (const std::exception& e) {
    error = std::string("unexpected exception: ") + e.what();
  }
  if (!error.empty()) {
    out.correct = false;
    out.note("error", error);
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }

  const auto& table = tb::simd::kernels();
  out.note("workload", args.workload);
  out.note("seed", std::to_string(args.seed));
  out.note("seconds", args.seconds);
  out.note("trace", args.trace ? "1" : "0");
  out.note("nproc", std::to_string(pb::nproc()));
  out.note("pool_workers", std::to_string(pb::pool_workers(args)));
  out.note("simd_table", table.name);
  out.note("simd_width", std::to_string(table.width));
  const char* isa_env = std::getenv("TB_SIMD_ISA");
  out.note("tb_simd_isa", isa_env ? isa_env : "unset");
  const char* jit_env = std::getenv("TB_SPEC_JIT");
  out.note("tb_spec_jit", jit_env ? jit_env : "unset");

  // Every run prints the full metric set of its mode.
  const auto& names = args.trace ? pb::per_layer_metrics() : pb::end_to_end_metrics();
  std::string metrics;
  for (const auto& [name, unit] : names) {
    const auto it = out.metrics.find(name);
    if (it == out.metrics.end() && !args.trace && error.empty()) {
      out.correct = false;
      error = std::string("metric not measured: ") + name;
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    }
    const double v = it == out.metrics.end() ? 0.0 : it->second.value;
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(name).append("\": {\"value\": ").append(number(v));
    metrics.append(", \"unit\": \"").append(unit).append("\"}");
  }

  std::string meta;
  for (const auto& [k, v] : out.meta) {
    if (!meta.empty()) meta += ", ";
    meta.append("\"").append(json_escape(k)).append("\": \"").append(json_escape(v)).append("\"");
  }
  std::printf("{\"perfbench_meta\": {%s}}\n", meta.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
