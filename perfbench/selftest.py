#!/usr/bin/env python3
"""Self-tests of the benchmark at smoke sizes (a minute or two in all).

    python3 perfbench/selftest.py

Checks, for every workload:
  * an untraced and a traced run each emit exactly the metric set that
    BENCHMARK.json names, with its units, correct = true and attempted >= 1;
  * a corrupted oracle fails the run (non-zero exit, correct = false);
  * a pool of nproc workers trips the run-time check that the process never
    runs more than nproc threads.
Also checks BENCHMARK.json against the limits the benchmark contract sets.
Exits 1 when any check fails.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["traverse", "taskblock", "serve"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the contract's keys")
    names = [w["name"] for w in spec["workloads"]]
    check(names == WORKLOADS, "BENCHMARK.json lists the three workloads")
    check(all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in spec["workloads"]),
          "every workload has a name and a one-line why")
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = [m["name"] for m in metrics] + names
    check(len(set(all_names)) == len(all_names) and all(NAME.match(n) for n in all_names),
          "metric and workload names are well-formed and unique")
    check(all(UNIT.match(m["unit"]) for m in metrics), "units are well-formed")
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in spec["end_to_end"]), "end-to-end metrics carry a bound <= 0.25")
    check(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
          "per-layer metrics carry no bound")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is lower-is-better in s with the largest bound")
    check(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json is under 64 KiB")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run(workload, trace)
            ok = code == 0 and result is not None and result["correct"] is True
            check(ok, f"{workload} trace={trace} runs and answers correctly")
            if not ok:
                print(err[-2000:], file=sys.stderr)
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace} emits the full metric set")
            check(set(result) == {"correct", "attempted", "failed", "metrics"} and
                  result["attempted"] >= 1 and result["failed"] == 0,
                  f"{workload} trace={trace} counts attempted and failed operations")
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{workload} end-to-end metrics are never 0")

        code, result, _ = run(workload, 0, "--corrupt-oracle")
        check(code != 0 and result is not None and result["correct"] is False,
              f"{workload}: a corrupted oracle fails the run")

        nproc = len(os.sched_getaffinity(0))
        code, result, err = run(workload, 0, "--pool-workers", str(nproc))
        check(code != 0 and "thread budget exceeded" in err,
              f"{workload}: an oversized pool trips the thread-budget check")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
