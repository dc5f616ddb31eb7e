#!/usr/bin/env python3
"""Steadiness study: run each workload with several seeds and report, for
every end-to-end metric, the median and the quartile spread.

    python3 perfbench/steadiness.py --runs 10 --first-seed 100 --out set1.json
    python3 perfbench/steadiness.py --compare set1.json set2.json

The spread is (Q3 - Q1) / median, with the quartiles of
statistics.quantiles(values, n=4).  A metric is steady when its spread stays
below a third of the bound BENCHMARK.json gives it (setup_s is reported but
exempt).  --compare reports how far the second set's medians moved against
the first, as a share of the first, signed so that positive is worse.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(spec, workloads, runs, first_seed):
    values = {w: {} for w in workloads}
    for i in range(runs):
        for w in workloads:
            seed = first_seed + i
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed} failed:\n{proc.stderr[-2000:]}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            steal = json.loads(lines[-2])["perfbench_meta"]["host.steal_frac"]
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()) +
                f" (host.steal_frac {steal})", flush=True)
    return values


def summarize(spec, values):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows, steady = [], True
    for w, metrics in values.items():
        for name, v in metrics.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            rows.append({"workload": w, "metric": name, "median": statistics.median(v),
                         "spread": spread, "bound": bounds[name], "steady": ok})
            print(f"{w:10s} {name:16s} median {statistics.median(v):12.5g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}  {'ok' if ok else 'NOISY'}")
    return rows, steady


def compare(spec, a, b):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first = {(r["workload"], r["metric"]): r["median"] for r in a["rows"]}
    ok = True
    for r in b["rows"]:
        base = first[(r["workload"], r["metric"])]
        worse = (r["median"] - base) / base
        if better[r["metric"]] == "higher":
            worse = -worse
        within = worse <= bounds[r["metric"]]
        ok &= within
        print(f"{r['workload']:10s} {r['metric']:16s} {base:12.5g} -> {r['median']:12.5g}  "
              f"worse by {worse:+.3f} (bound {bounds[r['metric']]:.2f})  "
              f"{'ok' if within else 'MOVED'}")
    return ok


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        return 0 if compare(spec, a, b) else 1
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    values = run_set(spec, workloads, args.runs, args.first_seed)
    rows, steady = summarize(spec, values)
    if args.out:
        Path(args.out).write_text(json.dumps({"values": values, "rows": rows}, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
