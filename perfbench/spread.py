#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 over the median, from
statistics.quantiles(n=4)) against its bound in BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b] [--out FILE]

Run from the repository root. `--out` writes the per-run values and the
summary as JSON (a baseline to compare a later change against).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs, summary, ok = {}, {}, True
    for w in names:
        runs[w] = []
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(r.stdout.strip().splitlines()[-1]) if r.stdout.strip() else {}
            if r.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {r.returncode})")
                ok = False
                continue
            runs[w].append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[w][-1].items()),
                  flush=True)
        summary[w] = {}
        for name in (runs[w][0] if runs[w] else {}):
            xs = [r[name] for r in runs[w]]
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            summary[w][name] = {"median": med, "q1": q[0], "q3": q[2], "spread": spread}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of its bound"
            print(f"  {w:<16} {name:<24} median {med:<14.6g} spread {spread:7.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1, sort_keys=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
