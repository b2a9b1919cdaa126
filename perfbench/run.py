#!/usr/bin/env python3
"""The repository's benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. It builds the `perfbench` package (its own
Cargo package next to this file, outside the root workspace) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then, each step in a fresh
process:

1. `perfbench prepare` three times: generates the workload's inputs from the
   seed and builds its references under `.perfbench_work/`. `setup_s` is the
   median of the three set-up times plus the measuring process's own set-up
   (loading references, compiling the schema, starting the server). The
   three set-ups must write byte-identical inputs.
2. `perfbench measure`: runs the workload for S seconds and checks every
   output. With `--trace 0` it reports the end-to-end metrics of
   BENCHMARK.json; with `--trace 1` the per-layer metrics of a separate
   traced run (a layer the workload never enters reports 0).

Every metric is printed by name, unit and direction, and the last line of
stdout is the JSON result. Any failed output check makes the exit code 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def run_json(cmd, timeout):
    """Run one perfbench step; its last stdout line is a JSON object."""
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[1]} exceeded {timeout:.0f}s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{cmd[1]} failed with exit code {r.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except OSError as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    exe = build()

    run_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", run_dir]
    setups, digests = [], set()
    try:
        for _ in range(SETUPS):
            shutil.rmtree(run_dir, ignore_errors=True)
            p = run_json([exe, "prepare", *common], timeout=60)
            setups.append(p["setup_s"])
            digests.add(p["digest"])
            inputs = p["inputs"]
        m = run_json([exe, "measure", *common, "--seconds", str(args.seconds),
                      "--trace", str(args.trace)], timeout=2 * args.seconds + 60)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = m["attempted"] + 1
    failures = list(m["failures"])
    if len(digests) != 1:
        failures.append({"check": "the three set-ups wrote identical inputs",
                         "detail": ", ".join(sorted(digests))})
    measured = m["metrics"]
    if args.trace == 0:
        measured["setup_s"] = {"value": statistics.median(setups) + m["setup_s"], "unit": "s"}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for d in declared:
        got = measured.pop(d["name"], None)
        if got is None:
            if args.trace:
                got = {"value": 0, "unit": d["unit"]}
            else:
                failures.append({"check": f"{d['name']} measured", "detail": "missing"})
                continue
        if got["unit"] != d["unit"] or got["value"] is None:
            failures.append({"check": f"{d['name']} measured",
                             "detail": f"{got['value']} {got['unit']} (want unit {d['unit']})"})
            continue
        metrics[d["name"]] = {"value": got["value"], "unit": d["unit"]}
        print(f"{d['name']:<40} {got['value']:>16.6g} {d['unit']:<6} ({d['better']} is better)")
    for name in sorted(measured):
        failures.append({"check": "every reported metric is declared", "detail": name})
    attempted += len(declared) + len(measured)
    print("inputs: " + json.dumps(inputs, sort_keys=True))
    for f in failures:
        print(f"FAILED {f['check']}: {f['detail']}", file=sys.stderr)
    failed = len(failures)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
