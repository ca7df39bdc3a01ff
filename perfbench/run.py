#!/usr/bin/env python3
"""Repository benchmark: paper-world wall time, attributed layer by layer.

Builds the simulator and the benchmark binary from source (CMake, Release,
into .bench_build/perfbench), then runs one workload and passes its output
through. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Run from the repository root:

  python3 perfbench/run.py --workload paper_mesh --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1
  python3 perfbench/run.py --selftest

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes the last traced run's spans to .bench_build/spans-<workload>.jsonl.
--workload all runs every workload, each in its own process so that peak
memory and thread-local pools do not carry over, and prints one combined
result line with metric names prefixed by the workload.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["paper_mesh", "control_mesh", "churn_mesh", "seed_sweep"]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources not found under src/; run from the repository root")
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_one(args, workload):
    """Runs one workload; returns its parsed result line."""
    command = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out",
                    str(ROOT / ".bench_build" / f"spans-{workload}.jsonl")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    return lines[-1]


def list_metrics():
    out = subprocess.run([str(BINARY), "--list-metrics"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    metrics = {"end_to_end": [], "per_layer": []}
    for line in out.splitlines():
        kind, name, unit = line.split()
        metrics[kind].append((name, unit))
    return metrics


def selftest():
    """The binary's own self-tests, then metric names against BENCHMARK.json."""
    if subprocess.run([str(BINARY), "--selftest"]).returncode != 0:
        fail("selftest failed")
    metrics = list_metrics()
    bad = [n for kind in metrics.values() for n, _ in kind if not NAME_RE.match(n)]
    if bad:
        fail(f"bad metric names: {bad}")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        for kind in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"]) for m in spec[kind]]
            if declared != metrics[kind]:
                fail(f"BENCHMARK.json {kind} differs from what the binary prints")
    print("perfbench run.py selftest: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        selftest()
        return
    if args.workload != "all":
        print(run_one(args, args.workload))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = json.loads(run_one(args, workload))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
