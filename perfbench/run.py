#!/usr/bin/env python3
"""Builds and runs the spotcache benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset. The benchmark binary prints one JSON result line last; this script
prints it, held to BENCHMARK.json as below, and exits with the binary's code
(or 1 when that check fails). `--workload all` runs every workload in turn
and prints one JSON line per workload. Span JSONL and ledger tables of
traced runs land in <build dir>/out/.

The metric list lives in BENCHMARK.json only: the binary prints what it
measured, and this script holds that to the list. An unknown name, a unit
that differs, or an end-to-end metric that is missing or not positive makes
the run incorrect; a per-layer metric of a layer the workload does not run
reads 0.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["direct_read", "direct_churn", "proxy_hop", "control_replan"]
RUN_TIMEOUT_S = 170  # a run must end within 180 s
BUILD_TIMEOUT_S = 850


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    return os.path.join(base, "perfbench")


def build(root, target):
    """Configures (once) and builds `target`; returns its path or None."""
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no spotcache sources next to perfbench/", file=sys.stderr)
        return None
    out = build_dir(root)
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: build step failed: {exc}", file=sys.stderr)
            return None
        if res.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    path = os.path.join(out, target)
    return path if os.path.isfile(path) else None


def check_metrics(result, spec, trace):
    """Holds the binary's metrics to BENCHMARK.json; returns the problems."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    problems = [f"unknown metric {name}" for name in got
                if name not in {m["name"] for m in wanted}]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        value = got.get(name, {"value": 0.0, "unit": unit})
        if value["unit"] != unit:
            problems.append(f"metric {name} in {value['unit']}, not {unit}")
        if not trace and not value["value"] > 0:
            problems.append(f"metric {name} missing or not positive")
        metrics[name] = value
    result["metrics"] = metrics
    if problems:
        result["correct"] = False
    return problems


def run_binary(binary, args, out_dir):
    """Runs one workload; returns (exit code, last stdout line)."""
    cmd = [binary] + args + ["--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's arithmetic tests")
    args = parser.parse_args()
    root = repo_root()

    if args.self_test:
        binary = build(root, "perfbench_arith_test")
        if binary is None:
            return 2
        return subprocess.run([binary], check=False).returncode

    if args.workload not in WORKLOADS + ["all"]:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS + ['all'])}")
    binary = build(root, "perfbench")
    if binary is None:
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    out_dir = os.path.join(build_dir(root), "out")
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    names = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for name in names:
        code, line = run_binary(binary, ["--workload", name] + common, out_dir)
        try:
            result = json.loads(line)
        except ValueError:
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return code or 1
        for problem in check_metrics(result, spec, args.trace):
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
            code = code or 1
        print(json.dumps(result if len(names) == 1 else {"workload": name, **result}),
              flush=True)
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
