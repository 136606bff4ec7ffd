#!/usr/bin/env python3
"""Build and run the serving-stack benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds
perfbench/ (which pulls in the repo's own `dp` library) into
.bench_build/perfbench with CMake; later calls only re-check the build.
It then runs one workload, forwards the program's report, and checks that
the last line is the result object carrying exactly the metrics that
BENCHMARK.json names for the trace mode (end_to_end for --trace 0,
per_layer for --trace 1). That line is printed again as the last line.

--smoke runs every workload for one second in both trace modes and checks
the same contract; it is the benchmark's own test.

Exit codes: 0 correct, 1 a wrong reply or failed self-check (the result
line says correct: false), 2 bad usage, a failed build or a broken result.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_contract():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            contract = json.load(f)
        return {
            "workloads": [w["name"] for w in contract["workloads"]],
            0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
            1: {m["name"]: m["unit"] for m in contract["per_layer"]},
        }
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure once, then build; returns the benchmark binary's path."""
    out = BUILD / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = BUILD / "perfbench-build.log"
    configure = None
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
    make = ["cmake", "--build", str(out), "--target", "perfbench", "-j", str(os.cpu_count() or 1)]
    with open(log, "w", encoding="utf-8") as f:
        for cmd in filter(None, (configure, make)):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                if cmd is configure:
                    shutil.rmtree(out, ignore_errors=True)  # configure afresh next time
                tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log in {log})")
    binary = out / "perfbench"
    if not binary.exists():
        fail("build produced no perfbench binary")
    return binary


def check_result(line, contract, trace):
    """Parse the result line and hold it to the contract; returns the object."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    want = contract[trace]
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, unit in want.items():
        m = got[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            fail(f"metric {name} must be {{value, unit: {unit}}}, got {m}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"metric {name} has no finite value")
    return result


def run_one(binary, contract, workload, seed, seconds, trace, echo=True):
    """Run one workload; returns (exit code, result object)."""
    work = BUILD / "work" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    if trace and (work / "spans.jsonl").exists():
        # Keep only the newest spans of each workload; they are large.
        kept = BUILD / "traces" / f"spans-{workload}.jsonl"
        kept.parent.mkdir(exist_ok=True)
        shutil.move(str(work / "spans.jsonl"), str(kept))
        lines.insert(-1, f"spans kept in {kept}")
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode not in (0, 1) or not lines:
        if echo:
            print("\n".join(lines))
        fail(f"{workload} exited with code {proc.returncode}")
    result = check_result(lines[-1], contract, trace)
    if proc.returncode != (0 if result["correct"] else 1):
        fail(f"{workload}: exit code {proc.returncode} disagrees with the result")
    if echo:
        print("\n".join(lines[:-1]))
        print(json.dumps(result))
    return proc.returncode, result


def smoke(binary, contract):
    """Every workload for one second in both trace modes."""
    ok = True
    for trace in (0, 1):
        for workload in contract["workloads"]:
            code, result = run_one(binary, contract, workload, 1, 1, trace, echo=False)
            print(f"smoke {workload:16s} trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"metrics={len(result['metrics'])}")
            ok = ok and code == 0
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    contract = load_contract()
    if not args.smoke:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        if args.workload not in contract["workloads"]:
            parser.error(f"unknown workload {args.workload}")
        if args.seed < 0 or not 0 < args.seconds <= 120:
            parser.error("--seed must be >= 0 and --seconds in (0, 120]")
    binary = build()
    if args.smoke:
        return smoke(binary, contract)
    code, _ = run_one(binary, contract, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
