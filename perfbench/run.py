#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Builds the program's src/ libraries and the benchmark binary from source
into .bench_build/ (Release, -O3), then runs one workload in a child
process. The child prints the measurements; its last stdout line is the
JSON result. `--workload all` runs every workload in turn (untraced) and
prints one table of the end-to-end metrics.

Exit status: the child's (1 when an output check failed), or 1 when the
build fails, in which case no result is printed.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "aeva_perfbench"
WORKLOADS = ["paper_eval", "large_fleet", "serve_churn", "serve_durable"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build() -> None:
    """Configures (once) and builds the binary; a no-op when up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          *generator, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--parallel", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(step)}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({log_path})")
    if not BINARY.is_file():
        fail(f"build produced no {BINARY}")


def declared(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for an untraced or traced run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def finish(result: dict, trace: int) -> dict:
    """Puts the child's metrics in BENCHMARK.json's order and units. A
    traced run reports 0 for the layers its workload bypasses; a missing
    end-to-end metric or an undeclared one is a benchmark bug."""
    measured = dict(result["metrics"])
    metrics = {}
    for metric in declared(trace):
        name, unit = metric["name"], metric["unit"]
        value = measured.pop(name, None)
        if value is None:
            if not trace:
                fail(f"end-to-end metric {name} was not reported")
            value = {"value": 0, "unit": unit}
        if value["unit"] != unit:
            fail(f"{name} reported in {value['unit']}, declared in {unit}")
        metrics[name] = value
    if measured:
        fail(f"undeclared metrics: {', '.join(sorted(measured))}")
    return {**result, "metrics": metrics}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[int, str]:
    """Runs one workload; returns (exit status, stdout)."""
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", str(traces)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def run_all(seed: int, seconds: int) -> int:
    results = {}
    status = 0
    for workload in WORKLOADS:
        code, out = run(workload, seed, seconds, 0)
        sys.stdout.write(out)
        status = status or code
        lines = out.strip().splitlines()
        try:
            results[workload] = finish(json.loads(lines[-1]), 0)
        except (ValueError, IndexError):  # the child died before its result
            results[workload] = None
            status = status or 1
    names = []
    for result in results.values():
        for name in (result or {}).get("metrics", {}):
            if name not in names:
                names.append(name)
    print(f"\n{'metric':<24}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = ""
        cells = []
        for workload in WORKLOADS:
            metric = (results[workload] or {}).get("metrics", {}).get(name)
            unit = metric["unit"] if metric else unit
            cells.append(f"{metric['value']:>16.6g}" if metric
                         else f"{'-':>16}")
        print(f"{name + ' (' + unit + ')':<24}" + "".join(cells))
    for workload in WORKLOADS:
        result = results[workload] or {}
        print(f"{workload}: correct={result.get('correct')} "
              f"attempted={result.get('attempted')} "
              f"failed={result.get('failed')}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:  # the child died before printing its result
        sys.stdout.write(out)
        return code or 1
    print("\n".join(lines[:-1]))
    print(json.dumps(finish(result, args.trace)))
    return code


if __name__ == "__main__":
    sys.exit(main())
