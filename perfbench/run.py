"""Benchmark for multsquares: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (no install step: the package is
pure Python and is imported from ``src/``).  Every process is serial, so
the figures hold on a two-core machine.

With ``--trace 0`` it prints the end-to-end metrics: set-up is timed as the
median over several fresh interpreters that stop once the package is
imported and the inputs are built, and the workload runs whole rounds in
one more fresh interpreter until ``--seconds`` have passed.  With ``--trace 1`` the same
rounds run with spans around each layer and it prints the per-layer
metrics instead.  The last line of standard output is the result as JSON;
a copy goes to ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from clock import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("theorem", "induction", "squares")
SETUP_SAMPLES = 15
TIME_LIMIT_S = 170.0


class BenchmarkError(Exception):
    pass


def _start_worker(args, extra, deadline):
    """Start worker.py and wait until it prints READY."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
    line = proc.stdout.readline() if ready else ""
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise BenchmarkError(f"worker did not start (exit code {proc.returncode})")
    return proc


def _setup_seconds(args, deadline, clock):
    """Spawn to READY of one interpreter that stops there, in raw and in
    reference seconds.  It inherits the clock's CPU, and the probes before
    its start and after its exit leave it that CPU to itself."""
    clock.calibrate()
    start = clock.now()
    proc = _start_worker(args, ["--setup-only"], deadline)
    end = clock.now()
    _finish(proc, deadline)
    clock.calibrate()
    return end - start, clock.scaled(start, end)


def _finish(proc, deadline) -> str:
    """Wait for the worker, killing it past the deadline; returns its output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("worker ran past the time limit") from None
    return out


def run(args) -> dict:
    deadline = perf_counter() + TIME_LIMIT_S
    setup_raw, setup = [], []
    if not args.trace:
        clock = SpeedClock()
        try:
            for _ in range(SETUP_SAMPLES):
                raw_s, setup_s = _setup_seconds(args, deadline, clock)
                setup_raw.append(raw_s)
                setup.append(setup_s)
        finally:
            clock.close()
    RESULTS.mkdir(exist_ok=True)
    extra = []
    if args.trace:
        trace_file = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        extra = ["--trace-file", str(trace_file)]
    proc = _start_worker(args, extra, deadline)
    out = _finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise BenchmarkError(f"worker failed (exit code {proc.returncode})")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_raw_s"] = setup_raw
    result["setup_s"] = setup
    if not args.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            **result["metrics"],
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="multsquares benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "multsquares" / "__init__.py").is_file():
        print(f"error: no multsquares sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{result['rounds']} round(s), {result['attempted']} attempted, "
        f"{result['failed']} failed, correct={result['correct']}"
    )
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    for error in result["errors"]:
        print(f"  incorrect: {error}")
    for name, metric in result["metrics"].items():
        value = "absent" if metric["value"] is None else metric["value"]
        print(f"  {name} = {value} {metric['unit']}")
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
