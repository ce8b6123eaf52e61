"""Run one benchmark workload in this fresh interpreter.

Prints ``READY`` once the package is imported and the workload's inputs are
built (the end of set-up), then runs whole rounds of the workload until
``--seconds`` have passed, checks every output and prints one JSON line.
``--setup-only`` stops after ``READY``; run.py uses it to time set-up.
Called by run.py; see README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import multsquares  # noqa: E402
from multsquares import squares  # noqa: E402

import checks  # noqa: E402
from clock import SpeedClock  # noqa: E402
from tracer import LAYER_UNITS, THEOREM_KS, Tracer  # noqa: E402

THEOREM_BOUND = 300
INDUCTION_CASES = (5, 13)  # one scripted replay, one general (k >= 8) replay
INDUCTION_BOUND = 1000
DUBOUIS_KS = range(4, 13)
DUBOUIS_BOUND = 10**5
COUNT_KS = range(1, 13)
COUNT_BUCKETS = 40  # n drawn once per (k, bucket of 50) in 1..2000
WITNESS_KS = range(5, 14)
WITNESS_BUCKETS = 55  # n drawn once per (k, bucket of 54) in 30..3000
# is_representable recurses once per part, so k >= 1000 raises RecursionError
# while squares._exists stays recursive; kept as known failures whose answers
# the closed form in checks.py gives.
LARGE_K_QUERIES = ((5000, 1500), (6000, 2000), (2500, 1200))


FAILED = object()


class Round:
    """Attempted and failed operations of one round, and their timings.

    Times are read from a SpeedClock: ``verdicts`` holds the clock
    intervals of the operations that each yield one verdict."""

    def __init__(self, clock: SpeedClock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.verdicts = []
        self.failures = []

    def call(self, fn, *args):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{fn.__name__}: {type(exc).__name__}: {exc}"[:200])
            return FAILED

    def verdict(self, fn, *args):
        """Run one operation that yields a verdict, and keep its interval."""
        start = self.clock.now()
        result = self.call(fn, *args)
        self.verdicts.append((start, self.clock.now()))
        return result


class TheoremWorkload:
    """theorem_check(k, 300) over the acceptance set, in a seeded order."""

    def __init__(self, rng: random.Random):
        self.ks = list(THEOREM_KS)
        rng.shuffle(self.ks)

    def prepare(self):
        return ()

    def run(self, rnd: Round) -> None:
        self.reports = []
        for k in self.ks:
            report = rnd.verdict(multsquares.theorem_check, k, THEOREM_BOUND)
            self.reports.append((k, report))

    def check(self) -> list:
        errors = []
        for k, report in self.reports:
            if report is not FAILED:
                errors += checks.check_verdict(k, THEOREM_BOUND, report)
        return errors


class InductionWorkload:
    """The n(n-1) induction from each replay_script(k) state up to a bound."""

    def __init__(self, rng: random.Random):
        self.ks = list(INDUCTION_CASES)
        rng.shuffle(self.ks)
        self._fresh = self._seed_states()

    def _seed_states(self):
        return [(k, multsquares.replay_script(k).state) for k in self.ks]

    def prepare(self):
        """Fresh seed states each round: a sweep mutates its state, and
        states cannot be deep-copied (values refuse attribute writes)."""
        if self._fresh is not None:
            self.states, self._fresh = self._fresh, None
        else:
            self.states = self._seed_states()
        return [state for _, state in self.states]

    def run(self, rnd: Round) -> None:
        for _, state in self.states:
            start = rnd.clock.now()
            for n in range(2, INDUCTION_BOUND + 1):
                if not state.is_pinned(n):
                    rnd.call(multsquares.pin_by_induction, state, n)
            rnd.verdicts.append((start, rnd.clock.now()))

    def check(self) -> list:
        errors = []
        for _, state in self.states:
            errors += checks.check_pinned(state, INDUCTION_BOUND)
            errors += checks.check_trace(state.trace)
        return errors


class SquaresWorkload:
    """A seeded mix of representation queries from a cold memo; no solver."""

    def __init__(self, rng: random.Random):
        queries = [("dubouis", k, DUBOUIS_BOUND) for k in DUBOUIS_KS]
        for k in COUNT_KS:
            for bucket in range(COUNT_BUCKETS):
                n = rng.randint(50 * bucket + 1, 50 * bucket + 50)
                queries += [("count", n, k), ("exists", n, k)]
        for k in WITNESS_KS:
            for bucket in range(WITNESS_BUCKETS):
                n = rng.randint(30 + 54 * bucket, 83 + 54 * bucket)
                queries.append(("witness", n, k))
        queries += [("exists", n, k) for n, k in LARGE_K_QUERIES]
        rng.shuffle(queries)
        self.queries = queries
        self._table = None

    def prepare(self):
        """Start every round from a cold memo (private tables, if present)."""
        for name in ("_exists_memo", "_count_memo"):
            getattr(squares, name, {}).clear()
        return ()

    def run(self, rnd: Round) -> None:
        self.results = {}
        for kind, a, b in self.queries:
            if kind == "dubouis":
                fn, args = multsquares.verify_dubouis, (a, b)
            elif kind == "count":
                fn, args = multsquares.count_representations, (a, b)
            elif kind == "exists":
                fn, args = multsquares.is_representable, (a, b)
            else:
                fn, args = _witness, (a, b)
            result = rnd.verdict(fn, *args)
            if result is not FAILED:
                self.results[kind, a, b] = result

    def check(self) -> list:
        if self._table is None:
            self._table = checks.square_multiset_counts(50 * COUNT_BUCKETS, max(COUNT_KS))
        errors = []
        for (kind, a, b), got in self.results.items():
            if kind == "dubouis":
                errors += checks.check_exceptional_set(a, b, got)
            elif kind == "count":
                errors += checks.check_count(a, b, got, self._table)
            elif kind == "exists":
                errors += checks.check_exists(a, b, got, self.results.get(("count", a, b)))
            else:
                errors += checks.check_witness(a, b, got)
        return errors


def _witness(n: int, k: int):
    """The induction step's search: n(n-1) in k squares, parts below n."""
    enum = multsquares.enumerate_representations(n * (n - 1), k, limit=1, max_part=n - 1)
    return enum.representations[0].parts if enum.representations else ()


WORKLOADS = {
    "theorem": TheoremWorkload,
    "induction": InductionWorkload,
    "squares": SquaresWorkload,
}


def _layer_metrics(per_round: list) -> dict:
    """Counts from the first round, which every run repeats exactly (later
    rounds start with warm caches); times as the median over rounds.  A
    value of None marks a count whose source the package no longer has."""
    out = {}
    for name, unit in LAYER_UNITS.items():
        values = [r.get(name) for r in per_round]
        if values[0] is None:
            out[name] = {"value": None, "unit": unit}
        elif unit == "count":
            out[name] = {"value": values[0], "unit": unit}
        else:
            out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def run(workload, seconds: float, clock: SpeedClock, tracer) -> dict:
    rounds = []
    layers = []
    errors = []
    started = clock.now()
    while True:
        seeds = workload.prepare()
        rnd = Round(clock)
        if tracer is not None:
            tracer.begin_round(seeds)
        with clock.sampling():
            start = clock.now()
            workload.run(rnd)
            end = clock.now()
        rnd.raw_s = end - start
        rnd.wall_s = clock.scaled(start, end)
        rnd.verdict_max_s = max(clock.scaled(a, b) for a, b in rnd.verdicts)
        if tracer is not None:
            layer = tracer.end_round(squares)
            layer["traced.wall_s"] = rnd.wall_s
            layers.append(layer)
        errors += workload.check()
        rounds.append(rnd)
        if clock.now() - started >= seconds:
            break
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "errors": errors[:20],
        "failures": sorted({f for r in rounds for f in r.failures}),
        "round_raw_s": [r.raw_s for r in rounds],
        "round_wall_s": [r.wall_s for r in rounds],
        "round_verdict_max_s": [r.verdict_max_s for r in rounds],
    }
    if tracer is None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "wall_s": {"value": statistics.median(r.wall_s for r in rounds), "unit": "s"},
            "verdict_max_s": {
                "value": statistics.median(r.verdict_max_s for r in rounds),
                "unit": "s",
            },
            "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }
    else:
        result["metrics"] = _layer_metrics(layers)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](random.Random(args.seed))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    clock = SpeedClock()
    try:
        tracer = None
        if args.trace:
            tracer = Tracer(clock.now)
            tracer.install()
        result = run(workload, args.seconds, clock, tracer)
    finally:
        clock.close()
    if tracer is not None and args.trace_file:
        tracer.write(args.trace_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
