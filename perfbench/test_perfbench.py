"""Tests of the benchmark itself: its checks reject wrong answers, its
oracles agree with brute force, and it prints the metrics BENCHMARK.json
names.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import combinations_with_replacement
from math import isqrt
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from clock import SpeedClock  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402
from multsquares import gauss, replay_script, verify_dubouis  # noqa: E402
from multsquares.solver import TraceStep  # noqa: E402
from multsquares.theorem import CaseReport, CheckResult  # noqa: E402


def _brute_count(n: int, k: int) -> int:
    roots = range(1, isqrt(n) + 1)
    return sum(
        1 for parts in combinations_with_replacement(roots, k)
        if sum(x * x for x in parts) == n
    )


def test_count_oracle_matches_brute_force():
    table = checks.square_multiset_counts(120, 5)
    for k in range(1, 6):
        for n in range(1, 121):
            assert table[k][n] == _brute_count(n, k), (n, k)


def test_dubouis_closed_form_matches_oracle():
    table = checks.square_multiset_counts(600, 9)
    for k in range(4, 10):
        expected = {n for n in range(1, 601) if table[k][n] == 0}
        assert checks.dubouis_exceptions(k, 600) == expected, k


def _report(k: int, pinned_ok: bool = True, other_ok: bool = True) -> CaseReport:
    return CaseReport(
        case="case",
        k=k,
        checks=(CheckResult("replay", other_ok), CheckResult("pinned-to-300", pinned_ok)),
        verdict=True,
    )


def test_check_verdict_rejects_false_verdict():
    assert checks.check_verdict(5, 300, _report(5)) == []
    assert checks.check_verdict(5, 300, _report(5, other_ok=False))
    assert checks.check_verdict(5, 300, _report(5, pinned_ok=False))
    assert checks.check_verdict(5, 300, _report(6))
    exploration = CaseReport("exploration", 5, (CheckResult("pinned-to-300", True),))
    assert checks.check_verdict(5, 300, exploration)


def test_check_count_rejects_wrong_count():
    table = checks.square_multiset_counts(100, 4)
    assert checks.check_count(50, 2, 2, table) == []  # 49+1, 25+25
    assert checks.check_count(50, 2, 3, table)


def test_check_exists_rejects_disagreement():
    assert checks.check_exists(33, 5, False, 0) == []
    assert checks.check_exists(33, 5, True, None)  # Dubouis: 33 is an exception
    assert checks.check_exists(34, 5, False, None)
    assert checks.check_exists(10, 2, True, 0)
    assert checks.check_exists(5000, 1500, True, None) == []


def test_check_exceptional_set_rejects_wrong_set():
    report = verify_dubouis(6, 500)
    assert checks.check_exceptional_set(6, 500, report) == []
    wrong = type(report)(6, 500, report.computed[:-1], report.closed_form)
    assert checks.check_exceptional_set(6, 500, wrong)


def test_check_witness_rejects_bad_or_missing_witness():
    assert checks.check_witness(10, 5, (8, 3, 3, 2, 2)) == []  # 64+9+9+4+4 = 90
    assert checks.check_witness(10, 5, (8, 3, 3, 2, 1))
    assert checks.check_witness(10, 5, (10, 1, 1, 1, 1))
    assert checks.check_witness(11, 5, ())  # 100 + 4+4+1+1 = 110 exists


def _step(variable, before, after, view="value"):
    return TraceStep("c", variable, view, before, after, "forward")


def test_check_trace_rejects_dropped_identity_and_no_shrink():
    assert checks.check_trace([_step(3, None, ("-3", "3")), _step(3, ("-3", "3"), ("3",))]) == []
    assert checks.check_trace([_step(3, ("-3", "3"), ("-3",))])
    assert checks.check_trace([_step(3, ("9",), ("4",), view="square")])
    assert checks.check_trace([_step(3, ("-3", "3"), ("-3", "3"))])


def test_check_pinned_rejects_non_identity_value():
    state = replay_script(5).state
    assert checks.check_pinned(state, 20) == []

    class Flipped:
        k = 5

        def candidates(self, n):
            return frozenset({gauss(-n if n == 7 else n)})

    assert checks.check_pinned(Flipped(), 20)
    assert checks.check_pinned(state, 10**4)  # beyond what the replay pinned


def test_speed_clock_integrates_the_probe_factor():
    clock = SpeedClock()
    clock.close()
    assert clock._probe.returncode == 0
    clock._times, clock._factors = [0.0, 1.0, 2.0], [1.0, 2.0, 2.0]
    assert clock.scaled(0.0, 1.0) == pytest.approx(1.5)
    assert clock.scaled(0.5, 1.5) == pytest.approx(0.875 + 1.0)
    assert clock.scaled(-1.0, 0.0) == pytest.approx(1.0)
    assert clock.scaled(2.0, 3.0) == pytest.approx(2.0)


def test_speed_clock_leaves_probes_out():
    clock = SpeedClock()
    try:
        paused = clock._paused
        start = clock.now()
        clock.calibrate()
        grown = clock._paused - paused
        assert grown > 0
        assert len(clock._factors) == 2
        # What the clock saw is only the bookkeeping around the probe.
        assert clock.now() - start < grown
    finally:
        clock.close()


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_layer_units_match_benchmark_json():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


def _run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "squares", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = _run(trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, line in zip(expected, done.stdout.splitlines()[-1 - len(expected):-1]):
        assert line.split()[0] == name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _run(0, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
