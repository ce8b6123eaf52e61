"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import json
import subprocess
import sys
import time

import pytest

from multsquares.arith import frobenius_number, nonrepresentable_set
from multsquares.gaussian import gauss
from multsquares.replay import replay_script
from multsquares.solver import check_function, solve
from multsquares.squares import (
    count_representations,
    enumerate_representations,
    exceptional_set,
    is_representable,
    verify_dubouis,
)
from multsquares.theorem import EVEN_STEP, ODD_STEP, check_parametric, theorem_check

THEOREM_KS = (4, 5, 6, 7, 8, 10, 13)
REPLAY_KS = (4, 5, 6, 7, 8, 10, 13)


def _report(name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {name}: {verdict}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def solver_runs():
    """solve(k, 300) for every required k; shared by criteria 2 and 4."""
    runs = {}
    for k in THEOREM_KS:
        runs[k] = solve(k, 300)
    return runs


@pytest.fixture(scope="module")
def replay_runs():
    return {k: replay_script(k) for k in REPLAY_KS}


def test_criterion_1_dubouis_reproduction():
    start = time.monotonic()
    for k in range(4, 13):
        report = verify_dubouis(k, 10000)
        assert report.agree, f"k={k} disagreement"
    elapsed = time.monotonic() - start
    assert exceptional_set(4, 50) == [1, 2, 3, 5, 6, 8, 9, 11, 14, 17, 24, 29, 32, 41]
    assert not is_representable(33, 5)
    _report(
        "1-dubouis",
        elapsed < 30,
        f"k=4..12 to 10000 in {elapsed:.1f}s",
    )


def test_criterion_2_theorem_end_to_end(solver_runs):
    worst = 0.0
    for k in THEOREM_KS:
        start = time.monotonic()
        report = theorem_check(k, 300)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert report.all_passed, (k, [c for c in report.checks if not c.passed])
        assert elapsed < 60, f"k={k} took {elapsed:.1f}s"
        # the shared runs must agree with the dispatcher's verdict
        assert solver_runs[k].all_pinned, k
        assert solver_runs[k].pinned == tuple(range(1, 301))
    _report(
        "2-theorem",
        True,
        f"k in {THEOREM_KS}, bound 300, worst case {worst:.1f}s",
    )


def _claims(result, stage_name):
    for stage in result.stages:
        if stage.name == stage_name:
            return {c["variable"]: c["got"] for c in stage.claims}
    raise KeyError(stage_name)


def test_criterion_3_replay_fidelity(replay_runs):
    r4 = replay_runs[4]
    assert _claims(r4, "chain-12")[3] == "{1,3}"
    late = _claims(r4, "chain-35")
    assert late[3] == "{3}" and late[5] == "{5}" and late[7] == "{7}"
    assert _claims(r4, "chain-10-7")[2] == "{2}"
    assert _claims(r4, "chain-18")[9] == "{9}"

    r5 = replay_runs[5]
    assert _claims(r5, "chain-20")[4] == "{1,4}"
    c29 = _claims(r5, "chain-29")
    assert c29[29] == "{29}" and c29[2] == "{-2,2}" and c29[3] == "{-3,3}"

    r7 = replay_runs[7]
    assert _claims(r7, "chain-55")[5] == "{-5,5}"

    r8 = replay_runs[8]
    pair = _claims(r8, "double-representations-40-32")
    assert pair["(2,3)"] == "{(+-1,+-1),(+-2,+-3)}"
    cons = _claims(r8, "construction-k^2+k-1")
    assert cons[2] == "{-2,2}" and cons[3] == "{-3,3}" and cons[7] == "{7}"
    _report("3-replay", True, "k=4, 5, 7, 8 intermediates exact")


def test_criterion_4_soundness_invariant(solver_runs, replay_runs):
    checked = 0
    for source in (solver_runs, replay_runs):
        for k, run in source.items():
            steps = run.steps
            for step in steps:
                n = step.variable
                if step.view == "value":
                    assert str(gauss(n)) in step.after, (k, step)
                else:
                    assert str(gauss(n * n)) in step.after, (k, step)
                if step.before is not None:
                    assert set(step.after) < set(step.before), (k, step)
                checked += 1
    _report("4-soundness", True, f"{checked} narrowing steps audited")


def _oracle_count(n, k):
    """Literal nested loops over non-increasing tuples, no shared code."""
    count = 0
    stack = [(n, k, n)]
    while stack:
        remaining, parts, max_part = stack.pop()
        if parts == 0:
            if remaining == 0:
                count += 1
            continue
        x = 1
        while x <= max_part and x * x <= remaining - (parts - 1):
            stack.append((remaining - x * x, parts - 1, x))
            x += 1
    return count


def test_criterion_5_oracle_equivalence():
    for n in range(1, 301):
        for k in range(1, 7):
            expected = _oracle_count(n, k)
            assert count_representations(n, k) == expected, (n, k)
            enum = enumerate_representations(n, k)
            assert not enum.truncated
            parts = [r.parts for r in enum.representations]
            assert len(parts) == expected, (n, k)
            assert len(set(parts)) == len(parts), (n, k)
            assert parts == sorted(parts, reverse=True), (n, k)
            for rep in enum.representations:
                assert sum(x * x for x in rep.parts) == n
                assert all(
                    a >= b for a, b in zip(rep.parts, rep.parts[1:])
                )
    _report("5-oracles", True, "n <= 300, k <= 6 against nested-loop count")


def test_criterion_6_frobenius():
    from math import gcd

    assert frobenius_number(3, 8) == 13
    assert nonrepresentable_set(3, 8) == [1, 2, 4, 5, 7, 10, 13]
    pairs = 0
    for a in range(2, 21):
        for b in range(2, 21):
            if gcd(a, b) != 1:
                continue
            limit = a * b
            reachable = bytearray(limit + 1)
            reachable[0] = 1
            for g in (a, b):
                for t in range(g, limit + 1):
                    if reachable[t - g]:
                        reachable[t] = 1
            gaps = [t for t in range(1, limit + 1) if not reachable[t]]
            assert nonrepresentable_set(a, b) == gaps
            assert frobenius_number(a, b) == (max(gaps) if gaps else 0)
            pairs += 1
    _report("6-frobenius", True, f"{pairs} coprime pairs vs brute force")


def test_criterion_7_parametric_identities():
    for identity in (ODD_STEP, EVEN_STEP):
        assert check_parametric(identity).passed, identity.name
        assert identity.side_poly(identity.lhs) == identity.side_poly(identity.rhs)
    _report("7-parametric", True, "both families, every l from the threshold, exact")


def _prime_power_identity(bound):
    table = {}
    for p in range(2, bound + 1):
        if all(p % d for d in range(2, p)):
            q = p
            while q <= bound:
                table[q] = gauss(q)
                q *= p
    return table


def test_criterion_8_negative_detection():
    table = _prime_power_identity(100)
    table[3] = gauss(-3)
    violations = check_function(table, 4, 100)
    assert len(violations) >= 1

    table = _prime_power_identity(100)
    table[3] = gauss(1)
    table[5] = gauss(1)
    table[7] = gauss(1)
    violations = check_function(table, 4, 100)
    at35 = [v for v in violations if v.target == 35]
    assert at35
    v = at35[0]
    assert v.rhs - v.lhs == gauss(18)
    assert str(v.rhs) == "19" and str(v.lhs) == "1"
    _report("8-negatives", True, "sign flip and all-ones branch both flagged")


def test_criterion_9_determinism():
    cmd = [
        sys.executable,
        "-m",
        "multsquares.cli",
        "solve",
        "--k",
        "5",
        "--bound",
        "200",
        "--trace",
    ]
    runs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        env = json.loads(proc.stdout)
        env.pop("elapsed_ms")
        runs.append(json.dumps(env, sort_keys=True, indent=2))
    assert runs[0] == runs[1]
    _report("9-determinism", True, "byte-identical envelopes modulo elapsed_ms")
