"""Scripted deduction replays and their per-stage claims."""

from fractions import Fraction

import pytest

import multsquares.replay as replay_module
import multsquares.solver as solver_module
from multsquares.gaussian import gauss
from multsquares.replay import (
    EXPECTED_SIGN_PAIRS,
    Expectation,
    ReplayMismatchError,
    double_representations_hold,
    replay_script,
)
from multsquares.solver import SolverState
from multsquares.constraints import Multiplicative, SumOfSquares
from multsquares.theorem import theorem_check


def stage_names(result):
    return [s.name for s in result.stages]


def final(result, n):
    c = result.state.candidates(n)
    return None if c is None else frozenset(c)


def pm(n):
    return frozenset({gauss(n), gauss(-n)})


def only(n):
    return frozenset({gauss(n)})


def claims_of(result, stage_name):
    for s in result.stages:
        if s.name == stage_name:
            return {c["variable"]: c for c in s.claims}
    raise KeyError(stage_name)


def test_replay_k4_intermediates():
    result = replay_script(4)
    got = claims_of(result, "chain-12")
    assert got[3]["got"] == "{1,3}"
    got = claims_of(result, "chain-35")
    assert got[3]["got"] == "{3}"
    assert got[5]["got"] == "{5}"
    assert got[7]["got"] == "{7}"
    got = claims_of(result, "chain-10-7")
    assert got[2]["got"] == "{2}"
    got = claims_of(result, "chain-18")
    assert got[9]["got"] == "{9}"


def test_replay_k5_intermediates():
    result = replay_script(5)
    got = claims_of(result, "chain-20")
    assert got[4]["got"] == "{1,4}"
    got = claims_of(result, "chain-29")
    assert got[29]["got"] == "{29}"
    assert got[2]["got"] == "{-2,2}"
    assert got[3]["got"] == "{-3,3}"
    assert final(result, 20) == only(20)


def test_replay_k6_block():
    result = replay_script(6)
    got = claims_of(result, "block-30-41-21")
    assert got[2]["got"] == "{-2,2}"
    assert got[3]["got"] == "{-3,3}"
    assert got[4]["got"] == "{-4,4}"
    assert got[5]["got"] == "{5}"


def test_replay_k7_intermediates():
    result = replay_script(7)
    got = claims_of(result, "chain-55")
    assert got[5]["got"] == "{-5,5}"
    got = claims_of(result, "block-31-42")
    assert got[2]["got"] == "{-2,2}"
    assert got[4]["got"] == "{-4,4}"


def test_replay_k8_pair_block_and_construction():
    result = replay_script(8)
    got = claims_of(result, "double-representations-40-32")
    assert got[2]["mode"] == "within"
    assert got["(2,3)"] == {
        "variable": "(2,3)",
        "mode": "joint",
        "expected": "{(+-1,+-1),(+-2,+-3)}",
        "got": "{(+-1,+-1),(+-2,+-3)}",
    }
    # the pairs the joint check expects are exactly the small integer
    # solutions of the 40/32 equations, checked over exact rationals
    small = [x for x in range(-6, 7) if x] + [Fraction(1, 2), Fraction(-3, 2)]
    solutions = {
        (gauss(a), gauss(b))
        for a in small
        for b in small
        if double_representations_hold(a, b)
    }
    assert solutions == EXPECTED_SIGN_PAIRS and len(solutions) == 8
    got = claims_of(result, "construction-k^2+k-1")
    assert got[2]["got"] == "{-2,2}"
    assert got[3]["got"] == "{-3,3}"
    assert got[7]["got"] == "{7}"


GENERAL_STAGES = [
    "seed",
    "growth-k(k-1)",
    "double-representations-40-32",
    "construction-k^2+k-1",
    "positivity",
]


@pytest.mark.parametrize("k", [8, 9, 10, 12, 13, 40, 97, 111, 500])
def test_replay_generic_k(k):
    # the script settles f(2), f(3), f(k - 1) and f(k), and below k - 1
    # nothing past 3: each sign witness sums squares of parts whose squares
    # the construction already fixed, and the certificate pins 6 = 2*3
    result = replay_script(k)
    assert stage_names(result) == GENERAL_STAGES
    positivity = replay_module._stages(k)[-1]
    sums = [c for c in positivity.constraints if isinstance(c, SumOfSquares)]
    assert sums and all(max(c.parts) <= 3 for c in sums), k
    for n in (1, 2, 3, k - 1, k):
        assert final(result, n) == only(n), (k, n)
    assert [n for n in sorted(result.state.pinned) if n < k - 1] == [1, 2, 3], k


def test_replay_end_states_identity():
    # only the k = 5 replay ends in an induction sweep, to 20; the other
    # scripts end where the certificate can start, and it pins every other n
    end_states = {
        4: [1, 2, 3, 4, 5, 7, 9, 10, 12, 18, 20, 28, 35],
        5: list(range(1, 21)) + [26, 29, 39],
        6: [1, 2, 3, 4, 5, 6, 9, 12, 21, 30, 36, 41],
        7: [1, 2, 3, 4, 5, 6, 7, 13, 26, 31, 39, 42, 52, 55, 65],
    }
    for k, pinned in end_states.items():
        result = replay_script(k)
        assert sorted(result.state.pinned) == pinned, k
        for n in pinned:
            assert final(result, n) == only(n), (k, n)


# Stages, and constraints keyed (k, stage, constraint), that no later
# stage and no certificate step needs, with the reason each stays in its
# script.
KEPT_WITHOUT_NEED = {
    (4, "chain-18"): "acceptance criterion 3 reads its claim f(9) = 9",
    (5, "induction"): "the benchmark's self-tests read 1..20 pinned from the k = 5 replay",
    (13, "positivity", SumOfSquares(48, replay_module.pad((3, 3, 3, 3, 2), 13))): (
        "the sign witness 3*16 = 48 states its sum, which at 48 = k + 35 is"
        " also the 40/32 stage's"
    ),
}


_scripts = replay_module._stages  # read before any test patches it


def ablated_scripts(k):
    """Each script of k with one stage, or one constraint of a stage, left
    out, keyed as in KEPT_WITHOUT_NEED."""
    script = list(_scripts(k))
    for i, stage in enumerate(script):
        before, after = script[:i], script[i + 1 :]
        yield (k, stage.name), before + after
        for j, constraint in enumerate(stage.constraints):
            rest = stage.constraints[:j] + stage.constraints[j + 1 :]
            kept = stage._replace(constraints=rest)
            yield (k, stage.name, constraint), before + [kept] + after


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8, 13, 500])
def test_every_stage_is_needed(monkeypatch, k):
    # dropping any one stage, or any one constraint, fails
    # theorem_check(k, 300), through a later stage's claim or the
    # certificate, save those kept without need
    passed = set()
    for key, script in ablated_scripts(k):
        monkeypatch.setattr(replay_module, "_stages", lambda _k, s=script: s)
        if theorem_check(k, 300).all_passed:
            passed.add(key)
    assert passed == {key for key in KEPT_WITHOUT_NEED if key[0] == k}


@pytest.mark.parametrize("q, broken", [(2, 9), (3, 8)])
def test_both_sign_witnesses_are_needed(monkeypatch, q, broken):
    # without the product that ties f(q) to its witness, and without the
    # claim f(q) = q, the certificate alone cannot pin q for this k
    stages = replay_module._stages

    def without_witness(k):
        positivity = stages(k)[-1]
        kept = positivity._replace(
            constraints=tuple(
                c
                for c in positivity.constraints
                if not (isinstance(c, Multiplicative) and q in (c.m, c.l))
            ),
            expects=tuple(e for e in positivity.expects if e.variable != q),
        )
        return stages(k)[:-1] + [kept]

    monkeypatch.setattr(replay_module, "_stages", without_witness)
    report = theorem_check(broken, 300)
    assert [c.name for c in report.checks if not c.passed][0] == "induction"


def _without_resultants(monkeypatch):
    monkeypatch.setattr(solver_module, "RESULTANT_CAP", 0)


def _without_split_forms(monkeypatch):
    unsplit = solver_module.sos_rhs
    monkeypatch.setattr(
        solver_module, "sos_rhs", lambda c, split=False: unsplit(c, split=False)
    )


def _without_square_view(monkeypatch):
    narrow = SolverState._set

    def values_only(self, var, view, new, eq, rule):
        if view == "value":
            narrow(self, var, view, new, eq, rule)

    monkeypatch.setattr(SolverState, "_set", values_only)


@pytest.mark.parametrize(
    "ablate, k, stage, got",
    [
        (_without_resultants, 8, "double-representations-40-32", "unknown"),
        (_without_split_forms, 8, "double-representations-40-32", "unknown"),
        (_without_square_view, 6, "block-30-41-21", "{-2,-6,2,6}"),
    ],
    ids=["resultants", "split-forms", "square-view"],
)
def test_mechanism_ablation(monkeypatch, ablate, k, stage, got):
    # each mechanism is needed by some scripted claim about f(2), while the
    # k = 5 script needs none of them
    ablate(monkeypatch)
    with pytest.raises(ReplayMismatchError) as err:
        replay_script(k)
    assert (err.value.stage, err.value.variable, err.value.got) == (stage, 2, got)
    assert replay_script(5).state.is_pinned(20)


@pytest.mark.parametrize("k", [-1, 1, 3])
def test_replay_rejects_small_k(k):
    with pytest.raises(ValueError, match="replay scripts exist for k >= 4"):
        replay_script(k)


def test_replay_trace_shrinks_monotonically():
    result = replay_script(5)
    for step in result.steps:
        if step.before is not None:
            assert set(step.after) < set(step.before)


def test_stage_mismatch_raises():
    state = SolverState(4, 10)
    state.add_constraints([SumOfSquares(4, (1, 1, 1, 1))])
    state.propagate()
    wrong = Expectation(4, frozenset({gauss(5)}))
    with pytest.raises(ReplayMismatchError) as err:
        wrong.check("demo", state)
    assert err.value.variable == 4
    assert "{5}" in err.value.expected
    assert "{4}" in err.value.got


def test_joint_check_mismatch_names_the_compared_set(monkeypatch):
    # the expectation printed is the set compared, and the claim is about
    # the pair (f(2), f(3))
    dropped = EXPECTED_SIGN_PAIRS - {(gauss(1), gauss(1))}
    monkeypatch.setattr(replay_module, "EXPECTED_SIGN_PAIRS", dropped)
    with pytest.raises(ReplayMismatchError) as err:
        replay_script(8)
    expected = "{(-1,-1),(-1,1),(-2,-3),(-2,3),(1,-1),(2,-3),(2,3)}"
    got = "{(-1,-1),(-1,1),(-2,-3),(-2,3),(1,-1),(1,1),(2,-3),(2,3)}"
    assert (err.value.stage, err.value.variable) == (
        "double-representations-40-32",
        (2, 3),
    )
    assert (err.value.expected, err.value.got) == (expected, got)
    assert str(err.value) == (
        f"stage 'double-representations-40-32': (f(2),f(3)) expected {expected},"
        f" got {got}"
    )


def test_replay_result_serializes():
    result = replay_script(4)
    d = result.to_dict()
    assert d["k"] == 4
    assert [s["name"] for s in d["stages"]] == stage_names(result)
    assert all("claims" in s for s in d["stages"])
