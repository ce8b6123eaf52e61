"""Propagation engine: narrowing behavior, soundness, and determinism."""

import gc
import hashlib
import json
import random
import tracemalloc
from fractions import Fraction
from itertools import groupby, product
from math import gcd

import pytest

from multsquares.arith import factorize
from multsquares.constraints import Multiplicative, SumOfSquares, generate_constraints
from multsquares.gaussian import gauss
from multsquares.replay import replay_script
from multsquares.solver import (
    BudgetExceededError,
    ContradictionError,
    MissingValueError,
    NoWitnessError,
    SolverState,
    TraceStep,
    check_function,
    induction_sweep,
    pin_by_induction,
    solve,
)
from multsquares.theorem import theorem_check
import multsquares.solver as solver_module


def cand_strs(state, n):
    c = state.candidates(n)
    return None if c is None else sorted(str(v) for v in c)


def fresh(k, bound, constraints=None, **kw):
    state = SolverState(k, bound, **kw)
    state.add_constraints(
        generate_constraints(k, bound) if constraints is None else constraints
    )
    return state.propagate()


def test_propagate_k4_bound12_branches_f3():
    state = fresh(4, 12)
    assert cand_strs(state, 3) == ["1", "3"]
    assert cand_strs(state, 4) == ["4"]


def test_propagate_k5_bound20_branches_f4():
    state = fresh(5, 20)
    assert cand_strs(state, 4) == ["1", "4"]


def test_propagate_k4_bound35_pins_odd_primes():
    state = fresh(4, 35)
    assert cand_strs(state, 3) == ["3"]
    assert cand_strs(state, 5) == ["5"]
    assert cand_strs(state, 7) == ["7"]


def test_solve_k4_bound100_pins_everything():
    report = solve(4, 100)
    assert report.pinned == tuple(range(1, 101))
    assert not report.unresolved


def test_solve_k5_bound50_pins_29():
    report = solve(5, 50)
    assert report.state.is_pinned(29)
    assert report.all_pinned


def test_solve_k2_leaves_f3_ambiguous():
    report = solve(2, 50)
    assert report.state.candidates(2) == frozenset({gauss(2)})
    f3 = report.state.candidates(3)
    assert f3 is not None and gauss(3) in f3 and len(f3) > 1


def test_quadratic_root_step_matches_closed_form():
    # 4 f(3) = 3 + f(3)^2 has exactly the roots 1 and 3
    state = SolverState(4, 12)
    state.add_constraints(
        [
            SumOfSquares(4, (1, 1, 1, 1)),
            SumOfSquares(12, (3, 1, 1, 1)),
            Multiplicative(12, 3, 4),
        ]
    )
    state.propagate()
    assert state.candidates(3) == frozenset({gauss(1), gauss(3)})


def test_sqrts_are_rational_and_real():
    sqrts = solver_module._sqrts
    assert sqrts(0) == (0,)
    assert set(sqrts(Fraction(9, 4))) == {Fraction(3, 2), Fraction(-3, 2)}
    assert set(sqrts(16)) == {4, -4}
    assert all(type(r) is int for r in sqrts(16))
    assert sqrts(2) is None
    assert sqrts(-4) is None
    assert sqrts(Fraction(1, 3)) is None


def test_quadratic_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261018)

    def coefficient():
        if rng.random() < 0.5:
            return rng.randint(-12, 12)
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))

    rational_roots = 0
    for i in range(200):
        a = 0
        while a == 0:
            a = coefficient()
        if i % 2:  # rational roots by construction
            r1, r2 = coefficient(), coefficient()
            b, c = -a * (r1 + r2), a * r1 * r2
        else:
            b, c = coefficient(), coefficient()
        got = solver_module._quadratic_roots(a, b, c)
        expected = sympy.roots(
            sympy.Rational(a) * x**2 + sympy.Rational(b) * x + sympy.Rational(c), x
        )
        if all(r.is_rational for r in expected):
            rational_roots += 1
            assert got is not None and len(got) == len(expected), (a, b, c)
            assert {Fraction(int(r.p), int(r.q)) for r in expected} == set(got)
            assert all(type(w) is int or w.denominator != 1 for w in got)
        else:
            assert got is None, (a, b, c)
    assert rational_roots > 100


def test_resultants_match_sympy(monkeypatch):
    # every elimination the stall round tries in these runs; between them
    # they reach each branch of _resultant
    sympy = pytest.importorskip("sympy")
    tried = []

    def recording(p, q, x):
        res = resultant(p, q, x)
        tried.append((p.poly, q.poly, x, res))
        return res

    resultant = solver_module._resultant
    monkeypatch.setattr(solver_module, "_resultant", recording)
    replay_script(8)
    solve(2, 150)
    solve(13, 100)
    y = sympy.Symbol("y")

    def to_sympy(poly, x=None, scale=1):
        # x^d becomes y^(d / scale): y stands for x^2 when scale is 2
        return sum(
            c * sympy.Mul(*(
                y ** (d // scale) if v == x else sympy.Symbol(f"f{v}") ** d
                for v, d in mono
            ))
            for mono, c in poly.items()
        )

    def primitive(expr):
        expr = sympy.expand(expr)
        gens = sorted(expr.free_symbols, key=str) or [y]
        part = sympy.Poly(expr, *gens).primitive()[1]
        return (-part if part.LC() < 0 else part).as_expr()

    branches = set()
    for p, q, x, res in tried:
        powers = [d for poly in (p, q) for mono in poly for v, d in mono if v == x]
        scale = 2 if all(d % 2 == 0 for d in powers) else 1
        degrees = tuple(sorted(
            max((d for mono in poly for v, d in mono if v == x), default=0) // scale
            for poly in (p, q)
        ))
        if res is None:
            assert not set(degrees) <= {1, 2}, (p, q, x)
            continue
        branches.add((scale, degrees))
        expected = sympy.resultant(to_sympy(p, x, scale), to_sympy(q, x, scale), y)
        assert sympy.expand(primitive(to_sympy(res)) - primitive(expected)) == 0
    assert branches == {(2, (1, 1)), (1, (1, 1)), (1, (1, 2)), (1, (2, 2))}


def test_non_real_root_prunes_nothing():
    # f(2)^2 + 4 = 0: the square is known, the roots +-2i are not rational
    state = SolverState(5, 10)
    state._add_equation({((2, 2),): 1, (): 4}, "f(2)^2+4", "eliminated")
    state.propagate()
    assert state.candidates(2) is None
    assert state.square_candidates(2) == frozenset({gauss(-4)})
    # f(3)^2 + 2 f(3) + 5 = 0 has the roots -1 +- 2i: nothing is known
    state = SolverState(5, 10)
    state._add_equation({((3, 2),): 1, ((3, 1),): 2, (): 5}, "f(3)", "eliminated")
    state.propagate()
    assert state.candidates(3) is None
    assert state.square_candidates(3) is None


def test_sum_with_wrong_part_count_is_refused():
    # 5 = 2^2 + 1^2 holds, but a 5-state reads sums of exactly 5 squares
    state = SolverState(5, 60)
    message = r"f\(5\)=f\(2\)\^2\+f\(1\)\^2 has 2 parts, not k = 5"
    with pytest.raises(ValueError, match=message):
        state.add_constraints([SumOfSquares(5, (2, 1))])
    assert state._equations == []


def test_sign_resolution_through_products():
    # once f(m) and f(2m) are pinned with m odd, f(2) follows by division
    state = SolverState(5, 30)
    state.add_constraints(
        [
            SumOfSquares(5, (1, 1, 1, 1, 1)),
            SumOfSquares(29, (5, 1, 1, 1, 1)),
            SumOfSquares(29, (3, 3, 3, 1, 1)),
            SumOfSquares(29, (4, 2, 2, 2, 1)),
            SumOfSquares(20, (4, 1, 1, 1, 1)),
            SumOfSquares(20, (2, 2, 2, 2, 2)),
            Multiplicative(20, 4, 5),
            SumOfSquares(13, (3, 1, 1, 1, 1)),
            SumOfSquares(26, (4, 2, 2, 1, 1)),
            Multiplicative(26, 2, 13),
        ]
    )
    state.propagate()
    assert cand_strs(state, 2) == ["2"]


def test_candidate_sets_only_shrink():
    state = fresh(4, 60)
    seen = {}
    for step in state.trace:
        key = (step.variable, step.view)
        if step.before is not None:
            assert set(step.after) < set(step.before), step
        if key in seen:
            assert set(step.after) <= set(seen[key]), step
        seen[key] = step.after


def test_identity_never_pruned():
    for k, bound in ((4, 80), (5, 60), (6, 60), (8, 60)):
        report = solve(k, bound)
        for step in report.steps:
            n = step.variable
            if step.view == "value":
                assert str(gauss(n)) in step.after, (k, step)
            else:
                assert str(gauss(n * n)) in step.after, (k, step)


# sha256 of json.dumps(..., sort_keys=True) of replay_script(k).to_dict(),
# solve(k, 100).to_dict(), the trace of replay_script(k).state swept to
# n = 1000, and theorem_check(k, 60).to_dict(): the traces, including their
# square-view steps (replay 6, solve 4), and the theorem envelopes are
# pinned across changes
TRACE_DIGESTS = {
    ("replay", 4): "733bee35fafe66272e6fb9e0a2f461f89867a57f213404d2bb8230502c2874f6",
    ("replay", 5): "60266e2d2154c1711d9270f11fee3f9b17528d023e70db7c2a7d5b8276983c66",
    ("replay", 6): "7f8b1ed6590b728a3ba941621630d88f7406659747f5fc4d771220ba0775f0db",
    ("replay", 7): "0772e0fccaf101afbd07f3c497b3a27197a0ed5b1a97c619d06fddca3ff6b881",
    ("replay", 8): "ab4df75d46239c55678307ed8165793fab2e3125dee79b4fe1b85c772479040f",
    ("replay", 13): "7785c813abc6981bd2523d75c36f117447f35c17d7aad6c36a8e4a32336bed72",
    ("solve", 4): "6226e735a913f2867ad3b7224e05c79877fb924f695fd38effcf616918017c76",
    ("solve", 5): "706671004f34516f1ba9a7107b0832475563b2add89dc55e50c4bc887f994760",
    ("solve", 8): "e9043577bf38a86a8c72784009d9ffb5f2cbe80a4eb1c395a5104c8f8641eed2",
    ("sweep", 5): "0137d8c8247485ade665e87f9cf86abcbdefc7e83e3c23978c759812e8929acc",
    ("sweep", 13): "f84d4a86d6a881ed90af81b192aa3915e2c647632c19261315f4101f3ab355d8",
    ("theorem", 4): "e268a8d96a119cf8bbfa6d2e0f2a5a23d39ccc2505f1ab0f7d1d205ac70e96c3",
    ("theorem", 5): "e56865a31fc290d6328503747a1d99991419a22c674ed017312003e0244068a3",
    ("theorem", 6): "4c660b3cdff3795c73f6e18e0f6a0dfb4e44e79e6a341ee82d6fa81af4050c6e",
    ("theorem", 7): "1d1fb2278247af0b5fd729443e76b7c84afaf23d9a54989986b65930e3fbaab7",
    ("theorem", 8): "2da574faa1f8971599befd8be33daea918fd2fa237eb3b19ede3af70a15c000c",
    ("theorem", 13): "26fa04e8f14dfdaf9aee7bae36f2c696feb7ac9cece444206f994ef67819bcfe",
    ("theorem", 97): "b440e49d5ad1ca742e70d1beab586626aaf0c199ededb44d7d7c1cd93992ceb1",
    ("theorem", 500): "36775c06d403e134a70ec44a5ed73165b9e154ccfbd94e9b9ab75855047b4f44",
}


def _pinned_run(kind, k):
    if kind == "replay":
        return replay_script(k).to_dict()
    if kind == "solve":
        return solve(k, 100).to_dict()
    if kind == "theorem":
        return theorem_check(k, 60).to_dict()
    state = replay_script(k).state
    assert induction_sweep(state, 2, 1000) is None
    return [step.to_dict() for step in state.trace]


def test_trace_determinism():
    a = fresh(5, 80)
    b = fresh(5, 80)
    assert a.trace == b.trace
    assert a.report().to_dict() == b.report().to_dict()
    # every run is checked, so one changed trace does not hide another
    changed = []
    for (kind, k), digest in TRACE_DIGESTS.items():
        text = json.dumps(_pinned_run(kind, k), sort_keys=True)
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            changed.append((kind, k))
    assert changed == []


def test_target_by_target_intake_pins_all():
    # an intake one target at a time ends each propagate in a stall round,
    # with certified pins between them
    for k in (3, 4, 5, 13):
        state = SolverState(k, 100)
        for _, group in groupby(generate_constraints(k, 100), lambda c: c.target):
            state.add_constraints(group)
            state.propagate()
            induction_sweep(state, 2, 100)
        assert state.report().all_pinned, k


def _sum_29(sets):
    """f(29) = f(4)^2 + 3 f(2)^2 + 1 with the given value sets."""
    state = SolverState(5, 29)
    for v, xs in sets.items():
        state._values[v] = frozenset(xs)
        state._squares[v] = frozenset(x * x for x in xs)
    state.add_constraints([SumOfSquares(29, (4, 2, 2, 2, 1))])
    return state


def _pinned_sum(values):
    """_sum_29 with every unknown a single value."""
    return _sum_29({v: {x} for v, x in values.items()})


def test_settled_equation_that_fails_raises_as_narrowing_does():
    # f(29) is the wrong value, yet the set that empties is f(2)'s, the
    # first unknown narrowed (the same variable and label as before the
    # retirement of settled equations)
    state = _pinned_sum({29: 30, 4: 4, 2: 2})
    with pytest.raises(ContradictionError) as err:
        state.propagate()
    assert err.value.variable == 2
    assert err.value.constraint == "f(29)=f(4)^2+f(2)^2+f(2)^2+f(2)^2+f(1)^2"


def test_open_unknown_empties_before_pinned_ones():
    # with f(4) open, only f(4) is revised, so its set is the one that
    # empties; the pinned f(2) is never revised
    state = SolverState(5, 29)
    for v, xs in {29: {30}, 2: {2}, 4: {4, -4}}.items():
        state._values[v] = frozenset(xs)
        state._squares[v] = frozenset(x * x for x in xs)
    state.add_constraints([SumOfSquares(29, (4, 2, 2, 2, 1))])
    with pytest.raises(ContradictionError) as err:
        state.propagate()
    assert err.value.variable == 4
    assert err.value.constraint == "f(29)=f(4)^2+f(2)^2+f(2)^2+f(2)^2+f(1)^2"


def _is_open(state, v):
    values = state._values[v]
    return values is None or len(values) > 1


def _sign_settled(state, eq, v):
    """v's value set is known and has one square, and eq has only even
    powers of v, so eq cannot tell x from -x."""
    values = state._values[v]
    odd = any(u == v and d % 2 for mono in eq.poly for u, d in mono)
    return values is not None and len({x * x for x in values}) == 1 and not odd


def test_pinned_unknowns_of_open_equations_are_not_revised(monkeypatch):
    calls = []
    original = SolverState._narrow_var

    def recording(state, eq, var):
        # a pinned unknown beside an open one, or a sign-settled unknown
        # beside one the equation can split
        pinned = not _is_open(state, var)
        settled = _sign_settled(state, eq, var)
        calls.append(
            (pinned and any(_is_open(state, v) for v in eq.vars))
            or (
                settled
                and any(
                    _is_open(state, v) and not _sign_settled(state, eq, v)
                    for v in eq.vars
                )
            )
        )
        return original(state, eq, var)

    monkeypatch.setattr(SolverState, "_narrow_var", recording)
    solve(4, 60)
    solve(5, 100)
    state = replay_script(13).state
    assert induction_sweep(state, 2, 200) is None
    assert theorem_check(8, 60).all_passed
    assert theorem_check(13, 60).all_passed
    assert len(calls) > 1000
    assert not any(calls)


def test_settled_equation_is_skipped(monkeypatch):
    narrowed = []
    original = SolverState._narrow_var

    def recording(state, eq, var):
        narrowed.append((eq.eq_id, var))
        return original(state, eq, var)

    monkeypatch.setattr(SolverState, "_narrow_var", recording)
    state = _pinned_sum({29: 29, 4: 4, 2: 2})
    state.propagate()
    assert state.trace == []
    state._touch(4)
    state.propagate()
    assert narrowed == []


def test_splittable_unknown_empties_before_sign_settled_ones():
    # the sum reads f(2) in {-2, 2} only through f(2)^2 = 4, so only f(4),
    # with two squares, is revised, and its set is the one that empties
    # (revising every open unknown in order would empty f(2) first)
    state = _sum_29({29: {29}, 2: {-2, 2}, 4: {1, 3}})
    with pytest.raises(ContradictionError) as err:
        state.propagate()
    assert err.value.variable == 4
    assert err.value.constraint == "f(29)=f(4)^2+f(2)^2+f(2)^2+f(2)^2+f(1)^2"


def test_sign_settled_equation_that_holds_is_skipped(monkeypatch):
    narrowed = []
    original = SolverState._narrow_var

    def recording(state, eq, var):
        narrowed.append(var)
        return original(state, eq, var)

    monkeypatch.setattr(SolverState, "_narrow_var", recording)
    # every unknown pinned or sign-settled, and 29 = 4^2 + 3 * 2^2 + 1
    for f4 in ({4}, {-4, 4}):
        narrowed.clear()
        state = _sum_29({29: {29}, 2: {-2, 2}, 4: f4})
        state.propagate()
        assert narrowed == [] and state.trace == []
    # f(29) has an odd power in the sum, so its sign is split there
    state = _sum_29({29: {-29, 29}, 2: {-2, 2}, 4: {-4, 4}})
    state.propagate()
    assert narrowed == [29]
    assert cand_strs(state, 29) == ["29"]
    assert cand_strs(state, 2) == ["-2", "2"]


def test_replay_keeps_every_equation():
    # each step's polynomial stays readable after the run
    for k in (4, 13):
        assert all(eq is not None for eq in replay_script(k).state._equations), k


def _differential_runs(monkeypatch):
    """Envelopes and solver states of solve, replay_script and theorem_check
    runs; the states in creation order."""
    states = []
    original_init = SolverState.__init__

    def recording(state, *args, **kwargs):
        original_init(state, *args, **kwargs)
        states.append(state)

    with monkeypatch.context() as m:
        m.setattr(SolverState, "__init__", recording)
        envelopes = [solve(k, 100).to_dict() for k in (2, 3, 4, 5, 8, 13)]
        envelopes += [
            replay_script(k).to_dict() for k in (4, 5, 6, 7, 8, 13, 97, 500)
        ]
        envelopes += [theorem_check(k, 60).to_dict() for k in (4, 8, 13)]
    return envelopes, states


def _revise_every_open_unknown(state, eq):
    # the reference rule: revise the open unknowns, sign-settled or not
    return tuple(v for v in eq.vars if _is_open(state, v)) or eq.vars


def _holds_at_single_values(state, eq):
    # the reference rule: skip an equation only when every unknown is pinned
    point = {}
    for v in eq.vars:
        vals = state._values[v]
        if vals is None or len(vals) != 1:
            return False
        (point[v],) = vals
    total = 0
    for mono, term in eq.poly.items():
        for u, p in mono:
            term *= point[u] ** p
        total += term
    return total == 0


def _counted_runs(monkeypatch):
    """_differential_runs, with the _narrow_var calls of each state."""
    counts = {}
    original = SolverState._narrow_var

    def counting(state, eq, var):
        counts[id(state)] = counts.get(id(state), 0) + 1
        return original(state, eq, var)

    with monkeypatch.context() as m:
        m.setattr(SolverState, "_narrow_var", counting)
        envelopes, states = _differential_runs(monkeypatch)
    return envelopes, states, [counts.get(id(s), 0) for s in states]


def test_sign_settled_rule_matches_revising_every_open_unknown(monkeypatch):
    envelopes, states, calls = _counted_runs(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(SolverState, "_revised", _revise_every_open_unknown)
        m.setattr(SolverState, "_holds_pinned", _holds_at_single_values)
        ref_envelopes, ref_states, ref_calls = _counted_runs(monkeypatch)
    assert envelopes == ref_envelopes
    assert len(states) == len(ref_states)
    for state, ref in zip(states, ref_states):
        assert (state.k, state.bound) == (ref.k, ref.bound)
        assert state.trace == ref.trace
        assert state.pinned == ref.pinned
        assert state._ops == ref._ops
        assert len(state._equations) == len(ref._equations)
    assert sum(calls) < sum(ref_calls)
    # the first state of k = 13 and bound 60 is replay_script(13)'s
    replay13 = next(i for i, s in enumerate(states) if (s.k, s.bound) == (13, 60))
    assert calls[replay13] < ref_calls[replay13]


def test_induction_step_is_one_certified_pin():
    # the step pins f(n) alone, by a checked witness: it adds no equation,
    # runs no narrowing, and leaves one trace step
    state = replay_script(5).state
    assert induction_sweep(state, 2, 20) is None
    n = next(m for m in range(21, 100) if not state.is_pinned(m))
    equations, steps, ops = len(state._equations), len(state.trace), state._ops
    pin_by_induction(state, n)
    assert len(state._equations) == equations
    assert state._ops == ops
    assert [(s.variable, s.view, s.after, s.rule) for s in state.trace[steps:]] == [
        (n, "value", (str(n),), "certified")
    ]
    assert state.is_pinned(n) and n in state.pinned


def test_forged_witness_raises_and_leaves_the_state(monkeypatch):
    # only a prime power needs a witness; any other n is a coprime product
    state = replay_script(5).state
    n = next(
        m
        for m in range(21, 100)
        if not state.is_pinned(m) and len(factorize(m).factors) == 1
    )
    assert induction_sweep(state, 2, n - 1) is None
    snapshot = (
        list(state.trace),
        set(state.pinned),
        dict(state._values),
        sorted(state._pending),
    )
    monkeypatch.setattr(
        solver_module,
        "find_witness",
        lambda n, k, pinned, signless: (n - 1, (1,) * k),
    )
    with pytest.raises(NoWitnessError) as exc:
        pin_by_induction(state, n)
    assert str(exc.value) == (
        f"certificate rejected: squares sum to 5, not {n}*{n - 1} = {n * (n - 1)}"
    )
    assert snapshot == (
        list(state.trace),
        set(state.pinned),
        dict(state._values),
        sorted(state._pending),
    )
    assert induction_sweep(state, 2, 100) == (n, str(exc.value))


def test_induction_live_memory_per_step():
    # one induction step keeps its trace step and label, an entry in the
    # pinned set, and f(n)'s value and square sets: about 1 KB per n
    state = replay_script(5).state
    assert induction_sweep(state, 2, 500) is None
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert induction_sweep(state, 501, 1000) is None
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (after - before) / 500 < 2_000


def test_pairing_needed_for_solve_k13(monkeypatch):
    # ablation: without paired equations the engine pins almost nothing
    with monkeypatch.context() as m:
        m.setattr(solver_module, "PAIR_CAP", 0)
        assert len(solve(13, 60).pinned) == 2
    assert solve(13, 60).all_pinned


class RecordingCap(int):
    """A cap that records each size it refuses.  A size compared with an
    int subclass calls the subclass's reflected method first, so
    `size <= cap` runs __ge__ and `size > cap` runs __lt__."""

    def __new__(cls, value):
        cap = super().__new__(cls, value)
        cap.refused = []
        return cap

    def __ge__(self, size):
        if size > int(self):
            self.refused.append(size)
        return int(self) >= size

    def __lt__(self, size):
        if size > int(self):
            self.refused.append(size)
        return int(self) < size


def test_set_cap_binds_on_a_user_input(monkeypatch):
    # solve(30, 100) meets candidate sets of 72 to 120 values; refusing to
    # store them, it still pins all 100 (lifted, the same call runs past
    # 25 s)
    cap = RecordingCap(solver_module.SET_CAP)
    monkeypatch.setattr(solver_module, "SET_CAP", cap)
    assert solve(30, 100).all_pinned
    assert sorted(cap.refused) == [72] * 3 + [96] * 3 + [120] * 4


def test_combination_cap_binds_on_a_user_input(monkeypatch):
    # solve(50, 100) meets equations whose other unknowns allow 6144 to
    # 16384 joint assignments; each such revision is skipped
    cap = RecordingCap(solver_module.COMBINATION_CAP)
    monkeypatch.setattr(solver_module, "COMBINATION_CAP", cap)
    assert solve(50, 100).all_pinned
    assert sorted(cap.refused) == [6144, 8192, 12288, 12288, 12288, 16384]


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError) as err:
        fresh(4, 60, budget=10)
    assert err.value.state is not None


def test_pin_by_induction_k5_n7_uses_42():
    # pin f(1..6) with the scripted chain only, so nothing touches f(7) yet
    state = SolverState(5, 50)
    state.add_constraints(
        [
            SumOfSquares(5, (1, 1, 1, 1, 1)),
            SumOfSquares(20, (4, 1, 1, 1, 1)),
            SumOfSquares(20, (2, 2, 2, 2, 2)),
            Multiplicative(20, 4, 5),
            SumOfSquares(29, (5, 1, 1, 1, 1)),
            SumOfSquares(29, (3, 3, 3, 1, 1)),
            SumOfSquares(29, (4, 2, 2, 2, 1)),
            SumOfSquares(13, (3, 1, 1, 1, 1)),
            SumOfSquares(26, (4, 2, 2, 1, 1)),
            Multiplicative(26, 2, 13),
            SumOfSquares(39, (4, 3, 3, 2, 1)),
            Multiplicative(39, 3, 13),
            Multiplicative(6, 2, 3),
        ]
    )
    state.propagate()
    assert all(state.is_pinned(m) for m in range(1, 7))
    assert state.candidates(7) is None
    pin_by_induction(state, 7)
    assert state.is_pinned(7)
    assert state.trace[-1] == TraceStep(
        "induction(7): 7*6=42=4^2+3^2+3^2+2^2+2^2",
        7,
        "value",
        None,
        ("7",),
        "certified",
    )


def test_certified_pin_outside_the_candidates_raises():
    # 2 = 1^2 + 1^2 certifies f(2) = 2 for k = 2; candidates that exclude
    # 2 mean the tracked constraints are unsatisfiable
    state = SolverState(2, 20)
    state._values[2] = frozenset({-2})
    with pytest.raises(ContradictionError) as err:
        pin_by_induction(state, 2)
    assert (err.value.variable, err.value.constraint) == (
        2,
        "induction(2): 2*1=2=1^2+1^2",
    )
    assert state.trace == [] and state.pinned == {1}


def test_pin_by_induction_rejects_small_n():
    # 6 = 3*2 is no sum of five positive squares, and 1, the one other
    # pinned m, gives 3*1 < 5
    state = SolverState(5, 20)
    with pytest.raises(NoWitnessError) as exc:
        pin_by_induction(state, 3)
    assert str(exc.value) == (
        "m=2: 6 has no representation with parts below 3; "
        "no other pinned m is coprime to 3 with 3*m >= 5"
    )
    assert state.trace == [] and state.pinned == {1}


def test_pin_by_induction_k6_n8():
    state = SolverState(6, 60)
    state.add_constraints(generate_constraints(6, 45))
    state.propagate()
    if not state.is_pinned(7):
        pin_by_induction(state, 7)
    pin_by_induction(state, 8)
    assert state.is_pinned(8)


def test_induction_sweep_stops_at_first_failure(monkeypatch):
    # 6 = 3*2 has no 4-square form with parts below 3, so nothing is pinned
    attempted = []
    original = solver_module.pin_by_induction

    def recording(state, n):
        attempted.append(n)
        return original(state, n)

    monkeypatch.setattr(solver_module, "pin_by_induction", recording)
    state = SolverState(4, 20)
    failure = induction_sweep(state, 3, 10)
    assert failure == (
        3,
        "m=2: 6 has no representation with parts below 3; "
        "no other pinned m is coprime to 3 with 3*m >= 4",
    )
    assert attempted == [3]
    assert state.trace == []


def test_solve_k3_pins_every_n_to_300():
    # the certificate's coprime fallback carries k = 3 past the n whose
    # n(n-1) is no sum of three squares with parts below n
    assert solve(3, 300).all_pinned


def test_k2_pins_respect_the_sign_twist():
    # f(n) = n (-1)^(prime factors = 3 mod 4, with multiplicity) is
    # multiplicative and meets every k = 2 constraint, since a sum of two
    # squares has an even count of them; so no n with an odd count may be
    # pinned, by propagation or by a certified step, even one tried out of
    # order, past the first n the sweep cannot pin
    def twisted(n):
        return sum(e for p, e in factorize(n).factors if p % 4 == 3) % 2 == 1

    state = solve(2, 150).state
    assert len([n for n in state.pinned if n <= 150]) == 59
    for n in range(2, 151):
        if not state.is_pinned(n):
            try:
                pin_by_induction(state, n)
            except NoWitnessError:
                pass
    # f(3) = +-3 is all the sign twist allows, and a witness may read 3
    # through its square: 121 = 11^2 is not twisted
    assert 3 in state.signless
    certified = [s.variable for s in state.trace if s.rule == "certified"]
    assert certified == [64, 81, 121]
    assert not [n for n in state.pinned if twisted(n)]


def test_check_function_identity_is_clean():
    table = {}
    for p in (2, 3, 5, 7):
        q = p
        while q <= 100:
            table[q] = gauss(q)
            q *= p
    for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
              73, 79, 83, 89, 97):
        table[p] = gauss(p)
    assert check_function(table, 4, 100) == []


def test_check_function_sign_flip_violates():
    table = {
        q: gauss(q) for q in
        (2, 4, 8, 16, 32, 64, 3, 9, 27, 81, 5, 25, 7, 49, 11, 13, 17, 19, 23,
         29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
    }
    table[3] = gauss(-3)
    violations = check_function(table, 4, 100)
    assert violations
    twelve = [v for v in violations if v.target == 12]
    assert twelve and str(twelve[0].lhs) == "-12" and str(twelve[0].rhs) == "12"


def test_check_function_ones_branch_violates_at_35():
    table = {
        q: gauss(q) for q in
        (2, 4, 8, 16, 32, 3, 9, 27, 5, 25, 7, 11, 13, 17, 19, 23, 29, 31)
    }
    table[3] = gauss(1)
    table[5] = gauss(1)
    table[7] = gauss(1)
    violations = check_function(table, 4, 35)
    at35 = [v for v in violations if v.target == 35]
    assert at35
    v = at35[0]
    assert str(v.lhs) == "1" and str(v.rhs) == "19"
    assert (v.rhs - v.lhs) == gauss(18)


def test_check_function_missing_value():
    with pytest.raises(MissingValueError):
        check_function({2: gauss(2)}, 4, 20)


@pytest.mark.parametrize("key", [-2, 0, 1, 6, 12])
def test_check_function_rejects_keys_it_would_not_read(key):
    table = {q: gauss(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)}
    table[key] = gauss(99)
    with pytest.raises(ValueError, match=f"key {key} "):
        check_function(table, 4, 12)


def test_check_function_ignores_keys_above_bound():
    table = {q: gauss(q) for q in (2, 3, 4, 5, 7, 8, 9, 11)}
    table[14] = gauss(99)
    assert check_function(table, 4, 12) == []


def _random_finite_state(rng, variables, signed):
    """Small random candidate sets over a few variables, each holding the
    variable's own value; with signed, about half are {-x, x} instead, for
    x the variable's own value or a random one."""
    sets = {}
    for v in variables:
        if signed and rng.random() < 0.5:
            x = v if rng.random() < 0.5 else rng.randint(1, 6)
            sets[v] = frozenset({gauss(x), gauss(-x)})
            continue
        size = rng.randint(1, 4)
        vals = set()
        while len(vals) < size:
            vals.add(gauss(rng.randint(-6, 6)))
        sets[v] = frozenset(vals | {gauss(v)})
    return sets


COPRIME_SPLITS = [(m, l) for l in range(3, 8) for m in range(2, l) if gcd(m, l) == 1]


def _random_constraint(rng):
    """k, a constraint, and its unknowns: a sum of 2 to 4 squares of parts
    2..5, or a product over a coprime split of at most 7 * 6."""
    k = rng.randint(2, 4)
    if rng.random() < 0.5:
        parts = sorted((rng.randint(2, 5) for _ in range(k)), reverse=True)
        c = SumOfSquares(sum(x * x for x in parts), tuple(parts))
        return k, c, sorted({c.target, *parts})
    m, l = rng.choice(COPRIME_SPLITS)
    return k, Multiplicative(m * l, m, l), [m, l, m * l]


def _holds(c, assign):
    if isinstance(c, Multiplicative):
        return assign[c.target] == assign[c.m] * assign[c.l]
    total = gauss(0)
    for x in c.parts:
        total = total + assign[x].square()
    return assign[c.target] == total


def test_pruning_validity_random_constraints():
    """Survivors are exactly the values of the assignments that satisfy the
    constraint, found by brute force; with none, propagation raises."""
    rng = random.Random(20260808)
    signed_even = signed_odd = contradictions = 0
    for trial in range(360):
        k, c, variables = _random_constraint(rng)
        sets = _random_finite_state(rng, variables, signed=trial % 2 == 1)
        state = SolverState(k, c.target)
        for v, vals in sets.items():
            state._values[v] = frozenset(w.re for w in vals)
            state._squares[v] = frozenset(w.re * w.re for w in vals)
        state.add_constraints([c])
        solutions = [
            assign
            for assign in (
                dict(zip(variables, combo))
                for combo in product(*(sets[v] for v in variables))
            )
            if _holds(c, assign)
        ]
        if not solutions:
            contradictions += 1
            with pytest.raises(ContradictionError):
                state.propagate()
            continue
        state.propagate()
        for var in variables:
            expected = frozenset(assign[var] for assign in solutions)
            assert state.candidates(var) == expected, (c, sets, var)
        # {-x, x} sets read only through x^2 (sum parts), or also by sign
        signed = {
            v
            for v in variables
            if len(sets[v]) == 2 and len({w.square() for w in sets[v]}) == 1
        }
        even = set(c.parts) if isinstance(c, SumOfSquares) else set()
        signed_even += bool(signed & even)
        signed_odd += bool(signed - even)
    assert min(signed_even, signed_odd, contradictions) > 20


def test_report_shape():
    report = solve(4, 20)
    d = report.to_dict()
    assert set(d) == {"k", "bound", "pinned", "unresolved", "steps"}
    assert d["k"] == 4 and d["bound"] == 20
    for step in d["steps"]:
        assert set(step) == {"constraint", "variable", "view", "before", "after", "rule"}
