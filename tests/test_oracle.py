"""Differential test: the engine's candidate sets hold every value of every
integer solution that a brute-force search sharing no code with the engine
finds (tests/oracle.py)."""

import ast
from pathlib import Path

import pytest

import multsquares.solver as solver_module
import oracle
from multsquares.constraints import generate_constraints
from multsquares.gaussian import gauss
from multsquares.solver import SolverState

# the state uses only targets up to BOUND, so every solution of the
# oracle's equations up to BOUND solves the engine's system
BOUND = 100
BOX = 2


def engine_misses(k, bound, box):
    """(n, v) for each value v that some oracle solution gives f(n) and that
    the engine's value set or square set of n leaves out, after
    propagating every generated constraint up to bound."""
    state = SolverState(k, bound)
    state.add_constraints(generate_constraints(k, bound))
    state.propagate()
    misses = []
    for n, values in sorted(oracle.survivor_values(k, bound, box).items()):
        held, squares = state.candidates(n), state.square_candidates(n)
        misses += [
            (n, v)
            for v in sorted(values)
            if held is not None and gauss(v) not in held
            or squares is not None and gauss(v * v) not in squares
        ]
    return misses


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 13])
def test_engine_keeps_every_oracle_solution(k):
    assert engine_misses(k, BOUND, BOX) == []


def test_oracle_catches_a_dropped_negative_root(monkeypatch):
    # f(n) = n (-1)^(number of prime factors = 3 mod 4) solves k = 2, so
    # f(3) = -3 survives; an engine that keeps only positive roots drops it
    def positive_root_only(w):
        roots = real_sqrts(w)
        return None if roots is None else roots[:1]

    real_sqrts = solver_module._sqrts
    monkeypatch.setattr(solver_module, "_sqrts", positive_root_only)
    assert (3, -3) in engine_misses(2, BOUND, BOX)


def test_oracle_imports_nothing_from_the_package():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module)
    assert imported <= {"math"}, imported
