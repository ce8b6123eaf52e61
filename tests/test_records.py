"""Result and input records are immutable named tuples, and importing the
package loads no dataclass machinery."""

import subprocess
import sys
from pathlib import Path

import pytest

from multsquares.arith import FactoredInteger, NotCoprimeError, SemigroupPair
from multsquares.constraints import Multiplicative, SumOfSquares
from multsquares.replay import StageOutcome
from multsquares.solver import SolverReport, TraceStep, solve
from multsquares.squares import Representation
from multsquares.theorem import CheckResult

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_dataclass_machinery():
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import multsquares; "
        "print(' '.join(sorted(m for m in ('dataclasses', 'inspect', 'ast', "
        "'dis', 'tokenize') if m in sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == []


@pytest.mark.parametrize(
    "record, fields",
    [
        (SemigroupPair(3, 8), (3, 8)),
        (Representation(12, (3, 1, 1, 1)), (12, (3, 1, 1, 1))),
        (Multiplicative(6, 2, 3), (6, 2, 3)),
        (StageOutcome("seed", (), 1), ("seed", (), 1)),
        (TraceStep("f(4)=f(1)^2", 4, "value", None, ("4",), "root"),
         ("f(4)=f(1)^2", 4, "value", None, ("4",), "root")),
        (CheckResult("replay", True), ("replay", True, "")),
    ],
    ids=["arith", "squares", "constraints", "replay", "solver", "theorem"],
)
def test_records_are_immutable_tuples(record, fields):
    assert tuple(record) == fields
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], fields[0])


@pytest.mark.parametrize(
    "record, change, error",
    [
        (FactoredInteger(12, ((2, 2), (3, 1))), {"n": 13}, ValueError),
        (SemigroupPair(3, 8), {"b": 6}, NotCoprimeError),
        (Representation(5, (2, 1)), {"target": 6}, ValueError),
        (SumOfSquares(5, (2, 1)), {"parts": (1, 2)}, ValueError),
        (Multiplicative(6, 2, 3), {"target": 7}, ValueError),
    ],
    ids=["factored", "semigroup", "representation", "sum-of-squares", "multiplicative"],
)
def test_make_and_replace_validate(record, change, error):
    cls = type(record)
    assert cls._make(tuple(record)) == record
    assert record._replace() == record
    with pytest.raises(error):
        record._replace(**change)
    with pytest.raises(error):
        cls._make({**record._asdict(), **change}.values())


def test_solver_report_leaves_state_out_of_eq_hash_and_repr():
    first, second = solve(4, 20), solve(4, 20)
    assert first.state is not second.state
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert "SolverState" not in repr(first)
    assert repr(first).startswith("SolverReport(k=4, bound=20, pinned=")
    *shown, state = first
    assert state is first.state and tuple(shown) == first[:-1]
    assert first != first._replace(bound=21)
