"""Scripted re-execution of the deduction chains, case by case.

Each script is a sequence of stages.  A stage feeds the engine exactly the
equation instances that the corresponding prose step uses, propagates to a
fixed point, and then asserts that the engine's candidate sets match the
claimed intermediate results.  A mismatch raises ReplayMismatchError.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .arith import represent_in_semigroup
from .constraints import Constraint, Multiplicative, SumOfSquares
from .gaussian import Rational, gauss
from .solver import SolverState, TraceStep, induction_sweep
from .squares import MAX_K


class ReplayMismatchError(AssertionError):
    """The engine's candidate set differs from the scripted claim; the
    variable is one argument, or a tuple of them for a joint claim."""

    def __init__(
        self,
        stage: str,
        variable: Union[int, Tuple[int, ...]],
        expected: str,
        got: str,
    ):
        self.stage = stage
        self.variable = variable
        self.expected = expected
        self.got = got
        if isinstance(variable, int):
            subject = f"f({variable})"
        else:
            subject = "(" + ",".join(f"f({v})" for v in variable) + ")"
        super().__init__(f"stage {stage!r}: {subject} expected {expected}, got {got}")


def _vset(*nums) -> frozenset:
    return frozenset(gauss(x) for x in nums)


def _pm(n: int) -> frozenset:
    return frozenset({gauss(n), gauss(-n)})


def format_candidates(values: Optional[frozenset]) -> str:
    """A candidate set as exact strings, "{-2,2}", or "unknown"."""
    if values is None:
        return "unknown"
    return "{" + ",".join(sorted(str(v) for v in values)) + "}"


class Expectation(NamedTuple):
    """Claim about candidates(variable) at the end of a stage."""

    variable: int
    values: frozenset
    mode: str = "exact"  # "exact" or "within" (subset of the claim)

    def check(self, stage: str, state: SolverState) -> dict:
        got = state.candidates(self.variable)
        if self.mode == "exact":
            ok = got == self.values
        else:
            ok = got is not None and got <= self.values
        expected_s = format_candidates(self.values)
        got_s = format_candidates(got)
        if not ok:
            raise ReplayMismatchError(stage, self.variable, expected_s, got_s)
        return {
            "variable": self.variable,
            "mode": self.mode,
            "expected": expected_s,
            "got": got_s,
        }


class ReplayStage(NamedTuple):
    name: str
    constraints: Tuple[Constraint, ...] = ()
    expects: Tuple[Expectation, ...] = ()
    induction_range: Optional[Tuple[int, int]] = None
    joint_pair_check: bool = False  # the k >= 8 two-equation system check


class StageOutcome(NamedTuple):
    name: str
    claims: Tuple[dict, ...]
    steps: int

    def to_dict(self) -> dict:
        return {"name": self.name, "claims": list(self.claims), "steps": self.steps}


class ReplayResult(NamedTuple):
    k: int
    stages: Tuple[StageOutcome, ...]
    steps: Tuple[TraceStep, ...]
    state: SolverState

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "stages": [s.to_dict() for s in self.stages],
            "steps": [s.to_dict() for s in self.steps],
        }


def _sos(target: int, *parts: int) -> SumOfSquares:
    return SumOfSquares(target, tuple(sorted(parts, reverse=True)))


def _stages_k4() -> List[ReplayStage]:
    return [
        ReplayStage(
            "seed",
            (_sos(4, 1, 1, 1, 1),),
            (Expectation(4, _vset(4)),),
        ),
        ReplayStage(
            "chain-12",
            (_sos(12, 3, 1, 1, 1), Multiplicative(12, 3, 4)),
            (Expectation(3, _vset(1, 3)),),
        ),
        ReplayStage(
            "chain-20-28",
            (
                _sos(20, 3, 3, 1, 1),
                Multiplicative(20, 4, 5),
                _sos(28, 3, 3, 3, 1),
                Multiplicative(28, 4, 7),
            ),
            (Expectation(5, _vset(1, 5)), Expectation(7, _vset(1, 7))),
        ),
        ReplayStage(
            "chain-35",
            (_sos(35, 4, 3, 3, 1), Multiplicative(35, 5, 7)),
            (
                Expectation(3, _vset(3)),
                Expectation(5, _vset(5)),
                Expectation(7, _vset(7)),
            ),
        ),
        ReplayStage(
            "chain-10-7",
            (_sos(10, 2, 2, 1, 1), Multiplicative(10, 2, 5), _sos(7, 2, 1, 1, 1)),
            (Expectation(2, _vset(2)),),
        ),
        ReplayStage(
            "chain-18",
            (_sos(18, 3, 2, 2, 1), Multiplicative(18, 2, 9)),
            (Expectation(9, _vset(9)),),
        ),
    ]


def _stages_k5() -> List[ReplayStage]:
    return [
        ReplayStage(
            "seed",
            (_sos(5, 1, 1, 1, 1, 1),),
            (Expectation(5, _vset(5)),),
        ),
        ReplayStage(
            "chain-20",
            (
                _sos(20, 4, 1, 1, 1, 1),
                _sos(20, 2, 2, 2, 2, 2),
                Multiplicative(20, 4, 5),
            ),
            (Expectation(4, _vset(1, 4)),),
        ),
        ReplayStage(
            "chain-29",
            (
                _sos(29, 5, 1, 1, 1, 1),
                _sos(29, 3, 3, 3, 1, 1),
                _sos(29, 4, 2, 2, 2, 1),
            ),
            (
                Expectation(29, _vset(29)),
                Expectation(2, _pm(2)),
                Expectation(3, _pm(3)),
                Expectation(4, _vset(4)),
            ),
        ),
        ReplayStage(
            "induction",
            (),
            tuple(Expectation(n, _vset(n)) for n in range(2, 21)),
            induction_range=(2, 20),
        ),
    ]


def _stages_k6() -> List[ReplayStage]:
    return [
        ReplayStage(
            "seed",
            (_sos(6, 1, 1, 1, 1, 1, 1),),
            (Expectation(6, _vset(6)),),
        ),
        ReplayStage(
            "block-30-41-21",
            (
                _sos(30, 5, 1, 1, 1, 1, 1),
                _sos(30, 3, 3, 3, 1, 1, 1),
                _sos(30, 4, 2, 2, 2, 1, 1),
                Multiplicative(30, 5, 6),
                _sos(41, 6, 1, 1, 1, 1, 1),
                _sos(21, 4, 1, 1, 1, 1, 1),
                _sos(21, 2, 2, 2, 2, 2, 1),
            ),
            (
                Expectation(2, _pm(2)),
                Expectation(3, _pm(3)),
                Expectation(4, _pm(4)),
                Expectation(5, _vset(5)),
            ),
        ),
    ]


def _stages_k7() -> List[ReplayStage]:
    return [
        ReplayStage(
            "seed",
            (_sos(7, 1, 1, 1, 1, 1, 1, 1),),
            (Expectation(7, _vset(7)),),
        ),
        ReplayStage(
            "chain-55",
            (_sos(55, 7, 1, 1, 1, 1, 1, 1), _sos(55, 5, 5, 1, 1, 1, 1, 1)),
            (Expectation(55, _vset(55)), Expectation(5, _pm(5))),
        ),
        ReplayStage(
            "block-31-42",
            (
                _sos(31, 3, 3, 3, 1, 1, 1, 1),
                _sos(31, 5, 1, 1, 1, 1, 1, 1),
                # the 42 = 36 + 6 squares instance reads its largest part as
                # a single 6, whose split form writes f(6)^2 as f(2)^2 f(3)^2
                _sos(42, 6, 1, 1, 1, 1, 1, 1),
                _sos(42, 4, 3, 2, 2, 2, 2, 1),
                _sos(42, 5, 3, 2, 1, 1, 1, 1),
            ),
            (
                Expectation(2, _pm(2)),
                Expectation(3, _pm(3)),
                Expectation(4, _pm(4)),
                Expectation(5, _pm(5)),
            ),
        ),
    ]


# -- the scripted identities of the general case (k >= 8) -------------------


def pad(core: Sequence[int], k: int) -> Tuple[int, ...]:
    """The core's parts in non-increasing order, padded with ones to k parts."""
    return tuple(sorted(core, reverse=True)) + (1,) * (k - len(core))


def construction(k: int) -> Tuple[int, ...]:
    """k parts whose squares sum to k^2 + k - 1: one k - 1, then a 2s and
    b 3s with 3a + 8b = 2k - 1, then ones."""
    twos, threes = represent_in_semigroup(2 * k - 1, 3, 8)
    return (k - 1,) + (3,) * threes + (2,) * twos + (1,) * (k - twos - threes - 1)


# Pairs of cores whose paddings share a target (k + 35 and k + 24); the two
# equations they give fix (f(2), f(3)) up to EXPECTED_SIGN_PAIRS.
DOUBLE_REPRESENTATIONS = (
    ("double-40", (6,), (3, 3, 3, 3, 2)),
    ("double-32", (3, 3, 3), (2,) * 8),
)

EXPECTED_SIGN_PAIRS = frozenset(
    (gauss(sa * a), gauss(sb * b))
    for (a, b) in ((1, 1), (2, 3))
    for sa in (1, -1)
    for sb in (1, -1)
)

def _padded_sos(core: Sequence[int], k: int) -> SumOfSquares:
    parts = pad(core, k)
    return SumOfSquares(sum(x * x for x in parts), parts)


def _stages_general(k: int) -> List[ReplayStage]:
    """The script of case k >= 8: f(k) = k, the k(k-1) growth step, the
    40/32 double representations and the construction of k^2 + k - 1
    settle f(k - 1), and f(2) and f(3) up to sign.  The 40/32 sums need no
    f(6) = f(2) f(3): their split forms write f(6)^2 as f(2)^2 f(3)^2.
    No stage fixes those two signs: a certificate witness reads its parts
    only through their squares, so the theorem's induction certificate
    takes over from n = 2, and pins 6 as the coprime product 2*3."""
    return [
        ReplayStage(
            "seed",
            (_padded_sos((), k),),
            (Expectation(k, _vset(k)),),
        ),
        ReplayStage(
            "growth-k(k-1)",
            (_padded_sos((k - 1,), k), Multiplicative(k * (k - 1), k - 1, k)),
            (Expectation(k - 1, _vset(1, k - 1)),),
        ),
        ReplayStage(
            "double-representations-40-32",
            tuple(
                _padded_sos(core, k)
                for _, first, second in DOUBLE_REPRESENTATIONS
                for core in (first, second)
            ),
            (
                Expectation(2, _vset(1, -1, 2, -2), "within"),
                Expectation(3, _vset(1, -1, 3, -3), "within"),
            ),
            joint_pair_check=True,
        ),
        ReplayStage(
            "construction-k^2+k-1",
            (
                _padded_sos((k,), k),
                SumOfSquares(k * k + k - 1, construction(k)),
            ),
            (
                Expectation(2, _pm(2)),
                Expectation(3, _pm(3)),
                Expectation(k - 1, _vset(k - 1)),
            ),
        ),
    ]


def double_representations_hold(f2: Rational, f3: Rational) -> bool:
    """Whether the exact rationals (f(2), f(3)) satisfy the equation of
    each pair in DOUBLE_REPRESENTATIONS, with f(1) = 1 and f(6) = f(2) f(3).
    The ones that pad both cores to k parts cancel, so each core is padded
    only to the longer one's length."""
    f = {1: 1, 2: f2, 3: f3, 6: f2 * f3}

    def square_sum(core: Sequence[int], length: int) -> Rational:
        return sum(f[x] * f[x] for x in pad(core, length))

    for _, first, second in DOUBLE_REPRESENTATIONS:
        length = max(len(first), len(second))
        if square_sum(first, length) != square_sum(second, length):
            return False
    return True


def _format_pairs(pairs) -> str:
    """A set of (f(2), f(3)) pairs as exact strings, sorted."""
    return "{" + ",".join(sorted(f"({a},{b})" for a, b in pairs)) + "}"


def _joint_pair_solutions(state: SolverState) -> set:
    """Pairs (a, b) from candidates(2) x candidates(3) satisfying both
    double-representation equations exactly.  The check runs over the
    state's exact rationals; only the solutions become GaussianRational."""
    cand2 = state._values.get(2) or ()
    cand3 = state._values.get(3) or ()
    return {
        (gauss(a), gauss(b))
        for a in cand2
        for b in cand3
        if double_representations_hold(a, b)
    }


# the scripts of k = 4..7 depend on nothing else, so each is built once, at
# import, and shared by every replay_script call; building one checks the
# square sum of each of its SumOfSquares
_FIXED_SCRIPTS = {
    4: tuple(_stages_k4()),
    5: tuple(_stages_k5()),
    6: tuple(_stages_k6()),
    7: tuple(_stages_k7()),
}


def _stages(k: int) -> Sequence[ReplayStage]:
    """The replay script of case k."""
    if k < 4:
        raise ValueError("replay scripts exist for k >= 4")
    if k in _FIXED_SCRIPTS:
        return _FIXED_SCRIPTS[k]
    return _stages_general(k)


def replay_script(k: int) -> ReplayResult:
    """Run the scripted deduction for k, asserting every claimed intermediate."""
    if k > MAX_K:
        raise ValueError(f"k must be at most {MAX_K}")
    stages = _stages(k)  # refuses k < 4 before SolverState refuses k < 2
    bound = max(4 * k, 60)
    state = SolverState(k, bound)
    outcomes = []
    for stage in stages:
        before = len(state.trace)
        if stage.constraints:
            state.add_constraints(stage.constraints)
            state.propagate()
        if stage.induction_range:
            # a failure shows as the first unpinned n in the stage's claims
            induction_sweep(state, *stage.induction_range)
        claims = [e.check(stage.name, state) for e in stage.expects]
        if stage.joint_pair_check:
            got = _joint_pair_solutions(state)
            if got != EXPECTED_SIGN_PAIRS:
                raise ReplayMismatchError(
                    stage.name,
                    (2, 3),
                    _format_pairs(EXPECTED_SIGN_PAIRS),
                    _format_pairs(got),
                )
            claims.append(
                {
                    "variable": "(2,3)",
                    "mode": "joint",
                    "expected": "{(+-1,+-1),(+-2,+-3)}",
                    "got": "{(+-1,+-1),(+-2,+-3)}",
                }
            )
        outcomes.append(
            StageOutcome(stage.name, tuple(claims), len(state.trace) - before)
        )
    return ReplayResult(k, tuple(outcomes), tuple(state.trace), state)
