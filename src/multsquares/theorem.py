"""End-to-end verification that the functional equation forces the identity.

For each k >= 4 the checker runs the case's own checks, each of which can
fail (the k = 4 doubling witnesses; for k >= 8 the padded double
representations, the small identity table and the parametric families),
and replays the scripted chain.  The sums of squares the replay feeds the
engine need no check here: each SumOfSquares checks its sum when it is
built, and the engine refuses one whose part count is not k.  The replay's
pinned set S, the arguments it shows have f(s) = s, is the trust base of
the rest: an induction certificate extends S to every n up to a bound, one
witness per n, by the lemma checked in multsquares.certificate (m in S
coprime to n and n*m a sum of k squares of members of S give f(n) = n).
A witness search finds each step and certificate.check_step confirms it in
integer arithmetic.  No solver runs after the replay, whose fixed script
needs no propagation budget.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .constraints import MAX_SOLVER_BOUND, SumOfSquares
from .replay import (
    DOUBLE_REPRESENTATIONS,
    SMALL_IDENTITY_TABLE,
    ReplayMismatchError,
    padded_pairs,
    replay_script,
)
from .solver import certify_induction, solve
from .squares import MAX_K, UnsupportedKError, iter_representations

DEFAULT_BOUND = 300


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class CaseReport(NamedTuple):
    case: str
    k: int
    checks: Tuple[CheckResult, ...]
    verdict: Optional[bool] = None  # None: exploration run, no pass/fail

    @property
    def all_passed(self) -> Optional[bool]:
        if self.verdict is None:
            return None
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "k": self.k,
            "checks": [c.to_dict() for c in self.checks],
            "all_passed": self.all_passed,
        }


LinearForm = Tuple[int, int]  # (a, b) meaning a*l + b


class ParametricIdentity(NamedTuple):
    """Two-term square identity in a parameter l, valid from a threshold on."""

    name: str
    lhs: Tuple[LinearForm, LinearForm]
    rhs: Tuple[LinearForm, LinearForm]
    threshold: int

    def side_poly(self, side: Tuple[LinearForm, LinearForm]) -> Tuple[int, int, int]:
        """Coefficients (c2, c1, c0) of the side's square sum in l."""
        c2 = c1 = c0 = 0
        for a, b in side:
            c2 += a * a
            c1 += 2 * a * b
            c0 += b * b
        return (c2, c1, c0)

    def terms(self, l: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        lhs = tuple(a * l + b for a, b in self.lhs)
        rhs = tuple(a * l + b for a, b in self.rhs)
        return lhs, rhs


ODD_STEP = ParametricIdentity("odd-step", ((2, 1), (1, -2)), ((2, -1), (1, 2)), 5)
EVEN_STEP = ParametricIdentity("even-step", ((2, 0), (1, -5)), ((2, -4), (1, 3)), 6)


def check_parametric(identity: ParametricIdentity) -> CheckResult:
    """Exact validity of one parametric identity for every l from its
    threshold on, with no value of l tried.  Its two sides must expand to
    the same polynomial in l (different ones, of degree at most 2, agree at
    no more than two l), and every linear form a*l + b must have a >= 0 and
    be positive at the threshold (one with a < 0 is below 1 once l >=
    b/(-a)).  A failing detail names the form that falls below 1 first."""
    lhs_poly = identity.side_poly(identity.lhs)
    rhs_poly = identity.side_poly(identity.rhs)
    detail = f"lhs {lhs_poly} vs rhs {rhs_poly}"
    t = identity.threshold
    drops = [  # (first l >= t with a*l + b < 1, form)
        (max(t, -(b // a)) if a < 0 else t, (a, b))
        for a, b in identity.lhs + identity.rhs
        if a < 0 or a * t + b < 1
    ]
    if lhs_poly != rhs_poly:
        detail += "; the sides differ"
    elif drops:
        l, form = min(drops, key=lambda drop: drop[0])
        detail += f"; form {form} is below 1 at l={l}"
    passed = lhs_poly == rhs_poly and not drops
    return CheckResult(f"parametric-{identity.name}", passed, detail)


def _proof_route(
    case: str, k: int, checks: List[CheckResult], bound: int
) -> CaseReport:
    """The tail every case k >= 4 shares after its own identity checks.

    `replay` runs the scripted replay; its pinned set is the
    certificate's trust base.  `induction` extends that set to every n up
    to bound by certify_induction, each step an integer check of the lemma
    in multsquares.certificate, with no solver propagation.
    `pinned-to-<bound>` then requires every n up to bound to be pinned by
    the replay or certified.  A replay mismatch ends the route at the
    failed replay check."""
    try:
        replayed = replay_script(k)
    except ReplayMismatchError as exc:
        checks.append(CheckResult("replay", False, str(exc)))
    else:
        pinned = set(replayed.state.pinned)
        failure = certify_induction(k, pinned, bound)
        missing = [n for n in range(1, bound + 1) if n not in pinned]
        checks += [
            CheckResult("replay", True, "all stage claims match"),
            CheckResult(
                "induction",
                failure is None,
                "" if failure is None else f"at n={failure[0]}: {failure[1]}",
            ),
            CheckResult(
                f"pinned-to-{bound}",
                not missing,
                "" if not missing else f"unpinned: {missing[:10]}",
            ),
        ]
    return CaseReport(case, k, tuple(checks), True)


# the doubling step's witnesses are checked for m = 1..DOUBLING_MAX_M
DOUBLING_MAX_M = 3


def verify_case_k4(bound: int) -> CaseReport:
    """Checks for k = 4: the 4^m doubling step witnesses, then the shared
    proof route."""
    bad = []
    for m in range(1, DOUBLING_MAX_M + 1):
        if next(iter_representations(10 * 4**m, 4, 2 * 4**m - 1), None) is None:
            bad.append(m)
    doubling = CheckResult(
        "doubling-witnesses",
        not bad,
        f"m=1..{DOUBLING_MAX_M}; parts below 2*4^m"
        + ("" if not bad else f"; failed at {bad}"),
    )
    return _proof_route("four-squares", 4, [doubling], bound)


def verify_case_k(k: int, bound: int) -> CaseReport:
    """Checks for k in {5, 6, 7}: the shared proof route alone, whose
    replay feeds the engine each sum of squares the case displays."""
    if k not in (5, 6, 7):
        raise UnsupportedKError("this case verifier handles k in {5, 6, 7}")
    return _proof_route(f"{k}-squares", k, [], bound)


def _pair_check(
    name: str, first: SumOfSquares, second: SumOfSquares, what: str
) -> CheckResult:
    """Whether two padded sums of squares share their target."""
    if first.target == second.target:
        return CheckResult(name, True, f"{what} {first.target}")
    return CheckResult(name, False, f"{what}s {first.target} and {second.target}")


def verify_case_general(k: int, bound: int) -> CaseReport:
    """Checks for k >= 8: padded double representations, the small
    identity table, the parametric families, then the shared proof route.
    The replay settles f on 1..10, its sign witnesses using parts at most
    10, and the induction certificate takes over from n = 11, where the
    paper extends f(n)^2 = n^2 by the parametric families.  The sign pairs
    the 40/32 system allows are solved by the replay's joint check alone,
    and the k-part representation of k^2 + k - 1 is checked by its
    SumOfSquares in the replay."""
    if k < 8:
        raise UnsupportedKError("general case requires k >= 8")
    checks: List[CheckResult] = []

    # the 40 and 32 double representations, padded to k parts
    for name, first, second in padded_pairs(DOUBLE_REPRESENTATIONS, k):
        checks.append(_pair_check(name, first, second, "target"))

    # the small identity table pads to equal-target pairs
    for base, lhs, rhs in padded_pairs(SMALL_IDENTITY_TABLE, k):
        checks.append(_pair_check(f"identity-{base}", lhs, rhs, "padded target"))

    # the parametric identities
    checks += [check_parametric(identity) for identity in (ODD_STEP, EVEN_STEP)]

    return _proof_route("general", k, checks, bound)


def theorem_check(k: int, bound: int = DEFAULT_BOUND) -> CaseReport:
    """Dispatch to the case verifier and require full pinning up to bound;
    k and bound are refused before any case is built."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > MAX_SOLVER_BOUND:
        raise ValueError(f"bound must be at most {MAX_SOLVER_BOUND}")
    if k > MAX_K:
        # before the case verifiers pad any tuple to k parts
        raise ValueError(f"k must be at most {MAX_K}")
    if k in (2, 3):
        # these cases rest on external characterizations; run the engine
        # in exploration mode and report what it pins, with no verdict
        report = solve(k, bound)
        pinned = len(report.pinned)
        return CaseReport(
            case="exploration",
            k=k,
            checks=(
                CheckResult(
                    "exploration",
                    True,
                    f"pinned {pinned} of {bound}; no verdict for k < 4",
                ),
            ),
            verdict=None,
        )
    if k == 4:
        return verify_case_k4(bound)
    if k in (5, 6, 7):
        return verify_case_k(k, bound)
    return verify_case_general(k, bound)
