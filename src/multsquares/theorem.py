"""End-to-end verification that the functional equation forces the identity.

For each k >= 4 the checker replays the case's scripted chain.  The sums
of squares the replay feeds the engine need no check here: each
SumOfSquares checks its sum when it is built, and the engine refuses one
whose part count is not k.  The replay's pinned set S, the arguments it
shows have f(s) = s, and its signless set T, those it shows have
f(t) = +-t, are the trust base of the rest: an induction certificate
extends S to every n up to a bound, one witness per n, by the lemma
checked in multsquares.certificate (m in S coprime to n and n*m a sum of
k squares of members of S or T give f(n) = n).  A witness search finds
each step and certificate.check_step confirms it in integer arithmetic.
No solver runs after the replay, whose fixed script needs no propagation
budget.  Every case reports the same three checks: replay, induction and
pinned-to-<bound>.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .constraints import MAX_SOLVER_BOUND
from .replay import ReplayMismatchError, replay_script
from .solver import certify_induction, solve
from .squares import MAX_K, UnsupportedKError

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
    """Two-term square identity in a parameter l, valid from a threshold on.

    The paper extends f(n)^2 = n^2 past n = 10 by ODD_STEP and EVEN_STEP.
    No case's checks use them: the induction certificate proves f(n) = n
    from n = 4 on by itself."""

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


def _proof_route(case: str, k: int, bound: int) -> CaseReport:
    """The checks every case k >= 4 reports.

    `replay` runs the scripted replay; its pinned and signless sets are
    the certificate's trust base.  `induction` extends that set to every n up
    to bound by certify_induction, each step an integer check of the lemma
    in multsquares.certificate, with no solver propagation.
    `pinned-to-<bound>` then requires every n up to bound to be pinned by
    the replay or certified.  A replay mismatch ends the route at the
    failed replay check."""
    try:
        replayed = replay_script(k)
    except ReplayMismatchError as exc:
        return CaseReport(case, k, (CheckResult("replay", False, str(exc)),), True)
    pinned = set(replayed.state.pinned)
    failure = certify_induction(k, pinned, replayed.state.signless, bound)
    missing = [n for n in range(1, bound + 1) if n not in pinned]
    checks = (
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
    )
    return CaseReport(case, k, checks, True)


def verify_case_k4(bound: int) -> CaseReport:
    """Checks for k = 4: the shared proof route, whose replay ends at
    chain-18."""
    return _proof_route("four-squares", 4, bound)


def verify_case_k(k: int, bound: int) -> CaseReport:
    """Checks for k in {5, 6, 7}: the shared proof route, whose replay
    fixes f(2) and f(3) up to sign and leaves their signs to the
    induction."""
    if k not in (5, 6, 7):
        raise UnsupportedKError("this case verifier handles k in {5, 6, 7}")
    return _proof_route(f"{k}-squares", k, bound)


def verify_case_general(k: int, bound: int) -> CaseReport:
    """Checks for k >= 8: the shared proof route.  The replay settles f(k)
    and f(k - 1), and f(2) and f(3) up to sign, and the induction
    certificate takes over from n = 2, where the paper goes on with the
    sign step, the small identity table and the parametric families.  The
    sign pairs the 40/32 system allows are solved by the replay's joint
    check alone, and the k-part representation of k^2 + k - 1 is checked
    by its SumOfSquares in the replay."""
    if k < 8:
        raise UnsupportedKError("general case requires k >= 8")
    return _proof_route("general", k, bound)


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
