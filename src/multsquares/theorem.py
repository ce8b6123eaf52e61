"""End-to-end verification that the functional equation forces the identity.

For each k >= 4 the checker validates every displayed identity behind the
deduction (with exact algebra for the k >= 8 constructions) and replays the
scripted chain.  The replay's pinned set S, the arguments it shows have
f(s) = s, is the trust base of the rest: an induction certificate extends S
to every n up to a bound, one witness per n, by the lemma checked in
multsquares.certificate (m in S coprime to n and n*m a sum of k squares of
members of S give f(n) = n).  A witness search finds each step and
certificate.check_step confirms it in integer arithmetic.  No solver runs
after the replay, whose fixed script needs no propagation budget.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .constraints import MAX_SOLVER_BOUND, SumOfSquares
from .replay import (
    DOUBLE_REPRESENTATIONS,
    EVEN_STEP,
    ODD_STEP,
    SMALL_IDENTITY_TABLE,
    ParametricIdentity,
    ReplayMismatchError,
    construction,
    displayed_identities,
    padded_pairs,
    replay_script,
)
from .solver import certify_induction, solve
from .squares import UnsupportedKError, iter_representations

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
    manifest: Tuple[str, ...] = ()
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
            "manifest": list(self.manifest),
            "all_passed": self.all_passed,
        }


def check_parametric(identity: ParametricIdentity, l_max: int) -> CheckResult:
    """Exact validity of one parametric identity: its two sides expand to the
    same polynomial in l, and every l from the threshold on gives equal
    square sums of positive terms.

    Equal polynomials with every linear form a*l + b non-decreasing (a >= 0)
    and positive at the threshold prove it for every such l.  Otherwise
    each l from the threshold to l_max is checked, and the detail names
    the first failure."""
    lhs_poly = identity.side_poly(identity.lhs)
    rhs_poly = identity.side_poly(identity.rhs)
    detail = f"lhs {lhs_poly} vs rhs {rhs_poly}"
    if lhs_poly == rhs_poly and all(
        a >= 0 and a * identity.threshold + b >= 1
        for a, b in identity.lhs + identity.rhs
    ):
        return CheckResult(f"parametric-{identity.name}", True, detail)
    bad = None
    for l in range(identity.threshold, l_max + 1):
        lhs, rhs = identity.terms(l)
        if sum(x * x for x in lhs) != sum(x * x for x in rhs):
            bad = (l, "sum mismatch")
        elif any(x < 1 for x in lhs + rhs):
            bad = (l, "non-positive term")
        if bad is not None:
            detail += f"; first failure {bad}"
            break
    return CheckResult(
        f"parametric-{identity.name}", lhs_poly == rhs_poly and bad is None, detail
    )


def _check_displayed(k: int) -> Tuple[List[CheckResult], Tuple[str, ...]]:
    """A check per sum of squares the paper displays for k, and the manifest
    of their targets.  They are read from the replay script, where each
    SumOfSquares checked its sum when it was built (a wrong one raises
    ValueError there)."""
    shown = displayed_identities(k)
    checks = [CheckResult(f"displayed:{c.target}:{c.parts}", True) for c in shown]
    return checks, tuple(f"target:{c.target}" for c in shown)


def _proof_route(
    case: str,
    k: int,
    checks: List[CheckResult],
    manifest: Tuple[str, ...],
    bound: int,
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
    return CaseReport(case, k, tuple(checks), manifest, True)


# the doubling step's witnesses are checked for m = 1..DOUBLING_MAX_M
DOUBLING_MAX_M = 3


def verify_case_k4(bound: int) -> CaseReport:
    """Checks for k = 4: displayed identities and the 4^m doubling step
    witnesses, then the shared proof route."""
    checks, manifest = _check_displayed(4)
    bad = []
    for m in range(1, DOUBLING_MAX_M + 1):
        if next(iter_representations(10 * 4**m, 4, 2 * 4**m - 1), None) is None:
            bad.append(m)
    checks.append(
        CheckResult(
            "doubling-witnesses",
            not bad,
            f"m=1..{DOUBLING_MAX_M}; parts below 2*4^m"
            + ("" if not bad else f"; failed at {bad}"),
        )
    )
    return _proof_route("four-squares", 4, checks, manifest, bound)


def verify_case_k(k: int, bound: int) -> CaseReport:
    """Checks for k in {5, 6, 7}: displayed identities, then the shared
    proof route."""
    if k not in (5, 6, 7):
        raise UnsupportedKError("this case verifier handles k in {5, 6, 7}")
    checks, manifest = _check_displayed(k)
    return _proof_route(f"{k}-squares", k, checks, manifest, bound)


def _pair_check(
    name: str, first: SumOfSquares, second: SumOfSquares, what: str
) -> CheckResult:
    """Whether two padded sums of squares share their target."""
    if first.target == second.target:
        return CheckResult(name, True, f"{what} {first.target}")
    return CheckResult(name, False, f"{what}s {first.target} and {second.target}")


def verify_case_general(k: int, bound: int) -> CaseReport:
    """Checks for k >= 8: padded double representations, the semigroup
    construction, the small identity table, the parametric families, then
    the shared proof route.  The sign pairs the 40/32 system allows are
    solved by the replay's joint check alone."""
    if k < 8:
        raise UnsupportedKError("general case requires k >= 8")
    checks: List[CheckResult] = []

    # the 40 and 32 double representations, padded to k parts
    for name, first, second in padded_pairs(DOUBLE_REPRESENTATIONS, k):
        checks.append(_pair_check(name, first, second, "target"))

    # the k-part representation of k^2 + k - 1: after its k - 1, a 2s and
    # b 3s with 3a + 8b = 2k - 1, then spare ones.  The replay builds the
    # same parts as a SumOfSquares, which checks their sum (a wrong one
    # raises ValueError there).
    parts = construction(k)
    a, b, spare = (parts[1:].count(x) for x in (2, 3, 1))
    checks.append(
        CheckResult(
            "semigroup-2k-1",
            3 * a + 8 * b == 2 * k - 1,
            f"3*{a}+8*{b}={2 * k - 1}, spare ones {spare}",
        )
    )
    checks.append(CheckResult("construction", True, f"parts {parts}"))

    # the small identity table pads to equal-target pairs
    for base, lhs, rhs in padded_pairs(SMALL_IDENTITY_TABLE, k):
        checks.append(_pair_check(f"identity-{base}", lhs, rhs, "padded target"))

    # the parametric identities
    checks += [check_parametric(identity, 1000) for identity in (ODD_STEP, EVEN_STEP)]

    manifest = (
        "target:40",
        "target:32",
        "target:k^2+k-1",
        "small-identity-table",
        "parametric-odd",
        "parametric-even",
    )
    return _proof_route("general", k, checks, manifest, bound)


def theorem_check(k: int, bound: int = DEFAULT_BOUND) -> CaseReport:
    """Dispatch to the case verifier and require full pinning up to bound."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > MAX_SOLVER_BOUND:
        raise ValueError(f"bound must be at most {MAX_SOLVER_BOUND}")
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
