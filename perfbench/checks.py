"""Correctness checks for the benchmark's outputs.

Nothing here calls into ``multsquares``: the oracles are written from the
mathematics (Dubouis' statement, a coin-change count of square multisets),
so a fault in the program's own evaluator cannot hide itself.  Each check
returns a list of error strings; an empty list means the output is right.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, List, Optional, Sequence, Set, Tuple

_K4_ODD_EXCEPTIONS = (1, 3, 5, 9, 11, 17, 29, 41)
_K4_EVEN_CORES = (2, 6, 14)
_OFFSETS = (1, 2, 4, 5, 7, 10, 13)


def dubouis_exceptions(k: int, bound: int) -> Set[int]:
    """Integers n <= bound that are not sums of exactly k positive squares.

    Dubouis (1911): for k = 4 they are 1, 3, 5, 9, 11, 17, 29, 41 and
    4^m * {2, 6, 14}; for k >= 5 they are 1..k-1 and k + {1, 2, 4, 5, 7, 10,
    13}, with 33 added when k = 5.
    """
    if k < 4:
        raise ValueError("Dubouis' statement covers k >= 4")
    if k == 4:
        out = {n for n in _K4_ODD_EXCEPTIONS if n <= bound}
        scale = 1
        while 2 * scale <= bound:
            out.update(c * scale for c in _K4_EVEN_CORES if c * scale <= bound)
            scale *= 4
        return out
    out = set(range(1, min(k - 1, bound) + 1))
    out.update(k + d for d in _OFFSETS if k + d <= bound)
    if k == 5 and bound >= 33:
        out.add(33)
    return out


def is_sum_of_k_squares(n: int, k: int) -> bool:
    """Closed-form answer for k >= 4, from Dubouis' statement."""
    return n >= 1 and n not in dubouis_exceptions(k, n)


def square_multiset_counts(max_n: int, max_k: int) -> List[List[int]]:
    """counts[k][n]: multisets of k positive squares summing to n.

    Unbounded coin change with a part-count dimension: each square is a coin
    type, taken in turn, so every multiset is counted exactly once.
    """
    counts = [[0] * (max_n + 1) for _ in range(max_k + 1)]
    counts[0][0] = 1
    for root in range(1, isqrt(max_n) + 1):
        square = root * root
        for parts in range(1, max_k + 1):
            fewer = counts[parts - 1]
            row = counts[parts]
            for total in range(square, max_n + 1):
                row[total] += fewer[total - square]
    return counts


# -- theorem -----------------------------------------------------------------


def check_verdict(k: int, bound: int, report) -> List[str]:
    """A theorem_check report for k >= 4 must pass, with everything pinned."""
    errors = []
    if getattr(report, "k", None) != k:
        errors.append(f"theorem k={k}: report is for k={getattr(report, 'k', None)}")
    if report.all_passed is not True:
        failed = [c.name for c in report.checks if not c.passed]
        errors.append(f"theorem k={k}: verdict {report.all_passed}, failed {failed}")
    pinned = [c for c in report.checks if c.name == f"pinned-to-{bound}"]
    if not pinned or not all(c.passed for c in pinned):
        errors.append(f"theorem k={k}: no passed pinned-to-{bound} check")
    return errors


# -- induction ---------------------------------------------------------------


def _identity_value(n: int, view: str) -> str:
    return str(n * n if view == "square" else n)


def check_trace(steps: Iterable) -> List[str]:
    """Every narrowing keeps the identity and strictly shrinks its set."""
    errors = []
    for index, step in enumerate(steps):
        after = set(step.after)
        if _identity_value(step.variable, step.view) not in after:
            errors.append(
                f"trace step {index} ({step.constraint}) drops the identity "
                f"from f({step.variable}) {step.view} view: {sorted(after)}"
            )
        if step.before is not None and not after < set(step.before):
            errors.append(
                f"trace step {index} ({step.constraint}) does not shrink "
                f"f({step.variable}): {sorted(step.before)} -> {sorted(after)}"
            )
        if len(errors) >= 10:
            break
    return errors


def check_pinned(state, bound: int) -> List[str]:
    """candidates(n) is exactly {n} for every 1 <= n <= bound."""
    bad = []
    for n in range(1, bound + 1):
        values = state.candidates(n)
        if values is None or len(values) != 1:
            bad.append(n)
            continue
        (value,) = values
        if value.re != n or value.im != 0:
            bad.append(n)
    if not bad:
        return []
    return [f"induction k={state.k}: f(n) != n for {len(bad)} n, first {bad[:5]}"]


# -- squares -----------------------------------------------------------------


def check_exceptional_set(k: int, bound: int, report) -> List[str]:
    expected = tuple(sorted(dubouis_exceptions(k, bound)))
    errors = []
    for name in ("computed", "closed_form"):
        got = tuple(getattr(report, name))
        if got != expected:
            errors.append(
                f"verify_dubouis({k}, {bound}).{name} has {len(got)} entries, "
                f"expected {len(expected)}; differs at "
                f"{sorted(set(got) ^ set(expected))[:5]}"
            )
    return errors


def check_count(n: int, k: int, got: int, table: Sequence[Sequence[int]]) -> List[str]:
    expected = table[k][n]
    if got != expected:
        return [f"count_representations({n}, {k}) = {got}, expected {expected}"]
    return []


def check_exists(n: int, k: int, got: bool, count: Optional[int]) -> List[str]:
    """is_representable agrees with count > 0, and with Dubouis for k >= 4."""
    errors = []
    if count is not None and got != (count > 0):
        errors.append(f"is_representable({n}, {k}) = {got} but count is {count}")
    if k >= 4 and got != is_sum_of_k_squares(n, k):
        errors.append(f"is_representable({n}, {k}) = {got} contradicts Dubouis")
    return errors


def check_witness(n: int, k: int, parts: Tuple[int, ...]) -> List[str]:
    """A representation of n(n-1) into k squares with parts below n, or ().

    When n - 1 is a sum of k - 1 positive squares, (n - 1)^2 plus those
    squares is such a representation, so an empty answer is wrong there.
    """
    target = n * (n - 1)
    if not parts:
        if k >= 5 and is_sum_of_k_squares(n - 1, k - 1):
            return [f"no witness for {target} in {k} squares below {n}, one exists"]
        return []
    if (
        len(parts) != k
        or any(p < 1 or p > n - 1 for p in parts)
        or sum(p * p for p in parts) != target
    ):
        return [f"bad witness {parts} for {target} in {k} squares below {n}"]
    return []
