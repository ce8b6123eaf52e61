"""Representations of n as a sum of exactly k squares of positive integers,
and the exceptional sets of integers that have none."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import isqrt
from typing import Iterator, List, Optional, Tuple


# largest bound the exceptional-set DP accepts; its bitmask and its time
# grow with the bound
MAX_DP_BOUND = 10**6

# largest k the replay and the constraint generator accept;
# iter_representations recurses once per part, so a k near Python's
# recursion limit would end in RecursionError
MAX_K = 500


class UnsupportedKError(ValueError):
    """The closed-form exceptional sets are only defined for k >= 4."""


@dataclass(frozen=True)
class Representation:
    """Canonical non-increasing tuple of positive parts whose squares sum to target."""

    target: int
    parts: Tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a representation needs at least one part")
        prev = None
        total = 0
        for x in self.parts:
            if x < 1:
                raise ValueError("parts must be positive")
            if prev is not None and x > prev:
                raise ValueError("parts must be non-increasing")
            prev = x
            total += x * x
        if total != self.target:
            raise ValueError(f"squares sum to {total}, not {self.target}")

    @property
    def k(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class Enumeration:
    """Result of enumerating representations, possibly cut off at a limit."""

    target: int
    k: int
    representations: Tuple[Representation, ...]
    truncated: bool


@dataclass(frozen=True)
class ExceptionalSetReport:
    """Exceptional set computed two ways: dynamic programming vs closed form."""

    k: int
    bound: int
    computed: Tuple[int, ...]
    closed_form: Tuple[int, ...]

    @property
    def agree(self) -> bool:
        return self.computed == self.closed_form


# Shared memo tables, guarded for concurrent use.  Workers that want private
# tables can simply call the underlying recursions with their own dicts; the
# results are identical either way because every query is a pure function.
_memo_lock = threading.Lock()
_exists_memo: dict = {}
_count_memo: dict = {}


def iter_representations(
    n: int, k: int, max_part: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """Yield canonical part tuples in lexicographically decreasing order."""
    if n < k or k < 1:
        return
    hi = isqrt(n - (k - 1))
    if max_part is not None:
        hi = min(hi, max_part)
    if k == 1:
        r = isqrt(n)
        if r * r == n and r <= hi:
            yield (r,)
        return
    for x in range(hi, 0, -1):
        if k * x * x < n:
            break
        for rest in iter_representations(n - x * x, k - 1, x):
            yield (x,) + rest


def enumerate_representations(
    n: int, k: int, limit: Optional[int] = None, max_part: Optional[int] = None
) -> Enumeration:
    """Collect representations; complete unless more than `limit` exist."""
    reps: List[Representation] = []
    truncated = False
    for parts in iter_representations(n, k, max_part):
        if limit is not None and len(reps) == limit:
            truncated = True
            break
        reps.append(Representation(n, parts))
    return Enumeration(n, k, tuple(reps), truncated)


def _exists(n: int, k: int, mx: int) -> bool:
    if n < k or k < 1:
        return False
    mx = min(mx, isqrt(n - (k - 1)))
    if mx < 1:
        return False
    if k == 1:
        r = isqrt(n)
        return r * r == n and r <= mx
    key = (n, k, mx)
    with _memo_lock:
        hit = _exists_memo.get(key)
    if hit is not None:
        return hit
    result = False
    for x in range(mx, 0, -1):
        if k * x * x < n:
            break
        if _exists(n - x * x, k - 1, x):
            result = True
            break
    with _memo_lock:
        _exists_memo[key] = result
    return result


def _count(n: int, k: int, mx: int) -> int:
    if n < k or k < 1:
        return 0
    mx = min(mx, isqrt(n - (k - 1)))
    if mx < 1:
        return 0
    if k == 1:
        r = isqrt(n)
        return 1 if r * r == n and r <= mx else 0
    key = (n, k, mx)
    with _memo_lock:
        hit = _count_memo.get(key)
    if hit is not None:
        return hit
    total = 0
    for x in range(mx, 0, -1):
        if k * x * x < n:
            break
        total += _count(n - x * x, k - 1, x)
    with _memo_lock:
        _count_memo[key] = total
    return total


def is_representable(n: int, k: int) -> bool:
    """True iff n is a sum of exactly k squares of positive integers."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return _exists(n, k, isqrt(n))


def count_representations(n: int, k: int) -> int:
    """Number of canonical representations of n into k positive squares."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return _count(n, k, isqrt(n))


_K4_ODD = frozenset({1, 3, 5, 9, 11, 17, 29, 41})
_K4_EVEN_CORES = frozenset({2, 6, 14})


def is_dubouis_exception(n: int, k: int) -> bool:
    """Closed-form membership test for the set of k-square exceptions."""
    if k < 4:
        raise UnsupportedKError("closed forms require k >= 4")
    if n < 1:
        raise ValueError("n must be positive")
    if k == 4:
        if n in _K4_ODD:
            return True
        core = n
        while core % 4 == 0:
            core //= 4
        return core in _K4_EVEN_CORES
    if k == 5 and n == 33:
        return True
    if n < k:
        return True
    return n - k in (1, 2, 4, 5, 7, 10, 13)


def _representable_mask(k: int, bound: int) -> int:
    """Bitmask with bit n set iff n <= bound is a sum of k positive squares."""
    squares = [i * i for i in range(1, isqrt(bound) + 1)]
    base = 0
    for s in squares:
        base |= 1 << s
    mask = base
    clip = (1 << (bound + 1)) - 1
    for _ in range(k - 1):
        acc = 0
        for s in squares:
            acc |= mask << s
        mask = acc & clip
    return mask


def exceptional_set(k: int, bound: int) -> List[int]:
    """All n <= bound with no representation, by dynamic programming.
    The bitmask grows with bound, so bound is capped at MAX_DP_BOUND."""
    if k < 1 or bound < 1:
        raise ValueError("k and bound must be positive")
    if bound > MAX_DP_BOUND:
        raise ValueError(f"bound must be at most {MAX_DP_BOUND}")
    mask = _representable_mask(k, bound)
    return [n for n in range(1, bound + 1) if not (mask >> n) & 1]


def verify_dubouis(k: int, bound: int) -> ExceptionalSetReport:
    """Cross-check the DP exceptional set against the closed forms."""
    if k < 4:
        raise UnsupportedKError("closed forms require k >= 4")
    computed = tuple(exceptional_set(k, bound))
    closed = tuple(n for n in range(1, bound + 1) if is_dubouis_exception(n, k))
    return ExceptionalSetReport(k, bound, computed, closed)
