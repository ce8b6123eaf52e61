"""Representations of n as a sum of exactly k squares of positive integers,
and the exceptional sets of integers that have none."""

from __future__ import annotations

from collections import namedtuple
from math import comb, isqrt
from typing import Iterator, List, NamedTuple, Optional, Tuple


# largest bound the exceptional-set DP accepts, and the largest Frobenius
# number arith.nonrepresentable_set accepts; their tables and their time grow
# with the bound
MAX_DP_BOUND = 10**6

# largest k that enumeration, the exceptional-set DP (whose time grows with
# k), the replay and the constraint generator accept; no search recurses,
# but iter_representations still opens one frame per part above 1, so
# lifting this waits for a search on the excess n - k, whose depth is at
# most (n - k) / 3
MAX_K = 500

# largest count table, in coefficients (max n + 1) * (max k + 1); its build
# time grows with the table, to a few seconds at this size
MAX_COUNT_TABLE = 1_500_000

# most representations `multsquares repr` lists without --limit; the count
# (from the table above) can be far larger, e.g. 19,155,428 for n = 1000
# and k = 50, and every listed one is built and printed
MAX_LISTED = 10_000


class UnsupportedKError(ValueError):
    """The closed-form exceptional sets are only defined for k >= 4."""


class Representation(namedtuple("Representation", "target parts")):
    """Canonical non-increasing tuple of positive parts whose squares sum to target."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked; _replace uses it

    def __new__(cls, target: int, parts: Tuple[int, ...]):
        if not parts:
            raise ValueError("a representation needs at least one part")
        prev = None
        total = 0
        for x in parts:
            if x < 1:
                raise ValueError("parts must be positive")
            if prev is not None and x > prev:
                raise ValueError("parts must be non-increasing")
            prev = x
            total += x * x
        if total != target:
            raise ValueError(f"squares sum to {total}, not {target}")
        return super().__new__(cls, target, parts)

    @property
    def k(self) -> int:
        return len(self.parts)


class Enumeration(NamedTuple):
    """Result of enumerating representations, possibly cut off at a limit."""

    target: int
    k: int
    representations: Tuple[Representation, ...]
    truncated: bool


class ExceptionalSetReport(NamedTuple):
    """Exceptional set computed two ways: dynamic programming vs closed form."""

    k: int
    bound: int
    computed: Tuple[int, ...]
    closed_form: Tuple[int, ...]

    @property
    def agree(self) -> bool:
        return self.computed == self.closed_form


# Every cache of this layer lives in these two dicts, so clearing them makes
# the layer cold again.  _exists_memo maps (n, k, mx) to whether n is a sum of
# k squares with every part at most mx; _count_memo holds the one count table
# under "table".  Queries are pure and each write is a single dict
# assignment, so concurrent callers need no lock and get the same answers in
# any order.
_exists_memo: dict = {}
_count_memo: dict = {}


def iter_representations(
    n: int, k: int, max_part: Optional[int] = None
) -> Iterator[Tuple[int, ...]]:
    """Yield canonical part tuples in lexicographically decreasing order.

    Depth-first, largest part first, on an explicit stack whose frames are
    [target left, parts left, next part, scale], so no k can exhaust the
    recursion limit.  parts[i] is the scaled part that frame i last chose;
    the level opened below a chosen part x gets x as its largest part."""
    parts: List[int] = []
    stack: List[list] = []
    mx = n if max_part is None else max_part
    scale = 1
    while True:
        # every part is even when k <= 3 and 4 | n, or k = 4 and 8 | n: x^2
        # mod 8 is 0, 1 or 4, so odd parts leave such a sum at 1, 2 or 3
        # mod 4, or at 4 mod 8 (four odd ones).  Halve the parts while that
        # holds.
        while 1 <= k <= 4 and n >= k and n % (8 if k == 4 else 4) == 0:
            n //= 4
            scale *= 2
            mx //= 2
        if n >= k >= 1:
            hi = min(isqrt(n - (k - 1)), mx)
            if n == k:  # all ones is the only representation: no frame per part
                if hi >= 1:
                    yield (*parts, *(scale,) * k)
            elif k == 1:
                if hi >= 1 and hi * hi == n:
                    yield (*parts, scale * hi)
            # Legendre: no sum of three squares is 7 mod 8, and the descent
            # has left n with no factor 4
            elif k != 3 or n % 8 != 7:
                stack.append([n, k, hi, scale])
        while stack:
            n, k, x, scale = frame = stack[-1]
            if x >= 1 and k * x * x >= n:
                break
            stack.pop()
        else:
            return
        frame[2] = x - 1
        del parts[len(stack) - 1:]
        parts.append(scale * x)
        n, k, mx = n - x * x, k - 1, x


def enumerate_representations(
    n: int, k: int, limit: Optional[int] = None, max_part: Optional[int] = None
) -> Enumeration:
    """Collect representations; complete unless more than `limit` exist."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if k > MAX_K:
        raise ValueError(f"k must be at most {MAX_K}")
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative")
    reps: List[Representation] = []
    truncated = False
    for parts in iter_representations(n, k, max_part):
        if limit is not None and len(reps) == limit:
            truncated = True
            break
        reps.append(Representation(n, parts))
    return Enumeration(n, k, tuple(reps), truncated)


def _settle(n: int, k: int, mx: int):
    """Answer _exists(n, k, mx) without a search when possible: (answer,
    None), or (None, key) when the memo key still has to be searched."""
    if n < k or k < 1:
        return False, None
    mx = min(mx, isqrt(n - (k - 1)))
    if mx < 1:
        return False, None
    if k == 1:
        return mx * mx == n, None
    key = (n, k, mx)
    hit = _exists_memo.get(key)
    if hit is not None:
        return hit, None
    if mx == 1:  # k parts of 1
        _exists_memo[key] = n == k
        return n == k, None
    return None, key


def _exists(n: int, k: int, mx: int) -> bool:
    """True iff n is a sum of k positive squares with every part at most mx.

    Depth-first, largest part first, on an explicit stack whose frames are
    [memo key, next part to try], so k is not bounded by the recursion
    limit.  Each searched key is memoised when its frame closes."""
    found, key = _settle(n, k, mx)
    stack: List[list] = []
    while key is not None or stack:
        if key is not None:
            stack.append([key, key[2]])
        elif found:
            _exists_memo[stack.pop()[0]] = True
            continue
        frame = stack[-1]
        (n, k, _), x = frame
        if x < 1 or k * x * x < n:
            _exists_memo[stack.pop()[0]] = False
            found, key = False, None
        else:
            frame[1] = x - 1
            found, key = _settle(n - x * x, k - 1, x)
    return found


def _build_count_table(n: int, k: int) -> tuple:
    """Coin change over the squares 1, 4, 9, ... in increasing order: polys[j]
    holds, as coefficient t, the number of multisets of j squares summing to
    t <= n, packed `width` bits per coefficient into one int.  No count
    exceeds C(isqrt(n) + k - 1, k), the number of k-multisets of the usable
    squares, so no carry crosses a field."""
    width = comb(isqrt(n) + k - 1, k).bit_length()
    polys = [1] + [0] * k
    for x in range(1, isqrt(n) + 1):
        shift = x * x * width
        # only the terms that stay at t <= n after the shift
        keep = (1 << ((n + 1) * width - shift)) - 1
        for j in range(1, k + 1):
            polys[j] += (polys[j - 1] & keep) << shift
    return n, k, width, polys


def _count_table(n: int, k: int) -> tuple:
    """The cached table if it covers (n, k); else the union of the two when
    that fits MAX_COUNT_TABLE, else the query's own table.  A union at least
    doubles the cached n, so a run of rising n rebuilds O(log n) times."""
    table = _count_memo.get("table")
    if table is not None:
        have_n, have_k = table[:2]
        if n <= have_n and k <= have_k:
            return table
        union = (max(n, 2 * have_n) if n > have_n else have_n), max(k, have_k)
        if (union[0] + 1) * (union[1] + 1) <= MAX_COUNT_TABLE:
            n, k = union
    if (n + 1) * (k + 1) > MAX_COUNT_TABLE:
        raise ValueError(f"(n + 1) * (k + 1) must be at most {MAX_COUNT_TABLE}")
    table = _count_memo["table"] = _build_count_table(n, k)
    return table


def is_representable(n: int, k: int) -> bool:
    """True iff n is a sum of exactly k squares of positive integers."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return _exists(n, k, isqrt(n))


def count_representations(n: int, k: int) -> int:
    """Number of canonical representations of n into k positive squares.
    Read from a count table capped at MAX_COUNT_TABLE coefficients."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if n < k:
        return 0
    if k == 1:
        return int(isqrt(n) ** 2 == n)
    _, _, width, polys = _count_table(n, k)
    return (polys[k] >> (n * width)) & ((1 << width) - 1)


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
    The bitmask grows with bound, so bound is capped at MAX_DP_BOUND, and
    the time with k, so k is capped at MAX_K."""
    if k < 1 or bound < 1:
        raise ValueError("k and bound must be positive")
    if k > MAX_K:
        raise ValueError(f"k must be at most {MAX_K}")
    if bound > MAX_DP_BOUND:
        raise ValueError(f"bound must be at most {MAX_DP_BOUND}")
    bits = format(_representable_mask(k, bound), f"0{bound + 1}b")[::-1]
    out = []
    n = bits.find("0", 1)
    while n != -1:
        out.append(n)
        n = bits.find("0", n + 1)
    return out


def verify_dubouis(k: int, bound: int) -> ExceptionalSetReport:
    """Cross-check the DP exceptional set against the closed forms."""
    if k < 4:
        raise UnsupportedKError("closed forms require k >= 4")
    computed = tuple(exceptional_set(k, bound))
    closed = tuple(n for n in range(1, bound + 1) if is_dubouis_exception(n, k))
    return ExceptionalSetReport(k, bound, computed, closed)
