"""Exact integer utilities: factorization, coprime splits, and the
two-generator numerical semigroup machinery used by the k >= 8 argument."""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import List, Tuple

from .squares import MAX_DP_BOUND


class NotCoprimeError(ValueError):
    """The two semigroup generators share a common factor."""


class NonRepresentableError(ValueError):
    """The target has no representation x*a + y*b with x, y >= 0."""


class FactoredInteger(namedtuple("FactoredInteger", "n factors")):
    """A positive integer together with its prime-power factorization."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked; _replace uses it

    def __new__(cls, n: int, factors: Tuple[Tuple[int, int], ...]):
        if n < 1:
            raise ValueError("n must be positive")
        prod = 1
        last_prime = 0
        for p, e in factors:
            if p <= last_prime or e < 1:
                raise ValueError("factors must have increasing primes, exponents >= 1")
            last_prime = p
            prod *= p**e
        if prod != n:
            raise ValueError(f"factors do not multiply to {n}")
        return super().__new__(cls, n, factors)

    @property
    def prime_powers(self) -> Tuple[int, ...]:
        return tuple(p**e for p, e in self.factors)


def factorize(n: int) -> FactoredInteger:
    """Factor n >= 1 by trial division; n = 1 yields an empty factor list."""
    if n < 1:
        raise ValueError("n must be positive")
    m = n
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                e += 1
                m //= d
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return FactoredInteger(n, tuple(factors))


def coprime_splits(n: int) -> List[Tuple[int, int]]:
    """All unordered pairs (m, l) with m*l = n, gcd(m, l) = 1, 2 <= m < l.

    Empty for n = 1 and for prime powers.
    """
    pps = factorize(n).prime_powers
    r = len(pps)
    if r < 2:
        return []
    pairs = []
    # subsets containing the first prime power, proper and non-empty complement
    for mask in range(1 << (r - 1)):
        m = pps[0]
        for i in range(1, r):
            if mask & (1 << (i - 1)):
                m *= pps[i]
        l = n // m
        if l == 1:
            continue
        pairs.append((min(m, l), max(m, l)))
    pairs.sort()
    return pairs


class SemigroupPair(namedtuple("SemigroupPair", "a b")):
    """Coprime generators a, b >= 2 of the numerical semigroup {xa + yb}."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked; _replace uses it

    def __new__(cls, a: int, b: int):
        if a < 2 or b < 2:
            raise ValueError("generators must be >= 2")
        if gcd(a, b) != 1:
            raise NotCoprimeError(f"gcd({a}, {b}) != 1")
        return super().__new__(cls, a, b)


def frobenius_number(a: int, b: int) -> int:
    """Largest integer not expressible as xa + yb with x, y >= 0."""
    pair = SemigroupPair(a, b)
    return pair.a * pair.b - pair.a - pair.b


def nonrepresentable_set(a: int, b: int) -> List[int]:
    """Sorted positive integers with no representation xa + yb (x, y >= 0).
    Its table grows with the Frobenius number, so that is capped at
    MAX_DP_BOUND."""
    pair = SemigroupPair(a, b)
    limit = pair.a * pair.b - pair.a - pair.b
    if limit <= 0:
        return []
    if limit > MAX_DP_BOUND:
        raise ValueError(f"Frobenius number must be at most {MAX_DP_BOUND}")
    reachable = bytearray(limit + 1)
    reachable[0] = 1
    for g in (pair.a, pair.b):
        for t in range(g, limit + 1):
            if reachable[t - g]:
                reachable[t] = 1
    return [t for t in range(1, limit + 1) if not reachable[t]]


def represent_in_semigroup(t: int, a: int, b: int) -> Tuple[int, int]:
    """Some (x, y) with xa + yb = t, x, y >= 0, choosing maximal y.

    The maximal-y tie-break makes downstream constructions reproducible.
    """
    pair = SemigroupPair(a, b)
    if t < 1:
        raise ValueError("t must be positive")
    for y in range(t // pair.b, -1, -1):
        rest = t - y * pair.b
        if rest % pair.a == 0:
            return (rest // pair.a, y)
    raise NonRepresentableError(f"{t} is not representable by {pair.a} and {pair.b}")
