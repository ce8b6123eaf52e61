"""Functional-equation constraints and their internal polynomial forms.

A constraint is either a sum-of-squares instance f(n) = sum f(x_i)^2 or a
multiplicativity instance f(n) = f(m) f(l).  Internally the solver works on
integer-coefficient polynomial equations over the unknowns f(2), f(3), ...;
each monomial is a product of powers of those unknowns.  f(1) = 1 is
substituted away at compile time.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import Dict, List, Tuple, Union

from .arith import factorize
from .squares import MAX_K, Representation, enumerate_representations
from . import arith


class SumOfSquares(Representation):
    """f(target) = sum of f(part)^2 over parts, a representation of target."""

    __slots__ = ()

    def label(self) -> str:
        inner = "+".join(f"f({x})^2" for x in self.parts)
        return f"f({self.target})={inner}"


class Multiplicative(namedtuple("Multiplicative", "target m l")):
    """f(target) = f(m) f(l) for a coprime split target = m*l."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # checked; _replace uses it

    def __new__(cls, target: int, m: int, l: int):
        if m < 2 or l < 2 or m >= l:
            raise ValueError("need 2 <= m < l")
        if m * l != target:
            raise ValueError("m*l must equal target")
        if gcd(m, l) != 1:
            raise ValueError("m and l must be coprime")
        return super().__new__(cls, target, m, l)

    def label(self) -> str:
        return f"f({self.target})=f({self.m})*f({self.l})"


Constraint = Union[SumOfSquares, Multiplicative]

# The solver keeps every equation, dedup key, pairing form and trace step,
# and `solve` loads the whole generated corpus, so its memory grows with the
# bound; this caps the bound of every solver entry point.
MAX_SOLVER_BOUND = 10**4


# sum-of-squares instances generated per target
REP_CAP = 16


def generate_constraints(k: int, bound: int) -> List[Constraint]:
    """All constraints with target <= bound, deterministically ordered.

    Per target: up to REP_CAP sum-of-squares instances (the prefix of the
    canonical enumeration), then every coprime-split instance.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > MAX_K:
        raise ValueError(f"k must be at most {MAX_K}")
    if bound < k:
        raise ValueError("bound must be >= k")
    if bound > MAX_SOLVER_BOUND:
        raise ValueError(f"bound must be at most {MAX_SOLVER_BOUND}")
    out: List[Constraint] = []
    for n in range(2, bound + 1):
        enum = enumerate_representations(n, k, limit=REP_CAP)
        for rep in enum.representations:
            out.append(SumOfSquares(n, rep.parts))
        for m, l in arith.coprime_splits(n):
            out.append(Multiplicative(n, m, l))
    return out


# ---------------------------------------------------------------------------
# Polynomial machinery.
#
# Monomial: tuple of (variable, power) pairs, sorted by variable; () is the
# constant monomial.  Poly: dict monomial -> nonzero int coefficient.
# ---------------------------------------------------------------------------

Monomial = Tuple[Tuple[int, int], ...]
Poly = Dict[Monomial, int]

CONST: Monomial = ()


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    powers: Dict[int, int] = {}
    for v, p in a:
        powers[v] = powers.get(v, 0) + p
    for v, p in b:
        powers[v] = powers.get(v, 0) + p
    return tuple(sorted(powers.items()))


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def poly_scale(a: Poly, s: int) -> Poly:
    if s == 0:
        return {}
    return {m: c * s for m, c in a.items()}


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_scale(b, -1))


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            nc = out.get(m, 0) + ca * cb
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def poly_normalize(a: Poly) -> Poly:
    """Divide by integer content and fix the sign of the leading monomial."""
    if not a:
        return {}
    g = 0
    for c in a.values():
        g = gcd(g, abs(c))
    lead = min(a.keys())  # deterministic representative
    sign = -1 if a[lead] < 0 else 1
    return {m: c // (g * sign) for m, c in a.items()}


def poly_key(a: Poly) -> Tuple[Tuple[Monomial, int], ...]:
    return tuple(sorted(a.items()))


def poly_vars(a: Poly) -> Tuple[int, ...]:
    seen = set()
    for m in a:
        for v, _ in m:
            seen.add(v)
    return tuple(sorted(seen))


def var_mono(n: int) -> Monomial:
    return ((n, 1),)


def sq_mono(n: int) -> Monomial:
    return ((n, 2),)


def _sq_mono(part: int, split: bool) -> Monomial:
    """Monomial of f(part)^2; when split, expanded over prime powers."""
    if part == 1:
        return CONST
    if not split:
        return sq_mono(part)
    return tuple(sorted((q, 2) for q in factorize(part).prime_powers))


def sos_rhs(c: SumOfSquares, split: bool = False) -> Poly:
    """Right-hand side polynomial: sum of squared parts, each monomial
    counted once per part that gives it."""
    out: Poly = {}
    for x in c.parts:
        mono = _sq_mono(x, split)
        out[mono] = out.get(mono, 0) + 1
    return out


def mult_rhs(c: Multiplicative) -> Poly:
    return {mono_mul(var_mono(c.m), var_mono(c.l)): 1}


def defining_poly(rhs: Poly, target: int) -> Poly:
    """Var(target) - rhs = 0."""
    return poly_sub({var_mono(target): 1}, rhs)
