"""Exact complex numbers with rational real and imaginary parts, and the
exact rational square root.

A GaussianRational is the value of f that the public API speaks: the
parsed values of `check --values`, the sides of a Violation, and the
candidate sets that SolverState hands out.  The solver itself computes
over exact rationals (int | Fraction) and takes only the rational helpers
from here.  Components are stored as plain ints whenever they are
integral.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import isqrt
from typing import Optional, Union

Rational = Union[int, Fraction]


def _norm(q: Rational) -> Rational:
    """Collapse integral Fractions to ints; ints pass through untouched."""
    if type(q) is int:
        return q
    if q.denominator == 1:
        return q.numerator
    return q


def fraction_sqrt(q: Rational) -> Optional[Rational]:
    """Exact non-negative square root of q >= 0, or None if irrational."""
    if q < 0:
        raise ValueError("fraction_sqrt requires a non-negative argument")
    if type(q) is int:
        r = isqrt(q)
        return r if r * r == q else None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return _norm(Fraction(rn, rd))
    return None


class GaussianRational:
    """Immutable exact value re + im*i, with re and im rational."""

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        object.__setattr__(self, "re", _norm(re))
        object.__setattr__(self, "im", _norm(im))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, d = self.re, self.im, other.re, other.im
        if b == 0 and d == 0:
            return GaussianRational(a * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def square(self) -> "GaussianRational":
        return self * self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaussianRational)
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.re, self.im))
            object.__setattr__(self, "_hash", h)
        return h

    # -- formatting -------------------------------------------------------

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_TERM = _re.compile(r"([+-]?)(\d+(?:/\d+)?)?(i?)")


def parse_value(text: str) -> GaussianRational:
    """Parse a value string like "3", "-5/2", "2i", or "1+2i"."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty value string")
    re_part = Fraction(0)
    im_part = Fraction(0)
    pos = 0
    seen = False
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse value {text!r}")
        sign, digits, imag = m.groups()
        if digits is None and not imag:
            raise ValueError(f"cannot parse value {text!r}")
        try:
            q = Fraction(digits) if digits else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        if sign == "-":
            q = -q
        if imag:
            im_part += q
        else:
            re_part += q
        seen = True
        pos = m.end()
    if not seen:
        raise ValueError(f"cannot parse value {text!r}")
    return GaussianRational(re_part, im_part)


def gauss(re: Rational = 0, im: Rational = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
