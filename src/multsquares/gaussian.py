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


_NUMBER = r"\d+(?:/\d+)?"
# a real part, an imaginary part, or both; after a real part the imaginary
# part needs its sign, the one place where whitespace may appear
_VALUE = _re.compile(
    rf"(?P<re>[+-]?{_NUMBER})?"
    rf"(?:(?P<sign>(?(re)\s*[+-]\s*|[+-]?))(?P<im>(?:{_NUMBER})?)i)?"
)


def parse_value(text: str) -> GaussianRational:
    """Parse a value string like "3", "-5/2", "2i", "-i", "1+2i" or
    "1 - 3/4i", with whitespace allowed around it."""
    s = text.strip()
    if not s:
        raise ValueError("empty value string")
    m = _VALUE.fullmatch(s)
    if m is None:
        raise ValueError(f"cannot parse value {text!r}")
    re_text, sign, im_text = m.group("re", "sign", "im")
    try:
        re_part = Fraction(re_text or 0)
        im_part = 0 if im_text is None else Fraction(sign.strip() + (im_text or "1"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return GaussianRational(re_part, im_part)


def gauss(re: Rational = 0, im: Rational = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
