"""Exact value arithmetic, parsing, and formatting."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multsquares.gaussian import fraction_sqrt, gauss, parse_value


def test_basic_arithmetic():
    a = gauss(1, 2)
    b = gauss(3, -1)
    assert a + b == gauss(4, 1)
    assert a - b == gauss(-2, 3)
    assert a * b == gauss(5, 5)
    assert -a == gauss(-1, -2)
    assert a.square() == gauss(-3, 4)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=12))
def test_sqrt_of_square_recovers_value(q):
    assert fraction_sqrt(q * q) == abs(q)


def test_sqrt_cases():
    assert fraction_sqrt(0) == 0
    assert fraction_sqrt(16) == 4 and type(fraction_sqrt(16)) is int
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert type(fraction_sqrt(Fraction(16, 1))) is int
    assert fraction_sqrt(2) is None
    assert fraction_sqrt(Fraction(1, 3)) is None
    with pytest.raises(ValueError):
        fraction_sqrt(-4)


def test_parse_and_format_roundtrip():
    for text in ("0", "3", "-12", "-5/2", "2i", "-1i", "1+2i", "2-3i", "-1/2-3/4i"):
        v = parse_value(text)
        assert parse_value(str(v)) == v
    assert parse_value("1+2i") == gauss(1, 2)
    assert parse_value(" -5/2 ") == gauss(Fraction(-5, 2))
    assert parse_value("1 + 2i") == gauss(1, 2)
    assert parse_value("-i") == gauss(0, -1)
    assert str(gauss(0, 2)) == "2i"
    assert str(gauss(2, -3)) == "2-3i"


def test_parse_rejects_garbage():
    # a term without its sign, a repeated part, whitespace inside a number
    malformed = ("2ii", "i2", "3 4", "1+2+3i", "1+2-3", "- 5", "1/ 2")
    for text in ("", "x", "1+", "../2") + malformed:
        with pytest.raises(ValueError):
            parse_value(text)
    for text in ("2/0", "0/0", "1+2/0i"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_value(text)


def test_hash_consistency():
    assert hash(gauss(2)) == hash(gauss(Fraction(2)))
    assert gauss(2) == gauss(Fraction(4, 2))
    d = {gauss(2): "a"}
    assert d[gauss(Fraction(2))] == "a"


def test_immutability():
    v = gauss(1, 1)
    with pytest.raises(AttributeError):
        v.re = Fraction(2)
