"""Factorization, coprime splits, and semigroup machinery."""

import pytest
from math import gcd

from multsquares.arith import (
    FactoredInteger,
    NonRepresentableError,
    NotCoprimeError,
    SemigroupPair,
    coprime_splits,
    factorize,
    frobenius_number,
    nonrepresentable_set,
    represent_in_semigroup,
)


def test_factorize_basics():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(1024).factors == ((2, 10),)
    assert factorize(97).factors == ((97, 1),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factored_integer_invariants():
    with pytest.raises(ValueError):
        FactoredInteger(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(ValueError):
        FactoredInteger(12, ((2, 1), (3, 1)))  # product mismatch


def test_coprime_splits_examples():
    assert coprime_splits(12) == [(3, 4)]
    assert coprime_splits(8) == []
    assert coprime_splits(1) == []
    assert coprime_splits(30) == [(2, 15), (3, 10), (5, 6)]


def test_coprime_splits_against_divisor_scan():
    for n in range(2, 10001, 7):  # arithmetic progression keeps this quick
        expected = []
        for m in range(2, int(n**0.5) + 1):
            if n % m == 0:
                l = n // m
                if l > m and gcd(m, l) == 1:
                    expected.append((m, l))
        expected.sort()
        assert coprime_splits(n) == expected, n


def test_coprime_splits_exhaustive_small():
    for n in range(1, 500):
        expected = sorted(
            (m, n // m)
            for m in range(2, n)
            if n % m == 0 and m < n // m and gcd(m, n // m) == 1
        )
        assert coprime_splits(n) == expected, n


def test_frobenius_pair_examples():
    assert frobenius_number(3, 8) == 13
    assert frobenius_number(2, 3) == 1
    assert frobenius_number(3, 5) == 7
    assert nonrepresentable_set(3, 8) == [1, 2, 4, 5, 7, 10, 13]
    assert nonrepresentable_set(2, 3) == [1]
    assert nonrepresentable_set(3, 4) == [1, 2, 5]


def test_not_coprime_rejected():
    with pytest.raises(NotCoprimeError):
        frobenius_number(6, 9)
    with pytest.raises(NotCoprimeError):
        SemigroupPair(4, 8)
    with pytest.raises(ValueError):
        SemigroupPair(1, 5)


def _brute_nonrepresentable(a, b):
    limit = a * b
    reachable = set()
    for x in range(limit // a + 1):
        for y in range((limit - x * a) // b + 1):
            reachable.add(x * a + y * b)
    return [t for t in range(1, limit + 1) if t not in reachable]


def test_frobenius_brute_force_all_small_pairs():
    for a in range(2, 21):
        for b in range(2, 21):
            if gcd(a, b) != 1:
                continue
            gaps = _brute_nonrepresentable(a, b)
            assert nonrepresentable_set(a, b) == gaps
            assert frobenius_number(a, b) == (max(gaps) if gaps else 0)


def test_represent_in_semigroup():
    assert represent_in_semigroup(19, 3, 8) == (1, 2)
    assert represent_in_semigroup(3, 3, 8) == (1, 0)
    with pytest.raises(NonRepresentableError):
        represent_in_semigroup(13, 3, 8)


def test_represent_in_semigroup_property():
    gaps = set(nonrepresentable_set(3, 8))
    for t in range(1, 501):
        if t in gaps:
            with pytest.raises(NonRepresentableError):
                represent_in_semigroup(t, 3, 8)
        else:
            x, y = represent_in_semigroup(t, 3, 8)
            assert x >= 0 and y >= 0 and 3 * x + 8 * y == t
            # maximal-y rule: no valid decomposition has a larger y
            for yy in range(y + 1, t // 8 + 1):
                assert (t - 8 * yy) % 3 != 0 or t - 8 * yy < 0

