"""Constraint generation and the polynomial forms behind it."""

import pytest

import multsquares.constraints as constraints_module
from multsquares.constraints import (
    Multiplicative,
    SumOfSquares,
    generate_constraints,
    poly_normalize,
    sos_rhs,
)


def test_constraint_validation():
    SumOfSquares(12, (3, 1, 1, 1))
    with pytest.raises(ValueError):
        SumOfSquares(12, (1, 3, 1, 1))
    Multiplicative(12, 3, 4)
    with pytest.raises(ValueError):
        Multiplicative(12, 4, 3)  # m must be the smaller factor
    with pytest.raises(ValueError):
        Multiplicative(12, 2, 6)  # not coprime


def test_generation_k4_bound12():
    cs = generate_constraints(4, 12)
    labels = {c.label() for c in cs}
    assert "f(12)=f(3)^2+f(1)^2+f(1)^2+f(1)^2" in labels
    assert "f(12)=f(3)*f(4)" in labels
    targets = [c.target for c in cs]
    assert targets == sorted(targets)


def test_generation_k4_bound4_single_constraint():
    cs = generate_constraints(4, 4)
    assert len(cs) == 1
    assert isinstance(cs[0], SumOfSquares)
    assert cs[0].parts == (1, 1, 1, 1)


def test_generation_k5_bound29_has_all_three_29_instances():
    cs = generate_constraints(5, 29)
    reps29 = {c.parts for c in cs if isinstance(c, SumOfSquares) and c.target == 29}
    assert (5, 1, 1, 1, 1) in reps29
    assert (3, 3, 3, 1, 1) in reps29
    assert (4, 2, 2, 2, 1) in reps29


def test_generation_respects_cap(monkeypatch):
    monkeypatch.setattr(constraints_module, "REP_CAP", 2)
    capped = generate_constraints(5, 100)
    for n in range(2, 101):
        count = sum(
            1 for c in capped if isinstance(c, SumOfSquares) and c.target == n
        )
        assert count <= 2


def test_generation_deterministic():
    assert generate_constraints(6, 60) == generate_constraints(6, 60)


def test_sos_rhs_substitutes_ones():
    poly = sos_rhs(SumOfSquares(12, (3, 1, 1, 1)))
    assert poly == {(): 3, ((3, 2),): 1}


def test_sos_rhs_split_expands_composite_parts():
    c = SumOfSquares(42, (6, 1, 1, 1, 1, 1, 1))
    plain = sos_rhs(c)
    split = sos_rhs(c, split=True)
    assert ((6, 2),) in plain
    assert ((2, 2), (3, 2)) in split
    # prime-power parts stay opaque
    c2 = SumOfSquares(20, (4, 1, 1, 1, 1))
    assert sos_rhs(c2) == sos_rhs(c2, split=True)


def test_poly_normalize_sign_and_content():
    p = {(): -8, ((2, 2),): 8}
    q = poly_normalize(p)
    r = poly_normalize({(): 1, ((2, 2),): -1})
    assert q == r
