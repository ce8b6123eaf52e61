"""The integer checkers of the induction certificate's two steps."""

import ast
from pathlib import Path

import multsquares.certificate as certificate_module
from multsquares.certificate import check_product, check_step

# f = id on 1..10 and on 111; 11 * 111 = 1221 = 11 tens, a 4, two 2s and
# 97 ones, 111 parts in all
PINNED = frozenset([*range(1, 11), 111])
PARTS = (10,) * 11 + (4, 2, 2) + (1,) * 97
NONE = frozenset()


def test_valid_step_accepted():
    assert sum(x * x for x in PARTS) == 11 * 111 and len(PARTS) == 111
    assert check_step(11, 111, PARTS, 111, PINNED, NONE) is None
    # the m = n - 1 step: 12 * 11 = 132 = 9^2 + 7^2 + 1 + 1
    pinned = frozenset(range(1, 12))
    assert check_step(12, 11, (9, 7, 1, 1), 4, pinned, NONE) is None


def test_m_not_pinned_rejected():
    assert check_step(11, 111, PARTS, 111, PINNED - {111}, NONE) == (
        "m=111 is not pinned"
    )


def test_m_sharing_a_factor_rejected():
    # 12 * 3 = 36 = 5^2 + 3^2 + 1 + 1, but f(36) = f(12) f(3) needs gcd 1
    pinned = frozenset(range(1, 12))
    assert check_step(12, 3, (5, 3, 1, 1), 4, pinned, NONE) == "gcd(12, 3) = 3"


def test_part_not_pinned_rejected():
    pinned = PINNED - {4}
    assert check_step(11, 111, PARTS, 111, pinned, {3}) == (
        "part 4 is neither pinned nor signless"
    )


def test_signless_part_accepted():
    # the lemma reads a part only through f(x)^2, so f(4) = +-4 will do
    assert check_step(11, 111, PARTS, 111, PINNED - {4}, {4}) is None


def test_signless_m_rejected():
    # f(n) m = n m needs f(m) = m itself: f(111) = -111 would give f(11) = -11
    assert check_step(11, 111, PARTS, 111, PINNED - {111}, {111}) == (
        "m=111 is not pinned"
    )


def test_signless_product_factor_rejected():
    # check_product reads no signless set: f(3) = -3 would give f(12) = -12
    assert check_product(12, 4, 3, frozenset(range(1, 12)) - {3}) == (
        "factor 3 is not pinned"
    )


def test_wrong_part_count_rejected():
    assert check_step(11, 111, PARTS + (1,), 111, PINNED, NONE) == "112 parts, not 111"
    assert check_step(11, 111, PARTS, 110, PINNED, NONE) == "111 parts, not 110"


def test_wrong_sum_rejected():
    tampered = (10,) * 11 + (4, 2, 1) + (1,) * 97
    assert check_step(11, 111, tampered, 111, PINNED, NONE) == (
        "squares sum to 1218, not 11*111 = 1221"
    )


def test_non_integer_value_rejected():
    # 2.0 is in the set {2} and 2.0 ** 2 == 4, so only the type check stops it
    floats = (10,) * 11 + (4, 2.0, 2) + (1,) * 97
    assert check_step(11, 111, floats, 111, PINNED, NONE) == "a value is not an integer"
    assert check_step(11, True, PARTS, 111, PINNED, NONE) == "a value is not an integer"


def test_valid_product_accepted():
    assert check_product(12, 4, 3, frozenset(range(1, 12))) is None
    assert check_product(1221, 11, 111, PINNED | {11}) is None


def test_product_mutants_rejected():
    pinned = frozenset(range(1, 12))
    assert check_product(12, 4, 5, pinned) == "4*5 = 20, not 12"
    # f(12) = f(2) f(6) needs gcd 1: f(2) = -2, f(6) = -6 would pass otherwise
    assert check_product(12, 2, 6, pinned) == "gcd(2, 6) = 2"
    assert check_product(12, 1, 12, pinned) == "factor 1 is below 2"
    assert check_product(12, 12, 1, pinned) == "factor 1 is below 2"
    assert check_product(12, 4, 3, pinned - {3}) == "factor 3 is not pinned"
    assert check_product(12, 4, 3, pinned - {4}) == "factor 4 is not pinned"
    # True == 1 and 3.0 == 3, so only the type check stops these
    assert check_product(3, True, 3, pinned) == "a value is not an integer"
    assert check_product(12, 4, 3.0, pinned) == "a value is not an integer"
    assert check_product(12.0, 4, 3, pinned) == "a value is not an integer"


def test_checker_imports_nothing_from_the_package():
    tree = ast.parse(Path(certificate_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module)
    assert imported <= {"math", "typing"}, imported
    assert not any(name.startswith("multsquares") for name in imported)
