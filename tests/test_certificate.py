"""The integer checker of one induction-certificate step."""

import ast
from pathlib import Path

import multsquares.certificate as certificate_module
from multsquares.certificate import check_step

# f = id on 1..10 and on 111; 11 * 111 = 1221 = 11 tens, a 4, two 2s and
# 97 ones, 111 parts in all
PINNED = frozenset([*range(1, 11), 111])
PARTS = (10,) * 11 + (4, 2, 2) + (1,) * 97


def test_valid_step_accepted():
    assert sum(x * x for x in PARTS) == 11 * 111 and len(PARTS) == 111
    assert check_step(11, 111, PARTS, 111, PINNED) is None
    # the m = n - 1 step: 12 * 11 = 132 = 9^2 + 7^2 + 1 + 1
    assert check_step(12, 11, (9, 7, 1, 1), 4, frozenset(range(1, 12))) is None


def test_m_not_pinned_rejected():
    assert check_step(11, 111, PARTS, 111, PINNED - {111}) == "m=111 is not pinned"


def test_m_sharing_a_factor_rejected():
    # 12 * 3 = 36 = 5^2 + 3^2 + 1 + 1, but f(36) = f(12) f(3) needs gcd 1
    pinned = frozenset(range(1, 12))
    assert check_step(12, 3, (5, 3, 1, 1), 4, pinned) == "gcd(12, 3) = 3"


def test_part_not_pinned_rejected():
    pinned = PINNED - {4}
    assert check_step(11, 111, PARTS, 111, pinned) == "part 4 is not pinned"


def test_wrong_part_count_rejected():
    assert check_step(11, 111, PARTS + (1,), 111, PINNED) == "112 parts, not 111"
    assert check_step(11, 111, PARTS, 110, PINNED) == "111 parts, not 110"


def test_wrong_sum_rejected():
    tampered = (10,) * 11 + (4, 2, 1) + (1,) * 97
    assert check_step(11, 111, tampered, 111, PINNED) == (
        "squares sum to 1218, not 11*111 = 1221"
    )


def test_non_integer_value_rejected():
    # 2.0 is in the set {2} and 2.0 ** 2 == 4, so only the type check stops it
    floats = (10,) * 11 + (4, 2.0, 2) + (1,) * 97
    assert check_step(11, 111, floats, 111, PINNED) == "a value is not an integer"
    assert check_step(11, True, PARTS, 111, PINNED) == "a value is not an integer"


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
