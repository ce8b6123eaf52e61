"""Integer checker for one step of the theorem's induction certificate.

A step rests on one of two lemmas.  Let S be a set of arguments with
f(s) = s for every s in S.

- Witness: if m is in S, gcd(n, m) = 1 and n*m = x_1^2 + ... + x_k^2
  with every x_i in S, then f(n) m = f(n m) = x_1^2 + ... + x_k^2 = n m,
  so f(n) = n.  The step is the witness (m, parts), checked by check_step.
- Coprime product: if n = a*b with gcd(a, b) = 1, a, b > 1 and both in S,
  then f(n) = f(a) f(b) = a b = n.  The step is the split (a, b), checked
  by check_product.

This module confirms the lemmas' hypotheses in integer arithmetic and
trusts nothing else.  It imports no part of the package, so it shares no
code with the search that found the step.
"""

from math import gcd
from typing import Container, Optional, Sequence


def check_step(
    n: int, m: int, parts: Sequence[int], k: int, pinned: Container[int]
) -> Optional[str]:
    """Why (m, parts) does not certify f(n) = n from f = id on pinned, or
    None when it does."""
    if not all(type(v) is int for v in (n, m, k, *parts)):
        return "a value is not an integer"
    if m not in pinned:
        return f"m={m} is not pinned"
    common = gcd(n, m)
    if common != 1:
        return f"gcd({n}, {m}) = {common}"
    if len(parts) != k:
        return f"{len(parts)} parts, not {k}"
    for x in parts:
        if x not in pinned:
            return f"part {x} is not pinned"
    total = sum(x * x for x in parts)
    if total != n * m:
        return f"squares sum to {total}, not {n}*{m} = {n * m}"
    return None


def check_product(n: int, a: int, b: int, pinned: Container[int]) -> Optional[str]:
    """Why the split n = a*b does not certify f(n) = n from f = id on
    pinned, or None when it does."""
    if not all(type(v) is int for v in (n, a, b)):
        return "a value is not an integer"
    if a * b != n:
        return f"{a}*{b} = {a * b}, not {n}"
    common = gcd(a, b)
    if common != 1:
        return f"gcd({a}, {b}) = {common}"
    if min(a, b) < 2:
        return f"factor {min(a, b)} is below 2"
    for x in (a, b):
        if x not in pinned:
            return f"factor {x} is not pinned"
    return None
