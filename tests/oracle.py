"""A brute-force oracle for the functional equation, sharing no code with
the package, so that it can check the engine's candidate sets.

The equations up to a bound are f(1) = 1 and, for every target t up to the
bound, f(t) = f(x_1)^2 + ... + f(x_k)^2 for each way of writing t as a sum
of k positive squares, and f(t) = f(m) f(l) for each coprime split
t = m*l with 2 <= m < l.  `survivor_values` searches their integer
solutions: it sets a value from any equation whose other values are set
(a square gives both signs of its root), and when none is left it branches
on the smallest unset n over [-max(box, n), max(box, n)].

An argument that no equation reads and that has at most one equation of
its own is split off first, together with that equation: it restricts no
other value, and keeping it would multiply the solutions by every value it
can take.  Arguments are split off from the bound down, so that once one
goes, the arguments its equation read may follow.
"""

from math import gcd, isqrt


def _representations(n, k, largest):
    """Non-increasing k-tuples of positive parts at most largest whose
    squares sum to n."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if n < k:
        return
    for x in range(min(largest, isqrt(n - (k - 1))), 0, -1):
        if k * x * x < n:
            break
        for rest in _representations(n - x * x, k - 1, x):
            yield (x,) + rest


def equations(k, bound):
    """The sums and the products of every target from 2 to bound: a sum as
    (target, number of parts equal to 1, ((part, count), ...) of the other
    parts), a product as (target, m, l)."""
    sums, products = [], []
    for t in range(2, bound + 1):
        for parts in _representations(t, k, t):
            counts = {}
            for x in parts:
                if x > 1:
                    counts[x] = counts.get(x, 0) + 1
            sums.append((t, parts.count(1), tuple(sorted(counts.items()))))
        for m in range(2, isqrt(t) + 1):
            l = t // m
            if m * l == t and m < l and gcd(m, l) == 1:
                products.append((t, m, l))
    return sums, products


def _split_off(bound, sums, products):
    """The arguments kept, and the sums and products of their targets."""
    readers = dict.fromkeys(range(2, bound + 1), 0)
    own = {n: [] for n in range(2, bound + 1)}  # what each equation of n reads
    for eq in sums:
        own[eq[0]].append([x for x, _ in eq[2]])
    for eq in products:
        own[eq[0]].append(eq[1:])
    for reads in (r for n in own for r in own[n]):
        for x in reads:
            readers[x] += 1
    dropped = set()
    for n in range(bound, 1, -1):
        if readers[n] == 0 and len(own[n]) <= 1:
            dropped.add(n)
            for reads in own[n]:
                for x in reads:
                    readers[x] -= 1
    kept = [n for n in range(2, bound + 1) if n not in dropped]
    return (
        kept,
        [eq for eq in sums if eq[0] not in dropped],
        [eq for eq in products if eq[0] not in dropped],
    )


def _sum_values(eq, f):
    """(argument, its values) when one argument of the sum is unset, False
    when the sum fails, else None."""
    t, ones, squares = eq
    unset = [x for x, _ in squares if x not in f] + ([t] if t not in f else [])
    if len(unset) > 1:
        return None
    total = ones + sum(c * f[x] ** 2 for x, c in squares if x in f)
    if not unset:
        return None if f[t] == total else False
    u = unset[0]
    if u == t:
        return u, [total]
    square, rest = divmod(f[t] - total, dict(squares)[u])
    if rest or square < 0 or isqrt(square) ** 2 != square:
        return False
    root = isqrt(square)
    return u, [root, -root] if root else [0]


def _product_values(eq, f):
    """As _sum_values, for a product, whose factor is left unset when the
    other factor and the target are 0."""
    t, m, l = eq
    unset = [x for x in eq if x not in f]
    if len(unset) > 1:
        return None
    if not unset:
        return None if f[t] == f[m] * f[l] else False
    u = unset[0]
    if u == t:
        return u, [f[m] * f[l]]
    other = f[l] if u == m else f[m]
    if other == 0:
        return None if f[t] == 0 else False
    quotient, rest = divmod(f[t], other)
    return False if rest else (u, [quotient])


def survivor_values(k, bound, box):
    """For each argument kept, the set of values f takes on it over every
    integer solution the search finds."""
    kept, sums, products = _split_off(bound, *equations(k, bound))
    checks = [(eq, _sum_values) for eq in sums]
    checks += [(eq, _product_values) for eq in products]
    seen = {n: set() for n in kept}

    def search(f):
        while True:
            # the unset argument with the fewest values one equation allows
            choice = None
            for eq, values_of in checks:
                got = values_of(eq, f)
                if got is False:
                    return
                if got is not None and (not choice or len(got[1]) < len(choice[1])):
                    choice = got
            if choice is None or len(choice[1]) > 1:
                break
            f[choice[0]] = choice[1][0]
        unset = [n for n in kept if n not in f]
        if not unset:
            for n in kept:
                seen[n].add(f[n])
            return
        if choice is None:
            n = unset[0]
            choice = n, range(-max(box, n), max(box, n) + 1)
        u, values = choice
        for v in values:
            search({**f, u: v})

    search({1: 1})
    return seen
