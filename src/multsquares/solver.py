"""Sound candidate-set propagation for the unknowns f(2), f(3), ...

Each unknown carries a value set (a finite set of exact values, or
unknown), and narrowing reads value sets only.  Beside it sits a square
set (the possible values of f(n)^2, or unknown): solving an equation for
an unknown whose powers are all even can fix f(n)^2 while f(n) itself
stays ambiguous or is not even rational.  In narrowing, only that solve
and the setter read the square set.

Narrowing is uniform: every constraint (and every derived equation) is an
integer-coefficient polynomial equation over the unknowns.  Values are
exact rationals, held as int when integral and as Fraction otherwise.  A
candidate is removed only when no assignment of the other variables, drawn
from their current value sets, satisfies the equation; pruning that would
require an irrational or non-real root is skipped, so sets stay supersets
of every complex solution of the tracked system.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    Union,
)

from .arith import factorize
from .certificate import check_product, check_step
from .constraints import (
    Constraint,
    Monomial,
    Multiplicative,
    Poly,
    SumOfSquares,
    defining_poly,
    generate_constraints,
    mult_rhs,
    poly_add,
    poly_key,
    poly_mul,
    poly_normalize,
    poly_sub,
    poly_vars,
    sos_rhs,
)
from .gaussian import ONE, ZERO, GaussianRational, Rational, _norm, fraction_sqrt
from .squares import iter_representations

DEFAULT_BUDGET = 5_000_000
# largest candidate set a narrowing may store; a larger one is not stored
SET_CAP = 64
# sums of squares per target whose forms are paired with the target's others
PAIR_CAP = 6
COMBINATION_CAP = 4096
RESULTANT_CAP = 4096


class ContradictionError(Exception):
    """A candidate set became empty: the tracked constraints are unsatisfiable."""

    def __init__(self, variable: int, constraint: str):
        self.variable = variable
        self.constraint = constraint
        super().__init__(f"candidates for f({variable}) emptied by {constraint}")


class BudgetExceededError(Exception):
    """Propagation ran out of its step budget; carries the partial state."""

    def __init__(self, state: "SolverState"):
        self.state = state
        super().__init__("propagation budget exceeded")


class MissingValueError(Exception):
    """A prime-power value needed for evaluation was not supplied."""

    def __init__(self, prime_power: int):
        self.prime_power = prime_power
        super().__init__(f"no value supplied for f({prime_power})")


class NoWitnessError(Exception):
    """No certificate step was found for n, or check_step rejected the one
    found; the message names each m tried and why it failed."""


class TraceStep(NamedTuple):
    """One narrowing event: a candidate set actually shrank."""

    constraint: str
    variable: int
    view: str  # "value" or "square"
    before: Optional[Tuple[str, ...]]  # None means unknown
    after: Tuple[str, ...]
    rule: str

    def to_dict(self) -> dict:
        return {
            "constraint": self.constraint,
            "variable": self.variable,
            "view": self.view,
            "before": "unknown" if self.before is None else list(self.before),
            "after": list(self.after),
            "rule": self.rule,
        }


class Violation(NamedTuple):
    """A constraint whose two sides evaluate to different exact values."""

    constraint: str
    target: int
    lhs: GaussianRational
    rhs: GaussianRational

    def to_dict(self) -> dict:
        return {
            "constraint": self.constraint,
            "target": self.target,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


def _fmt_set(values: Optional[FrozenSet[Rational]]) -> Optional[Tuple[str, ...]]:
    if values is None:
        return None
    return tuple(str(v) for v in sorted(values))


def _gaussian_set(
    values: Optional[FrozenSet[Rational]],
) -> Optional[FrozenSet[GaussianRational]]:
    """A candidate set in the public value type."""
    if values is None:
        return None
    return frozenset(GaussianRational(v) for v in values)


def _div(p: Rational, q: Rational) -> Rational:
    """Exact p / q, an int when integral."""
    return _norm(Fraction(p, q))


def _sqrts(w: Rational) -> Optional[Tuple[Rational, ...]]:
    """The rational square roots of w: (0,) for 0, (r, -r) when they are
    rational, and None when they are irrational or non-real."""
    if w == 0:
        return (0,)
    if w < 0:
        return None
    r = fraction_sqrt(w)
    return None if r is None else (r, -r)


class _Equation:
    __slots__ = ("eq_id", "poly", "label", "rule", "target", "vars", "odd", "_decomp")

    def __init__(
        self, eq_id: int, poly: Poly, label: str, rule: str, target: int = 0
    ):
        self.eq_id = eq_id
        self.poly = poly
        self.label = label
        self.rule = rule
        self.target = target
        self.vars = poly_vars(poly)
        # the unknowns with some odd power; eq reads every other one only
        # through its square
        self.odd = frozenset(v for mono in poly for v, d in mono if d % 2)
        self._decomp: Dict[int, List[Tuple[int, Monomial, int]]] = {}

    def decomposition(self, var: int) -> List[Tuple[int, Monomial, int]]:
        """The terms as (power of var, rest of the monomial, coefficient),
        built the first time var is solved for."""
        terms = self._decomp.get(var)
        if terms is None:
            terms = []
            for mono, coeff in sorted(self.poly.items()):
                d = 0
                residual = []
                for u, p in mono:
                    if u == var:
                        d = p
                    else:
                        residual.append((u, p))
                terms.append((d, tuple(residual), coeff))
            self._decomp[var] = terms
        return terms


def _quadratic_roots(
    a: Rational, b: Rational, c: Rational
) -> Optional[Tuple[Rational, ...]]:
    """Exact roots of a w^2 + b w + c with a != 0, or None unless both are
    rational."""
    sqrts = _sqrts(b * b - 4 * a * c)
    if sqrts is None:
        return None
    r = sqrts[0]
    w1 = _div(-b + r, 2 * a)
    w2 = _div(-b - r, 2 * a)
    return (w1,) if w1 == w2 else (w1, w2)


class SolverState:
    """Mutable solver state: candidate views, equations, queue, and trace."""

    def __init__(
        self,
        k: int,
        bound: int,
        *,
        budget: int = DEFAULT_BUDGET,
    ):
        if k < 2:
            raise ValueError("k must be >= 2")
        self.k = k
        self.bound = bound
        self.budget = budget
        self.trace: List[TraceStep] = []
        self._values: Dict[int, Optional[FrozenSet[Rational]]] = {1: frozenset({1})}
        self._squares: Dict[int, Optional[FrozenSet[Rational]]] = {1: frozenset({1})}
        # the n whose value set is {n}, and the n whose value set was once
        # {-n, n}; _set, the only writer of values, keeps both, so a lookup
        # costs O(1) and the certificate reads them whole
        self.pinned: Set[int] = {1}
        self.signless: Set[int] = set()
        self._equations: List[_Equation] = []
        self._eq_keys: set = set()
        self._var_eqs: Dict[int, List[int]] = {}
        self._forms: Dict[int, List[Tuple[str, Poly]]] = {}
        self._sos_seen: Dict[int, int] = {}
        self._pending: List[int] = []
        self._in_pending: set = set()
        self._ops = 0
        self._resultants = 0
        self._elim_tried: set = set()

    # -- candidate accessors ----------------------------------------------

    def candidates(self, n: int) -> Optional[FrozenSet[GaussianRational]]:
        return _gaussian_set(self._values.get(n))

    def square_candidates(self, n: int) -> Optional[FrozenSet[GaussianRational]]:
        return _gaussian_set(self._squares.get(n))

    def is_pinned(self, n: int) -> bool:
        return n in self.pinned

    # -- construction -------------------------------------------------------

    def add_constraints(self, constraints: Iterable[Constraint]) -> None:
        for c in constraints:
            if isinstance(c, SumOfSquares):
                # the equation holds for sums of exactly k squares only
                if len(c.parts) != self.k:
                    raise ValueError(
                        f"{c.label()} has {len(c.parts)} parts, not k = {self.k}"
                    )
                kind = "sum"
                rhs = sos_rhs(c, split=False)
                forms = [(c.label(), rhs)]
                split = sos_rhs(c, split=True)
                if split != rhs:
                    forms.append((c.label() + "[split]", split))
                seen = self._sos_seen.get(c.target, 0)
                self._sos_seen[c.target] = seen + 1
                pairable = seen < PAIR_CAP
            elif isinstance(c, Multiplicative):
                kind = "product"
                forms = [(c.label(), mult_rhs(c))]
                pairable = True
            else:
                raise TypeError(f"not a constraint: {c!r}")
            for lbl, rhs in forms:
                self._add_equation(
                    defining_poly(rhs, c.target), lbl, kind, target=c.target
                )
            registry = self._forms.setdefault(c.target, [])
            if pairable:
                for old_lbl, old_rhs in registry:
                    for lbl, rhs in forms:
                        self._add_equation(
                            poly_sub(rhs, old_rhs),
                            f"pair({c.target}): {lbl} ~ {old_lbl}",
                            "paired",
                            target=c.target,
                        )
                registry.extend(forms)

    def _add_equation(
        self, poly: Poly, label: str, rule: str, target: int = 0
    ) -> bool:
        poly = poly_normalize(poly)
        if not poly:
            return False
        key = poly_key(poly)
        if key in self._eq_keys:
            return False
        eq = _Equation(len(self._equations), poly, label, rule, target)
        if not eq.vars:
            raise ContradictionError(0, label)
        self._eq_keys.add(key)
        self._equations.append(eq)
        for v in eq.vars:
            self._var_eqs.setdefault(v, []).append(eq.eq_id)
            self._values.setdefault(v, None)
            self._squares.setdefault(v, None)
        self._push(eq.eq_id)
        return True

    def _push(self, eq_id: int) -> None:
        if eq_id not in self._in_pending:
            self._in_pending.add(eq_id)
            heapq.heappush(self._pending, eq_id)

    def _touch(self, var: int) -> None:
        """Queue the equations of var."""
        for eq_id in self._var_eqs.get(var, ()):
            self._push(eq_id)

    # -- narrowing ----------------------------------------------------------

    def propagate(self) -> "SolverState":
        """Run to a fixed point, deriving elimination equations on stalls."""
        while True:
            self._drain()
            if not self._stall_round():
                return self

    def _drain(self) -> None:
        while self._pending:
            eq_id = heapq.heappop(self._pending)
            self._in_pending.discard(eq_id)
            self._ops += 1
            if self._ops > self.budget:
                raise BudgetExceededError(self)
            eq = self._equations[eq_id]
            if self._holds_pinned(eq):
                continue
            for var in self._revised(eq):
                self._narrow_var(eq, var)

    def _revised(self, eq: _Equation) -> Tuple[int, ...]:
        """The unknowns of eq it can split: the open ones (value set unknown
        or of size > 1) that are not sign-settled in eq (see _settled).  If
        there are none, the open ones; for an all-pinned eq that fails
        _holds_pinned, every unknown.  A pinned or sign-settled unknown's
        revision can only empty its set, since eq reads a sign-settled x
        only through x^2.  Whenever a splittable unknown's revision keeps a
        candidate, that candidate's supporting assignment holds a value of
        each such unknown, and holds with its negation too; a splittable
        revision that keeps none raises first."""
        values = self._values
        open_vars = tuple(
            v for v in eq.vars if values[v] is None or len(values[v]) > 1
        )
        split = tuple(v for v in open_vars if not self._settled(eq, v))
        return split or open_vars or eq.vars

    def _settled(self, eq: _Equation, v: int) -> bool:
        """Whether v is sign-settled in eq: its value set is known, has one
        square (such as {-7, 7}), and eq has only even powers of v."""
        return (
            v not in eq.odd
            and self._values[v] is not None
            and len(self._squares[v]) == 1
        )

    def _holds_pinned(self, eq: _Equation) -> bool:
        """Whether every unknown of eq is pinned or sign-settled and eq
        holds there, a sign-settled x read at |x| (False when a value set is
        unknown).  _drain skips such an eq: its unknowns can only shrink to
        empty, which raises in the equation that empties them."""
        point = {}
        for v in eq.vars:
            vals = self._values[v]
            if vals is None:
                return False
            if len(vals) == 1:
                (point[v],) = vals
            elif self._settled(eq, v):
                point[v] = max(vals)
            else:
                return False
        total = 0
        for mono, term in eq.poly.items():
            for u, p in mono:
                term *= point[u] ** p
            total += term
        return total == 0

    def _assignments(
        self, eq: _Equation, var: int
    ) -> Optional[Tuple[Tuple[int, ...], List[List[Rational]]]]:
        """Per-other-variable candidate values, or None if some value set
        is unknown."""
        others: List[int] = []
        options: List[List[Rational]] = []
        total = 1
        for u in eq.vars:
            if u == var:
                continue
            vals = self._values[u]
            if vals is None:
                return None
            others.append(u)
            options.append(sorted(vals))
            total *= len(vals)
            if total > COMBINATION_CAP:
                return None
        return tuple(others), options

    @staticmethod
    def _combo_coeffs(
        terms: List[Tuple[int, Monomial, int]],
        others: Tuple[int, ...],
        combo: Tuple[Rational, ...],
    ) -> Dict[int, Rational]:
        """The coefficients, by power of the unknown solved for, of its
        decomposition terms under one assignment of the others."""
        assign = dict(zip(others, combo))
        coeffs: Dict[int, Rational] = {}
        for d, residual, acc in terms:
            for u, p in residual:
                x = assign[u]
                acc *= x if p == 1 else x**p
            coeffs[d] = coeffs.get(d, 0) + acc
        return {d: c for d, c in coeffs.items() if c != 0}

    def _narrow_var(self, eq: _Equation, var: int) -> None:
        prepared = self._assignments(eq, var)
        if prepared is None:
            return
        others, options = prepared
        combos = product(*options)
        if self._values[var] is None:
            self._create_from_unknown(eq, var, others, combos)
        else:
            self._filter(eq, var, others, combos)

    def _filter(self, eq, var, others, combos) -> None:
        """Keep the candidate values of var that satisfy eq for some
        combination."""
        remaining = set(self._values[var])
        survivors = set()
        terms = eq.decomposition(var)
        for combo in combos:
            coeffs = self._combo_coeffs(terms, others, combo)
            moved = []
            for c in remaining:
                total = 0
                for d, coef in coeffs.items():
                    total += coef * c**d
                if total == 0:
                    survivors.add(c)
                    moved.append(c)
            for c in moved:
                remaining.remove(c)
            if not remaining:
                return
        rule = self._value_rule(eq, var)
        self._set(var, "value", frozenset(survivors), eq.label, rule)

    def _create_from_unknown(self, eq, var, others, combos) -> None:
        """Solve eq for an unknown var as a polynomial of degree <= 2 in
        w = var^scale, where scale is 2 when every power of var is even;
        the roots give the values (exact square roots of w when scale is 2)
        and the squares."""
        scale = 1 if var in eq.odd else 2
        terms = eq.decomposition(var)
        val_acc: set = set()
        sq_acc: set = set()
        val_ok = True  # every root has exact values
        sq_ok = True  # every combination was solved exactly
        feasible = False
        for combo in combos:
            coeffs = self._combo_coeffs(terms, others, combo)
            if not coeffs:
                return  # an unconstraining combination: no pruning at all
            degs = sorted(coeffs)
            if degs == [0]:
                continue  # infeasible combination contributes nothing
            feasible = True
            if not sq_ok:
                continue
            if max(degs) > 2 * scale:
                # degree 3+ in w: roots exist but are not solvable here
                val_ok = sq_ok = False
                continue
            a = coeffs.get(2 * scale, 0)
            b = coeffs.get(scale, 0)
            c = coeffs.get(0, 0)
            roots = (_div(-c, b),) if a == 0 else _quadratic_roots(a, b, c)
            if roots is None:
                val_ok = sq_ok = False
                continue
            for w in roots:
                if scale == 1:
                    val_acc.add(w)
                    sq_acc.add(w * w)
                    continue
                sq_acc.add(w)
                ws = _sqrts(w)
                if ws is None:
                    val_ok = False
                else:
                    val_acc.update(ws)
        if not feasible:
            raise ContradictionError(var, eq.label)
        rule = self._value_rule(eq, var)
        sqs = self._squares.get(var)
        if val_ok:
            if sqs is not None:
                val_acc = {w for w in val_acc if w * w in sqs}
            if not val_acc:
                raise ContradictionError(var, eq.label)
            if len(val_acc) <= SET_CAP:
                self._set(var, "value", frozenset(val_acc), eq.label, rule)
                return
        if sq_ok:
            allowed = frozenset(sq_acc) if sqs is None else sqs & sq_acc
            if not allowed:
                raise ContradictionError(var, eq.label)
            if len(allowed) <= SET_CAP:
                self._set(var, "square", allowed, eq.label, rule)

    @staticmethod
    def _value_rule(eq: _Equation, var: int) -> str:
        if eq.rule == "sum":
            return "forward" if var == eq.target else "backward"
        if eq.rule == "product":
            return "product"
        return eq.rule

    # -- state updates -------------------------------------------------------

    def _set(
        self,
        var: int,
        view: str,
        new: FrozenSet[Rational],
        label: str,
        rule: str,
    ) -> None:
        """Narrow one view of var to new, recording the step under label,
        and queue the equations of var.

        A value set also fixes the square image, and puts var in pinned
        when it is {var} or in signless when it is {-var, var}.  A square
        set (made only while the values are unknown) whose roots are all
        rational fixes the values through the rule "square-root"."""
        store = self._values if view == "value" else self._squares
        old = store.get(var)
        if old is not None and not new < old:
            return
        if not new:
            raise ContradictionError(var, label)
        self.trace.append(
            TraceStep(label, var, view, _fmt_set(old), _fmt_set(new), rule)
        )
        store[var] = new
        self._touch(var)
        if view == "value":
            self._squares[var] = frozenset(v * v for v in new)
            if new == {var}:
                self.pinned.add(var)
            elif new == {var, -var}:
                self.signless.add(var)
            return
        roots: List[Rational] = []
        for s in new:
            ws = _sqrts(s)
            if ws is None:
                return
            roots.extend(ws)
        if len(roots) <= SET_CAP:
            self._set(var, "value", frozenset(roots), label, "square-root")

    # -- elimination on stalls ------------------------------------------------

    def _stall_groups(self) -> Dict[Tuple[int, int], List[int]]:
        """Equation ids, ascending, by their two unresolved unknowns: the
        equations with exactly two unknown value sets."""
        groups: Dict[Tuple[int, int], List[int]] = {}
        for eq in self._equations:
            unresolved = tuple(v for v in eq.vars if self._values[v] is None)
            if len(unresolved) == 2:
                groups.setdefault(unresolved, []).append(eq.eq_id)
        return groups

    def _stall_round(self) -> bool:
        """Derive resultants between equations sharing two unresolved unknowns."""
        if self._resultants >= RESULTANT_CAP:
            return False
        groups = self._stall_groups()
        added = False
        for pair in sorted(groups):
            ids = groups[pair]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    for x in pair:
                        key = (ids[i], ids[j], x)
                        if key in self._elim_tried:
                            continue
                        self._elim_tried.add(key)
                        ei, ej = self._equations[ids[i]], self._equations[ids[j]]
                        res = _resultant(ei, ej, x)
                        if res is None:
                            continue
                        res = poly_normalize(res)
                        if not res or len(res) > 24:
                            continue
                        if any(p > 4 for mono in res for _, p in mono):
                            continue
                        label = f"elim(f({x})): {ei.label} ~ {ej.label}"
                        self._resultants += 1
                        if self._add_equation(res, label, "eliminated"):
                            added = True
                        if self._resultants >= RESULTANT_CAP:
                            return added
        return added

    # -- reporting -------------------------------------------------------------

    def report(self) -> "SolverReport":
        pinned = []
        unresolved = []
        for n in range(1, self.bound + 1):
            if self.is_pinned(n):
                pinned.append(n)
            else:
                unresolved.append((n, _fmt_set(self._values.get(n))))
        return SolverReport(
            k=self.k,
            bound=self.bound,
            pinned=tuple(pinned),
            unresolved=tuple(unresolved),
            steps=tuple(self.trace),
            state=self,
        )


def _coeffs_in(eq: _Equation, x: int, scale: int) -> Optional[List[Poly]]:
    """Coefficients [A0, A1, A2] of eq's polynomial in x^scale, read from
    its cached decomposition in x; None if the degree is above 2."""
    out: List[Poly] = [{}, {}, {}]
    for d, rest, c in eq.decomposition(x):
        if d > 2 * scale:
            return None
        out[d // scale][rest] = c
    return out


def _resultant(p: _Equation, q: _Equation, x: int) -> Optional[Poly]:
    """Resultant of two equations eliminating x; it vanishes on every common
    root.  It works in x^2 when x is in neither `odd` set, else in x, and
    is None unless both have degree 1 or 2 there."""
    scale = 1 if x in p.odd or x in q.odd else 2
    a = _coeffs_in(p, x, scale)
    b = _coeffs_in(q, x, scale)
    if a is None or b is None:
        return None
    a0, a1, a2 = a
    b0, b1, b2 = b
    deg_p = 2 if a2 else (1 if a1 else 0)
    deg_q = 2 if b2 else (1 if b1 else 0)
    if deg_p == 0 or deg_q == 0:
        return None
    if deg_p < deg_q:
        a0, a1, a2, b0, b1, b2 = b0, b1, b2, a0, a1, a2
        deg_p, deg_q = deg_q, deg_p
    if deg_p == 1:  # both linear
        return poly_sub(poly_mul(a1, b0), poly_mul(a0, b1))
    if deg_q == 1:  # quadratic vs linear
        t = poly_sub(poly_mul(a2, poly_mul(b0, b0)), poly_mul(a1, poly_mul(b1, b0)))
        return poly_add(t, poly_mul(a0, poly_mul(b1, b1)))
    # two quadratics
    t1 = poly_sub(poly_mul(a2, b0), poly_mul(a0, b2))
    t2 = poly_sub(poly_mul(a2, b1), poly_mul(a1, b2))
    t3 = poly_sub(poly_mul(a1, b0), poly_mul(a0, b1))
    return poly_sub(poly_mul(t1, t1), poly_mul(t2, t3))


class SolverReport(NamedTuple):
    """Outcome of a run: which arguments are pinned to their own value."""

    k: int
    bound: int
    pinned: Tuple[int, ...]
    unresolved: Tuple[Tuple[int, Optional[Tuple[str, ...]]], ...]
    steps: Tuple[TraceStep, ...]
    state: SolverState  # left out of ==, hash and repr

    def __eq__(self, other):
        return isinstance(other, SolverReport) and self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:-1])

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields[:-1], self))
        return f"SolverReport({shown})"

    @property
    def all_pinned(self) -> bool:
        return not self.unresolved

    def to_dict(self, include_trace: bool = True) -> dict:
        return {
            "k": self.k,
            "bound": self.bound,
            "pinned": list(self.pinned),
            "unresolved": [
                {"n": n, "candidates": "unknown" if c is None else list(c)}
                for n, c in self.unresolved
            ],
            "steps": [s.to_dict() for s in self.steps] if include_trace else [],
        }


# -- the n(n-1) induction -----------------------------------------------------
#
# One step rests on a lemma checked in multsquares.certificate.  An n that
# is no prime power is the product of two smaller coprime pinned factors,
# which check_product confirms.  A prime power needs a witness: m pinned,
# gcd(n, m) = 1 and n*m a sum of k squares of parts each pinned or
# signless give f(n) = n; find_witness searches for it and check_step
# confirms it.  So no pin of the induction rests on the search or on the
# engine's evaluator.

# search nodes the coprime fallback may visit for one n, over every m it tries
FALLBACK_NODES = 10_000

# failed m a NoWitnessError lists before it only counts the rest
SHOWN_ATTEMPTS = 6


def _excess_parts(
    excess: int, terms: int, pinned: Set[int], signless: Set[int], nodes: int
) -> Tuple[Optional[Tuple[int, ...]], int]:
    """At most `terms` x >= 2, each pinned or signless, non-increasing,
    whose x^2 - 1 sum to excess (None if none is found), and what is left
    of the `nodes` the search may visit, one per frame.  Depth-first,
    largest x first, on an explicit stack whose frames are [next index
    into xs, excess left, terms left]."""
    if nodes == 0:
        return None, 0
    xs = [
        x
        for x in range(isqrt(excess + 1), 1, -1)
        if x in pinned or x in signless
    ]
    cost = [x * x - 1 for x in xs]
    chosen: List[int] = []
    frames = [[0, excess, terms]]
    nodes -= 1
    while frames:
        frame = frames[-1]
        j, left, room = frame
        if left == 0:
            return tuple(xs[i] for i in chosen), nodes
        while j < len(xs) and cost[j] > left:
            j += 1
        if j == len(xs) or room * cost[j] < left:
            frames.pop()
            if chosen:
                chosen.pop()
        elif nodes == 0:
            break
        else:
            nodes -= 1
            frame[0] = j + 1
            chosen.append(j)
            frames.append([j, left - cost[j], room - 1])
    return None, nodes


def find_witness(
    n: int, k: int, pinned: Set[int], signless: Set[int]
) -> Tuple[int, Tuple[int, ...]]:
    """A witness (m, parts) for f(n) = n under the lemma of
    multsquares.certificate, parts non-increasing.

    Requires all of 1..n-1 to be pinned.  The induction asks only for
    prime powers, since any other n is the product of two coprime pinned
    factors, and the order of certify_induction and induction_sweep pins
    1..n-1 first; without that the m = n - 1 witness may name an unpinned
    argument, which check_step rejects.  First m = n - 1:
    any k-square representation of n(n-1) with parts below n will do.  Then
    each other pinned m coprime to n with n*m >= k, smallest first: n*m - k
    written as at most k terms x^2 - 1 over pinned or signless x >= 2, the
    other parts being 1.  That fallback visits at most FALLBACK_NODES
    search nodes in all.
    Raises NoWitnessError naming each m tried and why it failed."""
    target = n * (n - 1)
    parts = next(iter_representations(target, k, n - 1), None)
    if parts is not None:
        return n - 1, parts
    tried = [f"m={n - 1}: {target} has no representation with parts below {n}"]
    others = [
        m for m in sorted(pinned) if n * m >= k and gcd(n, m) == 1 and m != n - 1
    ]
    if not others:
        tried.append(f"no other pinned m is coprime to {n} with {n}*m >= {k}")
    nodes = FALLBACK_NODES
    for m in others:
        excess = n * m - k
        parts, nodes = _excess_parts(excess, k, pinned, signless, nodes)
        if parts is not None:
            return m, parts + (1,) * (k - len(parts))
        sums = (
            f"{excess} = {n}*{m}-{k} as at most {k} terms x^2-1"
            " over pinned or signless x >= 2"
        )
        if nodes == 0:
            tried.append(f"m={m}: search for {sums} stopped at {FALLBACK_NODES} nodes")
            break
        tried.append(f"m={m}: no way to write {sums}")
    if len(tried) > SHOWN_ATTEMPTS:
        tried[SHOWN_ATTEMPTS:] = [f"{len(tried) - SHOWN_ATTEMPTS} more failed"]
    raise NoWitnessError("; ".join(tried))


def _checked_witness(
    n: int, k: int, pinned: Set[int], signless: Set[int]
) -> Tuple[int, Tuple[int, ...]]:
    """find_witness's witness (m, parts) for n, once check_step has accepted
    it.  Raises NoWitnessError when none is found or the one found is
    rejected."""
    m, parts = find_witness(n, k, pinned, signless)
    fault = check_step(n, m, parts, k, pinned, signless)
    if fault is not None:
        raise NoWitnessError(f"certificate rejected: {fault}")
    return m, parts


def _coprime_split(n: int) -> Tuple[int, int]:
    """(a, n // a) for n >= 2, a the full power of n's smallest prime, found
    by trial division that stops at that prime; a = n for a prime power."""
    p = 2
    while n % p:
        p += 1 if p == 2 else 2
        if p * p > n:
            return n, 1
    a = p
    while n % (a * p) == 0:
        a *= p
    return a, n // a


def _checked_step(
    n: int, k: int, pinned: Set[int], signless: Set[int]
) -> Tuple[int, Union[int, Tuple[int, ...]]]:
    """One checked certificate step for n: the split (a, b) of n into its
    smallest prime's power and the coprime rest, when n is no prime power
    and check_product accepts it; otherwise _checked_witness's (m, parts).
    Raises NoWitnessError as _checked_witness does."""
    a, b = _coprime_split(n)
    if a != n and check_product(n, a, b, pinned) is None:
        return a, b
    return _checked_witness(n, k, pinned, signless)


def certify_induction(
    k: int, pinned: Set[int], signless: Set[int], bound: int
) -> Optional[Tuple[int, str]]:
    """Certify f(n) = n for n = 2..bound in order, adding each n to pinned:
    an n already pinned is skipped, an n with two coprime factors above 1
    is their product, and a prime power needs a checked witness, whose
    parts may also come from signless.  Returns
    the first n left uncertified with the reason, or None.  Since it stops
    there, all of 1..n-1 are pinned whenever find_witness is called for n."""
    for n in range(2, bound + 1):
        if n in pinned:
            continue
        try:
            _checked_step(n, k, pinned, signless)
        except NoWitnessError as exc:
            return n, str(exc)
        pinned.add(n)
    return None


def pin_by_induction(state: SolverState, n: int) -> SolverState:
    """Pin f(n) = n by one checked certificate step over state.pinned and
    state.signless.

    The pin is a single trace step, rule "certified", whose label names
    the split n=a*b of a product step or n*m and the parts of a witness.
    It adds no equation and does not propagate: the equations on f(n) wait
    in the queue for the next propagate.  Raises NoWitnessError, with the
    state unchanged, when n needs a witness and none is found or
    check_step rejects the one found.  A witness needs all of 1..n-1
    pinned, as induction_sweep's order ensures."""
    m, rest = _checked_step(n, state.k, state.pinned, state.signless)
    if isinstance(rest, int):
        label = f"induction({n}): {n}={m}*{rest}"
    else:
        squares = "+".join(f"{x}^2" for x in rest)
        label = f"induction({n}): {n}*{m}={n * m}={squares}"
    values = state._values.get(n)
    new = frozenset({n}) if values is None else values & {n}
    state._set(n, "value", new, label, "certified")
    return state


def induction_sweep(
    state: SolverState, lo: int, hi: int
) -> Optional[Tuple[int, str]]:
    """Pin lo..hi in order by pin_by_induction; return the first n left
    unpinned with the reason, or None.  Each step needs f(m) = m for every
    m < n, so nothing past that n is attempted."""
    for n in range(lo, hi + 1):
        if state.is_pinned(n):
            continue
        try:
            pin_by_induction(state, n)
        except NoWitnessError as exc:
            return n, str(exc)
    return None


def solve(
    k: int,
    bound: int,
    budget: int = DEFAULT_BUDGET,
) -> SolverReport:
    """Generate constraints up to bound, propagate, and sweep the induction."""
    state = SolverState(k, bound, budget=budget)
    state.add_constraints(generate_constraints(k, bound))
    state.propagate()
    induction_sweep(state, 2, bound)
    return state.report()


def check_function(
    values_on_prime_powers: Dict[int, GaussianRational],
    k: int,
    bound: int,
) -> List[Violation]:
    """Evaluate every generated constraint against a multiplicative f.

    The map gives f on prime powers; f extends multiplicatively.  Returns
    the constraints whose sides differ, with both exact side values.
    Raises ValueError for a key below 2, or up to bound and not a prime
    power, since no evaluation would read it; a key above bound may stay.
    """
    for q in values_on_prime_powers:
        if q < 2 or (q <= bound and len(factorize(q).factors) != 1):
            raise ValueError(f"key {q} of the values is not a prime power")
    table: Dict[int, GaussianRational] = {1: ONE}

    def evaluate(n: int) -> GaussianRational:
        got = table.get(n)
        if got is not None:
            return got
        acc = ONE
        for p, e in factorize(n).factors:
            q = p**e
            if q not in values_on_prime_powers:
                raise MissingValueError(q)
            acc = acc * values_on_prime_powers[q]
        table[n] = acc
        return acc

    violations: List[Violation] = []
    for c in generate_constraints(k, bound):
        lhs = evaluate(c.target)
        if isinstance(c, SumOfSquares):
            rhs = ZERO
            for x in c.parts:
                rhs = rhs + evaluate(x).square()
        else:
            rhs = evaluate(c.m) * evaluate(c.l)
        if lhs != rhs:
            violations.append(Violation(c.label(), c.target, lhs, rhs))
    return violations
