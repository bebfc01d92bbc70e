"""Exact linear programming over the rationals.

A tableau simplex with Bland's rules: termination is guaranteed and every
reported optimum or infeasibility is exact.  All variables are implicitly
nonnegative; upper bounds are ordinary rows.

The tableau holds Python ints only.  A row is a dict of its nonzero
entries: column ``j`` under key ``j``, and the rhs, when nonzero, under
key 0.  The entries are numerators over one positive denominator, the
row's own entry in its basic column (whose true value is 1), so the
denominator needs no slot.  After every update a row is divided by the gcd
of its entries, which keeps the integers small.  The objective row is a
dict of the same kind, kept up to a positive factor only, because the
simplex reads nothing from it but signs.

A pivot walks only the pivot row's entries, skips every row without an
entry in the pivot column and drops the entries that cancel.  Dict order
is not column order, so every tie-break names its column or basic index.
The ratio tests compare ratios by cross-multiplication (the row
denominators cancel), and Fractions appear only in the returned value and
point.  Each constraint builds its scaled integer rows once, the first
time it is solved, and a solve only places them at their columns.  An
optimal result computes its value from the basic objective columns and
reads its point from the kept tableau on demand: as Fractions the first
time ``point`` is read, or as ints over one common denominator by
``scaled_point``.

One path.  Every solve appends rows to an optimal tableau: each appended
row (an ``==`` row as two ``<=`` rows) gets its own slack, is reduced
against the basis and so keeps the tableau dual-feasible, and a dual
simplex restores primal feasibility.  Its rule is Bland's dual rule: the
leaving row has the smallest basic index among rows with negative rhs
(kept as a set that each pivot updates from the rows it rewrote), the
entering column has the least ratio ``obj_j / -a_j`` over the row's
negative entries (ties to the smallest column), and a leaving row with no
negative entry proves the system infeasible.

A cold solve starts from the empty system: no rows, a column for every
variable and the zero objective row.  A zero objective row is
dual-feasible for every basis, so the dual simplex is its phase 1, and
there are no artificial columns.  Phase 2 prices in the real objective and
runs the primal simplex by Bland's rule: the entering column is the
smallest with a negative reduced cost, the leaving row has the least ratio
``rhs_i / a_i`` (ties to the smallest basic index).

Warm start.  An optimal result keeps its final tableau, and
``solve_max(objective, constraints, start=parent)`` appends the rows of
``constraints`` past the parent's to it; the parent's objective row is
already optimal, so the dual simplex finishes the solve.  The new columns
and rows go past the parent's, which stay shared: a warm solve copies only
the rows that its pivots change.  Status and value are those of any exact
simplex, but the optimal vertex depends on the pivots:
``tests/test_lp_reference.py`` checks status and value against a dense
two-phase tableau, and that every optimal point is nonnegative, satisfies
every row and attains the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import is_
from typing import NamedTuple

__all__ = ["Constraint", "LPResult", "solve_max"]


@dataclass(frozen=True)
class Constraint:
    """``coeffs . x  sense  rhs``.  The coefficients are read once, when the
    constraint is first solved, so they must not change after that."""

    coeffs: dict
    sense: str  # "<=", ">=", "=="
    rhs: int | Fraction

    @cached_property
    def _rows(self) -> tuple[tuple[list[tuple[str, int]], int, int], ...]:
        """The constraint as integer ``<=`` rows (an ``==`` as two), each
        ``(coefficients, slack entry, rhs)``: the row scaled by the lcm of
        its denominators, which is the slack's positive entry."""
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {self.sense!r}")
        coeffs = [(v, _exact(a)) for v, a in self.coeffs.items() if a]
        rhs = _exact(self.rhs)
        scale = lcm(rhs.denominator, *(a.denominator for _, a in coeffs))
        ints = [(v, a.numerator * (scale // a.denominator)) for v, a in coeffs]
        b = rhs.numerator * (scale // rhs.denominator)
        rows = []
        if self.sense != ">=":
            rows.append((ints, scale, b))
        if self.sense != "<=":
            rows.append(([(v, -a) for v, a in ints], scale, -b))
        return tuple(rows)


class _Optimum(NamedTuple):
    """The final tableau of an optimal solve, for warm starts.

    Rows are never changed in place, so a warm start shares them.
    """

    objective: dict
    costs: dict  # objective column -> (numerator, denominator) of its cost
    constraints: tuple  # the constraints solved, a warm start's prefix
    index: dict  # variable name -> column
    tableau: list[dict]
    basis: list[int]
    obj: dict
    width: int  # the next free column


class LPResult:
    """Status, optimal value and optimal point of a solve.

    An optimal result of ``solve_max`` keeps its final tableau in
    ``optimum`` and builds ``point`` from it the first time it is read,
    which warm starts from it cannot disturb: they never change its rows
    in place.  ``repr`` and ``==`` see status, value and point only.
    """

    __slots__ = ("status", "value", "optimum", "_point")

    def __init__(self, status: str, value: Fraction | None = None,
                 point: dict | None = None, optimum: _Optimum | None = None):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.value = value
        self.optimum = optimum
        self._point = point

    @property
    def point(self) -> dict | None:
        """Every variable's value, as a Fraction."""
        if self._point is None and self.optimum is not None:
            den, nums = self.scaled_point()
            self._point = {v: Fraction(nums.get(v, 0), den)
                           for v in sorted(self.optimum.index)}
        return self._point

    def scaled_point(self) -> tuple[int, dict]:
        """The optimal point as ints over one common denominator: ``(den,
        nums)``, where a variable's value is ``nums[name] / den``, or 0 when
        ``nums`` lacks it.  A basic variable's value is its row's rhs over
        its basic entry, so ``den`` is the lcm of those entries."""
        opt = self.optimum
        at = {j: v for v, j in opt.index.items()}
        rows = [(at[b], r[0], r[b]) for r, b in zip(opt.tableau, opt.basis)
                if 0 in r and b in at]
        den = lcm(1, *(d for _, _, d in rows))
        return den, {v: n * (den // d) for v, n, d in rows}

    def __eq__(self, other):
        if not isinstance(other, LPResult):
            return NotImplemented
        return ((self.status, self.value, self.point)
                == (other.status, other.value, other.point))

    def __repr__(self):
        return (f"LPResult(status={self.status!r}, value={self.value!r}, "
                f"point={self.point!r})")


def _exact(a) -> Fraction | int:
    """``a`` as an int or Fraction, so it has a numerator and denominator."""
    if isinstance(a, float):
        raise TypeError("floats are not exact; use Fraction")
    return a if isinstance(a, (int, Fraction)) else Fraction(a)


def _eliminate(r: dict, prow: dict, p: int, f: int) -> dict:
    """``r - (f / p) * prow`` times the positive factor ``p / gcd(p, f)``
    (``p > 0``, ``f != 0``), divided by the gcd of its entries, without the
    entries that cancel."""
    g = gcd(p, f)
    if g != 1:
        p //= g
        f //= g
    out = dict(r) if p == 1 else {j: x * p for j, x in r.items()}
    for j, a in prow.items():
        x = out.get(j, 0) - f * a
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values())
    if g > 1:
        out = {j: x // g for j, x in out.items()}
    return out


def _pivot(tableau: list[dict], obj: dict, basis: list[int], row: int,
           col: int) -> list[int]:
    """Pivot on ``(row, col)``, updating ``obj`` in place; returns the
    indices of the rows it rewrote."""
    prow = tableau[row]
    p = prow[col]
    if p < 0:
        prow = tableau[row] = {j: -x for j, x in prow.items()}
        p = -p
    rewrote = [row]
    for i, r in enumerate(tableau):
        f = r.get(col)
        if f and i != row:
            tableau[i] = _eliminate(r, prow, p, f)
            rewrote.append(i)
    f = obj.get(col)
    if f:
        priced = _eliminate(obj, prow, p, f)
        obj.clear()
        obj.update(priced)
    basis[row] = col
    return rewrote


def _run_simplex(tableau: list[dict], obj: dict, basis: list[int]) -> str:
    """Pivot a feasible tableau until optimal.

    The objective row holds negated costs plus row combinations, so a column
    with a negative entry improves the maximum; Bland's rule (smallest
    entering index, smallest basic index on ratio ties) prevents cycling.
    """
    while True:
        col = min((j for j, x in obj.items() if x < 0 < j), default=0)
        if not col:
            return "optimal"
        row = -1
        best_b = best_a = 0
        for i, r in enumerate(tableau):
            a = r.get(col, 0)
            if a > 0:
                b = r.get(0, 0)
                # ratio b / a against best_b / best_a, both a's positive
                d = b * best_a - best_b * a
                if row < 0 or d < 0 or (d == 0 and basis[i] < basis[row]):
                    best_b, best_a = b, a
                    row = i
        if row < 0:
            return "unbounded"
        _pivot(tableau, obj, basis, row, col)


def _run_dual(tableau: list[dict], obj: dict, basis: list[int],
              first: int) -> str:
    """Pivot a dual-feasible tableau until its rhs is nonnegative, by
    Bland's dual rule (see the module docstring).  The rows before
    ``first`` have a nonnegative rhs; after that, only the rows a pivot
    rewrites can change sign."""
    negative = {i for i in range(first, len(tableau)) if tableau[i].get(0, 0) < 0}
    while negative:
        row = min(negative, key=basis.__getitem__)
        col = -1
        best_o = best_a = 0
        for j, a in tableau[row].items():
            if a < 0 < j:
                o = obj.get(j, 0)
                # ratio o / -a against best_o / best_a, both divisors
                # positive; a tie goes to the smaller column
                d = o * best_a + best_o * a
                if col < 0 or d < 0 or (d == 0 and j < col):
                    best_o, best_a = o, -a
                    col = j
        if col < 0:
            return "infeasible"
        rewrote = _pivot(tableau, obj, basis, row, col)
        negative.difference_update(rewrote)
        negative.update(i for i in rewrote if tableau[i].get(0, 0) < 0)
    return "optimal"


def solve_max(objective: dict, constraints: list[Constraint], *,
              start: LPResult | None = None) -> LPResult:
    """Maximize ``objective . x`` subject to the constraints, ``x >= 0``.

    With ``start``, an optimal result of this objective whose constraints
    are a prefix of ``constraints`` (the same objects), its tableau is
    re-optimised with the appended rows instead of solving from scratch;
    any other ``start`` raises ``ValueError``.
    """
    if start is None:
        # the empty system, whose zero objective row is optimal
        names = sorted(set(objective) | {v for c in constraints for v in c.coeffs})
        opt = _Optimum(dict(objective), {}, (),
                       {v: j for j, v in enumerate(names, 1)}, [], [], {},
                       len(names) + 1)
    else:
        opt = start.optimum
        if (opt is None or objective != opt.objective
                or len(constraints) < len(opt.constraints)
                or not all(map(is_, opt.constraints, constraints))):
            raise ValueError("start must be an optimal result on the same "
                             "objective whose constraints are a prefix of "
                             "these")
    appended = constraints[len(opt.constraints):]
    heads = [row for c in appended for row in c._rows]

    # Column layout: the parent's columns, then the new variables, then one
    # slack per new row.  The parent's rows are shared as they are.
    width = opt.width
    new = sorted({v for c in appended for v in c.coeffs} - opt.index.keys())
    tableau = list(opt.tableau)
    basis = list(opt.basis)
    obj = dict(opt.obj)
    index = opt.index
    if new:
        index = {**index, **{v: j for j, v in enumerate(new, width)}}

    where = {b: i for i, b in enumerate(basis)}
    slack_col = width + len(new)
    for coeffs, scale, rhs in heads:
        row = {index[v]: a for v, a in coeffs}
        row[slack_col] = scale
        if rhs:
            row[0] = rhs
        # Eliminate the basic columns, so the slack is this row's basic.
        # Only the coefficient columns can be basic: a basic row is zero in
        # every other basic column.
        for v, _ in coeffs:
            i = where.get(index[v])
            if i is not None:
                r = tableau[i]
                b = basis[i]
                row = _eliminate(row, r, r[b], row[b])
        tableau.append(row)
        basis.append(slack_col)
        slack_col += 1

    # the parent's rows are optimal, so only the appended ones can be negative
    if _run_dual(tableau, obj, basis, len(opt.tableau)) == "infeasible":
        return LPResult("infeasible")
    costs = opt.costs
    if start is None:
        # Phase 2: price the real objective into the still zero objective
        # row.
        costs = {}
        for v, a in objective.items():
            a = _exact(a)
            if a:
                costs[index[v]] = (a.numerator, a.denominator)
        scale = lcm(1, *(d for _, d in costs.values()))
        obj = {j: -n * (scale // d) for j, (n, d) in costs.items()}
        for r, b in zip(tableau, basis):
            if b in obj:
                obj = _eliminate(obj, r, r[b], obj[b])
        if _run_simplex(tableau, obj, basis) == "unbounded":
            return LPResult("unbounded")

    # The value, summed over the basic objective columns; the point is read
    # from the kept tableau only when asked for.
    num, den = 0, 1
    for r, b in zip(tableau, basis):
        c = costs.get(b)
        if c is not None and 0 in r:
            n, d = c[0] * r[0], c[1] * r[b]
            num, den = num * d + n * den, den * d
    return LPResult("optimal", Fraction(num, den), optimum=_Optimum(
        dict(objective), costs, tuple(constraints), index, tableau, basis,
        obj, slack_col))
