"""Exact linear programming over the rationals.

A tableau simplex with Bland's rules: termination is guaranteed and every
reported optimum or infeasibility is exact.  All variables are implicitly
nonnegative; upper bounds are ordinary rows.

The tableau holds Python ints only.  A row is a list of integer numerators
over one positive denominator, and that denominator is the row's own entry
in its basic column (whose true value is 1), so it needs no separate slot.
The rhs sits at position 0 and column ``j`` at position ``j``, so a row
needs no entry past its last nonzero column: a row shorter than the
tableau is zero past its end.  After every update a row is divided by the
gcd of its entries, which keeps the integers small.  The objective row is
kept at the tableau's full width, and up to a positive factor only,
because the simplex reads nothing from it but signs.

A pivot eliminates only over the nonzero columns of the pivot row and skips
every row that is zero in the pivot column.  The ratio tests compare
ratios by cross-multiplication (the row denominators cancel), and
Fractions appear only in the returned value and point.  Each constraint
builds its scaled integer rows once, the first time it is solved, and a
solve only places them at their columns.  An optimal result computes its
value from the basic objective columns and reads its point from the kept
tableau on demand: as Fractions the first time ``point`` is read, or as
ints over one common denominator by ``scaled_point``.

One path.  Every solve appends rows to an optimal tableau: each appended
row (an ``==`` row as two ``<=`` rows) gets its own slack, is reduced
against the basis and so keeps the tableau dual-feasible, and a dual
simplex restores primal feasibility.  Its rule is Bland's dual rule: the
leaving row has the smallest basic index among rows with negative rhs, the
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
from itertools import compress
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

    Every row holds its rhs at position 0 and is zero past its end; ``obj``
    spans every column in use.  Rows are never changed in place, so a warm
    start shares them.
    """

    objective: dict
    costs: dict  # objective column -> (numerator, denominator) of its cost
    constraints: tuple  # the constraints solved, a warm start's prefix
    index: dict  # variable name -> column
    tableau: list[list[int]]
    basis: list[int]
    obj: list[int]


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
                if r[0] and b in at]
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


def _eliminate(r: list[int], prow: list[int], nz: list[int], p: int,
               f: int) -> list[int]:
    """``r - (f / p) * prow`` times the positive factor ``p / gcd(p, f)``
    (``p > 0``), updated only over ``nz``, the nonzero columns of ``prow``,
    then divided by the gcd of its entries.  A shorter ``r`` is padded with
    zeros to the length of ``prow``."""
    g = gcd(p, f)
    if g != 1:
        p //= g
        f //= g
    out = r[:] if p == 1 else [x * p for x in r]
    if len(out) < len(prow):
        out += [0] * (len(prow) - len(out))
    for j in nz:
        out[j] -= f * prow[j]
    g = gcd(*out)
    if g > 1:
        out = [x // g for x in out]
    return out


def _price_out(obj: list[int], tableau: list[list[int]],
               basis: list[int]) -> list[int]:
    """The objective row with every basic column eliminated from it."""
    for i, b in enumerate(basis):
        if obj[b]:
            r = tableau[i]
            obj = _eliminate(obj, r, [j for j, x in enumerate(r) if x],
                             r[b], obj[b])
    return obj


def _pivot(tableau: list[list[int]], obj: list[int], basis: list[int],
           row: int, col: int) -> None:
    prow = tableau[row]
    p = prow[col]
    if p < 0:
        prow = tableau[row] = [-x for x in prow]
        p = -p
    nz = [j for j, b in enumerate(prow) if b]
    for i, r in enumerate(tableau):
        if i != row and col < len(r) and r[col]:
            tableau[i] = _eliminate(r, prow, nz, p, r[col])
    if obj[col]:
        obj[:] = _eliminate(obj, prow, nz, p, obj[col])
    basis[row] = col


def _run_simplex(tableau: list[list[int]], obj: list[int],
                 basis: list[int]) -> str:
    """Pivot a feasible tableau until optimal.

    The objective row holds negated costs plus row combinations, so a column
    with a negative entry improves the maximum; Bland's rule (smallest
    entering index, smallest basic index on ratio ties) prevents cycling.
    """
    while True:
        col = -1
        for j in range(1, len(obj)):
            if obj[j] < 0:
                col = j
                break
        if col < 0:
            return "optimal"
        row = -1
        best_b = best_a = 0
        for i, r in enumerate(tableau):
            if col < len(r) and r[col] > 0:
                a = r[col]
                # ratio r[0] / a against best_b / best_a, both a's positive
                d = r[0] * best_a - best_b * a
                if row < 0 or d < 0 or (d == 0 and basis[i] < basis[row]):
                    best_b, best_a = r[0], a
                    row = i
        if row < 0:
            return "unbounded"
        _pivot(tableau, obj, basis, row, col)


def _run_dual(tableau: list[list[int]], obj: list[int], basis: list[int],
              first: int) -> str:
    """Pivot a dual-feasible tableau until its rhs is nonnegative, by
    Bland's dual rule (see the module docstring).  The rows before
    ``first`` have a nonnegative rhs, so the first scan starts there."""
    rows = [i for i in range(first, len(tableau)) if tableau[i][0] < 0]
    while rows:
        row = min(rows, key=basis.__getitem__)
        r = tableau[row]
        col = -1
        best_o = best_a = 0
        for j in range(1, len(r)):
            a = r[j]
            if a < 0:
                # ratio obj[j] / -a against best_o / best_a, both divisors
                # positive
                if col < 0 or obj[j] * best_a < best_o * -a:
                    best_o, best_a = obj[j], -a
                    col = j
        if col < 0:
            return "infeasible"
        _pivot(tableau, obj, basis, row, col)
        rows = [i for i, r in enumerate(tableau) if r[0] < 0]
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
                       {v: j for j, v in enumerate(names, 1)}, [], [],
                       [0] * (len(names) + 1))
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
    width = len(opt.obj)
    new = sorted({v for c in appended for v in c.coeffs} - opt.index.keys())
    tableau = list(opt.tableau)
    basis = list(opt.basis)
    obj = opt.obj + [0] * (len(new) + len(heads))
    index = opt.index
    if new:
        index = {**index, **{v: j for j, v in enumerate(new, width)}}

    where = {b: i for i, b in enumerate(basis)}
    slack_col = width + len(new)
    for coeffs, scale, rhs in heads:
        row = [0] * (slack_col + 1)
        row[0] = rhs
        for v, a in coeffs:
            row[index[v]] = a
        row[slack_col] = scale
        # Eliminate the basic columns, so the slack is this row's basic.
        # Only the coefficient columns can be basic: a basic row is zero in
        # every other basic column.
        for v, _ in coeffs:
            i = where.get(index[v])
            if i is not None:
                r = tableau[i]
                b = basis[i]
                row = _eliminate(row, r, list(compress(range(len(r)), r)),
                                 r[b], row[b])
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
        for j, (n, d) in costs.items():
            obj[j] = -n * (scale // d)
        obj = _price_out(obj, tableau, basis)
        if _run_simplex(tableau, obj, basis) == "unbounded":
            return LPResult("unbounded")

    # The value, summed over the basic objective columns; the point is read
    # from the kept tableau only when asked for.
    num, den = 0, 1
    for r, b in zip(tableau, basis):
        c = costs.get(b)
        if c is not None and r[0]:
            n, d = c[0] * r[0], c[1] * r[b]
            num, den = num * d + n * den, den * d
    return LPResult("optimal", Fraction(num, den), optimum=_Optimum(
        dict(objective), costs, tuple(constraints), index, tableau, basis,
        obj))
