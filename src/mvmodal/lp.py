"""Exact linear programming over the rationals.

A dual simplex with Bland's rule: termination is guaranteed and every
reported optimum or infeasibility is exact.  Variables are nonnegative, and
``upper`` bounds some of them by an integer; every variable of positive
cost must have a bound, so the maximum is finite.

The tableau holds Python ints only.  A row is a dict of its nonzero
entries, column ``j`` under key ``j`` and the rhs, when nonzero, under key
0, all over the row's own entry in its basic column, and divided by their
gcd after every update.  The objective row is kept up to a positive
factor, because the simplex reads only its signs.  A pivot walks only the
pivot row's entries and skips every row without an entry in its column.
Dict order is not column order, so every tie-break names its column or
basic index, and ratios are compared by cross-multiplication.

Bounds (Dantzig 1955; Chvátal, *Linear Programming*, ch. 8).  A bounded
column may be complemented, ``x = u - x̄``, so a nonbasic column sits at 0
or at its bound ``u``: the entry ``a`` becomes ``-a`` and the rhs ``rhs -
a*u``, an integer row again.  Each constraint is one ``<=`` row (``>=``
negated) with its own slack; an ``==`` row's slack has bound 0, and a
nonbasic fixed column never enters.  The value and the point are read with
the complemented columns, the point only when asked for.

A cold solve starts from the empty system with every column of positive
cost at its bound, so it is dual-feasible (Koberstein, *The dual simplex
method*, PhD thesis, Paderborn, 2005).  Every solve appends rows to a
dual-feasible tableau, written over its complemented columns and reduced
against its basis, and Bland's dual rule restores feasibility.  The
leaving row has the least basic index among the rows whose basic value is
negative or above its bound (a set that each pivot updates from the rows
it rewrote); a row above its bound first complements its basic column,
``d*x̄_b - sum(a_j*x_j) = d*u - rhs < 0``.  The entering column has the
least ratio ``obj_j / -a_j`` over the row's negative entries (ties to the
least column); with none, the system is infeasible.  A warm solve
(``start``) shares the parent's rows and copies only those its pivots
change.  ``tests/test_lp_reference.py`` checks status and value against a
dense tableau that has each bound as a row.
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
    def _row(self) -> tuple[list[tuple[str, int]], int, int, bool]:
        """The constraint as one integer ``<=`` row ``(coefficients, slack
        entry, rhs, slack fixed at 0)``, scaled by the lcm of its
        denominators (the slack's entry), negated for ``>=``."""
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {self.sense!r}")
        coeffs = [(v, _exact(a)) for v, a in self.coeffs.items() if a]
        rhs = _exact(self.rhs)
        scale = lcm(rhs.denominator, *(a.denominator for _, a in coeffs))
        sign = -1 if self.sense == ">=" else 1
        ints = [(v, sign * a.numerator * (scale // a.denominator)) for v, a in coeffs]
        b = sign * rhs.numerator * (scale // rhs.denominator)
        return ints, scale, b, self.sense == "=="


class _Optimum(NamedTuple):
    """The final tableau of an optimal solve, for warm starts.  Rows are
    never changed in place, so a warm start shares them."""

    objective: dict
    upper: dict
    costs: dict  # objective column -> its cost times ``scale``, an int
    scale: int
    constraints: tuple  # the constraints solved, a warm start's prefix
    index: dict  # variable name -> column
    tableau: list[dict]
    basis: list[int]
    obj: dict
    bounds: dict  # column -> its upper bound, 0 for an ``==`` row's slack
    flipped: set  # the complemented columns
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
        self.status = status  # "optimal" | "infeasible"
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
        ``nums`` lacks it."""
        opt = self.optimum
        at = {j: v for v, j in opt.index.items()}
        den, nums = _scaled(opt, at)
        return den, {at[j]: n for j, n in nums.items()}

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


def _bound(u) -> int:
    """An upper bound as an int; it must be a nonnegative integer."""
    u = _exact(u)
    if u < 0 or u.denominator != 1:
        raise ValueError(f"an upper bound must be a nonnegative integer, not {u!r}")
    return int(u)


def _scaled(opt: _Optimum, cols) -> tuple[int, dict]:
    """The values of the columns ``cols`` as ints over one denominator, the
    lcm of their rows' basic entries (a column missing from the result is
    0).  A basic value is its row's rhs over its basic entry; a complemented
    column's value is its bound minus that."""
    flipped, bounds = opt.flipped, opt.bounds
    rows = [(b, r.get(0, 0), r[b]) for r, b in zip(opt.tableau, opt.basis)
            if b in cols and (0 in r or b in flipped)]
    den = lcm(1, *(d for _, _, d in rows))
    nums = {j: bounds[j] * den for j in flipped if j in cols}
    for b, n, d in rows:
        n *= den // d
        nums[b] = bounds[b] * den - n if b in flipped else n
    return den, nums


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


def _complement(r: dict, col: int, u: int) -> dict:
    """Row ``r`` with its basic column ``col`` complemented (bound ``u``)
    and negated, so the basic entry stays positive."""
    out = {j: -a for j, a in r.items() if j}
    out[col] = r[col]
    if x := r[col] * u - r.get(0, 0):
        out[0] = x
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


def _infeasible(r: dict, b: int, bounds: dict) -> bool:
    """Is the basic value of row ``r`` negative or above its bound?"""
    x = r.get(0, 0)
    return x < 0 or (x > 0 and b in bounds and x > bounds[b] * r[b])


def _run_dual(tableau: list[dict], obj: dict, basis: list[int], bounds: dict,
              flipped: set, first: int) -> str:
    """Pivot a dual-feasible tableau until every basic value lies in its
    bounds, by Bland's dual rule (see the module docstring).  The rows
    before ``first`` are feasible; after that, only the rows a pivot
    rewrites can change."""
    bad = {i for i in range(first, len(tableau))
           if _infeasible(tableau[i], basis[i], bounds)}
    while bad:
        row = min(bad, key=basis.__getitem__)
        r = tableau[row]
        if r.get(0, 0) > 0:
            b = basis[row]
            r = tableau[row] = _complement(r, b, bounds[b])
            flipped ^= {b}
        col = -1
        best_o = best_a = 0
        for j, a in r.items():
            if a < 0 < j and bounds.get(j) != 0:
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
        bad.difference_update(rewrote)
        bad.update(i for i in rewrote if _infeasible(tableau[i], basis[i], bounds))
    return "optimal"


def solve_max(objective: dict, constraints: list[Constraint], *,
              upper: dict | None = None, start: LPResult | None = None) -> LPResult:
    """Maximize ``objective . x`` subject to the constraints, ``x >= 0`` and
    ``x <= upper[x]`` for each variable in ``upper`` (nonnegative ints).
    Every variable of positive cost must be in ``upper``; a cold solve
    raises ``ValueError`` naming those that are not.  The point names every
    variable of the objective, rows and ``upper``.

    With ``start``, an optimal result of this objective and these bounds
    whose constraints are a prefix of ``constraints`` (the same objects),
    its tableau is re-optimised with the appended rows instead of solving
    from scratch; any other ``start`` raises ``ValueError``.
    """
    upper = {} if upper is None else upper
    if start is None:
        # the empty system, with each column of positive cost at its bound
        names = sorted({*objective, *upper, *(v for c in constraints for v in c.coeffs)})
        index = {v: j for j, v in enumerate(names, 1)}
        costs = {index[v]: e for v, a in objective.items() if (e := _exact(a))}
        scale = lcm(1, *(a.denominator for a in costs.values()))
        costs = {j: a.numerator * (scale // a.denominator) for j, a in costs.items()}
        bounds = {j: _bound(upper[v]) for v, j in index.items() if v in upper}
        flipped = {j for j, c in costs.items() if c > 0}
        if free := sorted(flipped - bounds.keys()):
            raise ValueError("a variable of positive cost needs an upper bound: "
                             + ", ".join(repr(names[j - 1]) for j in free))
        opt = _Optimum(dict(objective), upper, costs, scale, (), index, [], [],
                       {j: c if j in flipped else -c for j, c in costs.items()},
                       bounds, flipped, len(names) + 1)
    else:
        opt = start.optimum
        if (opt is None or objective != opt.objective
                or (upper is not opt.upper and upper != opt.upper)
                or len(constraints) < len(opt.constraints)
                or not all(map(is_, opt.constraints, constraints))):
            raise ValueError("start must be an optimal result on the same "
                             "objective and bounds whose constraints are a "
                             "prefix of these")
    appended = constraints[len(opt.constraints):]

    # Column layout: the parent's columns, then the new variables, then one
    # slack per new row.  The parent's rows are shared as they are.
    new = sorted({v for c in appended for v in c.coeffs} - opt.index.keys())
    tableau, basis, obj = list(opt.tableau), list(opt.basis), dict(opt.obj)
    index, bounds, flipped = opt.index, dict(opt.bounds), set(opt.flipped)
    if new:
        index = {**index, **{v: j for j, v in enumerate(new, opt.width)}}
        bounds.update((index[v], _bound(upper[v])) for v in new if v in upper)
    where = {b: i for i, b in enumerate(basis)}
    slack = opt.width + len(new)
    for coeffs, scale, rhs, fixed in [c._row for c in appended]:
        row = {slack: scale}
        for v, a in coeffs:
            j = index[v]
            if j in flipped:
                a = -a
                rhs += a * bounds[j]
            row[j] = a
        if rhs:
            row[0] = rhs
        if fixed:
            bounds[slack] = 0
        # Eliminate the basic columns, so the slack is this row's basic.
        # Only the coefficient columns can be basic: a basic row is zero in
        # every other basic column.
        for v, _ in coeffs:
            i = where.get(index[v])
            if i is not None:
                r, b = tableau[i], basis[i]
                row = _eliminate(row, r, r[b], row[b])
        tableau.append(row)
        basis.append(slack)
        slack += 1

    # the parent's rows are optimal, so only the appended ones can be infeasible
    if _run_dual(tableau, obj, basis, bounds, flipped, len(opt.tableau)) == "infeasible":
        return LPResult("infeasible")
    opt = _Optimum(opt.objective, upper, opt.costs, opt.scale, tuple(constraints),
                   index, tableau, basis, obj, bounds, flipped, slack)
    den, nums = _scaled(opt, opt.costs)
    return LPResult("optimal", Fraction(sum(c * nums.get(j, 0) for j, c in opt.costs.items()),
                                        den * opt.scale), optimum=opt)
