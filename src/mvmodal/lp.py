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
nonbasic fixed column never enters.  The value is kept as two ints and the
point is read only when asked for, both with the complemented columns.

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
(``start``) copies the parent's row list, basis and objective row, and
shares the rest until an appended row or a pivot changes it.
``tests/test_lp_reference.py`` checks status and value against a dense
tableau that has each bound as a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import is_
from typing import NamedTuple

__all__ = ["Constraint", "LPResult", "solve_max"]


# more pivots than this in one solve are taken for a fault, so a correct but
# longer solve is refused too; the tests and benchmarks make at most 21
PIVOT_CAP = 100_000


@dataclass(frozen=True)
class Constraint:
    """``coeffs . x  sense  rhs``.  The coefficients are read by every solve
    that appends the constraint, and must not change once it is solved."""

    coeffs: dict
    sense: str  # "<=", ">=", "=="
    rhs: int | Fraction

    def _row(self) -> tuple[dict, int, int, int, bool]:
        """``(coefficients, sign, slack entry, rhs, slack fixed at 0)``: the
        ``<=`` row is ``sign`` times the nonzero ints, scaled by the lcm of
        the denominators (the slack's entry); a row of nonzero ints is ``coeffs``."""
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {self.sense!r}")
        coeffs, rhs, fixed = self.coeffs, self.rhs, self.sense == "=="
        sign = -1 if self.sense == ">=" else 1
        if type(rhs) is int and all([type(a) is int and a for a in coeffs.values()]):
            return coeffs, sign, 1, rhs, fixed
        exact = {v: _exact(a) for v, a in coeffs.items() if a}
        rhs = _exact(rhs)
        scale = lcm(rhs.denominator, *(a.denominator for a in exact.values()))
        ints = {v: a.numerator * (scale // a.denominator) for v, a in exact.items()}
        return ints, sign, scale, rhs.numerator * (scale // rhs.denominator), fixed


class _Optimum(NamedTuple):
    """The final tableau of an optimal solve, for warm starts, and its value
    ``num / den``.  Nothing in it is changed in place, so warm starts share it."""

    objective: dict
    upper: dict
    costs: dict  # objective column -> its cost times ``scale``, an int
    scale: int
    constraints: tuple  # the constraints solved, a warm start's prefix
    index: dict  # variable name -> column
    names: dict  # variable column -> name
    tableau: list[dict]
    basis: list[int]
    obj: dict
    bounds: dict  # column -> its upper bound, 0 for an ``==`` row's slack
    flipped: set  # the complemented columns
    width: int  # the next free column
    num: int  # the value is num / den, den > 0
    den: int


class LPResult:
    """Status, optimal value and optimal point of a solve.

    An optimal result of ``solve_max`` keeps its final tableau and value in
    ``optimum`` and builds ``value`` and ``point`` from them when first read;
    warm starts never change them.  ``repr`` and ``==`` see status, value and
    point only.
    """

    __slots__ = ("status", "optimum", "_value", "_point")

    def __init__(self, status: str, value: Fraction | None = None,
                 point: dict | None = None, optimum: _Optimum | None = None):
        self.status = status  # "optimal" | "infeasible"
        self.optimum = optimum
        self._value = value
        self._point = point

    @property
    def value(self) -> Fraction | None:
        """The optimal value, as a Fraction."""
        if self._value is None and self.optimum is not None:
            self._value = Fraction(self.optimum.num, self.optimum.den)
        return self._value

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
        den, nums = _scaled(opt.tableau, opt.basis, opt.bounds, opt.flipped, opt.names)
        return den, {opt.names[j]: n for j, n in nums.items()}

    def __eq__(self, other):
        if not isinstance(other, LPResult):
            return NotImplemented
        return ((self.status, self.value, self.point)
                == (other.status, other.value, other.point))

    def __repr__(self):
        return (f"LPResult(status={self.status!r}, value={self.value!r}, "
                f"point={self.point!r})")


def _scaled(tableau: list[dict], basis: list[int], bounds: dict, flipped: set,
            cols) -> tuple[int, dict]:
    """The values of the columns ``cols`` as ints over one denominator, the
    lcm of their rows' basic entries (a column missing from the result is
    0).  A basic value is its row's rhs over its basic entry; a complemented
    column's value is its bound minus that."""
    rows = [(b, r) for r, b in zip(tableau, basis) if b in cols and (0 in r or b in flipped)]
    den = lcm(1, *[r[b] for b, r in rows])
    nums = {j: bounds[j] * den for j in flipped if j in cols}
    for b, r in rows:
        n = r.get(0, 0) * (den // r[b])
        nums[b] = bounds[b] * den - n if b in flipped else n
    return den, nums


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


def _run_dual(tableau: list[dict], obj: dict, basis: list[int], bounds: dict,
              flipped: set, bad: set) -> set | None:
    """Pivot a dual-feasible tableau until every basic value lies in its
    bounds, by Bland's dual rule (see the module docstring): ``bad`` holds
    the rows out of them, and only the rows a pivot rewrites can change.
    Returns the complemented columns then (a new set if any changed), or
    None if infeasible; more than ``PIVOT_CAP`` pivots raise RuntimeError."""
    pivots = 0
    while bad:
        row = min(bad, key=basis.__getitem__)
        r = tableau[row]
        if r.get(0, 0) > 0:
            b = basis[row]
            r = tableau[row] = _complement(r, b, bounds[b])
            flipped = flipped ^ {b}
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
            return None
        pivots += 1
        if pivots > PIVOT_CAP:
            raise RuntimeError(f"more than {PIVOT_CAP} pivots in one solve")
        for i in _pivot(tableau, obj, basis, row, col):
            # is the rewritten row's basic value below 0 or above its bound?
            r, b = tableau[i], basis[i]
            x = r.get(0, 0)
            if x < 0 or (x > 0 and b in bounds and x > bounds[b] * r[b]):
                bad.add(i)
            else:
                bad.discard(i)
    return flipped


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
    from scratch; any other ``start`` raises ``ValueError``.  A solve that
    makes more than ``PIVOT_CAP`` pivots raises ``RuntimeError``.
    """
    upper = {} if upper is None else upper
    if start is None:
        # the empty system, with each column of positive cost at its bound
        names = sorted(set(objective).union(upper, *[c.coeffs for c in constraints]))
        index = dict(zip(names, range(1, len(names) + 1)))
        costs = {index[v]: e for v, a in objective.items() if (e := _exact(a))}
        scale = lcm(1, *[a.denominator for a in costs.values()])
        costs = {j: a.numerator * (scale // a.denominator) for j, a in costs.items()}
        bounds = {index[v]: _bound(u) for v, u in upper.items()}
        flipped = {j for j, c in costs.items() if c > 0}
        if not flipped <= bounds.keys():
            raise ValueError("a variable of positive cost needs an upper bound: " + ", ".join(
                repr(names[j - 1]) for j in sorted(flipped - bounds.keys())))
        objective, names, appended = dict(objective), dict(enumerate(names, 1)), constraints
        tableau, basis, obj = [], [], {j: c if j in flipped else -c for j, c in costs.items()}
        slack, parent = len(names) + 1, ()
    else:
        opt = start.optimum
        if (opt is None or objective != opt.objective
                or (upper is not opt.upper and upper != opt.upper)
                or len(constraints) < len(opt.constraints)
                or not all(map(is_, opt.constraints, constraints))):
            raise ValueError("start must be an optimal result on the same "
                             "objective and bounds whose constraints are a "
                             "prefix of these")
        objective, costs, scale, index, names, bounds, flipped = (
            opt.objective, opt.costs, opt.scale, opt.index, opt.names, opt.bounds, opt.flipped)
        parent = opt.basis
        tableau, basis, obj = list(opt.tableau), list(parent), dict(opt.obj)
        appended, slack = constraints[len(opt.constraints):], opt.width
        # columns: the parent's, then the new variables, then one slack per new row
        if new := {v for c in appended for v in c.coeffs if v not in index}:
            new = dict(enumerate(sorted(new), slack))
            names, index = {**names, **new}, {**index, **{v: j for j, v in new.items()}}
            slack += len(new)
    bad = set()
    for c in appended:
        coeffs, sign, entry, rhs, fixed = c._row()
        row = {slack: entry}
        rhs *= sign
        for v, a in coeffs.items():
            j, a = index[v], sign * a
            if j in flipped:
                a = -a
                rhs += a * bounds[j]
            row[j] = a
        if rhs:
            row[0] = rhs
        # Eliminate the basic columns, so the slack is this row's basic.
        # Only the coefficient columns can be basic: a basic row is zero in
        # every other basic column.
        for v in coeffs:
            if (j := index[v]) in parent:
                r = tableau[parent.index(j)]
                row = _eliminate(row, r, r[j], row[j])
        if fixed:
            bounds = {**bounds, slack: 0}
        # the parent's rows are optimal, so only the appended ones can be
        # out of bounds: below 0, or above a fixed slack's 0
        x = row.get(0, 0)
        if x < 0 or (fixed and x > 0):
            bad.add(len(tableau))
        tableau.append(row)
        basis.append(slack)
        slack += 1

    flipped = _run_dual(tableau, obj, basis, bounds, flipped, bad)
    if flipped is None:
        return LPResult("infeasible")
    den, nums = _scaled(tableau, basis, bounds, flipped, costs)
    num = sum([c * nums.get(j, 0) for j, c in costs.items()])
    return LPResult("optimal", optimum=_Optimum(
        objective, upper, costs, scale, tuple(constraints), index, names,
        tableau, basis, obj, bounds, flipped, slack, num, den * scale))
