"""Exact linear programming over the rationals.

A two-phase tableau simplex with Bland's rule: termination is guaranteed and
every reported optimum or infeasibility is exact.  All variables are
implicitly nonnegative; upper bounds are ordinary rows.

The tableau holds Python ints only.  A row is a list of integer numerators
over one positive denominator, and that denominator is the row's own entry
in its basic column (whose true value is 1), so it needs no separate slot.
After every update a row is divided by the gcd of its entries, which keeps
the integers small.  The objective row is kept up to a positive factor
only, because the simplex reads nothing from it but signs.

A pivot eliminates only over the nonzero columns of the pivot row and skips
every row that is zero in the pivot column.  The ratio test compares
``rhs_i / a_i`` by cross-multiplication (the row denominators cancel), and
Fractions appear only in the returned point and value.  Every comparison is
exact, so the entering column (smallest index with a negative reduced
cost), the leaving row (least ratio, ties to the smallest basic index) and
hence the whole pivot sequence and the optimum are those of the dense
Fraction tableau this replaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = ["Constraint", "LPResult", "solve_max"]


@dataclass(frozen=True)
class Constraint:
    coeffs: dict
    sense: str  # "<=", ">=", "=="
    rhs: Fraction


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    point: dict | None = None


def _exact(a) -> Fraction | int:
    """``a`` as an int or Fraction, so it has a numerator and denominator."""
    return a if isinstance(a, (int, Fraction)) else Fraction(a)


def _eliminate(r: list[int], prow: list[int], nz: list[int], p: int,
               f: int) -> list[int]:
    """``r - (f / p) * prow`` times the positive factor ``p / gcd(p, f)``
    (``p > 0``), updated only over ``nz``, the nonzero columns of ``prow``,
    then divided by the gcd of its entries."""
    g = gcd(p, f)
    if g != 1:
        p //= g
        f //= g
    out = r[:] if p == 1 else [x * p for x in r]
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
        if i != row and r[col]:
            tableau[i] = _eliminate(r, prow, nz, p, r[col])
    if obj[col]:
        obj[:] = _eliminate(obj, prow, nz, p, obj[col])
    basis[row] = col


def _run_simplex(tableau: list[list[int]], obj: list[int],
                 basis: list[int], limit: int) -> str:
    """Pivot until optimal, entering only columns below ``limit``.

    The objective row holds negated costs plus row combinations, so a column
    with a negative entry improves the maximum; Bland's rule (smallest
    entering index, smallest basic index on ratio ties) prevents cycling.
    """
    while True:
        col = -1
        for j in range(limit):
            if obj[j] < 0:
                col = j
                break
        if col < 0:
            return "optimal"
        row = -1
        best_b = best_a = 0
        for i, r in enumerate(tableau):
            a = r[col]
            if a > 0:
                # ratio r[-1] / a against best_b / best_a, both a's positive
                d = r[-1] * best_a - best_b * a
                if row < 0 or d < 0 or (d == 0 and basis[i] < basis[row]):
                    best_b, best_a = r[-1], a
                    row = i
        if row < 0:
            return "unbounded"
        _pivot(tableau, obj, basis, row, col)


def solve_max(objective: dict, constraints: list[Constraint]) -> LPResult:
    """Maximize ``objective . x`` subject to the constraints, ``x >= 0``."""
    names = sorted(set(objective) | {v for c in constraints for v in c.coeffs})
    index = {v: j for j, v in enumerate(names)}
    n = len(names)

    # Rows become <= or == (negating >= rows), then get rhs >= 0 (negating
    # rows with negative rhs).  Column layout: variables, then one slack per
    # <= row, then one artificial per == row or per row with negative rhs.
    heads = []
    for c in constraints:
        if c.sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {c.sense!r}")
        rhs = _exact(c.rhs)
        heads.append((c.sense != "==", (-rhs if c.sense == ">=" else rhs) < 0, rhs))
    nslack = sum(1 for slack, _, _ in heads if slack)
    nart = sum(1 for slack, neg, _ in heads if neg or not slack)
    ncols = n + nslack + nart

    # Integer rows straight from the coefficients, scaled by the lcm of
    # their denominators; the basic slack or artificial entry is that scale.
    tableau: list[list[int]] = []
    basis: list[int] = []
    slack_col = n
    art_col = n + nslack
    for c, (slack, neg, rhs) in zip(constraints, heads):
        coeffs = [(index[v], _exact(a)) for v, a in c.coeffs.items() if a]
        scale = lcm(rhs.denominator, *(a.denominator for _, a in coeffs))
        sign = -1 if (c.sense == ">=") != neg else 1
        row = [0] * (ncols + 1)
        for j, a in coeffs:
            row[j] = sign * a.numerator * (scale // a.denominator)
        row[-1] = abs(rhs.numerator) * (scale // rhs.denominator)
        if slack:
            row[slack_col] = -scale if neg else scale
            basic = slack_col
            slack_col += 1
        if neg or not slack:
            row[art_col] = scale
            basic = art_col
            art_col += 1
        basis.append(basic)
        tableau.append(row)

    # Phase 1: minimize the sum of artificials.
    if nart:
        obj = [0] * (ncols + 1)
        for c in range(n + nslack, ncols):
            obj[c] = 1
        obj = _price_out(obj, tableau, basis)
        status = _run_simplex(tableau, obj, basis, ncols)
        if status != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        if obj[-1] != 0:
            # obj[-1] is a positive multiple of minus the attained sum of
            # artificials
            return LPResult("infeasible")
        # Drive any degenerate artificial out of the basis where possible.
        for i, b in enumerate(basis):
            if b >= n + nslack:
                for j in range(n + nslack):
                    if tableau[i][j] != 0:
                        _pivot(tableau, obj, basis, i, j)
                        break

    # Phase 2: maximize the real objective (rows now describe a feasible basis).
    costs = {index[v]: _exact(a) for v, a in objective.items()}
    scale = lcm(1, *(a.denominator for a in costs.values()))
    obj = [0] * (ncols + 1)
    for j, a in costs.items():
        obj[j] = -a.numerator * (scale // a.denominator)
    obj = _price_out(obj, tableau, basis)
    # Artificial columns are barred from re-entering the basis.
    status = _run_simplex(tableau, obj, basis, n + nslack)
    if status == "unbounded":
        return LPResult("unbounded")

    zero = Fraction(0)
    point = {v: zero for v in names}
    for i, b in enumerate(basis):
        if b < n:
            point[names[b]] = Fraction(tableau[i][-1], tableau[i][b])
    value = sum((Fraction(a) * point[v] for v, a in objective.items()), zero)
    return LPResult(status, value, point)
