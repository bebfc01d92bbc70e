"""Reference oracle for ``mvmodal.lp``: the original dense Fraction simplex.

This is the two-phase tableau simplex with Bland's rule that ``mvmodal.lp``
used before its tableau became integer rows, kept verbatim.  Every entry is a
``Fraction`` and every pivot updates whole rows.  Both solvers choose the same
entering column and the same leaving row at every step, so the differential
test requires their results to be equal, not merely equally optimal.
"""

from __future__ import annotations

from fractions import Fraction

from mvmodal.lp import Constraint, LPResult


def _pivot(tableau: list[list[Fraction]], obj: list[Fraction],
           basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    inv = 1 / piv
    tableau[row] = [x * inv for x in tableau[row]]
    prow = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col]:
            f = r[col]
            tableau[i] = [a - f * b for a, b in zip(r, prow)]
    if obj[col]:
        f = obj[col]
        for j, b in enumerate(prow):
            if b:
                obj[j] -= f * b
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], obj: list[Fraction],
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
        best = None
        for i, r in enumerate(tableau):
            a = r[col]
            if a > 0:
                ratio = r[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best = ratio
                    row = i
        if row < 0:
            return "unbounded"
        _pivot(tableau, obj, basis, row, col)


def solve_max(objective: dict, constraints: list[Constraint]) -> LPResult:
    """Maximize ``objective . x`` subject to the constraints, ``x >= 0``."""
    names = sorted(set(objective) | {v for c in constraints for v in c.coeffs})
    index = {v: j for j, v in enumerate(names)}
    n = len(names)
    zero = Fraction(0)
    one = Fraction(1)

    # Normalize rows: senses to <= / ==, then rhs >= 0 by negation.
    rows = []
    for c in constraints:
        coeffs = {index[v]: Fraction(a) for v, a in c.coeffs.items() if a}
        rhs = Fraction(c.rhs)
        sense = c.sense
        if sense == ">=":
            coeffs = {j: -a for j, a in coeffs.items()}
            rhs = -rhs
            sense = "<="
        elif sense not in ("<=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        rows.append((coeffs, sense, rhs))

    # Count slack and artificial columns.
    nslack = sum(1 for _, s, _ in rows if s == "<=")
    slack_at = {}
    k = 0
    for i, (_, s, _) in enumerate(rows):
        if s == "<=":
            slack_at[i] = n + k
            k += 1
    art_at = {}
    k = 0
    for i, (coeffs, s, rhs) in enumerate(rows):
        neg = rhs < 0
        if s == "==" or (s == "<=" and neg):
            art_at[i] = n + nslack + k
            k += 1
    nart = k
    ncols = n + nslack + nart

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for i, (coeffs, s, rhs) in enumerate(rows):
        row = [zero] * (ncols + 1)
        for j, a in coeffs.items():
            row[j] = a
        if i in slack_at:
            row[slack_at[i]] = one
        row[-1] = rhs
        if rhs < 0:
            row = [-x for x in row]
        if i in art_at:
            row[art_at[i]] = one
            basis.append(art_at[i])
        else:
            basis.append(slack_at[i])
        tableau.append(row)

    # Phase 1: minimize the sum of artificials.
    if nart:
        obj = [zero] * (ncols + 1)
        for i, b in enumerate(basis):
            if b >= n + nslack:
                # price out the basic artificial: obj -= row
                for j, x in enumerate(tableau[i]):
                    if x:
                        obj[j] -= x
        for c in range(n + nslack, ncols):
            obj[c] += one
        status = _run_simplex(tableau, obj, basis, ncols)
        if status != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        if obj[-1] != 0:
            # obj[-1] holds minus the attained sum of artificials
            return LPResult("infeasible")
        # Drive any degenerate artificial out of the basis where possible.
        for i, b in enumerate(basis):
            if b >= n + nslack:
                for j in range(n + nslack):
                    if tableau[i][j] != 0:
                        _pivot(tableau, obj, basis, i, j)
                        break

    # Phase 2: maximize the real objective (rows now describe a feasible basis).
    obj = [zero] * (ncols + 1)
    for v, a in objective.items():
        obj[index[v]] = -Fraction(a)
    for i, b in enumerate(basis):
        if b < ncols and obj[b]:
            f = obj[b]
            for j, x in enumerate(tableau[i]):
                if x:
                    obj[j] -= f * x
    # Artificial columns are barred from re-entering the basis.
    status = _run_simplex(tableau, obj, basis, n + nslack)
    if status == "unbounded":
        return LPResult("unbounded")

    point = {v: zero for v in names}
    for i, b in enumerate(basis):
        if b < n:
            point[names[b]] = tableau[i][-1]
    value = sum((Fraction(a) * point[v] for v, a in objective.items()), zero)
    return LPResult(status, value, point)
