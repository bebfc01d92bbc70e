"""Differential battery: the integer-row simplex against the dense oracle.

The oracle is a dense two-phase Fraction tableau with artificial columns;
the package reaches feasibility by a dual simplex instead, so the two pivot
differently and may stop at different optimal vertices.  The oracle reads
each upper bound as a ``<=`` row.  They must return the same status and
value, and an optimal point must cover the same variables, be nonnegative
and within its bounds, satisfy every row and attain the value.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import lp_reference
from helpers import attains
from mvmodal import lp
from mvmodal.lp import Constraint, solve_max

SENSES = ("<=", ">=", "==")


def assert_same(objective, rows, upper=None, start=None):
    """Solve with ``upper`` as bounds (warm from ``start`` if given) and
    against the reference, which reads each bound as a ``<=`` row."""
    got = solve_max(objective, rows, upper=upper, start=start)
    bound_rows = [Constraint({v: 1}, "<=", u) for v, u in (upper or {}).items()]
    want = lp_reference.solve_max(objective, rows + bound_rows)
    assert got.status == want.status
    assert got.value == want.value
    if got.status == "optimal":
        assert got.point.keys() == want.point.keys()
        attains(got, objective, rows, upper)
    return got


def random_system(rng, nvars, nrows, den, box, lo):
    """Random rows with coefficients in [lo, 3] and rhs in [lo, 2]; lo = 0
    with den = 1 makes ties in the ratio test common."""
    names = [f"v{i}" for i in range(nvars)]

    def number(lo, hi):
        return F(rng.randint(lo * den, hi * den), rng.randint(1, den))

    rows = []
    if box:
        rows += [Constraint({v: F(1)}, "<=", F(1)) for v in names]
    for _ in range(nrows):
        coeffs = {v: number(lo, 3) for v in rng.sample(names, rng.randint(1, nvars))}
        rows.append(Constraint(coeffs, rng.choice(SENSES), number(lo, 2)))
        r = rng.random()
        if r < 0.15:
            rows.append(rows[-1])  # duplicated row
        elif r < 0.3:
            # the same row again, times -k with the sense flipped
            k = number(1, 3)
            flip = {"<=": ">=", ">=": "<=", "==": "=="}[rows[-1].sense]
            rows.append(Constraint({v: -k * a for v, a in rows[-1].coeffs.items()},
                                   flip, -k * rows[-1].rhs))
    objective = {v: number(-3, 3) for v in rng.sample(names, rng.randint(0, nvars))}
    return objective, rows


def test_random_battery_matches_reference():
    rng = random.Random(20210121)
    statuses = set()
    for case in range(600):
        ties = case % 2 == 0
        objective, rows = random_system(
            rng, nvars=rng.randint(1, 6), nrows=rng.randint(1, 7),
            den=1 if ties else rng.choice((1, 2, 6)), box=case % 3 != 0,
            lo=0 if ties else -3)
        statuses.add(assert_same(objective, rows).status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_degenerate_vertices_match_reference():
    # many constraints through the origin and through one corner: ties in
    # the ratio test are decided by the smallest basic index
    names = ["a", "b", "c"]
    rows = [Constraint({"a": F(1), "b": F(-1)}, "<=", F(0)),
            Constraint({"b": F(1), "c": F(-1)}, "<=", F(0)),
            Constraint({"a": F(1), "c": F(-1)}, "<=", F(0)),
            Constraint({"a": F(1), "b": F(1), "c": F(1)}, "<=", F(3)),
            Constraint({"a": F(2), "b": F(1)}, "<=", F(3)),
            Constraint({"c": F(1)}, "<=", F(1)),
            Constraint({"c": F(1)}, "==", F(1)),
            Constraint({"a": F(-1)}, ">=", F(-1))]
    for obj in ({"a": F(1)}, {"a": F(1), "b": F(1)}, {"c": F(-1)},
                {v: F(1) for v in names}, {}):
        assert_same(obj, rows)


def test_primal_ratio_tie_goes_to_least_basic_index(monkeypatch):
    # v1 has a positive cost and no bound, so the cold solve runs the dual
    # simplex on a zero objective and then the primal simplex.  There v1
    # (column 2) enters and the rows of basic columns 4 and 1 tie at ratio
    # 0; the row of column 4 comes first in the tableau, but column 1 leaves
    pivots = []
    pivot = lp._pivot

    def recording(tableau, obj, basis, row, col):
        pivots.append((basis[row], col))
        return pivot(tableau, obj, basis, row, col)

    monkeypatch.setattr(lp, "_pivot", recording)
    rows = [Constraint({"v0": F(-3)}, "<=", F(0)),
            Constraint({"v1": F(-3)}, "==", F(0)),
            Constraint({"v1": F(-1), "v0": F(-2)}, ">=", F(0)),
            Constraint({"v2": F(3, 2), "v0": F(-1), "v1": F(3, 2)}, "==", F(1))]
    res = assert_same({"v0": F(-1), "v1": F(1), "v2": F(1)}, rows,
                      {"v0": 1, "v2": 1})
    assert res.value == F(2, 3)
    assert pivots == [(7, 1), (6, 3), (1, 2)]


exact = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def systems(draw):
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    coeffs = st.dictionaries(st.sampled_from(names), exact, min_size=1)
    rows = draw(st.lists(st.builds(Constraint, coeffs, st.sampled_from(SENSES), exact),
                         min_size=1, max_size=6))
    objective = draw(st.dictionaries(st.sampled_from(names), exact))
    return objective, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(systems())
def test_hypothesis_matches_reference(system):
    assert_same(*system)


@st.composite
def bounded_generations(draw):
    """A system with bounds and one to three generations of appended rows.
    One variable ``v`` has a positive cost and a bound, so a cold solve
    starts with its column complemented; the first generation tightens it
    by the single-variable row ``2v <= 1`` (what ``p * p`` produces) and
    appends an ``==`` row."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    coeffs = st.dictionaries(st.sampled_from(names), exact, min_size=1)
    row = st.builds(Constraint, coeffs, st.sampled_from(SENSES), exact)
    upper = draw(st.dictionaries(st.sampled_from(names),
                                 st.sampled_from((0, 1, 1, 1, 2, 3))))
    objective = draw(st.dictionaries(st.sampled_from(names), exact))
    v = draw(st.sampled_from(names))
    upper[v] = draw(st.integers(1, 3))
    objective[v] = draw(st.fractions(min_value=F(1, 5), max_value=4, max_denominator=5))
    base = draw(st.lists(row, max_size=4))
    first = [Constraint({v: 2}, "<=", 1),
             Constraint(draw(coeffs), "==", draw(exact))] + draw(st.lists(row, max_size=2))
    more = draw(st.lists(st.lists(row, min_size=1, max_size=3), max_size=2))
    return objective, upper, base, [first] + more


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bounded_generations())
def test_bounded_generations_match_reference(system):
    """Bounds as data, cold and warm, against the reference with each bound
    as a ``<=`` row: the same status and value, and the point lies in its
    bounds, satisfies every row and attains the value."""
    objective, upper, rows, generations = system
    res = assert_same(objective, rows, upper)
    for extra in generations:
        if res.status != "optimal":
            break
        rows = rows + extra
        res = assert_same(objective, rows, upper, start=res)


def test_primal_within_bounds_matches_reference(monkeypatch):
    """Packing systems where every other variable is bounded, so a cold
    solve whose positive costs include an unbounded column runs the primal
    phase: an entering column that reaches its own bound first is
    complemented, and a basic column that rises to its bound is complemented
    before it leaves."""
    steps = {"own bound": 0, "basic bound": 0}
    in_primal = [False]
    complement, run_simplex = lp._complement, lp._run_simplex

    def counting(r, col, u, basic=False):
        if in_primal[0]:
            steps["basic bound" if basic else "own bound"] += 1
        return complement(r, col, u, basic)

    def primal(*args):
        in_primal[0] = True
        try:
            return run_simplex(*args)
        finally:
            in_primal[0] = False

    monkeypatch.setattr(lp, "_complement", counting)
    monkeypatch.setattr(lp, "_run_simplex", primal)
    rng = random.Random(5)
    for _ in range(300):
        names = [f"x{i}" for i in range(rng.randint(2, 4))]
        rows = [Constraint({v: rng.randint(0, 3) for v in names},
                           rng.choice(("<=", "<=", "==")), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))]
        objective = {v: rng.randint(-1, 3) for v in names}
        assert_same(objective, rows, {v: rng.randint(1, 2) for v in names[::2]})
    assert min(steps.values()) >= 10, steps
