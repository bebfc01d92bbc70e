"""Differential battery: the integer-row simplex against the dense oracle.

The oracle is a dense two-phase Fraction tableau with artificial columns;
the package reaches feasibility by a dual simplex instead, so the two pivot
differently and may stop at different optimal vertices.  The oracle reads
each upper bound as a ``<=`` row.  Every variable of positive cost has a
bound, drawn from 1 to 4 where the rows do not already imply one, so no
system is unbounded.  The two must return the same status and value, and
an optimal point must cover the same variables, be nonnegative and within
its bounds, satisfy every row and attain the value.
"""

import random
from fractions import Fraction as F
from unittest.mock import patch

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
    """Random rows with coefficients in [lo, 3] and rhs in [lo, 2], and a
    bound in 1..4 on each variable of positive cost; lo = 0 with den = 1
    makes ties in the ratio test common."""
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
    upper = {v: rng.randint(1, 4) for v, a in objective.items() if a > 0}
    return objective, rows, upper


def test_random_battery_matches_reference():
    rng = random.Random(20210121)
    statuses = set()
    for case in range(600):
        ties = case % 2 == 0
        objective, rows, upper = random_system(
            rng, nvars=rng.randint(1, 6), nrows=rng.randint(1, 7),
            den=1 if ties else rng.choice((1, 2, 6)), box=case % 3 != 0,
            lo=0 if ties else -3)
        statuses.add(assert_same(objective, rows, upper).status)
    assert statuses == {"optimal", "infeasible"}


def test_degenerate_vertices_match_reference():
    # many constraints through the origin and through one corner: ties in
    # the ratio test are decided by the smallest basic index.  The rows give
    # a <= b <= c <= 1, so a bound of 1 on each positive cost cuts nothing
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
        assert_same(obj, rows, {v: 1 for v, a in obj.items() if a > 0})


exact = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def systems(draw):
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    coeffs = st.dictionaries(st.sampled_from(names), exact, min_size=1)
    rows = draw(st.lists(st.builds(Constraint, coeffs, st.sampled_from(SENSES), exact),
                         min_size=1, max_size=6))
    objective = draw(st.dictionaries(st.sampled_from(names), exact))
    upper = {v: draw(st.integers(1, 4)) for v, a in objective.items() if a > 0}
    return objective, rows, upper


@settings(max_examples=200, deadline=None, derandomize=True)
@given(systems())
def test_hypothesis_matches_reference(system):
    # these systems make at most 5 pivots in a solve, so a cycling simplex
    # fails at once, not at the package cap
    with patch.object(lp, "PIVOT_CAP", 1_000):
        assert_same(*system)


@st.composite
def bounded_generations(draw):
    """A system with bounds and one to three generations of appended rows.
    Every variable of positive cost has a bound, so a cold solve starts
    with its column complemented.  One variable ``v`` has a positive cost
    for sure; the first generation tightens it
    by the single-variable row ``2v <= 1`` (what ``p * p`` produces) and
    appends an ``==`` row."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    coeffs = st.dictionaries(st.sampled_from(names), exact, min_size=1)
    row = st.builds(Constraint, coeffs, st.sampled_from(SENSES), exact)
    upper = draw(st.dictionaries(st.sampled_from(names),
                                 st.sampled_from((0, 1, 1, 1, 2, 3))))
    objective = draw(st.dictionaries(st.sampled_from(names), exact))
    for x, a in objective.items():
        if a > 0 and x not in upper:
            upper[x] = draw(st.integers(1, 4))
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
    # these systems make at most 4 pivots in a solve, so a cycling simplex
    # fails at once, not at the package cap
    with patch.object(lp, "PIVOT_CAP", 1_000):
        res = assert_same(objective, rows, upper)
        for extra in generations:
            if res.status != "optimal":
                break
            rows = rows + extra
            res = assert_same(objective, rows, upper, start=res)


def test_above_bound_complements_match_reference(monkeypatch):
    """Packing systems with every other variable bounded, and every
    variable of positive cost: a cold solve starts those columns at their
    bounds, which pushes basic values above theirs, so the dual simplex
    complements a basic column before it leaves."""
    complements = 0
    complement = lp._complement

    def counting(*args):
        nonlocal complements
        complements += 1
        return complement(*args)

    monkeypatch.setattr(lp, "_complement", counting)
    rng = random.Random(5)
    for _ in range(300):
        names = [f"x{i}" for i in range(rng.randint(2, 4))]
        rows = [Constraint({v: rng.randint(0, 3) for v in names},
                           rng.choice(("<=", "<=", "==")), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))]
        objective = {v: rng.randint(-1, 3) for v in names}
        upper = {v: rng.randint(1, 2) for v in names[::2]}
        upper |= {v: rng.randint(1, 4) for v, a in objective.items()
                  if a > 0 and v not in upper}
        assert_same(objective, rows, upper)
    assert complements >= 10, complements
