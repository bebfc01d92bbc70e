"""Differential battery: the integer-row simplex against the dense oracle.

The oracle is a dense two-phase Fraction tableau with artificial columns;
the package reaches feasibility by a dual simplex instead, so the two pivot
differently and may stop at different optimal vertices.  They must return
the same status and value, and an optimal point must cover the same
variables, be nonnegative, satisfy every row and attain the value.
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


def assert_same(objective, rows):
    got = solve_max(objective, rows)
    want = lp_reference.solve_max(objective, rows)
    assert got.status == want.status
    assert got.value == want.value
    if got.status == "optimal":
        assert got.point.keys() == want.point.keys()
        attains(got, objective, rows)
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
    # the rows of basic columns 7 and 1 tie in phase 2's ratio test; the
    # row of column 7 comes first in the tableau, but column 1 leaves
    pivots = []
    pivot = lp._pivot

    def recording(tableau, obj, basis, row, col):
        pivots.append((basis[row], col))
        return pivot(tableau, obj, basis, row, col)

    monkeypatch.setattr(lp, "_pivot", recording)
    rows = [Constraint({"v0": F(1)}, "<=", F(1)),
            Constraint({"v1": F(1)}, "<=", F(1)),
            Constraint({"v2": F(1)}, "<=", F(1)),
            Constraint({"v2": F(-1, 3), "v0": F(3, 2)}, ">=", F(0)),
            Constraint({"v2": F(-1), "v1": F(3), "v0": F(2, 3)}, "==", F(1, 2)),
            Constraint({"v2": F(1, 2), "v0": F(-9, 4)}, "<=", F(0))]
    res = assert_same({"v0": F(-1), "v1": F(-1), "v2": F(-2)}, rows)
    assert res.value == F(-1, 6)
    assert pivots == [(9, 1), (1, 2)]


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
