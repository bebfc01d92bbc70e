import random
from fractions import Fraction as F

import pytest

from mvmodal import lp
from mvmodal.lp import Constraint, solve_max


def test_textbook_maximum():
    res = solve_max({"x": F(1), "y": F(1)}, [
        Constraint({"x": F(1), "y": F(2)}, "<=", F(4)),
        Constraint({"x": F(3), "y": F(1)}, "<=", F(6)),
    ], upper={"x": 2, "y": 2})
    assert res.status == "optimal"
    assert res.value == F(14, 5)
    assert res.point == {"x": F(8, 5), "y": F(6, 5)}


def test_pivot_on_a_negative_entry_negates_its_row():
    # the dual simplex pivots on a negative entry: the row x1 - 2 x3 = -2
    # becomes 2 x3 - x1 = 2, over its positive entry in the entering column;
    # the column leaves the other row and the objective (each up to a
    # positive factor), and the row without it is not rewritten
    tableau = [{0: -2, 1: 1, 3: -2}, {0: 4, 2: 1, 3: 2}, {0: 1, 4: 1}]
    obj, basis = {3: 1, 4: 2}, [1, 2, 4]
    assert lp._pivot(tableau, obj, basis, 0, 3) == [0, 1]
    assert tableau == [{0: 2, 1: -1, 3: 2}, {0: 2, 1: 1, 2: 1}, {0: 1, 4: 1}]
    assert obj == {0: -2, 1: 1, 4: 4} and basis == [3, 2, 4]


def test_equalities_and_negative_rhs():
    res = solve_max({"t": F(-1)}, [Constraint({"t": F(1)}, "==", F(1))])
    assert res.status == "optimal" and res.value == F(-1)
    res = solve_max({"x": F(-1)}, [
        Constraint({"x": F(-1)}, "<=", F(-1, 2)),
        Constraint({"x": F(1)}, "<=", F(1)),
    ])
    assert res.value == F(-1, 2)


def test_infeasible_and_unbounded():
    res = solve_max({"x": F(1)}, [
        Constraint({"x": F(1)}, "<=", F(1)),
        Constraint({"x": F(1)}, ">=", F(2)),
    ], upper={"x": 1})
    assert res.status == "infeasible"
    # a positive cost needs a bound, so no maximum is unbounded
    with pytest.raises(ValueError, match="upper bound: 'x'$"):
        solve_max({"x": F(1)}, [Constraint({"y": F(1)}, "<=", F(1))])
    with pytest.raises(ValueError, match="upper bound: 'x', 'z'$"):
        solve_max({"z": F(1, 2), "y": F(-1), "x": F(1)}, [], upper={"y": 1})
    # a row with no nonzero coefficient
    res = solve_max({"x": F(1)}, [Constraint({}, "<=", F(-1))], upper={"x": 1})
    assert res.status == "infeasible"


def test_redundant_rows_and_degeneracy():
    res = solve_max({"x": F(1)}, [
        Constraint({"x": F(1)}, "==", F(1)),
        Constraint({"x": F(1)}, "==", F(1)),
        Constraint({"x": F(1), "y": F(1)}, "<=", F(1)),
    ], upper={"x": 1})
    assert res.status == "optimal" and res.value == 1 and res.point["y"] == 0
    res = solve_max({"x": F(1)}, [
        Constraint({"x": F(1)}, "<=", F(1)),
        Constraint({}, "==", F(0)),
        Constraint({"x": F(1), "y": F(1)}, ">=", F(1, 2)),
    ], upper={"x": 1})
    assert res.status == "optimal" and res.value == 1 and res.point["y"] == 0
    # no constraints at all
    res = solve_max({}, [])
    assert res.status == "optimal" and res.value == 0 and res.point == {}
    res = solve_max({"x": F(-1)}, [])
    assert res.status == "optimal" and res.value == 0 and res.point == {"x": 0}


def test_random_solutions_are_feasible_and_dominant():
    rng = random.Random(3)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        names = [f"v{i}" for i in range(nvars)]
        rows = [Constraint({v: F(1)}, "<=", F(1)) for v in names]
        for _ in range(rng.randint(1, 5)):
            coeffs = {v: F(rng.randint(-3, 3)) for v in names}
            rows.append(Constraint(coeffs, rng.choice(["<=", ">=", "=="]),
                                   F(rng.randint(-2, 3))))
        obj = {v: F(rng.randint(-3, 3)) for v in names}
        upper = {v: rng.randint(1, 4) for v, a in obj.items() if a > 0}
        res = solve_max(obj, rows, upper=upper)
        if res.status != "optimal":
            continue

        def feasible(pt):
            for c in rows:
                lhs = sum(a * pt.get(v, F(0)) for v, a in c.coeffs.items())
                if c.sense == "<=" and lhs > c.rhs:
                    return False
                if c.sense == ">=" and lhs < c.rhs:
                    return False
                if c.sense == "==" and lhs != c.rhs:
                    return False
            return True

        assert feasible(res.point)
        assert all(v >= 0 for v in res.point.values())
        assert all(res.point[v] <= u for v, u in upper.items())
        # random feasible points never beat the reported optimum
        for _ in range(30):
            pt = {v: F(rng.randint(0, 4), 4) for v in names}
            if feasible(pt):
                val = sum(a * pt[v] for v, a in obj.items())
                assert val <= res.value


def test_floats_are_rejected():
    for objective, row in (({"x": 1}, Constraint({"x": 1}, "<=", 0.1)),
                           ({"x": 1}, Constraint({"x": 0.5}, "<=", 1)),
                           ({"x": 0.5}, Constraint({"x": 1}, "<=", 1))):
        with pytest.raises(TypeError, match="floats are not exact"):
            solve_max(objective, [row], upper={"x": 1})
    rows = [Constraint({"x": 1}, "<=", F(1, 10))]
    res = solve_max({"x": 1}, rows, upper={"x": 1})
    with pytest.raises(TypeError, match="floats are not exact"):
        solve_max({"x": 1}, rows + [Constraint({"x": 1}, "<=", 0.05)],
                  upper={"x": 1}, start=res)


def test_bounds_are_data():
    # a bounded column of positive cost starts at its bound: no row needed
    res = solve_max({"x": F(1), "y": F(-1)}, [], upper={"x": 2, "y": 1, "z": 1})
    assert res.value == 2 and res.point == {"x": 2, "y": 0, "z": 0}
    # a bound of 0 fixes the variable, and a bound that cuts off every row
    # point makes the system infeasible
    res = solve_max({"x": F(1), "y": F(1)}, [Constraint({"x": 1, "y": 1}, "<=", 3)],
                    upper={"x": 0, "y": 3})
    assert res.value == 3 and res.point == {"x": 0, "y": 3}
    rows = [Constraint({"x": 1}, ">=", F(3, 2))]
    assert solve_max({"x": F(-1)}, rows, upper={"x": 1}).status == "infeasible"
    for bad in (F(1, 2), -1):
        with pytest.raises(ValueError, match="upper bound must be"):
            solve_max({"x": 1}, [], upper={"x": bad})
    # a warm start must keep the parent's bounds
    res = solve_max({"x": 1}, [], upper={"x": 1})
    assert solve_max({"x": 1}, [], upper={"x": 1}, start=res).value == 1
    with pytest.raises(ValueError):
        solve_max({"x": 1}, [], upper={"x": 2}, start=res)
