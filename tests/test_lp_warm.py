"""Differential battery: warm-started solves against cold ones.

Each system is solved cold, then extended over one to three generations of
appended rows.  Every generation is solved twice, warm from the previous
generation's result and cold from scratch: the status and value must agree,
and the warm point must satisfy every constraint and attain the value.  The
optimal vertex itself may differ.  Every variable of positive cost has a
bound, drawn from 1 to 4 where the rows do not already imply one.
"""

import random
from fractions import Fraction as F
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import attains, random_formula
from mvmodal import lp
from mvmodal.algebras import StdMV
from mvmodal.decision import decide_cardinality, luk_consequence
from mvmodal.formulas import parse as P
from mvmodal.lp import Constraint, LPResult, solve_max

SENSES = ("<=", ">=", "==")
FLIP = {"<=": ">=", ">=": "<=", "==": "=="}


def check_sparse(res):
    """An optimal result stores no zero entry, in a row or in the objective
    row; each row's entry in its basic column is positive, and every column
    is below ``width``."""
    if res.status == "optimal":
        opt = res.optimum
        for r, b in zip(opt.tableau, opt.basis):
            assert 0 not in r.values() and r[b] > 0
            assert all(0 <= j < opt.width for j in r)
        assert 0 not in opt.obj.values()


def check_generations(objective, upper, base, generations):
    """Solve ``base`` cold, then each generation of appended rows warm and
    cold; returns the statuses of the warm solves."""
    res = solve_max(objective, base, upper=upper)
    check_sparse(res)
    rows = list(base)
    statuses = []
    for extra in generations:
        if res.status != "optimal":
            break
        rows = rows + extra
        warm = solve_max(objective, rows, upper=upper, start=res)
        cold = solve_max(objective, rows, upper=upper)
        check_sparse(warm)
        check_sparse(cold)
        assert (warm.status, warm.value) == (cold.status, cold.value)
        if warm.status == "optimal":
            attains(warm, objective, rows, upper)
        statuses.append(warm.status)
        res = warm
    return statuses


def random_rows(rng, names, k, earlier):
    """``k`` rows over ``names``; some repeat or negate an earlier row."""
    rows = []
    for _ in range(k):
        r = rng.random()
        if earlier and r < 0.15:
            rows.append(rng.choice(earlier))
        elif earlier and r < 0.3:
            c = rng.choice(earlier)
            m = F(rng.randint(1, 3), rng.randint(1, 2))
            rows.append(Constraint({v: -m * a for v, a in c.coeffs.items()},
                                   FLIP[c.sense], -m * c.rhs))
        else:
            coeffs = {v: F(rng.randint(-3, 3), rng.randint(1, 3))
                      for v in rng.sample(names, rng.randint(1, len(names)))}
            rows.append(Constraint(coeffs, rng.choice(SENSES),
                                   F(rng.randint(-3, 3), rng.randint(1, 2))))
        earlier = earlier + rows[-1:]
    return rows


def test_seeded_generations_match_cold():
    rng = random.Random(4471)
    seen = set()
    for case in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 5))]
        base = [Constraint({v: F(1)}, "<=", F(1)) for v in names] if case % 4 else []
        base += random_rows(rng, names, rng.randint(0, 3), base)
        objective = {v: F(rng.randint(-3, 3)) for v in rng.sample(names, rng.randint(0, len(names)))}
        upper = {v: rng.randint(1, 4) for v, a in objective.items() if a > 0}
        generations = []
        earlier = list(base)
        for _ in range(rng.randint(1, 3)):
            # now and then a variable the parent never saw
            pool = names + ["fresh"] if rng.random() < 0.2 else names
            extra = random_rows(rng, pool, rng.randint(1, 3), earlier)
            generations.append(extra)
            earlier += extra
        seen.update(check_generations(objective, upper, base, generations))
    assert seen == {"optimal", "infeasible"}


exact = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def extended_systems(draw):
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    coeffs = st.dictionaries(st.sampled_from(names), exact, min_size=1)
    row = st.builds(Constraint, coeffs, st.sampled_from(SENSES), exact)
    bounds = [Constraint({v: F(1)}, "<=", F(1)) for v in names]
    base = bounds + draw(st.lists(row, max_size=4))
    generations = draw(st.lists(st.lists(row, min_size=1, max_size=3),
                                min_size=1, max_size=3))
    objective = draw(st.dictionaries(st.sampled_from(names), exact))
    upper = {v: draw(st.integers(1, 4)) for v, a in objective.items() if a > 0}
    return objective, upper, base, generations


@settings(max_examples=200, deadline=None, derandomize=True)
@given(extended_systems())
def test_hypothesis_generations_match_cold(system):
    check_generations(*system)


def test_start_must_be_an_optimal_prefix():
    x = Constraint({"x": F(1)}, "<=", F(1))
    y = Constraint({"x": F(1)}, ">=", F(1, 2))
    upper = {"x": 1}
    res = solve_max({"x": F(1)}, [x], upper=upper)
    assert solve_max({"x": F(1)}, [x, y], upper=upper, start=res).value == 1
    bad = [
        ({"x": F(1)}, [Constraint({"x": F(1)}, "<=", F(1)), y]),  # equal, not the same
        ({"x": F(1)}, [y, x]),                                     # not a prefix
        ({"x": F(1)}, []),                                         # shorter
        ({"x": F(2)}, [x, y]),                                     # other objective
    ]
    for objective, rows in bad:
        with pytest.raises(ValueError):
            solve_max(objective, rows, upper=upper, start=res)
    infeasible = solve_max({"x": F(1)}, [x, Constraint({"x": F(1)}, ">=", F(2))],
                           upper=upper)
    assert infeasible.status == "infeasible"
    with pytest.raises(ValueError):
        solve_max({"x": F(1)}, [x, y], upper=upper, start=infeasible)


def test_warm_solves_share_the_parent_rows():
    """Rows that no pivot touches stay the parent's own row objects, however
    many columns the descendants append."""
    objective, upper = {"x": F(1)}, {"x": 1}
    rows = [Constraint({"x": F(1)}, "<=", F(1))]
    res = solve_max(objective, rows, upper=upper)
    for k in range(12):
        # new variables with slack rows that are already feasible: no pivot
        rows = rows + [Constraint({f"y_{k}_{i}": F(1)}, "<=", F(1))
                       for i in range(3)]
        child = solve_max(objective, rows, upper=upper, start=res)
        assert child.value == 1
        parent_rows, child_rows = res.optimum.tableau, child.optimum.tableau
        assert len(child_rows) == len(parent_rows) + 3
        assert all(map(is_, parent_rows, child_rows)), k
        res = child
    assert child.point == {"x": 1, **{f"y_{k}_{i}": 0 for k in range(12)
                                      for i in range(3)}}


def test_lazy_point_survives_children():
    """A result's point is read from its kept tableau on demand; solving
    warm children from it first must not change what is read."""
    rng = random.Random(5519)
    read = 0
    for _ in range(120):
        names = [f"v{i}" for i in range(rng.randint(1, 4))]
        base = [Constraint({v: F(1)}, "<=", F(1)) for v in names]
        base += random_rows(rng, names, rng.randint(0, 3), base)
        objective = {v: F(rng.randint(-3, 3)) for v in names}
        upper = {v: rng.randint(1, 4) for v, a in objective.items() if a > 0}
        generations = []
        earlier = list(base)
        for _ in range(3):
            extra = random_rows(rng, names + ["fresh"], rng.randint(1, 3), earlier)
            generations.append(extra)
            earlier += extra
        # a twin of the parent whose point is read before any child exists
        eager = solve_max(objective, base, upper=upper)
        if eager.status != "optimal":
            continue
        before = eager.point
        parent = solve_max(objective, base, upper=upper)
        chain = [parent]
        rows = list(base)
        for extra in generations:
            if chain[-1].status != "optimal":
                break
            rows = rows + extra
            # two siblings, so the parent's rows are shared
            solve_max(objective, rows, upper=upper, start=chain[-1])
            chain.append(solve_max(objective, rows, upper=upper, start=chain[-1]))
        assert parent.point == before
        read += len(chain) == 4
        rows = list(base)
        for res, extra in zip(chain[1:], generations):
            rows = rows + extra
            if res.status == "optimal":
                attains(res, objective, rows, upper)
    assert read > 20


def test_lazy_point_repr_and_eq_match_an_eager_result():
    rows = [Constraint({"x": F(1)}, "<=", F(3, 2)),
            Constraint({"x": F(1), "y": F(2)}, "<=", F(4)),
            Constraint({"y": F(1)}, "==", F(1, 3))]
    # the rows give x <= 3/2 and y == 1/3, so these bounds cut nothing
    objective, upper = {"x": F(2), "y": F(1)}, {"x": 2, "y": 1}
    res = solve_max(objective, rows, upper=upper)
    eager = LPResult(res.status, res.value, dict(res.point))
    assert eager == LPResult("optimal", F(10, 3),
                             {"x": F(3, 2), "y": F(1, 3)})
    assert repr(solve_max(objective, rows, upper=upper)) == repr(eager)
    assert solve_max(objective, rows, upper=upper) == eager
    assert eager == solve_max(objective, rows, upper=upper)
    grown = rows + [Constraint({"x": F(1)}, "<=", F(1))]
    warm = solve_max(objective, grown, upper=upper,
                     start=solve_max(objective, rows, upper=upper))
    assert warm == LPResult("optimal", F(7, 3), {"x": F(1), "y": F(1, 3)})
    infeasible = solve_max(objective, rows + [Constraint({"y": F(1)}, ">=", F(1))],
                           upper=upper)
    assert infeasible == LPResult("infeasible")
    assert repr(infeasible) == repr(LPResult("infeasible"))
    assert infeasible.point is None and infeasible != eager


def test_value_read_after_the_int_cutoff_is_the_exact_fraction():
    # the case split tests its cutoff on the optimum's ints before it reads
    # ``value``; the Fraction built then, repr and == are as if read first
    rows = [Constraint({"x": 1}, "<=", F(3, 2)),
            Constraint({"x": 1, "y": 2}, "<=", 4),
            Constraint({"y": 3}, "==", 1)]
    objective, upper = {"x": 2, "y": 1}, {"x": 2, "y": 1}
    res = solve_max(objective, rows, upper=upper)
    opt = res.optimum
    assert opt.den > 0 and not opt.num <= 3 * opt.den and opt.num <= 4 * opt.den
    assert type(res.value) is F and res.value == F(10, 3)
    eager = LPResult("optimal", F(10, 3), {"x": F(3, 2), "y": F(1, 3)})
    assert res == eager and repr(res) == repr(eager)


def test_warm_child_names_its_new_variable_in_the_scaled_point():
    # a new variable's column comes after the parent's slack columns, and
    # the point still reads it by name
    objective, upper = {"x": F(1)}, {"x": 2}
    rows = [Constraint({"x": 1}, "<=", 1)]
    parent = solve_max(objective, rows, upper=upper)
    child = solve_max(objective, rows + [Constraint({"x": 1, "y": 1}, ">=", 3)],
                      upper=upper, start=parent)
    assert child.optimum.index["y"] == parent.optimum.width
    den, nums = child.scaled_point()
    assert {v: F(n, den) for v, n in nums.items()} == {"x": 1, "y": 2}
    assert child.point == {"x": 1, "y": 2}
    assert child == solve_max(objective, rows + [Constraint({"x": 1, "y": 1}, ">=", 3)],
                              upper=upper)


def test_bad_sense_is_rejected():
    x = Constraint({"x": F(1)}, "<=", F(1))
    upper = {"x": 1}
    with pytest.raises(ValueError, match="bad sense"):
        solve_max({"x": F(1)}, [x, Constraint({"x": F(1)}, "<", F(1))], upper=upper)
    res = solve_max({"x": F(1)}, [x], upper=upper)
    with pytest.raises(ValueError, match="bad sense"):
        solve_max({"x": F(1)}, [x, Constraint({"x": F(1)}, "=", F(0))],
                  upper=upper, start=res)


def test_luk_search_same_verdicts_without_start(monkeypatch):
    rng = random.Random(902)
    queries = [([], random_formula(rng, 4, modal=False)) for _ in range(60)]
    queries += [([random_formula(rng, 3, modal=False)], random_formula(rng, 3, modal=False))
                for _ in range(40)]
    queries += [([P("p -> q"), P("q -> r")], P("p -> r")),
                ([P("~(p * q)")], P("~p \\/ ~q"))]
    frames = [([P("[]p -> p")], P("[][]p -> p")), ([P("p")], P("[]p")),
              ([P("[]p")], P("p")), ([], P("<>p -> []p"))]
    warm = [luk_consequence(g, f) for g, f in queries]
    warm += [decide_cardinality(2, g, f, StdMV()) for g, f in frames]
    cold_solve = lp.solve_max
    starts = []

    def cold(objective, constraints, *, upper=None, start=None):
        starts.append(start is not None)
        return cold_solve(objective, constraints, upper=upper)

    monkeypatch.setattr(lp, "solve_max", cold)
    cold_verdicts = [luk_consequence(g, f) for g, f in queries]
    cold_verdicts += [decide_cardinality(2, g, f, StdMV()) for g, f in frames]
    assert any(starts) and not all(starts)
    assert [repr(v) for v in warm] == [repr(v) for v in cold_verdicts]
    assert {v.holds for v in warm} == {True, False}
