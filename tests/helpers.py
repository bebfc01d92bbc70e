"""Shared test utilities: an independent reference evaluator, generators, the
Gödel 3-chain table, an LP feasibility check and a leaf-by-leaf oracle for
the Łukasiewicz case split.

The reference evaluator below works on raw dicts and spells out the
operation tables inline, so it shares no code with the package's algebra or
evaluation paths.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction as F

from mvmodal import decision, lp
from mvmodal.algebras import FiniteTable
from mvmodal.formulas import (And, Box, Const0, Const1, Diamond, Formula,
                              Implies, Or, Times, Var)

MV3 = (F(0), F(1, 2), F(1))
# the Gödel 3-chain as a table algebra: min, max, min and the Gödel residuum
G3 = FiniteTable(3, [[min(a, b) for b in range(3)] for a in range(3)],
                 [[max(a, b) for b in range(3)] for a in range(3)],
                 [[min(a, b) for b in range(3)] for a in range(3)],
                 [[2 if a <= b else b for b in range(3)] for a in range(3)])


def luk_times(a, b):
    return max(F(0), a + b - 1)


def luk_implies(a, b):
    return min(F(1), 1 - a + b)


def naive_eval(worlds, edges, valuation, world, f):
    """Plain recursive evaluation over the standard MV operations.

    ``worlds`` is an iterable of ids, ``edges`` a collection of pairs and
    ``valuation`` a nested dict; no memoization, no shared code with the
    package evaluator.
    """
    if isinstance(f, Const0):
        return F(0)
    if isinstance(f, Const1):
        return F(1)
    if isinstance(f, Var):
        return valuation[world][f.name]
    if isinstance(f, And):
        return min(naive_eval(worlds, edges, valuation, world, f.left),
                   naive_eval(worlds, edges, valuation, world, f.right))
    if isinstance(f, Or):
        return max(naive_eval(worlds, edges, valuation, world, f.left),
                   naive_eval(worlds, edges, valuation, world, f.right))
    if isinstance(f, Times):
        return luk_times(naive_eval(worlds, edges, valuation, world, f.left),
                         naive_eval(worlds, edges, valuation, world, f.right))
    if isinstance(f, Implies):
        return luk_implies(naive_eval(worlds, edges, valuation, world, f.left),
                           naive_eval(worlds, edges, valuation, world, f.right))
    succ = sorted(b for a, b in edges if a == world)
    vals = [naive_eval(worlds, edges, valuation, s, f.body) for s in succ]
    if isinstance(f, Box):
        return min(vals, default=F(1))
    return max(vals, default=F(0))


def random_formula(rng: random.Random, depth: int, names=("p", "q"),
                   modal: bool = True) -> Formula:
    if depth == 0 or rng.random() < 0.2:
        k = rng.randrange(len(names) + 2)
        if k == 0:
            return Const0()
        if k == 1:
            return Const1()
        return Var(names[k - 2])
    choices = [And, Or, Times, Implies]
    if modal:
        choices += [Box, Diamond]
    cls = rng.choice(choices)
    if cls in (Box, Diamond):
        return cls(random_formula(rng, depth - 1, names, modal))
    return cls(random_formula(rng, depth - 1, names, modal),
               random_formula(rng, depth - 1, names, modal))


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Const0, Const1, Var)):
        return 0
    if isinstance(f, (Box, Diamond)):
        return 1 + modal_depth(f.body)
    return max(modal_depth(f.left), modal_depth(f.right))


def random_mv3_model_data(rng: random.Random, max_worlds: int = 4,
                          names=("p", "q")):
    """Raw (worlds, edges, valuation) triple over the three-element chain."""
    k = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(k)]
    edges = [(a, b) for a in worlds for b in worlds if rng.random() < 0.4]
    valuation = {w: {p: rng.choice(MV3) for p in names} for w in worlds}
    return worlds, edges, valuation


def attains(res, objective, rows, upper=None):
    """Assert that an optimal LP result's point is nonnegative and within
    ``upper``, satisfies every row and attains the reported value."""
    pt = res.point
    assert all(x >= 0 for x in pt.values())
    assert all(pt[v] <= u for v, u in (upper or {}).items() if v in pt)
    assert sum(a * pt[v] for v, a in objective.items()) == res.value
    for c in rows:
        lhs = sum(a * pt[v] for v, a in c.coeffs.items())
        assert {"<=": lhs <= c.rhs, ">=": lhs >= c.rhs, "==": lhs == c.rhs}[c.sense], c


def random_rational(rng: random.Random, max_den: int = 12) -> F:
    den = rng.randint(1, max_den)
    return F(rng.randint(0, den), den)


def luk_system(gamma, *phis):
    """``_LukSystem`` of premises ``gamma`` and conclusions ``phis``, over
    the node table that ``luk_consequence`` builds, ``_template`` of the
    formulas."""
    gamma = tuple(gamma)
    _, _, (table, at) = decision._propositional(gamma + phis)
    return decision._LukSystem(table, at[:len(gamma)], at[len(gamma):])


def luk_leaf_oracle(gamma, phi, max_splits: int = 10) -> bool | None:
    """Does ``phi`` follow from ``gamma`` over standard MV?  Decided from
    ``_LukSystem``'s rows and [0, 1] bounds alone: every leaf of the case
    split (one regime per split) is solved cold with those bounds, with no
    pruning, branching rule or warm start,
    and the consequence fails when some leaf's optimum of ``1 - value(phi)``
    is positive.  None, with nothing solved, when there are more than
    ``max_splits`` splits, so more than ``2 ** max_splits`` leaves."""
    try:
        system = luk_system(gamma, phi)
    except decision._Unsat:
        return True
    if len(system.splits) > max_splits:
        return None
    conclusion = system.affine[system.conclusions[0]]
    objective = {v: -a for v, a in conclusion.coeffs.items()}
    offset = 1 - conclusion.const
    rows = [row for _, row in system.rows]
    upper = dict.fromkeys({v for a in system.affine for v in a.coeffs}, 1)
    for leaf in itertools.product(*map(decision._split_rows, system.splits)):
        res = lp.solve_max(objective, rows + [
            row for regime in leaf for row in regime], upper=upper)
        if res.status == "optimal" and res.value > -offset:
            return False
    return True
