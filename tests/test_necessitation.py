import random
from fractions import Fraction as F

import pytest

from mvmodal.algebras import ExpChain, ExpValue, StdMV
from mvmodal.formulas import Box, parse, variables
from mvmodal.kripke import KripkeModel, evaluate, globally_satisfies
from mvmodal.necessitation import (build_premise_cycle_model, build_nec_model,
                                   separation_premises, verify_separation)
from helpers import random_rational

P = parse


def test_separation_premises():
    premises = separation_premises()
    assert len(premises) == 4
    assert P("~ [] 0") in premises
    assert variables(premises) == {"x", "y"}


def test_build_nec_model_values():
    m = build_nec_model(2, StdMV())
    a = F(4, 5)
    assert m.worlds == ("0", "1", "2", "3")
    assert m.value("0", "x") == F(2, 5)
    assert m.value("1", "x") == F(3, 5)
    assert m.value("2", "x") == F(4, 5)
    assert m.value("3", "x") == 1
    assert all(m.value(w, "y") == a for w in m.worlds)
    m0 = build_nec_model(0, StdMV())
    assert len(m0.worlds) == 2 and m0.value("0", "x") == F(2, 3)
    me = build_nec_model(2, ExpChain())
    assert me.value("0", "x") == ExpValue(F(3))


def test_verify_separation_sweep():
    # 400 and 1000 boxes deep: the evaluator must not recurse, and the boxed
    # premises stay cheap on a chain
    for n in [*range(6), 400, 1000]:
        for alg in (StdMV(), ExpChain()):
            report = verify_separation(n, alg)
            assert report.passed, (n, alg.kind)
            assert len(report.levels) == n + 1
            assert all(ok for _, ok in report.levels)
            assert report.final_value != alg.one


def test_verify_separation_expchain_value():
    report = verify_separation(2, ExpChain())
    assert report.final_value == ExpValue(F(1))


def test_mutation_breaks_premises():
    # flipping the end-world x to a must break some boxed premise at 0
    alg = StdMV()
    m = build_nec_model(2, alg)
    val = m.valuation_dict()
    val["3"]["x"] = val["3"]["y"]
    bad = KripkeModel(m.frame, alg, val)
    premises = separation_premises()
    broken = False
    for i in range(3):
        boxed = premises
        for _ in range(i):
            boxed = tuple(Box(f) for f in boxed)
        if any(evaluate(bad, "0", f) != 1 for f in boxed):
            broken = True
    assert broken


def test_tightness_one_level_deeper():
    for n in range(4):
        m = build_nec_model(n, StdMV())
        boxed = separation_premises()
        for _ in range(n + 1):
            boxed = tuple(Box(f) for f in boxed)
        assert any(evaluate(m, m.worlds[0], f) != 1 for f in boxed)


def test_premise_cycle_models():
    premises = separation_premises()
    assert globally_satisfies(build_premise_cycle_model(1, F(1, 2)), premises).holds
    assert globally_satisfies(build_premise_cycle_model(3, F(3, 4)), premises).holds
    m = build_premise_cycle_model(1, F(1))
    assert globally_satisfies(m, premises).holds
    assert m.value("0", "x") == 0
    for model in (build_premise_cycle_model(1, F(1, 2)),
                  build_premise_cycle_model(3, F(3, 4)),
                  build_premise_cycle_model(2, ExpValue(F(2)))):
        assert all(evaluate(model, w, P("x -> x * y")) == model.algebra.one
                   for w in model.worlds)
    with pytest.raises(ValueError):
        build_premise_cycle_model(0, F(1, 2))


def test_perturbed_cycle_models_keep_consequence():
    # rejection sampling: any perturbed cycle model still satisfying the
    # premises globally also satisfies x -> x*y everywhere
    rng = random.Random(5)
    premises = separation_premises()
    kept = 0
    while kept < 25:
        k = rng.randint(1, 4)
        alpha = random_rational(rng)
        m = build_premise_cycle_model(k, alpha)
        val = m.valuation_dict()
        w = rng.choice(m.worlds)
        val[w][rng.choice(["x", "y"])] = random_rational(rng)
        cand = KripkeModel(m.frame, m.algebra, val)
        if not globally_satisfies(cand, premises).holds:
            continue
        assert all(evaluate(cand, u, P("x -> x * y")) == 1 for u in cand.worlds)
        kept += 1
