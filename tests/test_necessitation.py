import functools
import random
from fractions import Fraction as F

import pytest

from mvmodal import necessitation
from mvmodal.algebras import (EXP_ZERO, ExpChain, ExpValue, MVn, StdGodel,
                              StdMV, StdProduct)
from mvmodal.formulas import And, Box, parse, postorder, variables
from mvmodal.kripke import (KripkeFrame, KripkeModel, evaluate, evaluate_all,
                            globally_satisfies)
from mvmodal.necessitation import (SeparationReport, build_premise_cycle_model,
                                   build_nec_model, separation_premises,
                                   verify_separation)
from helpers import G3, random_formula, random_rational

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
    with pytest.raises(ValueError) as e:
        build_nec_model(-1, StdMV())
    assert str(e.value) == "n must be nonnegative"


def test_verify_separation_sweep():
    # 400 and 1000 boxes deep: nothing may recurse on the depth, and the
    # frontier walk reads one premise column, so depth costs linear time
    for n in [*range(6), 400, 1000]:
        for alg in (StdMV(), ExpChain()):
            report = verify_separation(n, alg)
            assert report.passed, (n, alg.kind)
            assert len(report.levels) == n + 1
            assert all(ok for _, ok in report.levels)
            assert report.final_value != alg.one


@pytest.mark.parametrize("n", [0, 1, 7, 40])
@pytest.mark.parametrize("alg", [StdMV(), ExpChain()], ids=["std-mv", "exp-chain"])
def test_verify_separation_reads_the_start_world_of_the_full_columns(n, alg):
    report = verify_separation(n, alg)
    boxed = [functools.reduce(And, separation_premises())]
    for _ in range(n):
        boxed.append(Box(boxed[-1]))
    *start, final = evaluate_all(report.model, boxed + [parse("x -> x * y")])
    assert report.levels == tuple((i, col[0] == alg.one) for i, col in enumerate(start))
    assert report.final_value == final[0]
    assert type(report.final_value) is type(final[0])


def per_premise_levels(model, n):
    """(i, every box^i premise is 1 at the start world), one premise at a
    time: the definition that verify_separation's conjunction stands for."""
    start, one = model.worlds[0], model.algebra.one
    boxed, levels = separation_premises(), []
    for i in range(n + 1):
        levels.append((i, all(evaluate(model, start, f) == one for f in boxed)))
        boxed = tuple(Box(f) for f in boxed)
    return tuple(levels)


def test_boxed_conjunction_is_one_exactly_when_each_boxed_conjunct_is():
    rng = random.Random(23)
    # the top twice in each pool, so that conjuncts often take value 1
    pools = [(StdMV(), [F(0), F(1, 3), F(1, 2), F(1), F(1)]),
             (StdGodel(), [F(0), F(1, 2), F(3, 4), F(1), F(1)]),
             (StdProduct(), [F(0), F(1, 2), F(2, 3), F(1), F(1)]),
             (MVn(3), [F(0), F(1, 2), F(1), F(1)]),
             (ExpChain(), [EXP_ZERO, ExpValue(F(1, 2)), ExpValue(F(2)),
                           ExpValue(F(0)), ExpValue(F(0))]),
             (G3, [0, 1, 2, 2])]
    seen = set()
    for alg, pool in pools:
        for _ in range(40):
            k = rng.randint(1, 4)
            worlds = [f"w{i}" for i in range(k)]
            edges = [(a, b) for a in worlds for b in worlds if rng.random() < 0.4]
            m = KripkeModel(KripkeFrame(worlds, edges), alg,
                            {w: {v: rng.choice(pool) for v in "xy"} for w in worlds})
            conjuncts = [random_formula(rng, 2, ("x", "y"))
                         for _ in range(rng.randint(2, 4))]
            if rng.random() < 0.3:
                conjuncts = list(separation_premises())
            boxed = [[functools.reduce(And, conjuncts)] + conjuncts]
            for _ in range(3):
                boxed.append([Box(f) for f in boxed[-1]])
            for level in boxed:
                conj, *each = evaluate_all(m, level)
                for w, v, vs in zip(worlds, conj, zip(*each)):
                    holds = v == alg.one
                    assert holds == all(u == alg.one for u in vs), (alg, w, level[0])
                    seen.add(holds)
            # box^i f is the meet of f over the worlds exactly i steps away
            (base,) = evaluate_all(m, boxed[0][:1])
            value = dict(zip(worlds, base))
            for w in worlds:
                frontier = {w}
                for level in boxed:
                    meet = functools.reduce(alg.meet, (value[u] for u in frontier), alg.one)
                    assert evaluate(m, w, level[0]) == meet, (alg, w, level[0])
                    frontier = {v for u in frontier for v in m.frame.successors(u)}
    assert seen == {True, False}


def test_verify_separation_equals_per_premise_report():
    for n in [*range(6), 50]:
        for alg in (StdMV(), ExpChain()):
            m = build_nec_model(n, alg)
            expected = SeparationReport(n, alg, per_premise_levels(m, n),
                                        evaluate(m, m.worlds[0], parse("x -> x * y")), m)
            assert verify_separation(n, alg).to_json() == expected.to_json(), (n, alg)


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


def _off_chain_models(alg, a):
    """(depth, model) pairs off the chain of ``build_nec_model(depth)``, each
    started at its first world: branching frames, frames with cycles, and
    dead ends before the depth.  y is the constant a and x is 0 unless set,
    so the premises hold on the cycles until a set value or a dead end
    breaks them."""
    zero = alg.zero

    def model(edges, x, depth):
        worlds = sorted({w for e in edges for w in e})
        return depth, KripkeModel(KripkeFrame(worlds, edges), alg,
                                  {w: {"x": x.get(w, zero), "y": a} for w in worlds})

    two_cycles = [("a", "b"), ("a", "c"), ("b", "b"), ("c", "d"), ("d", "e"), ("e", "c")]
    diamond = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e"), ("e", "d")]
    return [
        model(two_cycles, {}, 8),
        model(two_cycles, {"d": a}, 8),
        model(diamond, {}, 6),
        model(diamond, {"e": alg.one}, 6),
        # a dead end at depth 2 of one branch, so at level 2 ~[]0 fails there
        model([("a", "b"), ("a", "c"), ("b", "d"), ("c", "c")], {}, 5),
        # a 2-cycle through the start, with a 3-step tail to a dead end
        model([("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "e")], {}, 7),
        # a dead end before depth n on a chain: the empty meets after it are 1
        (6, build_nec_model(2, alg)),
    ]


def test_mutated_model_levels_match_per_premise_levels(monkeypatch):
    # verify_separation's frontier rule against box^i of each premise at the
    # start world, on the mutated chain of the test above and off the chain
    alg = StdMV()
    m = build_nec_model(2, alg)
    val = m.valuation_dict()
    val["3"]["x"] = val["3"]["y"]
    cases = [(alg, 2, KripkeModel(m.frame, alg, val))]
    cases += [(alg, n, model) for alg, a in ((StdMV(), F(3, 4)), (ExpChain(), ExpValue(F(1, 2))))
              for n, model in _off_chain_models(alg, a)]
    reports = []
    for alg, n, model in cases:
        monkeypatch.setattr(necessitation, "build_nec_model", lambda n, alg: model)
        report = verify_separation(n, alg)
        assert report.levels == per_premise_levels(model, n), (alg, model)
        assert report.final_value == evaluate(model, model.worlds[0], parse("x -> x * y"))
        reports.append(report)
    assert (2, False) in reports[0].levels and not reports[0].passed
    assert {ok for r in reports[1:] for _, ok in r.levels} == {True, False}


def test_separation_roots_do_not_grow_with_depth(monkeypatch):
    # the boxes are read off successor frontiers: the evaluated formulas are
    # the same few nodes at every depth
    roots, columns = [], necessitation._columns

    def recording(model, formulas):
        roots.append(list(formulas))
        return columns(model, roots[-1])

    monkeypatch.setattr(necessitation, "_columns", recording)
    sizes = []
    for n in (10, 1000):
        roots.clear()
        assert verify_separation(n, StdMV()).passed
        (formulas,) = roots
        sizes.append(len(postorder(formulas)))
    assert sizes[0] == sizes[1]


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
