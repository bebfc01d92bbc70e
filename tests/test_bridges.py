import pickle
import random
from fractions import Fraction as F

import pytest

from mvmodal.algebras import ExpChain, ExpValue, MVn, StdMV
from mvmodal.bridges import (FOPred, chain_premise, extend_model_pq, finite_to_global,
                             global_to_local_transitive, luk2prod_extended,
                             luk2prod_formula, modal_to_fo, model_l2p,
                             model_p2l, recognize_finite_to_global, render_fo,
                             rewrite_to_fragment, spread_disjunct, product_side_premises,
                             verify_exponent_identity, constancy_premises)
from mvmodal.formulas import (Box, Diamond, Var, parse, render, variables)
from mvmodal.kripke import (KripkeFrame, KripkeModel, evaluate,
                            globally_satisfies)
from helpers import naive_eval, random_formula, random_rational

P = parse


def test_finite_to_global_shapes():
    gamma, phi = finite_to_global((P("r"),), P("r"), "p", "q")
    assert len(gamma) == 4  # r plus the three reduction premises
    assert P("[] 0 \\/ (([] p) <-> (<> p))") in gamma
    assert P("[] 0 \\/ (p <-> [] p)") in gamma
    assert chain_premise("p", "q") in gamma
    assert phi == P("r \\/ (((p \\/ ~p) \\/ q) \\/ ~q)")
    with pytest.raises(ValueError):
        finite_to_global((P("p"),), P("r"), "p", "q")
    with pytest.raises(ValueError):
        finite_to_global((), P("r"), "p", "p")


def test_recognize_round_trip():
    gamma0 = (P("r -> s"), P("[] r"))
    phi0 = P("<> s")
    gamma, phi = finite_to_global(gamma0, phi0, "p", "q")
    assert recognize_finite_to_global(gamma, phi) == (gamma0, phi0, "p", "q")
    # order of premises must not matter, up to the residual set
    shuffled = tuple(reversed(gamma))
    got = recognize_finite_to_global(shuffled, phi)
    assert got is not None
    assert set(got[0]) == set(gamma0) and got[1:] == (phi0, "p", "q")
    assert recognize_finite_to_global(gamma0, phi0) is None
    assert recognize_finite_to_global(gamma[:-1], phi) is None
    # clash: p occurring in the core makes the shape invalid
    bad = gamma + (P("p"),)
    assert recognize_finite_to_global(bad, phi) is None


@pytest.mark.parametrize("tail", [
    "p",                              # not a disjunction
    "(p \\/ q) \\/ ~q",               # the p part is not a disjunction
    "((p \\/ ~q) \\/ q) \\/ ~q",      # p's disjunct is not ~p
    "((~p \\/ ~~p) \\/ q) \\/ ~q",    # p is not a variable
    "((p \\/ ~p) \\/ ~q) \\/ ~q",     # q is not a variable
    "((p \\/ ~p) \\/ q) \\/ ~p",      # q's disjunct is not ~q
    "((p \\/ ~p) \\/ p) \\/ ~p",      # p and q coincide
])
def test_recognize_rejects_malformed_tails(tail):
    gamma, _ = finite_to_global((P("r"),), P("r"), "p", "q")
    assert recognize_finite_to_global(gamma, P(f"r \\/ ({tail})")) is None


def test_extend_model_pq_chain():
    fr = KripkeFrame(["a", "b"], [("a", "b")])
    m = KripkeModel(fr, StdMV(), {"a": {"r": F(1)}, "b": {"r": F(1)}})
    out = extend_model_pq(m, "a", "p", "q")
    assert out.value("a", "p") == F(3, 4)
    assert out.value("b", "q") == F(3, 4)
    assert out.value("a", "q") == F(1, 2)
    assert globally_satisfies(out, constancy_premises("p") + (chain_premise("p", "q"),)).holds
    assert evaluate(out, "a", spread_disjunct("p", "q")) < 1


def test_extend_model_pq_singleton():
    m = KripkeModel(KripkeFrame(["w"], []), StdMV(), {"w": {"r": F(1, 2)}})
    out = extend_model_pq(m, "w", "p", "q")
    assert out.value("w", "p") == F(1, 2)
    assert out.value("w", "q") == F(1, 2)
    assert evaluate(out, "w", spread_disjunct("p", "q")) < 1


def test_extend_model_pq_errors():
    cyc = KripkeModel(KripkeFrame(["w"], [("w", "w")]), StdMV(),
                      {"w": {"r": F(1)}})
    with pytest.raises(ValueError):
        extend_model_pq(cyc, "w", "p", "q")
    m = KripkeModel(KripkeFrame(["w"], []), StdMV(), {"w": {"p": F(1)}})
    with pytest.raises(ValueError):
        extend_model_pq(m, "w", "p", "q")
    with pytest.raises(KeyError) as e:
        extend_model_pq(m, "v", "a", "b")
    assert e.value.args == ("unknown world 'v'",)
    mv3 = KripkeModel(KripkeFrame(["w"], []), MVn(3), {"w": {"p": F(1)}})
    with pytest.raises(ValueError) as e:
        extend_model_pq(mv3, "w", "a", "b")
    assert str(e.value) == "the reduction certificate lives over the standard MV algebra"


def test_extend_model_pq_random_certificates():
    rng = random.Random(2024)
    done = 0
    while done < 20:
        k = rng.randint(1, 4)
        worlds = [f"w{i}" for i in range(k)]
        edges = [(worlds[i], worlds[j]) for i in range(k) for j in range(i + 1, k)
                 if rng.random() < 0.5]
        valuation = {w: {"r": random_rational(rng), "s": random_rational(rng)}
                     for w in worlds}
        m = KripkeModel(KripkeFrame(worlds, edges), StdMV(), valuation)
        # premises that happen to hold globally; conclusion failing somewhere
        gamma = [g for g in (P("r -> r"), P("s -> s \\/ r"))]
        fails = [w for w in m.worlds if evaluate(m, w, P("r /\\ s")) != 1]
        if not fails:
            continue
        v = fails[0]
        out = extend_model_pq(m, v, "p", "q")
        new_gamma = tuple(gamma) + constancy_premises("p") + (chain_premise("p", "q"),)
        assert globally_satisfies(out, new_gamma).holds
        assert evaluate(out, v, P("(r /\\ s) \\/ (((p \\/ ~p) \\/ q) \\/ ~q)")) != 1
        done += 1


def test_luk2prod_formula_clauses():
    x = "t"
    assert luk2prod_formula(P("0"), x) == Var("t")
    assert luk2prod_formula(P("p"), x) == P("p \\/ t")
    assert luk2prod_formula(P("p * q"), x) == P("t \\/ ((p \\/ t) * (q \\/ t))")
    assert luk2prod_formula(P("p -> q"), x) == P("(p \\/ t) -> (q \\/ t)")
    assert luk2prod_formula(P("[] p"), x) == P("[] (p \\/ t)")
    with pytest.raises(ValueError):
        luk2prod_formula(P("p /\\ q"), x)
    with pytest.raises(ValueError):
        luk2prod_formula(P("t"), "t")


def test_theta():
    th = product_side_premises("t")
    assert len(th) == 3
    assert P("~~t") in th
    assert variables(th) == {"t"}


def test_rewrite_to_fragment_preserves_values():
    rng = random.Random(31)
    for _ in range(150):
        f = random_formula(rng, 4)
        g = rewrite_to_fragment(f)
        from mvmodal.formulas import And, Const1, Diamond, Or
        from mvmodal.formulas import subformulas
        assert not any(isinstance(h, (And, Or, Diamond, Const1))
                       for h in subformulas(g))
        worlds = ["u", "v"]
        edges = [("u", "v")] if rng.random() < 0.7 else []
        valuation = {w: {"p": random_rational(rng), "q": random_rational(rng)}
                     for w in worlds}
        m = KripkeModel(KripkeFrame(worlds, edges), StdMV(), valuation)
        for w in worlds:
            assert evaluate(m, w, f) == evaluate(m, w, g)


def test_model_transforms():
    fr = KripkeFrame(["a", "b"], [("a", "b")])
    m = KripkeModel(fr, StdMV(), {"a": {"p": F(1, 2)}, "b": {"p": F(1)}})
    t = model_l2p(m, "t")
    assert t.value("a", "p") == ExpValue(F(1, 2))
    assert t.value("b", "p") == ExpValue(F(0))
    assert t.value("a", "t") == ExpValue(F(1))
    back = model_p2l(t)
    assert back.value("a", "p") == F(1, 2)
    assert back.value("b", "p") == F(1)
    with pytest.raises(ValueError):
        model_l2p(m, "p")
    with pytest.raises(ValueError) as e:
        model_l2p(KripkeModel(fr, MVn(3), {"a": {"p": F(1, 2)}, "b": {"p": F(1)}}), "t")
    assert str(e.value) == "source model must live over the standard MV algebra"
    with pytest.raises(ValueError) as e:
        model_p2l(m)
    assert str(e.value) == "source model must live over the power chain"


def test_model_p2l_capping_and_zero():
    fr = KripkeFrame(["w"], [])
    chain = ExpChain()
    m = KripkeModel(fr, chain, {"w": {"p": ExpValue(F(3))}})
    assert model_p2l(m).value("w", "p") == 0  # capped: a v a^3 = a
    m0 = KripkeModel(fr, chain, {"w": {"p": chain.zero}})
    with pytest.raises(ValueError):
        model_p2l(m0)


def test_exponent_identity_hand_cases():
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2")])
    m = KripkeModel(fr, StdMV(), {"w1": {"p": F(1, 2)}, "w2": {"p": F(3, 4)}})
    t = model_l2p(m, "t")
    assert evaluate(t, "w1", luk2prod_formula(P("~p"), "t")) == ExpValue(F(1, 2))
    assert evaluate(t, "w1", luk2prod_formula(P("[] p"), "t")) == ExpValue(F(1, 4))
    assert evaluate(t, "w1", luk2prod_formula(P("0"), "t")) == ExpValue(F(1))
    assert verify_exponent_identity(m, [P("~p"), P("[] p"), P("0")], "t") == []


def test_exponent_identity_reports_a_violation():
    # with no translation, p * p over the product chain is a^(2/3 + 2/3),
    # while the identity wants a^(1 - 0) for its MV value 0
    m = KripkeModel(KripkeFrame(["a"], []), StdMV(), {"a": {"p": F(1, 3)}})
    f = P("p * p")
    assert verify_exponent_identity(m, [f], "t", translate=lambda g, x: g) == \
        [(f, "a", ExpValue(F(4, 3)), ExpValue(F(1)))]


def test_exponent_identity_random_battery():
    rng = random.Random(8)
    checked = 0
    while checked < 30:
        k = rng.randint(1, 4)
        worlds = [f"w{i}" for i in range(k)]
        edges = [(a, b) for a in worlds for b in worlds if rng.random() < 0.35]
        valuation = {w: {"p": random_rational(rng), "q": random_rational(rng)}
                     for w in worlds}
        m = KripkeModel(KripkeFrame(worlds, edges), StdMV(), valuation)
        fs = [rewrite_to_fragment(random_formula(rng, 4)) for _ in range(3)]
        assert verify_exponent_identity(m, fs, "t") == []
        # homomorphic extension keeps the identity, diamonds included
        gs = [random_formula(rng, 4) for _ in range(3)]
        assert verify_exponent_identity(m, gs, "t", translate=luk2prod_extended) == []
        checked += 1


def test_transform_round_trip():
    rng = random.Random(9)
    for _ in range(50):
        k = rng.randint(1, 4)
        worlds = [f"w{i}" for i in range(k)]
        edges = [(a, b) for a in worlds for b in worlds if rng.random() < 0.3]
        valuation = {w: {"p": random_rational(rng), "q": random_rational(rng)}
                     for w in worlds}
        m = KripkeModel(KripkeFrame(worlds, edges), StdMV(), valuation)
        back = model_p2l(model_l2p(m, "t"))
        for w in worlds:
            for v in ("p", "q"):
                assert back.value(w, v) == m.value(w, v)


def test_global_to_local_transitive():
    gamma, phi = global_to_local_transitive((P("p"),), P("q"))
    assert set(gamma) == {P("p"), P("[] p")}
    assert phi == P("q")
    assert global_to_local_transitive((), P("q")) == ((), P("q"))
    gamma, _ = global_to_local_transitive((P("p"), P("r")), P("q"))
    assert set(gamma) == {P("p"), P("r"), P("[] p"), P("[] r")}


def test_modal_to_fo_examples():
    assert render_fo(modal_to_fo(P("[] p"), 0)) == "∀x1 (R(x0,x1) -> P_p(x1))"
    assert render_fo(modal_to_fo(P("<> p"), 0)) == "∃x1 (R(x0,x1) * P_p(x1))"
    assert render_fo(modal_to_fo(P("p * q"), 0)) == "P_p(x0) * P_q(x0)"
    assert render_fo(modal_to_fo(P("[] p"), 0), ascii_only=True) == \
        "forall x1 (R(x0,x1) -> P_p(x1))"
    # indices increase with modal depth
    nested = render_fo(modal_to_fo(P("[] <> p"), 0))
    assert "x2" in nested and nested.index("x1") < nested.index("x2")
    assert render_fo(modal_to_fo(P("0 -> 1"), 3)) == "0 -> 1"
    # terms are hash-consed: pickling and either constructor form give the
    # live node back
    t = modal_to_fo(P("[] (p /\\ <> 1) \\/ ~q"), 2)
    assert pickle.loads(pickle.dumps(t)) is t
    assert FOPred(name="R", args=("x0", "x1")) is FOPred("R", ("x0", "x1"))


@pytest.mark.parametrize("text, i, unicode, ascii_", [
    ("p /\\ p", 0, "P_p(x0) /\\ P_p(x0)", "P_p(x0) /\\ P_p(x0)"),
    ("p /\\ p", 2, "P_p(x2) /\\ P_p(x2)", "P_p(x2) /\\ P_p(x2)"),
    ("[]q * []q", 0, "(∀x1 (R(x0,x1) -> P_q(x1))) * (∀x1 (R(x0,x1) -> P_q(x1)))",
     "(forall x1 (R(x0,x1) -> P_q(x1))) * (forall x1 (R(x0,x1) -> P_q(x1)))"),
    ("[]q * []q", 2, "(∀x3 (R(x2,x3) -> P_q(x3))) * (∀x3 (R(x2,x3) -> P_q(x3)))",
     "(forall x3 (R(x2,x3) -> P_q(x3))) * (forall x3 (R(x2,x3) -> P_q(x3)))"),
    # the shared []p -> p is needed at two world indices
    ("([]p -> p) /\\ <>([]p -> p)", 0,
     "((∀x1 (R(x0,x1) -> P_p(x1))) -> P_p(x0)) /\\ "
     "(∃x1 (R(x0,x1) * ((∀x2 (R(x1,x2) -> P_p(x2))) -> P_p(x1))))",
     "((forall x1 (R(x0,x1) -> P_p(x1))) -> P_p(x0)) /\\ "
     "(exists x1 (R(x0,x1) * ((forall x2 (R(x1,x2) -> P_p(x2))) -> P_p(x1))))"),
    ("([]p -> p) /\\ <>([]p -> p)", 2,
     "((∀x3 (R(x2,x3) -> P_p(x3))) -> P_p(x2)) /\\ "
     "(∃x3 (R(x2,x3) * ((∀x4 (R(x3,x4) -> P_p(x4))) -> P_p(x3))))",
     "((forall x3 (R(x2,x3) -> P_p(x3))) -> P_p(x2)) /\\ "
     "(exists x3 (R(x2,x3) * ((forall x4 (R(x3,x4) -> P_p(x4))) -> P_p(x3))))"),
])
def test_modal_to_fo_shared_subformulas(text, i, unicode, ascii_):
    t = modal_to_fo(P(text), i)
    assert render_fo(t) == unicode
    assert render_fo(t, ascii_only=True) == ascii_


def test_deep_fo_terms_hash_compare_and_print():
    n = 10 ** 4
    f = P("[]" * n + "<> p")
    a, b = modal_to_fo(f), modal_to_fo(f)
    assert a is b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != modal_to_fo(P("[]" * n + "<> q"))
    assert a != modal_to_fo(P("[]" * (n - 1) + "<> p"))
    text = repr(a)
    assert text.startswith("FOForall(var='x1', body=FOImplies(left=FOPred("
                           "name='R', args=('x0', 'x1')), right=FOForall(")
    assert text.endswith("right=FOPred(name='P_p', args=('x10001',))))" + "))" * n)
    assert render_fo(a).count("∀") == n
