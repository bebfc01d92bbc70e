import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvmodal import pcp
from mvmodal.algebras import (EXP_ZERO, CarrierError, ExpChain, ExpValue, MVn,
                              StdGodel, StdMV, StdProduct)
from mvmodal.formulas import (ONE, ZERO, And, Box, Diamond, Implies, Or,
                              Times, Var, box_prefix, parse)
from mvmodal.kripke import (KripkeFrame, KripkeModel, _fold, _reads, _template,
                            consequence_witness, evaluate, evaluate_all,
                            extract_chain, generated_submodel,
                            globally_satisfies, height, heights, is_transitive,
                            model_from_json, model_to_json, unravel)
from helpers import (G3, modal_depth, naive_eval, random_formula,
                     random_mv3_model_data)

P = parse


def single(value=F(1), var="p", edges=()):
    return KripkeModel(KripkeFrame(["w"], edges), StdMV(), {"w": {var: value}})


def test_evaluate_successor_free_world():
    m = single()
    assert evaluate(m, "w", P("[] 0")) == 1
    assert evaluate(m, "w", P("<> 1")) == 0


def test_evaluate_box_meet():
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2")])
    m = KripkeModel(fr, StdMV(), {"w1": {"p": F(1)}, "w2": {"p": F(1, 2)}})
    assert evaluate(m, "w1", P("[] p")) == F(1, 2)
    assert evaluate(m, "w1", P("p * [] p")) == F(1, 2)


def test_evaluate_undeclared_variable():
    m = single()
    with pytest.raises(KeyError):
        evaluate(m, "w", P("p -> zz"))
    with pytest.raises(KeyError):
        evaluate(m, "v", P("p"))


def test_evaluate_deep_formulas():
    # far past the recursion limit; built in code, as the parser recurses
    m = KripkeModel(KripkeFrame(["a", "b"], [("a", "b"), ("b", "a")]), StdMV(),
                    {"a": {"p": F(1)}, "b": {"p": F(1, 2)}})
    boxes = Var("p")
    for _ in range(20000):
        boxes = Box(boxes)
    assert evaluate(m, "a", boxes) == 1
    assert evaluate(m, "b", boxes) == F(1, 2)
    # p -> (p -> ... (p -> 0)): stays 0 where p = 1, reaches 1 where p < 1
    chain = ZERO
    for _ in range(20000):
        chain = Implies(Var("p"), chain)
    assert evaluate(m, "a", chain) == 0
    assert evaluate(m, "b", chain) == 1


def test_equal_frames_hash_equal():
    # worlds and edges given in other orders, with a repeat, make an equal
    # frame that finds the same dict entry
    fr = KripkeFrame(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "c")])
    same = KripkeFrame(["c", "a", "b", "a"], [("c", "c"), ("b", "c"), ("a", "b"), ("a", "b")])
    assert same == fr and hash(same) == hash(fr)
    assert {fr: "x"}[same] == "x"
    assert len({fr, same, KripkeFrame(["a", "b", "c"], [("a", "b")])}) == 2


def test_valuation_must_be_total():
    fr = KripkeFrame(["a", "b"], [])
    with pytest.raises(ValueError):
        KripkeModel(fr, StdMV(), {"a": {"p": F(1)}, "b": {}})


def test_valuation_rows_name_frame_worlds():
    fr = KripkeFrame(["a"], [])
    with pytest.raises(ValueError, match="unknown world 'b'"):
        KripkeModel(fr, StdMV(), {"a": {"p": F(1, 2)}, "b": {"p": F(1)}})
    blob = {"algebra": {"kind": "std-mv"}, "worlds": ["a"], "edges": [],
            "valuation": {"a": {"p": "1/2"}, "b": {"p": "1"}}}
    with pytest.raises(ValueError, match="unknown world 'b'"):
        model_from_json(blob)


def test_checked_model_is_the_validated_one():
    # a countermodel's values are validated before its model is built, so
    # the private constructor keeps them as given; it must still give the
    # model the public one gives, its variables sorted
    fr = KripkeFrame(["b", "a"], [("b", "a")])
    valuation = {"b": {"q": F(1, 2), "p": F(1)}, "a": {"q": F(0), "p": F(1, 2)}}
    got = KripkeModel._checked(fr, MVn(3), valuation)
    want = KripkeModel(fr, MVn(3), valuation)
    assert got.variables == want.variables == ("p", "q")
    assert repr(got) == repr(want)
    assert json.dumps(model_to_json(got)) == json.dumps(model_to_json(want))


def test_globally_satisfies():
    m = single()
    assert globally_satisfies(m, []).holds
    assert globally_satisfies(m, [P("p")]).holds
    m2 = single(F(1, 2))
    v = globally_satisfies(m2, [P("p \\/ ~p")])
    assert not v.holds
    assert v.witness.world == "w" and v.witness.value == F(1, 2)


def test_consequence_witness():
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2")])
    m = KripkeModel(fr, StdMV(), {"w1": {"p": F(1, 4)}, "w2": {"p": F(1)}})
    # premises fail globally: vacuous
    assert consequence_witness(m, [P("p")], P("0")).holds
    m2 = KripkeModel(fr, StdMV(), {"w1": {"p": F(1)}, "w2": {"p": F(1)}})
    assert consequence_witness(m2, [P("p")], P("[] p")).holds
    m3 = KripkeModel(fr, StdMV(), {"w1": {"p": F(0)}, "w2": {"p": F(1)}})
    v = consequence_witness(m3, [P("[] p")], P("p"))
    assert not v.holds and v.witness.world == "w1"


def test_height():
    fr = KripkeFrame(["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert height(fr, "0") == 2 and height(fr, "2") == 0
    refl = KripkeFrame(["w"], [("w", "w")])
    assert height(refl, "w") == math.inf
    iso = KripkeFrame(["w"], [])
    assert height(iso, "w") == 0
    # predecessors of a cycle have infinite height
    fr2 = KripkeFrame(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "b")])
    hs = heights(fr2)
    assert hs["a"] == hs["b"] == hs["c"] == math.inf
    with pytest.raises(KeyError):
        height(fr, "zz")


def test_heights_long_chain():
    n = 10 ** 4
    worlds = [f"w{i:05d}" for i in range(n)]
    chain = list(zip(worlds, worlds[1:]))
    hs = heights(KripkeFrame(worlds, chain))
    assert all(hs[w] == n - 1 - i for i, w in enumerate(worlds))
    # a loop at the far end makes every world infinite
    looped = KripkeFrame(worlds, chain + [(worlds[-1], worlds[-1])])
    assert set(heights(looped).values()) == {math.inf}


_FRAMES = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_FRAMES)
def test_heights_match_definition(spec):
    n, edges = spec
    succ = {i: sorted(b for a, b in edges if a == i) for i in range(n)}

    def reach(i):  # worlds reachable in one or more steps
        seen, todo = set(), list(succ[i])
        while todo:
            j = todo.pop()
            if j not in seen:
                seen.add(j)
                todo.extend(succ[j])
        return seen

    def longest(i):  # longest outgoing path, over every path (no cycle reachable)
        best, todo = 0, [(i, 0)]
        while todo:
            j, length = todo.pop()
            best = max(best, length)
            todo.extend((k, length + 1) for k in succ[j])
        return best

    hs = heights(KripkeFrame([f"w{i}" for i in range(n)],
                             [(f"w{a}", f"w{b}") for a, b in edges]))
    for i in range(n):
        on_cycle = any(j in reach(j) for j in reach(i) | {i})
        assert hs[f"w{i}"] == (math.inf if on_cycle else longest(i))


_RATIONALS = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]
# each algebra with a pool of carrier values that valuations index into
_CARRIERS = {
    # denominators that differ, up to 2^16, scale to one common denominator
    "std-mv": (StdMV(), _RATIONALS + [F(3, 4), F(5, 7), F(65535, 65536)]),
    "std-godel": (StdGodel(), _RATIONALS),
    "std-product": (StdProduct(), _RATIONALS),
    "mv-3": (MVn(3), [F(0), F(1, 2), F(1)]),
    "exp-chain": (ExpChain(), [EXP_ZERO] + [ExpValue(F(t)) for t in (
        "0", "1/2", "1", "3", "1/3", "5/6", "7/4")]),
    "g3": (G3, [0, 1, 2]),
}
_BINARY = {And: "meet", Or: "join", Times: "times", Implies: "residuum"}
_SMALL_FRAMES = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))))
_MODAL = st.recursive(
    st.sampled_from([Var("p"), Var("q"), ZERO, ONE]),
    lambda sub: st.one_of(st.builds(Box, sub), st.builds(Diamond, sub),
                          *(st.builds(op, sub, sub) for op in _BINARY)),
    max_leaves=10)
# successor-free (0), one successor (1), three successors (2), a self-loop
# alone (3) and two successors with a self-loop (4)
_MIXED = (5, {(1, 0), (2, 0), (2, 1), (2, 3), (3, 3), (4, 3), (4, 4)})


def fold_eval(model, w, f):
    """Per-world value with box and diamond folded from 1 and 0."""
    alg = model.algebra
    if isinstance(f, Var):
        return model.value(w, f.name)
    if isinstance(f, (Box, Diamond)):
        op, value = (alg.meet, alg.one) if isinstance(f, Box) else (alg.join, alg.zero)
        for u in model.frame.successors(w):
            value = op(value, fold_eval(model, u, f.body))
        return value
    if type(f) in _BINARY:
        return getattr(alg, _BINARY[type(f)])(fold_eval(model, w, f.left),
                                               fold_eval(model, w, f.right))
    return alg.one if f == ONE else alg.zero


@pytest.mark.parametrize("kind", sorted(_CARRIERS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=_SMALL_FRAMES, formula=_MODAL,
       picks=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                      min_size=5, max_size=5))
@example(spec=_MIXED, formula=parse("[] (p -> <> q) * <> [] p"),
         picks=[(0, 5), (5, 1), (2, 3), (4, 0), (1, 2)])
def test_evaluate_all_matches_fold(kind, spec, formula, picks):
    alg, pool = _CARRIERS[kind]
    n, edges = spec
    worlds = [f"w{i}" for i in range(n)]
    valuation = {w: {"p": pool[i % len(pool)], "q": pool[j % len(pool)]}
                 for w, (i, j) in zip(worlds, picks)}
    m = KripkeModel(KripkeFrame(worlds, [(worlds[a], worlds[b]) for a, b in edges]),
                    alg, valuation)
    assert evaluate_all(m, [formula])[0] == [fold_eval(m, w, formula) for w in m.worlds]


@pytest.mark.parametrize("kind", sorted(_CARRIERS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=_SMALL_FRAMES, formulas=st.lists(_MODAL, min_size=1, max_size=3),
       picks=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                      min_size=5, max_size=5))
@example(spec=(2, set()), formulas=[parse("[] (p -> <> q)"), parse("<> (p * q) \\/ q")],
         picks=[(1, 2)] * 5)
@example(spec=_MIXED, formulas=[parse("[] (p -> <> q) * <> [] p"), parse("[] [] q")],
         picks=[(0, 5), (5, 1), (2, 3), (4, 0), (1, 2)])
def test_masked_fold_matches_whole_columns(kind, spec, formulas, picks):
    # _fold computes a node only at the worlds where _reads has it read (on
    # an edgeless frame a box's body nowhere); the roots must agree with the
    # fold of every node at every world and with the per-world reference
    alg, pool = _CARRIERS[kind]
    n, edges = spec
    worlds = [f"w{i}" for i in range(n)]
    m = KripkeModel(KripkeFrame(worlds, [(worlds[a], worlds[b]) for a, b in edges]),
                    alg, {w: {"p": pool[i % len(pool)], "q": pool[j % len(pool)]}
                          for w, (i, j) in zip(worlds, picks)})
    template, roots, _, modal = _template(tuple(formulas))
    leaves = {p: [m.value(w, p) for w in worlds] for p in ("p", "q")}
    ops = {cls: getattr(alg, name) for cls, name in _BINARY.items()}
    ops |= {ZERO: alg.zero, ONE: alg.one}
    masked = _fold(template, _reads(template, roots, m.frame, modal), m.frame, leaves, ops)
    whole = _fold(template, _reads(template, roots, m.frame, ()), m.frame, leaves, ops)
    for f, r in zip(formulas, roots):
        assert masked[r] == whole[r] == [fold_eval(m, w, f) for w in worlds], f


def test_evaluate_all_returns_carrier_values():
    fr = KripkeFrame(["a", "b"], [("a", "b")])  # b has no successors
    f = P("(p -> q) * <>p \\/ []q")
    for alg, kind, vals in ((StdMV(), F, (F(1, 3), F(3, 4), F(5, 6), F(1, 4))),
                            (MVn(3), F, (F(0), F(1, 2), F(1), F(1, 2))),
                            (ExpChain(), ExpValue,
                             (EXP_ZERO, ExpValue(F(1, 3)), ExpValue(F(5, 6)),
                              ExpValue(F(7, 4))))):
        m = KripkeModel(fr, alg, {"a": {"p": vals[0], "q": vals[1]},
                                  "b": {"p": vals[2], "q": vals[3]}})
        got = evaluate_all(m, [f, P("p"), P("[]0"), P("<>1")])
        assert all(type(v) is kind for col in got for v in col), alg
        assert got[0] == [fold_eval(m, w, f) for w in m.worlds]
        # no variables at all: the constants and the empty box and diamond
        bare = KripkeModel(fr, alg, {})
        assert evaluate_all(bare, [P("[]0 -> <>1"), P("<>1"), ONE, ZERO]) == [
            [alg.one, alg.zero], [alg.one, alg.zero], [alg.one] * 2,
            [alg.zero] * 2]
        assert all(type(v) is kind for v in evaluate_all(bare, [P("[]0")])[0])


def test_evaluate_all_matches_fold_over_large_coprime_denominators():
    # the common denominator is a product of three coprime ones near 2^64
    dens = (2 ** 61 - 1, 2 ** 64 + 1, 3 ** 40)
    rng = random.Random(31)
    worlds = [f"w{i}" for i in range(6)]
    chain = KripkeFrame(worlds, list(zip(worlds, worlds[1:])))
    for alg, value in ((StdMV(), lambda d: F(rng.randint(0, d), d)),
                       (ExpChain(), lambda d: ExpValue(F(rng.randint(0, 3 * d), d)))):
        m = KripkeModel(chain, alg, {w: {"p": value(dens[i % 3]),
                                         "q": value(dens[(i + 1) % 3])}
                                     for i, w in enumerate(worlds)})
        formulas = [random_formula(rng, 5) for _ in range(40)]
        cols = evaluate_all(m, formulas)
        assert cols == [[fold_eval(m, w, f) for w in worlds] for f in formulas]


@pytest.mark.parametrize("kind", sorted(_CARRIERS))
def test_evaluate_reads_one_world_of_the_full_column(kind):
    alg, pool = _CARRIERS[kind]
    n, edges = _MIXED
    worlds = [f"w{i}" for i in range(n)]
    rng = random.Random(kind)
    m = KripkeModel(KripkeFrame(worlds, [(worlds[a], worlds[b]) for a, b in edges]),
                    alg, {w: {"p": rng.choice(pool), "q": rng.choice(pool)}
                          for w in worlds})
    for _ in range(30):
        f = random_formula(rng, 4)
        (col,) = evaluate_all(m, [f])
        for w, v in zip(worlds, col):
            got = evaluate(m, w, f)
            assert got == v and type(got) is type(v), (f, w)


def test_evaluate_all_matches_fold_on_pcp_countermodels():
    x = pcp.Numeral(0b10110111, 8)
    instance = pcp.PCPInstance(2, ((x, x), (pcp.Numeral(1, 1), pcp.Numeral(3, 2))))
    gamma, phi = pcp.encode(instance)
    for alg in (StdMV(), ExpChain()):
        m = pcp.build_countermodel(instance, [1, 1], alg)
        cols = evaluate_all(m, gamma + (phi,))
        assert cols == [[fold_eval(m, w, f) for w in m.worlds] for f in gamma + (phi,)]
        assert not globally_satisfies(m, [phi]).holds


def test_unravel_reflexive_singleton():
    m = KripkeModel(KripkeFrame(["w"], [("w", "w")]), StdMV(),
                    {"w": {"p": F(1, 3)}})
    t = unravel(m, "w", 2)
    assert len(t.worlds) == 3
    assert all(t.value(w, "p") == F(1, 3) for w in t.worlds)
    hs = heights(t.frame)
    assert sorted(hs.values()) == [0, 1, 2]


def test_unravel_tree_copy():
    fr = KripkeFrame(["r", "a", "b"], [("r", "a"), ("r", "b")])
    m = KripkeModel(fr, StdMV(), {w: {"p": F(1, 2)} for w in fr.worlds})
    t = unravel(m, "r", 3)
    assert len(t.worlds) == 3
    assert len(t.frame.edges) == 2


def test_unravel_keeps_paths_apart_when_names_hold_slashes():
    # the paths r, a/b and r, a, b once shared the copy name "r/a/b"
    fr = KripkeFrame(["r", "a", "b", "a/b"], [("r", "a/b"), ("r", "a"), ("a", "b")])
    m = KripkeModel(fr, StdMV(), {w: {"p": F(int(w == "b"))} for w in fr.worlds})
    t = unravel(m, "r", 2)
    assert len(t.worlds) == 4 and len(t.frame.edges) == 3
    assert evaluate(t, "r", parse("<>p")) == evaluate(m, "r", parse("<>p")) == 0
    assert evaluate(t, "r", parse("<><>p")) == 1
    # a backslash is escaped too: escaping only "/" would name both the
    # path r, a\, b and the path r, a/b "r/a\/b"
    fr = KripkeFrame(["r", "a\\", "b", "a/b"],
                     [("r", "a\\"), ("a\\", "b"), ("r", "a/b")])
    t = unravel(KripkeModel(fr, StdMV(), {w: {} for w in fr.worlds}), "r", 2)
    assert len(t.worlds) == 4 and "r" in t.worlds


def test_unravel_evaluation_agreement():
    rng = random.Random(42)
    for _ in range(100):
        worlds, edges, valuation = random_mv3_model_data(rng)
        m = KripkeModel(KripkeFrame(worlds, edges), MVn(3), valuation)
        root = rng.choice(worlds)
        f = random_formula(rng, 3)
        d = modal_depth(f)
        if d > 3:
            continue
        t = unravel(m, root, max(d, 1))
        assert evaluate(t, root, f) == evaluate(m, root, f)


def test_extract_chain():
    fr = KripkeFrame(["0", "1", "2"], [("0", "1"), ("1", "2")])
    m = KripkeModel(fr, StdMV(), {w: {"p": F(1)} for w in fr.worlds})
    c = extract_chain(m, "0")
    assert c.worlds == ("0", "1", "2")
    # branching: least-id successor chosen at each step
    fr2 = KripkeFrame(["r", "a", "b", "c"], [("r", "b"), ("r", "a"), ("a", "c")])
    m2 = KripkeModel(fr2, StdMV(), {w: {"p": F(1)} for w in fr2.worlds})
    c2 = extract_chain(m2, "r")
    assert c2.worlds == ("a", "c", "r")
    assert c2.frame.edges == frozenset({("r", "a"), ("a", "c")})
    refl = KripkeModel(KripkeFrame(["w"], [("w", "w")]), StdMV(),
                       {"w": {"p": F(1)}})
    with pytest.raises(ValueError):
        extract_chain(refl, "w")


def test_generated_submodel():
    fr = KripkeFrame(["0", "1", "2"], [("0", "1"), ("1", "2")])
    m = KripkeModel(fr, StdMV(), {w: {"p": F(1, 2)} for w in fr.worlds})
    sub = generated_submodel(m, "1")
    assert set(sub.worlds) == {"1", "2"}
    assert generated_submodel(m, "2").worlds == ("2",)
    cyc = KripkeModel(KripkeFrame(["a", "b"], [("a", "b"), ("b", "a")]),
                      StdMV(), {w: {"p": F(1)} for w in ("a", "b")})
    assert set(generated_submodel(cyc, "a").worlds) == {"a", "b"}


_CHAIN2 = KripkeModel(KripkeFrame(["0", "1"], [("0", "1")]), StdMV(),
                      {"0": {"p": F(1)}, "1": {"p": F(0)}})


@pytest.mark.parametrize("call, error", [
    (lambda: KripkeFrame([], []), ValueError),
    (lambda: KripkeFrame(["a"], [("a", "b")]), ValueError),
    (lambda: unravel(_CHAIN2, "0", -1), ValueError),
    (lambda: unravel(_CHAIN2, "zz", 1), KeyError),
    (lambda: extract_chain(_CHAIN2, "zz"), KeyError),
    (lambda: generated_submodel(_CHAIN2, "zz"), KeyError),
], ids=["no-worlds", "edge-to-unknown-world", "unravel-negative-depth",
        "unravel-unknown-world", "extract-chain-unknown-world",
        "generated-submodel-unknown-world"])
def test_frame_and_model_operations_reject_bad_input(call, error):
    with pytest.raises(error):
        call()


def test_is_transitive():
    assert is_transitive(KripkeFrame(["a", "b", "c"],
                                     [("a", "b"), ("b", "c"), ("a", "c")]))
    assert not is_transitive(KripkeFrame(["a", "b", "c"],
                                         [("a", "b"), ("b", "c")]))
    assert is_transitive(KripkeFrame(["a"], []))


def test_evaluator_against_naive_reference():
    rng = random.Random(123)
    for _ in range(60):
        worlds, edges, valuation = random_mv3_model_data(rng)
        m = KripkeModel(KripkeFrame(worlds, edges), MVn(3), valuation)
        f = random_formula(rng, 4)
        for w in worlds:
            assert evaluate(m, w, f) == naive_eval(worlds, edges, valuation, w, f)


def test_global_to_local_on_transitive_models():
    # over transitive frames: premises plus their boxed copies hold at v
    # exactly when the submodel generated by v satisfies them globally
    rng = random.Random(99)
    gamma = (P("p"), P("p -> q"))
    checked = 0
    while checked < 50:
        worlds, edges, valuation = random_mv3_model_data(rng, max_worlds=4)
        # transitive closure
        es = set(edges)
        changed = True
        while changed:
            changed = False
            for a, b in list(es):
                for c, d in list(es):
                    if b == c and (a, d) not in es:
                        es.add((a, d))
                        changed = True
        m = KripkeModel(KripkeFrame(worlds, es), MVn(3), valuation)
        v = rng.choice(worlds)
        local = all(evaluate(m, v, g) == 1
                    for g in box_prefix(gamma, 1))
        glob = globally_satisfies(generated_submodel(m, v), gamma).holds
        assert local == glob
        checked += 1


@pytest.mark.parametrize("algebra, value", [
    ({"kind": "exp-chain"}, {"pow": True}),
    ({"kind": "exp-chain"}, {"pow": 0.5}),
    ({"kind": "std-mv"}, True),
    ({"kind": "std-mv"}, 0.5),
    ({"kind": "finite-table", "tables": G3.tables()}, True),
])
def test_model_from_json_refuses_floats_and_bools(algebra, value):
    blob = {"algebra": algebra, "worlds": ["a"], "edges": [],
            "valuation": {"a": {"p": value}}}
    with pytest.raises(CarrierError):
        model_from_json(json.loads(json.dumps(blob)))


def test_model_json_round_trip():
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2")])
    for alg, val in ((StdMV(), F(1, 2)), (ExpChain(), ExpValue(F(3, 2)))):
        m = KripkeModel(fr, alg, {w: {"p": val} for w in fr.worlds})
        back = model_from_json(model_to_json(m))
        assert back.worlds == m.worlds
        assert back.frame.edges == m.frame.edges
        assert back.value("w1", "p") == val
        assert back.algebra == alg
