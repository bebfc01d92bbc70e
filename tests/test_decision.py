import functools
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvmodal import algebras, decision, formulas, lp
from mvmodal.algebras import (ExpChain, FiniteTable, MVn, ResourceLimitError,
                              StdMV, StdProduct, mv_chain_tables)
from mvmodal.decision import (coenumerate_nonconsequences, decide_cardinality,
                              decide_on_frame, finite_consequence,
                              luk_consequence, translate_on_frame)
from mvmodal.formulas import (ONE, ZERO, And, Box, Diamond, Implies, Or,
                              Times, Var, fresh_names, iff, parse, postorder,
                              render, subformulas, substitute, variables)
from mvmodal.cli import run
from mvmodal.kripke import (KripkeFrame, KripkeModel, Verdict, Witness,
                            consequence_witness, evaluate, evaluate_all,
                            generated_submodel, globally_satisfies, model_to_json)
from mvmodal.pcp import Numeral, PCPInstance, encode
from helpers import (G3, MV3, luk_implies, luk_leaf_oracle, luk_system,
                     luk_times, naive_eval, random_formula)

P = parse


def grid_refutes(f, k=20):
    """Brute-force [0,1] grid oracle for refutability of a tautology claim."""
    names = sorted(variables(f))
    pts = [F(i, k) for i in range(k + 1)]

    def ev(g, val):
        from mvmodal.formulas import And, Const0, Const1, Implies, Or, Times, Var
        if isinstance(g, Const0):
            return F(0)
        if isinstance(g, Const1):
            return F(1)
        if isinstance(g, Var):
            return val[g.name]
        a, b = ev(g.left, val), ev(g.right, val)
        if isinstance(g, And):
            return min(a, b)
        if isinstance(g, Or):
            return max(a, b)
        if isinstance(g, Times):
            return luk_times(a, b)
        return luk_implies(a, b)

    for vals in itertools.product(pts, repeat=len(names)):
        if ev(f, dict(zip(names, vals))) < 1:
            return True
    return False


def test_luk_validities():
    for s in ("~~p -> p", "(p -> q) \\/ (q -> p)", "p -> p", "0 -> p",
              "(p -> q) -> ((q -> r) -> (p -> r))", "p * q -> p",
              "p * q -> q * p", "p * (p -> q) -> q * (q -> p)",
              "(p -> (q -> r)) -> (p * q -> r)",
              "(p * q -> r) -> (p -> (q -> r))",
              "((p -> q) -> r) -> (((q -> p) -> r) -> r)"):
        assert luk_consequence([], P(s)).holds, s


def test_luk_refutations_with_witnesses():
    v = luk_consequence([], P("p \\/ ~p"))
    assert not v.holds and v.witness.valuation["p"] == F(1, 2)
    v = luk_consequence([], P("p -> p * p"))
    assert not v.holds and v.witness.valuation["p"] == F(1, 2)
    assert v.witness.value == F(1, 2)


def test_luk_premises():
    assert luk_consequence([P("p")], P("p * p")).holds
    assert luk_consequence([P("p"), P("p -> q")], P("q")).holds
    assert luk_consequence([P("0")], P("p")).holds  # vacuous
    assert luk_consequence([P("p <-> q")], P("q <-> p")).holds
    v = luk_consequence([P("~(p * q)")], P("~p \\/ ~q"))
    assert not v.holds


def test_luk_rejects_modal_input():
    with pytest.raises(ValueError):
        luk_consequence([], P("[] p"))
    with pytest.raises(ValueError):
        luk_consequence([P("<> p")], P("p"))


def test_luk_matches_grid_oracle():
    battery = ["p \\/ ~p", "p -> p * p", "~~p -> p", "(p -> q) \\/ (q -> p)",
               "p /\\ q -> p", "(p -> q) -> (~q -> ~p)", "p * p -> p",
               "~(p * q) -> (~p \\/ ~q)", "((p -> q) -> q) -> (p \\/ q)",
               "(p <-> q) -> (p -> q)"]
    for s in battery:
        f = P(s)
        assert luk_consequence([], f).holds == (not grid_refutes(f)), s


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32), st.integers(0, 2))
def test_luk_matches_leaf_oracle(seed, premises):
    """The search agrees with solving every leaf of the case split cold, and
    every failing witness passes the evaluator."""
    rng = random.Random(seed)
    gamma = [random_formula(rng, 4, ("p", "q", "r"), modal=False)
             for _ in range(premises)]
    phi = random_formula(rng, 4, ("p", "q", "r"), modal=False)
    expected = luk_leaf_oracle(gamma, phi)
    assume(expected is not None)
    verdict = luk_consequence(gamma, phi)
    assert verdict.holds == expected
    if not verdict.holds:
        model = KripkeModel(KripkeFrame(["w"], ()), StdMV(),
                            {"w": verdict.witness.valuation})
        *columns, (value,) = evaluate_all(model, tuple(gamma) + (phi,))
        assert all(col == [1] for col in columns)
        assert value == verdict.witness.value < 1


def test_spine_stops_at_a_node_with_another_reader():
    # the consequent ``q -> q * q`` is also read under the antecedent, so the
    # spine is the root alone and the consequent's split stays; a root that a
    # premise reads is no spine, and its split stays.  Both hold: following
    # either node into the objective left a ``t`` that some row still reads
    # free, and the search's point then failed the re-check (RuntimeError)
    shared = P("((q /\\ (q -> q * q)) -> 0) -> (q -> q * q)")
    assert luk_consequence([], shared).holds
    gamma, read = [P("~(p -> p * p)")], P("p -> p * p")
    assert luk_consequence(gamma, read).holds
    system = luk_system([], shared)
    c = system.conclusions[0]
    order, _, upper, form = system.scope(c)
    kept = {system.splits[k][0] for k in order}
    assert kept == {split[0] for split in system.splits} - {c}
    assert system.table[c][2] in kept
    assert upper.keys() >= form.coeffs.keys()
    assert upper.keys().isdisjoint(system.affine[c].coeffs)
    system = luk_system(gamma, read)
    c = system.conclusions[0]
    order, _, _, form = system.scope(c)
    assert c in {system.splits[k][0] for k in order}
    assert (form.coeffs, form.const) == ({v: -a for v, a in system.affine[c].coeffs.items()},
                                         1 - system.affine[c].const)


def test_spine_counts_only_the_readers_under_its_roots(monkeypatch):
    # w0's conclusion image is the implication at w1, which w1's image, the
    # meet of the implication at both worlds, also reads.  w0's search holds
    # no row of w1's image, so the implication is a spine there: 1 solve,
    # where counting every reader in the table made 3, with the same witness
    calls = _count_calls(monkeypatch)
    frame = KripkeFrame(["w0", "w1"], [("w0", "w1"), ("w1", "w0"), ("w1", "w1")])
    verdict = decide_on_frame(frame, [], P("[]((q /\\ p) -> (r \\/ r))"), StdMV())
    assert calls[0] == 1
    assert (verdict.holds, verdict.witness.world, verdict.witness.value) == (False, "w0", 0)
    assert model_to_json(verdict.witness.model)["valuation"] == {
        "w0": {"p": "0", "q": "0", "r": "0"}, "w1": {"p": "1", "q": "1", "r": "0"}}


def _count_calls(monkeypatch, name="solve_max"):
    """Count the calls of the ``lp`` function ``name`` from here on."""
    calls = [0]
    fn = getattr(lp, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(lp, name, counting)
    return calls


def test_baseline_pair_stdmv_solve_count(monkeypatch):
    # branching only on violated splits: 104,928 solves when every split
    # was branched on in a fixed order; 883 while every split gave a node
    # two equality regimes, 573 once a node read from one side only is
    # bounded on that side, 215 since the conclusion's right spine is the
    # objective
    calls = _count_calls(monkeypatch)
    assert decide_cardinality(3, [P("[]p -> p")], P("[][]p -> p"), StdMV()).holds
    assert calls[0] <= 1_000


def test_baseline_pair_stdmv_pivot_count(monkeypatch):
    # pinned: a change to the row format must make the very same pivots,
    # so every tie-break has to stay as Bland's rules say; the LP reads each
    # modal name's definition inlined, with no column or pinned rows for it.
    # 8,772 with a ``v <= 1`` row per variable and two rows per ``==``; with
    # the box as bounds and one slack fixed at 0 per ``==`` row, a complemented
    # column keeps its variable's index in Bland's rules, where the row
    # ``v <= 1`` put its slack after every variable, so a few ties go the
    # other way; 8,778 while the LP searched the conjunction of the
    # conclusion's images at once, not one world at a time; 1,364 while
    # every split gave a node two equality regimes, before the signed split;
    # 884 while each implication on the conclusion's right spine was a split,
    # before the spine became the objective (each world's image ``[][]p ->
    # p`` is one implication, now searched with no split of its own)
    pivots = _count_calls(monkeypatch, "_pivot")
    assert decide_cardinality(3, [P("[]p -> p")], P("[][]p -> p"), StdMV()).holds
    assert pivots[0] == 526


def test_k_axiom_stdmv_solve_count(monkeypatch):
    # pinned: the case split branches the same way under every string hash.
    # 274 while every query solved an LP: the frames where the K image folds
    # to the constant 1 now make no solve; 268 while every split gave a node
    # two equality regimes, before the signed split; 36 while the two
    # implications of the axiom's right spine were splits, before the spine
    # became the objective ``[](p -> q) + []p - 1 - []q``
    calls = _count_calls(monkeypatch)
    assert decide_cardinality(2, [], P("[](p -> q) -> ([]p -> []q)"), StdMV()).holds
    assert calls[0] == 20


def test_k_axiom_stdmv_cardinality_3_solve_bound(monkeypatch):
    # one search per world of each frame: 802,892 solves while the LP
    # searched the conjunction of the worlds' images at once; 41,685 while
    # every split gave a node two equality regimes, 1,505 with the signed
    # split, 965 since the conclusion's right spine is the objective
    calls = _count_calls(monkeypatch)
    assert decide_cardinality(3, [], P("[](p -> q) -> ([]p -> []q)"), StdMV()).holds
    assert calls[0] <= 2_000


def test_pinning_decided_queries_make_no_solve(monkeypatch):
    # after pinning and [0, 1] folding the conclusion is the constant 1,
    # which holds at every valuation that satisfies the premises
    calls = _count_calls(monkeypatch)
    assert luk_consequence([P("p"), P("p -> q")], P("q")).holds
    assert decide_cardinality(2, [P("p")], P("[]p"), StdMV()).holds
    assert calls[0] == 0


def test_unsolvable_pcp_one_chain_solve_count(monkeypatch):
    # "1" against "11" has no solution, so the encoding holds on every chain.
    # Pinned exactly: pinning changes no verdict, so only this count sees
    # ``_pin`` stop closing Times and And (17 solves).  At most 60 while
    # every split gave a node two equality regimes, 13 with the signed split
    # while the conclusion's right-spine implication was a split, 11 since
    # the spine is the objective
    gamma, phi = encode(PCPInstance(2, ((Numeral(1, 1), Numeral(3, 2)),)))
    calls = _count_calls(monkeypatch)
    assert decide_on_frame(KripkeFrame(["v1"], []), gamma, phi, StdMV()).holds
    assert calls[0] == 11


def test_luk_branch_guard():
    with pytest.raises(ResourceLimitError):
        luk_consequence([], P("p \\/ ~p"), branch_guard=0)


# each entry: (premises, conclusion, regime whose removal flips the verdict).
# The connective of each entry is read where the signed split still splits
# it: a product or join the search wants large (under an antecedent), an
# implication or meet it wants small (under a conclusion).  Each implication
# is off the conclusion's right spine, whose splits the objective replaces
_MUTATION_BATTERY = [
    ((), "~(p * p)", ("times", 1)),
    (("~p", "~q"), "~((p * q) \\/ r)", ("times", 0)),
    (("~p", "q"), "(p -> q) * r", ("implies", 0)),
    ((), "r \\/ (p -> q)", ("implies", 1)),
    (("q",), "p /\\ q", ("and", 0)),
    (("p",), "p /\\ q", ("and", 1)),
    (("~~p", "~q"), "~((p \\/ q) * r)", ("or", 0)),
    (("~p", "~~q"), "~((p \\/ q) * r)", ("or", 1)),
]


def _satisfies(point, regime):
    """Does the point (a dict of Fractions, 0 where missing) satisfy every
    row of the regime?"""
    for c in regime:
        lhs = sum(a * point.get(v, 0) for v, a in c.coeffs.items())
        if not {"<=": lhs <= c.rhs, ">=": lhs >= c.rhs, "==": lhs == c.rhs}[c.sense]:
            return False
    return True


def _drop_regime(monkeypatch, kind, idx):
    """Make ``luk_consequence`` drop regime ``idx`` of every ``kind`` split and
    stop folding connectives on interval bounds, so each connective splits.

    The mutant also refuses a point at a split unless one of the split's
    kept regimes holds there: a point that only the dropped regime explains
    makes the search branch on that split, into the kept regime alone, whose
    rows then hold at every point below."""
    affine_pass, split_rows = decision._LukSystem._affine_pass, decision._split_rows

    class Dropping(tuple):
        """A split record whose regime ``idx`` is dropped; a convex node's
        record is never one, so its rows stay."""

    def dropping_pass(system):
        affine_pass(system)
        system.splits = [Dropping(split) if system.table[split[0]][0].__name__.lower() == kind
                         else split for split in system.splits]

    def dropping_rows(split):
        regimes = split_rows(split)
        return [r for i, r in enumerate(regimes) if i != idx or type(split) is not Dropping]

    def violated(system, den, nums, order):
        point = {v: F(n, den) for v, n in nums.items()}
        for k in order:
            if not any(_satisfies(point, r) for r in dropping_rows(system.splits[k])):
                return k
        return -1

    bounds01 = decision._Affine.bounds01
    monkeypatch.setattr(decision._LukSystem, "_affine_pass", dropping_pass)
    monkeypatch.setattr(decision, "_split_rows", dropping_rows)
    monkeypatch.setattr(decision._LukSystem, "violated", violated)
    monkeypatch.setattr(decision._Affine, "bounds01", lambda a: bounds01(a)
                        if a.is_const else (F(-1), F(1)))


def test_every_regime_is_load_bearing(monkeypatch):
    # a product the conclusion wants small is bounded by rows, not split
    system = luk_system([P("~p"), P("~q")], P("(p * q) \\/ r"))
    assert Times not in [system.table[split[0]][0] for split in system.splits]
    assert any(system.table[i][0] is Times and row.sense == ">=" for i, row in system.rows)
    regimes = [(k, i) for k in ("times", "implies", "and", "or") for i in (0, 1)]
    for dropped in regimes:
        flipped = 0
        for prem, conc, needs in _MUTATION_BATTERY:
            gamma = [P(s) for s in prem]
            phi = P(conc)
            base = luk_consequence(gamma, phi).holds
            with monkeypatch.context() as patch:
                _drop_regime(patch, *dropped)
                mutated = luk_consequence(gamma, phi).holds
            if needs == dropped:
                assert not base and mutated, (dropped, conc)
            if base != mutated:
                flipped += 1
        assert flipped >= 1, f"dropping {dropped} changed no battery verdict"


def test_finite_consequence_examples():
    v = finite_consequence(MVn(3), [], P("p \\/ ~p"))
    assert not v.holds and v.witness.valuation["p"] == F(1, 2)
    assert finite_consequence(MVn(2), [], P("p \\/ ~p")).holds
    assert finite_consequence(MVn(3), [P("p <-> q")], P("q <-> p")).holds
    with pytest.raises(ValueError):
        finite_consequence(StdMV(), [], P("p"))
    with pytest.raises(ResourceLimitError):
        f = P(" /\\ ".join(f"v{i}" for i in range(20)))
        finite_consequence(MVn(5), [], f)


def test_finite_consequence_reads_the_guard_at_call_time(monkeypatch):
    # one rebinding of the module's guard moves the default of a direct call
    # as it moves the frame decisions' guards; 3^2 valuations pass the
    # default and trip a guard of 8, and an explicit guard still wins
    f = P("p -> q")
    assert not finite_consequence(MVn(3), [], f).holds
    monkeypatch.setattr(decision, "FINITE_SEARCH_GUARD", 8)
    with pytest.raises(ResourceLimitError) as trip:
        finite_consequence(MVn(3), [], f)
    assert str(trip.value) == "3^2 valuations exceed the search guard 8"
    assert not finite_consequence(MVn(3), [], f, guard=36).holds


def test_large_chain_guards_trip_before_tables(monkeypatch):
    def no_tables(n):
        raise AssertionError(f"built the tables of MVn({n})")

    monkeypatch.setattr(algebras, "mv_chain_tables", no_tables)
    # 10^6 values but one variable: the four n x n tables trip the guard
    with pytest.raises(ResourceLimitError, match="operation tables"):
        finite_consequence(MVn(10 ** 6), [], P("p \\/ ~p"))
    # two variables: 10^12 valuations trip it first
    with pytest.raises(ResourceLimitError, match="valuations"):
        finite_consequence(MVn(10 ** 6), [], P("p -> q"))
    with pytest.raises(ResourceLimitError):
        decide_cardinality(1, [], P("p \\/ ~p"), MVn(10 ** 6))
    # on a 2-world frame, p at both worlds: 10^12 valuations trip first;
    # with no edge the box reads no p, and the tables trip the guard
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2")])
    with pytest.raises(ResourceLimitError, match="valuations"):
        finite_consequence(MVn(10 ** 6), [], P("p \\/ ~p"), frame=fr)
    with pytest.raises(ResourceLimitError, match="valuations"):
        decide_on_frame(fr, [], P("p \\/ ~p"), MVn(10 ** 6))
    with pytest.raises(ResourceLimitError, match="operation tables"):
        finite_consequence(MVn(10 ** 6), [], P("[] p"),
                           frame=KripkeFrame(["w1", "w2"], []))
    # a chain within both guards builds its tables
    monkeypatch.undo()
    assert not finite_consequence(MVn(41), [], P("p \\/ ~p")).holds


_PROP = st.recursive(
    st.sampled_from([Var("p"), Var("q"), Var("r"), ZERO, ONE]),
    lambda sub: st.builds(lambda op, a, b: op(a, b),
                          st.sampled_from([And, Or, Times, Implies]), sub, sub),
    max_leaves=8)
_CHAIN_PAIRS = {n: (MVn(n), FiniteTable(**mv_chain_tables(n))) for n in (3, 4)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_CHAIN_PAIRS)), st.lists(_PROP, max_size=2), _PROP)
def test_mvn_sweep_matches_table_sweep(n, gamma, phi):
    chain, table = _CHAIN_PAIRS[n]
    a = finite_consequence(chain, gamma, phi)
    b = finite_consequence(table, gamma, phi)
    assert a.holds == b.holds
    if not a.holds:
        # index k of the table stands for k/(n-1) in the chain
        assert a.witness.valuation == {p: F(k, n - 1)
                                       for p, k in b.witness.valuation.items()}
        assert a.witness.value == F(b.witness.value, n - 1)


def test_luk_agrees_with_mvn_chains():
    battery = [((), "p \\/ ~p"), ((), "~~p -> p"), ((), "p -> p * p"),
               (("p",), "p * p"), ((), "(p -> q) \\/ (q -> p)"),
               (("p -> q", "q -> r"), "p -> r"), ((), "p -> (q -> p)"),
               ((), "~(p * q) -> (~p \\/ ~q)")]
    for prem, conc in battery:
        gamma = [P(s) for s in prem]
        phi = P(conc)
        luk = luk_consequence(gamma, phi).holds
        for n in range(2, 7):
            fin = finite_consequence(MVn(n), gamma, phi).holds
            if luk:
                # MV chains embed in [0,1]: validity transfers down
                assert fin, (prem, conc, n)
            if not fin:
                assert not luk


_SPINE_PART = st.recursive(
    st.sampled_from([Var("p"), Var("q"), Var("r")]),
    lambda sub: st.builds(lambda op, a, b: op(a, b),
                          st.sampled_from([And, Or, Times, Implies]), sub, sub),
    max_leaves=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_PROP, max_size=2), st.lists(_SPINE_PART, min_size=2, max_size=5),
       st.integers(2, 5))
def test_implication_spine_matches_leaf_oracle_and_its_product(gamma, parts, chain):
    """A conclusion ``A1 -> (... -> (An -> B))``, n = 1-4, is decided with
    its right spine as the objective: the verdict agrees with solving every
    leaf of the case split cold, and with the one implication ``A1 * ... *
    An -> B``; a refutation over MVn is one over [0, 1], and its witness
    passes the reference evaluator."""
    *antecedents, b = parts
    phi = functools.reduce(lambda c, a: Implies(a, c), reversed(antecedents), b)
    verdict = luk_consequence(gamma, phi)
    assert verdict.holds == luk_consequence(
        gamma, Implies(functools.reduce(Times, antecedents), b)).holds
    if not finite_consequence(MVn(chain), gamma, phi).holds:
        assert not verdict.holds
    if not verdict.holds:
        val = {"w": verdict.witness.valuation}
        assert all(naive_eval(["w"], (), val, "w", g) == 1 for g in gamma)
        assert naive_eval(["w"], (), val, "w", phi) == verdict.witness.value < 1
    expected = luk_leaf_oracle(gamma, phi)
    assume(expected is not None)
    assert verdict.holds == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_PROP, max_size=2), _PROP)
def test_luk_agrees_with_mvn_chains_on_random_premises(gamma, phi):
    luk = luk_consequence(gamma, phi)
    for n in range(2, 6):
        fin = finite_consequence(MVn(n), gamma, phi)
        if luk.holds:
            assert fin.holds, n
        if not fin.holds:
            assert not luk.holds, n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.integers(0, 2))
def test_luk_rows_are_integer(rng, premises):
    """The case split's affine forms stay integer, so every LP row it builds
    has int coefficients and rhs; a witness valuation is still exact
    Fractions."""
    gamma = [random_formula(rng, 3, ("p", "q", "r"), modal=False)
             for _ in range(premises)]
    phi = random_formula(rng, 4, ("p", "q", "r"), modal=False)
    try:
        system = luk_system(gamma, phi)
    except decision._Unsat:
        pass  # the premises are contradictory: no rows
    else:
        rows = [row for _, row in system.rows] + [
            row for split in system.splits for regime in decision._split_rows(split)
            for row in regime]
        for row in rows:
            assert type(row.rhs) is int, row
            assert all(type(a) is int for a in row.coeffs.values()), row
    verdict = luk_consequence(gamma, phi)
    if not verdict.holds:
        assert all(type(x) is F for x in verdict.witness.valuation.values())


def test_luk_rows_do_not_follow_string_hashes():
    """The root LP's rows come out in the same order under every hash seed."""
    script = ("from helpers import luk_system\n"
              "from mvmodal.formulas import parse\n"
              "s = luk_system([parse(t) for t in ('p \\/ q', 'r \\/ s', 'u \\/ v',"
              " '~p \\/ ~u')], parse('q * s'))\n"
              "print([(sorted(r.coeffs.items()), r.sense, r.rhs) for _, r in s.rows])")
    src = os.path.dirname(os.path.dirname(decision.__file__))
    path = os.pathsep.join(filter(None, [src, os.path.dirname(__file__),
                                         os.environ.get("PYTHONPATH")]))
    rows = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
                           ).stdout for seed in ("0", "1")]
    assert rows[0] and rows[0] == rows[1]


def test_long_premise_chains():
    # q0; q0 -> q1; ...; q(n-1) -> qn: pinning walks the whole chain
    n = 10 ** 4
    q = [Var(f"q{i}") for i in range(n + 1)]
    gamma = [q[0]] + [Implies(q[i], q[i + 1]) for i in range(n)]
    assert luk_consequence(gamma, q[n]).holds
    verdict = luk_consequence(gamma, Or(Var("r"), Implies(q[n], Var("s"))))
    assert not verdict.holds
    assert verdict.witness.value == 0
    assert verdict.witness.valuation[f"q{n}"] == 1
    assert verdict.witness.valuation["r"] == verdict.witness.valuation["s"] == 0


def _nested_disjunction(n):
    """``p0 \\/ (p1 \\/ (... \\/ p(n-1)))``, built without recursion."""
    f = Var(f"p{n - 1}")
    for i in range(n - 2, -1, -1):
        f = Or(Var(f"p{i}"), f)
    return f


def test_deep_case_split_fails_without_backtracking():
    # a disjunction the conclusion wants small is bounded below by both
    # operands, two rows and no split, so the first LP, over 2,198 rows,
    # finds the all-zero countermodel
    n = 1100
    verdict = luk_consequence([], _nested_disjunction(n))
    assert not verdict.holds
    assert verdict.witness.value == 0
    assert verdict.witness.valuation == {f"p{i}": 0 for i in range(n)}


def test_deep_case_split_memory():
    # a conclusion's disjunctions are rows, not splits: one LP over two
    # rows per disjunction, whose memory grows with that tableau
    f = _nested_disjunction(300)
    tracemalloc.start()
    try:
        verdict = luk_consequence([], f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.holds
    assert peak < 128 * 2 ** 20


def test_deep_case_split_memory_1000():
    # an appended row holds only its nonzero entries, so the leaf's
    # tableau does not grow with its width
    f = _nested_disjunction(1000)
    tracemalloc.start()
    try:
        verdict = luk_consequence([], f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.holds
    assert peak < 16 * 2 ** 20


def test_deep_warm_chain(monkeypatch):
    # a premise's disjunctions, nested to the left, are wanted large and
    # split, so the search down to p0 = 1 solves 300 LPs, all but the first
    # warm-started from their parent's tableau; peak 9.5 MiB when pinned
    f = Var("p0")
    for i in range(1, 300):
        f = Or(f, Var(f"p{i}"))
    calls = _count_calls(monkeypatch)
    tracemalloc.start()
    try:
        verdict = luk_consequence([f], Var("q"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.holds and verdict.witness.value == 0
    assert verdict.witness.valuation == \
        {"q": 0, "p0": 1} | {f"p{i}": 0 for i in range(1, 300)}
    assert calls[0] == 300
    assert peak < 20 * 2 ** 20


def test_translate_on_frame_example():
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2")])
    tr = translate_on_frame(fr, [P("[] p")], P("p"))
    assert len(tr.premises) == 2  # one starred premise per world
    assert all(isinstance(f, Var) for f in tr.premises)
    assert tr.conclusion == P("p__w0 /\\ p__w1")
    deltas = tr.deltas
    # box variable at w1 is tied to p at w2; at w2 to the empty meet 1
    assert deltas["w1"] == (P("xbox0__w0 <-> p__w1"),)
    assert deltas["w2"] == (P("xbox0__w1 <-> 1"),)
    # legend round trip
    for name, entry in tr.legend.items():
        kind = entry[0]
        assert kind in ("var", "box", "dia")
        assert entry[2] in fr.worlds


def test_translate_diamond_empty_join():
    fr = KripkeFrame(["w"], [])
    tr = translate_on_frame(fr, [], P("<> 1"))
    assert tr.conclusion == Var("xdia0__w0")
    assert tr.deltas["w"] == (P("xdia0__w0 <-> 0"),)


def test_translate_fresh_names_avoid_collisions():
    fr = KripkeFrame(["w"], [])
    tr = translate_on_frame(fr, [], P("p__w0 -> p"))
    names = set(tr.legend)
    assert "p__w0" not in names or tr.legend["p__w0"][1] != "p__w0"
    assert len(names) == len(set(names))
    srcs = {entry[1] for entry in tr.legend.values() if entry[0] == "var"}
    assert srcs == {"p__w0", "p"}


def test_deep_implication_chains():
    # p -> (p -> ... (p -> end)), 10^4 deep: with p pinned to 1 by the premise
    # every link folds away, so the verdict turns on the end alone
    p, q = Var("p"), Var("q")

    def chain(end):
        for _ in range(10 ** 4):
            end = Implies(p, end)
        return end

    for decide in (lambda g, f: finite_consequence(MVn(3), g, f), luk_consequence):
        assert decide([p], chain(p)).holds
        verdict = decide([p], chain(q))
        assert not verdict.holds
        assert verdict.witness.valuation == {"p": 1, "q": 0}


def test_translate_deep_box_chain():
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2")])
    p = Var("p")
    f = p
    for _ in range(2000):
        f = Box(f)
    tr = translate_on_frame(fr, [f], p)
    # modal subformulas are numbered in post-order, innermost first
    assert tr.premises == (Var("xbox1999__w0"), Var("xbox1999__w1"))
    assert tr.conclusion == And(Var("p__w0"), Var("p__w1"))
    assert tr.deltas["w1"] == (iff(Var("xbox0__w0"), Var("p__w1")),) + tuple(
        iff(Var(f"xbox{k}__w0"), Var(f"xbox{k - 1}__w1")) for k in range(1, 2000))
    assert tr.deltas["w2"] == tuple(iff(Var(f"xbox{k}__w1"), ONE) for k in range(2000))
    # every name inlines to its successor's image: the chain ends at w2's ONE
    assert tr.inlined() == ((ONE, ONE), And(Var("p__w0"), Var("p__w1")))


def test_decide_on_frame_deep_box_chain():
    p = Var("p")
    f = p
    for _ in range(2000):
        f = Box(f)
    chain = KripkeFrame(["w1", "w2"], [("w1", "w2")])
    cycle = KripkeFrame(["w1", "w2"], [("w1", "w2"), ("w2", "w1")])
    assert not decide_on_frame(chain, [f], p, StdMV()).holds
    # an even number of boxes around the cycle comes back to p itself
    assert decide_on_frame(cycle, [f], p, StdMV()).holds


def test_translate_definitions_inline_to_successor_meets():
    fr = KripkeFrame(["w1", "w2", "w3"], [("w1", "w2"), ("w1", "w3"), ("w2", "w3")])
    tr = translate_on_frame(fr, [P("[]p"), P("[]<>q")], P("p"))
    assert tr.definitions == {
        "xbox0__w0": P("p__w1 /\\ p__w2"), "xbox0__w1": Var("p__w2"),
        "xbox0__w2": ONE, "xdia1__w0": P("q__w1 \\/ q__w2"),
        "xdia1__w1": Var("q__w2"), "xdia1__w2": ZERO,
        "xbox2__w0": P("xdia1__w1 /\\ xdia1__w2"), "xbox2__w1": Var("xdia1__w2"),
        "xbox2__w2": ONE}
    assert sorted(map(render, tr.all_premises()[6:])) == sorted(
        render(iff(Var(name), d)) for name, d in tr.definitions.items())
    # a name inside a definition is replaced by its own inlined definition
    assert tr.inlined() == ((P("p__w1 /\\ p__w2"), Var("p__w2"), ONE,
                             P("q__w2 /\\ 0"), ZERO, ONE),
                            P("p__w0 /\\ p__w1 /\\ p__w2"))


def _one_modal_kind(op):
    return st.recursive(
        st.sampled_from([Var("p"), Var("q"), ZERO, ONE]),
        lambda sub: st.one_of(sub.map(op), st.builds(
            lambda c, a, b: c(a, b), st.sampled_from([And, Or, Times, Implies]),
            sub, sub)),
        max_leaves=8)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([Box, Diamond]).flatmap(_one_modal_kind))
def test_translate_deltas_read_only_earlier_names(f):
    # inner-first numbering: with one modal kind and single-digit indices,
    # every variable a delta reads sorts before the name it defines, so the
    # lexicographic search checks the delta as soon as that name is assigned
    assume(sum(isinstance(g, (Box, Diamond)) for g in subformulas(f)) < 10)
    fr = KripkeFrame(["w1", "w2"], [(a, b) for a in ("w1", "w2")
                                    for b in ("w1", "w2")])
    for rows in translate_on_frame(fr, [], f).deltas.values():
        for row in rows:
            name, rhs = row.left.left.name, row.left.right
            assert all(v < name for v in variables(rhs))


_FORMULA_PQ = st.recursive(
    st.sampled_from([Var("p"), Var("q"), ZERO, ONE]),
    lambda sub: st.one_of(
        st.builds(lambda c, a: c(a), st.sampled_from([Box, Diamond]), sub),
        st.builds(lambda c, a, b: c(a, b), st.sampled_from([And, Or, Times, Implies]),
                  sub, sub)),
    max_leaves=6)


@st.composite
def _pair_on_frame(draw, max_worlds=3):
    gamma = draw(st.lists(_FORMULA_PQ, max_size=2))
    phi = draw(_FORMULA_PQ)
    assume(sum(isinstance(g, (Box, Diamond)) for f in (*gamma, phi)
               for g in postorder([f])) <= 3)
    j = draw(st.integers(1, max_worlds))
    ws = [f"w{i + 1}" for i in range(j)]
    prs = [(a, b) for a in ws for b in ws]
    mask = draw(st.integers(0, 2 ** (j * j) - 1))
    return KripkeFrame(ws, [prs[b] for b in range(j * j) if mask >> b & 1]), gamma, phi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pair_on_frame())
def test_inlined_definitions_decide_as_the_deltas(case):
    # the LP reads the definitions inlined; the delta system is the same
    # question with a pinned iff per modal name
    frame, gamma, phi = case
    verdict = decide_on_frame(frame, gamma, phi, StdMV())
    tr = translate_on_frame(frame, gamma, phi)
    # the evaluator over formulas gives the named translation with each
    # definition substituted, inner first, the very same nodes
    image = {}
    for name, definition in tr.definitions.items():
        image[name] = substitute(definition, image)
    premises, conclusion = tr.inlined()
    assert len(premises) == len(tr.premises)
    assert all(a is substitute(b, image) for a, b in zip(premises, tr.premises))
    assert conclusion is substitute(tr.conclusion, image)
    assert verdict.holds == luk_consequence(tr.all_premises(), tr.conclusion).holds
    # MV3 embeds in [0, 1], so an MV3 countermodel is a standard-MV one; the
    # guard is raised because it counts the modal names too: 3 worlds x (2
    # variables + 3 modal names)
    if not finite_consequence(MVn(3), tr.all_premises(), tr.conclusion,
                              guard=3 ** 15).holds:
        assert not verdict.holds


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(0, 2))
def test_frame_decision_per_world_agrees_with_the_conjunction(rng, j, premises):
    """A standard-MV frame is decided one world at a time; the verdict is
    that of the conjunction of the conclusion's images, and a failing
    witness is refuted at its world, the first refutable one."""
    worlds = [f"w{i + 1}" for i in range(j)]
    frame = KripkeFrame(worlds, [(a, b) for a in worlds for b in worlds
                                 if rng.random() < 0.4])
    gamma = tuple(random_formula(rng, 3) for _ in range(premises))
    phi = random_formula(rng, 3)
    verdict = decide_on_frame(frame, gamma, phi, StdMV())
    tr = translate_on_frame(frame, gamma, phi)
    assert verdict.holds == luk_consequence(*tr.inlined()).holds
    if verdict.holds:
        return
    w = verdict.witness
    *cols, conclusion = evaluate_all(w.model, gamma + (phi,))
    assert all(v == 1 for col in cols for v in col)
    at = frame.worlds.index(w.world)
    assert conclusion[at] < 1 and w.value == conclusion[at]
    images, conclusions = tr._images()
    for earlier in conclusions[:at]:
        assert luk_consequence(images, earlier).holds


def test_frame_decisions_build_no_deltas(monkeypatch):
    # the LP reads the evaluator's images and the finite sweep compiles from
    # the source formulas; within the guard's legend bound neither draws a
    # name for a modal subformula nor builds a definition or iff delta: only
    # the per-world source variables are named
    calls, bases = [], []

    def counted(a, b):
        calls.append(a)
        return iff(a, b)

    def recorded(used, names):
        names = list(names)
        bases.extend(names)
        return fresh_names(used, names)

    monkeypatch.setattr(decision, "iff", counted)
    monkeypatch.setattr(decision, "fresh_names", recorded)
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2"), ("w2", "w2")])
    gamma, phi = [P("[](p -> q)"), P("[]p")], P("[]q \\/ <>p")
    decide_on_frame(fr, gamma, phi, StdMV())
    assert len(calls) == 0
    decide_on_frame(fr, gamma, phi, MVn(3))
    assert len(calls) == 0
    assert not [b for b in bases if b.startswith(("xbox", "xdia"))], bases


def _named_sweep(frame, gamma, phi, alg, guard=decision.FINITE_SEARCH_GUARD):
    """The frame decision as the finite sweep made it over the names and
    deltas: the first countermodel in the sorted order of the named
    variables, folded onto the frame."""
    tr = translate_on_frame(frame, gamma, phi)
    res = finite_consequence(alg, tr.all_premises(), tr.conclusion, guard=guard)
    if res.holds:
        return res
    point = res.witness.valuation
    valuation = {w: {} for w in frame.worlds}
    for name, (kind, p, w) in tr.legend.items():
        if kind == "var":
            valuation[w][p] = point.get(name, alg.zero)
    model = KripkeModel(frame, alg, valuation)
    world = next(w for w in frame.worlds if evaluate(model, w, phi) != alg.one)
    return Verdict(False, Witness(world=world, formula=phi, model=model))


def _frame_outcome(decide):
    try:
        v = decide()
    except ResourceLimitError as e:
        return str(e)
    if v.holds:
        return True
    return json.dumps(model_to_json(v.witness.model)), v.witness.world


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_pair_on_frame(), st.sampled_from([MVn(3), MVn(4), G3]),
       st.integers(2, 8), st.integers(-1, 0))
@example(case=(KripkeFrame(["w1", "w2"], [("w1", "w2")]), [], P("[] q")),
         alg=MVn(3), exponent=3, offset=0)
def test_frame_guard_counts_the_named_translation(case, alg, exponent, offset):
    # the sweep reads only the source variables at each world, but the guard
    # still counts the named translation's variables: with the guard
    # lowered, the frame decision trips exactly when the sweep over the
    # names and deltas does, with the same message, and otherwise gives the
    # same verdict and witness.  In the example, w1 has no predecessor, so q
    # at w1 is in the legend but not in the translation: 3^4 exceeds the
    # guard, the exact 3^3 does not
    frame, gamma, phi = case
    # the guard's cheap bound is the legend's length, read without building it
    tr = translate_on_frame(frame, gamma, phi)
    assert (len(tr._rows) + len(tr._modal)) * len(frame.worlds) == len(tr.legend)
    guard = alg.size ** exponent + offset
    named = _frame_outcome(lambda: _named_sweep(frame, gamma, phi, alg, guard))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decision, "FINITE_SEARCH_GUARD", guard)
        assert _frame_outcome(lambda: decide_on_frame(frame, gamma, phi, alg)) == named


def test_image_sweep_matches_named_sweep():
    # every name sorts after p, q and r and is a function of them, so the
    # lexicographically first countermodel is the same in both sweeps
    rng = random.Random(29)
    tally = {"holds": 0, "fails": 0, "guard": 0}
    for _ in range(600):
        gamma = [random_formula(rng, 3, ("p", "q", "r"))
                 for _ in range(rng.randint(0, 2))]
        phi = random_formula(rng, 3, ("p", "q", "r"))
        ws = [f"w{i + 1}" for i in range(rng.randint(1, 2))]
        prs = [(a, b) for a in ws for b in ws]
        frame = KripkeFrame(ws, [e for e in prs if rng.random() < 0.5])
        alg = rng.choice([MVn(3), MVn(4), G3])
        named = _frame_outcome(lambda: _named_sweep(frame, gamma, phi, alg))
        assert _frame_outcome(lambda: decide_on_frame(frame, gamma, phi, alg)) == named
        tally["holds" if named is True else "guard" if isinstance(named, str)
              else "fails"] += 1
    assert min(tally.values()) > 10, tally


def test_image_sweep_witness_can_change_after_the_names():
    # y sorts after the name xdia0__w0, which the named sweep tried first at
    # 0, forcing y to 1; the sweep of the source variables tries y first and
    # stops at 1/2
    frame = KripkeFrame(["w1"], [("w1", "w1")])
    phi = P("<> ~y")
    named = _named_sweep(frame, [], phi, MVn(3))
    v = decide_on_frame(frame, [], phi, MVn(3))
    assert named.witness.model.value("w1", "y") == 1
    assert v.witness.model.value("w1", "y") == F(1, 2)
    assert evaluate(v.witness.model, v.witness.world, phi) != 1


_FORMULA_NAMES = st.recursive(
    st.sampled_from([Var("p"), Var("q"), Var("p__w0"), Var("xbox0__w0"), ZERO, ONE]),
    lambda sub: st.one_of(
        st.builds(lambda c, a: c(a), st.sampled_from([Box, Diamond]), sub),
        st.builds(lambda c, a, b: c(a, b), st.sampled_from([And, Or, Times, Implies]),
                  sub, sub)),
    max_leaves=6)


def _image_sweep(frame, gamma, phi, alg):
    """The frame decision as the finite sweep made it over the evaluator's
    images: the propositional sweep of the premises' images and the
    conjunction of the conclusion's, its point folded onto the frame and
    the witness at the first world where the conclusion is not 1."""
    tr = translate_on_frame(frame, gamma, phi)
    res = finite_consequence(alg, *tr.inlined())
    if res.holds:
        return res
    point = res.witness.valuation
    model = KripkeModel(frame, alg, {
        w: {p: point.get(row[i], alg.zero) for p, row in tr._rows.items()}
        for i, w in enumerate(frame.worlds)})
    *_, conclusion = evaluate_all(model, tuple(gamma) + (phi,))
    at = next(i for i, v in enumerate(conclusion) if v != alg.one)
    return Verdict(False, Witness(world=frame.worlds[at], formula=phi,
                                  value=conclusion[at], model=model))


def _sweep_outcome(decide):
    """The verdict, witness world, value and model as JSON, or the guard's
    message."""
    try:
        v = decide()
    except ResourceLimitError as e:
        return str(e)
    if v.holds:
        return True
    w = v.witness
    return w.world, w.value, json.dumps(model_to_json(w.model))


@st.composite
def _names_on_frame(draw):
    gamma = draw(st.lists(_FORMULA_NAMES, max_size=2))
    phi = draw(_FORMULA_NAMES)
    j = draw(st.integers(1, 3))
    ws = [f"w{i + 1}" for i in range(j)]
    prs = [(a, b) for a in ws for b in ws]
    mask = draw(st.integers(0, 2 ** (j * j) - 1))
    return KripkeFrame(ws, [prs[b] for b in range(j * j) if mask >> b & 1]), gamma, phi


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_names_on_frame(), st.sampled_from([MVn(3), MVn(4), G3]))
@example(case=(KripkeFrame(["w1"], []), [P("[] xbox0__w0")], P("p__w0 -> [] q")),
         alg=MVn(3))
@example(case=(KripkeFrame(["w1", "w2", "w3"], []), [],
               P("p * q -> p__w0 \\/ xbox0__w0")), alg=MVn(4))
def test_frame_sweep_matches_the_image_sweep(case, alg):
    # the sweep compiled on the frame from the source formulas and the
    # propositional sweep of the images meet the same live per-world
    # variables in the same sorted order, so they find the same first
    # countermodel, and trip the same guard with the same message; source
    # names that look like per-world or modal names get fresh per-world names
    frame, gamma, phi = case
    want = _sweep_outcome(lambda: _image_sweep(frame, gamma, phi, alg))
    assert _sweep_outcome(
        lambda: finite_consequence(alg, gamma, phi, frame=frame)) == want


def test_finite_frame_path_builds_no_image_and_rechecks_once(monkeypatch):
    def no_images(self):
        raise AssertionError("built the images")

    # the one re-check, _folded, runs once on a failing decision, on the
    # frame, and never on a holding one
    calls = []
    folded = decision._folded

    def counted(frame, *args):
        calls.append(frame)
        return folded(frame, *args)

    monkeypatch.setattr(decision.FrameTranslation, "_images", no_images)
    monkeypatch.setattr(decision, "_folded", counted)
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2"), ("w2", "w2")])
    assert not decide_on_frame(fr, [P("[] p -> p")], P("<> ~p"), MVn(3)).holds
    assert calls == [fr]
    calls.clear()
    assert decide_on_frame(fr, [P("[] (p -> q)"), P("[] p")], P("[] q"), MVn(3)).holds
    assert calls == []


def test_stdmv_frame_paths_build_no_image(monkeypatch):
    # the LP reads the frame's node table, folded from the source template
    # with no image formula
    def no_images(self):
        raise AssertionError("built the images")

    monkeypatch.setattr(decision.FrameTranslation, "_images", no_images)
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2"), ("w2", "w2")])
    assert decide_on_frame(fr, [P("[] (p -> q)"), P("[] p")], P("[] q"), StdMV()).holds
    assert not decide_on_frame(fr, [P("[] p -> p")], P("<> ~p"), StdMV()).holds
    assert decide_cardinality(2, [P("[]p -> p")], P("[][]p -> p"), StdMV()).holds
    assert not decide_cardinality(2, [P("[](p -> q)"), P("<>r")],
                                  P("[]q \\/ (r * ~p)"), StdMV()).holds


def test_a_decision_builds_no_formula_node(monkeypatch):
    # per-world variables are names, so on formulas parsed beforehand no
    # backend interns a node: counted as ``_intern`` misses, which a node
    # made and dropped within the call would also be.  The variable names
    # are used nowhere else, so no node of theirs is alive from another test
    gamma, phi = [P("[](u7 -> v7)"), P("<>w7")], P("[]v7 \\/ (w7 * ~u7)")
    flat_gamma, flat_phi = [P("u7 -> v7 * w7")], P("v7 \\/ ~u7")
    pair = [P("[]u7 -> u7")], P("[][]u7 -> u7")
    frame = KripkeFrame(["w1", "w2"], [("w1", "w2"), ("w2", "w2")])
    decision._per_world_vars.cache_clear()
    made = []
    intern = formulas._Node._intern.__func__

    def counting(cls, key, fields):
        ref = cls._live.get(key)
        if ref is None or ref() is None:
            made.append((cls.__name__, fields))
        return intern(cls, key, fields)

    monkeypatch.setattr(formulas._Node, "_intern", classmethod(counting))
    verdicts = [luk_consequence(flat_gamma, flat_phi),
                finite_consequence(MVn(3), flat_gamma, flat_phi),
                finite_consequence(MVn(3), gamma, phi, frame=frame),
                *(decide_on_frame(frame, gamma, phi, alg) for alg in (StdMV(), MVn(3), G3)),
                decide_cardinality(2, gamma, phi, StdMV()),
                decide_cardinality(2, *pair, StdMV())]
    assert made == []
    assert [v.holds for v in verdicts] == [False] * 7 + [True]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pair_on_frame())
def test_frame_table_builds_the_system_of_the_images(case):
    # the node table of a frame is the fold's own numbering: read back as
    # formulas, children before parents, it holds each subformula of the
    # images once (and maybe the unread constants), its roots are the
    # images, and its case system decides as the images' own
    frame, gamma, phi = case
    tr = translate_on_frame(frame, gamma, phi)
    table, premises, conclusions = tr._table()
    images, image_conclusions = tr._images()
    back = []
    for i, (kind, x, y) in enumerate(table):
        if y is None:
            back.append(Var(x) if kind is Var else x)
        else:
            assert x < i and y < i
            back.append(kind(back[x], back[y]))
    subformulas_of_images = set(postorder(images + image_conclusions))
    assert len(set(back)) == len(back)
    assert subformulas_of_images <= set(back) <= subformulas_of_images | {ZERO, ONE}
    assert [back[r] for r in premises] == list(images)
    assert [back[r] for r in conclusions] == list(image_conclusions)
    _, _, (template, at) = decision._propositional(images + image_conclusions)

    def refuted(*system):
        found = decision._luk_countermodel(*system, decision.BRANCH_GUARD_DEFAULT)
        return found and found[0]
    assert refuted(table, premises, conclusions) == refuted(
        template, at[:len(images)], at[len(images):])


def _certified(verdict, frame, gamma, phi):
    """A failing verdict's witness, re-evaluated by ``naive_eval``: every
    premise 1 at every world, and the conclusion at the witness world the
    claimed value, below 1."""
    w = verdict.witness
    if frame is None:
        worlds, edges, valuation, at = ["w"], (), {"w": w.valuation}, "w"
    else:
        worlds, edges, at = frame.worlds, frame.edges, w.world
        valuation = {x: {v: w.model.value(x, v) for v in w.model.variables}
                     for x in worlds}
    assert all(naive_eval(worlds, edges, valuation, x, g) == 1
               for g in gamma for x in worlds)
    assert naive_eval(worlds, edges, valuation, at, phi) == w.value < 1


# premises that force a variable's value without pinning it, at most one per
# variable: ``~~x`` makes x = 1, ``~x -> x`` x >= 1/2 and ``x -> ~x`` x <=
# 1/2, each by a row, so a meet's operands can be forced apart
_FORCING = st.tuples(*(st.sampled_from([None, P(f"~~{x}"), P(f"~{x} -> {x}"),
                                        P(f"{x} -> ~{x}")]) for x in "pqr")
                     ).map(lambda fs: [f for f in fs if f is not None])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(_FORCING, st.lists(_PROP, max_size=1)).map(lambda t: t[0] + t[1]), _PROP,
       _pair_on_frame(max_worlds=2))
@example(gamma=[], phi=P("(r -> p) /\\ (q -> (q \\/ p))"),
         case=(KripkeFrame(["w1"], []), [P("~~q"), P("~p -> p")], P("p /\\ q")))
def test_signed_split_decides_as_the_unsigned(gamma, phi, case):
    # the case system built from the signs must decide as the one with
    # every node read both ways, whose splits are all equality regimes:
    # luk_consequence over p, q and r, and decide_on_frame on 1-2 worlds.
    # Both examples fail only at points where a meet the conclusion wants
    # small takes its first operand, below its second: a first regime that
    # also bounded ``t`` by the second would make them hold.  The forcing
    # premises reach such meets among the random examples as well
    calls = [(None, gamma, phi), case]
    signed = [luk_consequence(gamma, phi), decide_on_frame(*case, StdMV())]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decision._LukSystem, "_signs",
                   lambda self: bytearray([decision._BOTH]) * len(self.table))
        unsigned = [luk_consequence(gamma, phi), decide_on_frame(*case, StdMV())]
    for (frame, g, f), a, b in zip(calls, signed, unsigned):
        assert a.holds == b.holds, (frame, g, f)
        if not a.holds:
            _certified(a, frame, g, f)


def test_repeated_cardinality_sweep_builds_no_frame_and_evaluates_nothing():
    # the frames and the template read no edge, so they are built once: a
    # second sweep of a holding pair is one fold per frame and its search,
    # with no frame built, no re-check and the translation memo warm
    calls = {"frames": 0, "_folded": 0}
    init, folded = KripkeFrame.__init__, decision._folded

    def counted_init(self, *args, **kwargs):
        calls["frames"] += 1
        init(self, *args, **kwargs)

    def counted_folded(*args, **kwargs):
        calls["_folded"] += 1
        return folded(*args, **kwargs)

    gamma, phi = [P("[]p -> p")], P("[][]p -> p")
    for alg in (StdMV(), MVn(3)):
        assert decide_cardinality(2, gamma, phi, alg).holds
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(KripkeFrame, "__init__", counted_init)
            mp.setattr(decision, "_folded", counted_folded)
            misses = decision._per_world_vars.cache_info().misses
            assert decide_cardinality(2, gamma, phi, alg).holds
            assert decision._per_world_vars.cache_info().misses - misses <= 1
        assert calls == {"frames": 0, "_folded": 0}, alg


@st.composite
def _relation_case(draw):
    """A frame of at most 2 worlds, premises and two formulas over p and q."""
    gamma = draw(st.lists(_FORMULA_PQ, max_size=2))
    phi, psi = draw(_FORMULA_PQ), draw(_FORMULA_PQ)
    assume(sum(isinstance(g, (Box, Diamond)) for g in postorder([*gamma, phi, psi])) <= 3)
    j = draw(st.integers(1, 2))
    ws = [f"w{i + 1}" for i in range(j)]
    prs = [(a, b) for a in ws for b in ws]
    mask = draw(st.integers(0, 2 ** (j * j) - 1))
    frame = KripkeFrame(ws, [prs[b] for b in range(j * j) if mask >> b & 1])
    return frame, gamma, phi, psi


def _relation_holds(relation):
    """Check ``relation(holds, gamma, phi, psi)`` on frames of at most 2
    worlds over StdMV and MV3, where ``holds(gamma, phi)`` is the verdict on
    the example's frame, or None after a guard trip, counted as a skip.
    Prints and returns the tally of holding antecedents and skips."""
    tally = {"antecedent holds": 0, "skipped": 0}

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_relation_case(), st.sampled_from(["std-mv", "mv-3"]))
    def check(case, alg):
        frame, gamma, phi, psi = case
        alg = StdMV() if alg == "std-mv" else MVn(3)

        def holds(gamma, phi):
            try:
                return decide_on_frame(frame, gamma, phi, alg).holds
            except ResourceLimitError:
                tally["skipped"] += 1
                return None

        if relation(holds, gamma, phi, psi):
            tally["antecedent holds"] += 1

    check()
    print(tally)
    return tally


def test_frame_consequence_is_closed_under_necessitation():
    # if Gamma |- phi on F, every model on F that makes Gamma 1 everywhere
    # makes phi 1 everywhere, so box phi is a meet of 1s everywhere
    def necessitation(holds, gamma, phi, psi):
        if holds(gamma, phi):
            assert holds(gamma, Box(phi)) in (True, None)
            return True

    tally = _relation_holds(necessitation)
    assert tally["antecedent holds"] >= 30, tally


def test_frame_consequence_is_monotone_in_the_premises():
    def monotonicity(holds, gamma, phi, psi):
        if holds(gamma, phi):
            assert holds([*gamma, psi], phi) in (True, None)
            return True

    tally = _relation_holds(monotonicity)
    assert tally["antecedent holds"] >= 30, tally


def test_frame_consequence_is_reflexive():
    # Gamma, phi |- phi: a model that makes phi 1 everywhere does
    def reflexivity(holds, gamma, phi, psi):
        verdict = holds([*gamma, phi], phi)
        assert verdict in (True, None)
        return verdict

    tally = _relation_holds(reflexivity)
    assert tally["antecedent holds"] >= 300, tally


def test_frame_consequence_is_closed_under_cut():
    # Gamma |- psi and Gamma, psi |- phi give Gamma |- phi: a model that
    # makes Gamma 1 everywhere makes psi 1 everywhere, and then phi
    def cut(holds, gamma, phi, psi):
        if holds(gamma, psi) and holds([*gamma, psi], phi):
            assert holds(gamma, phi) in (True, None)
            return True

    tally = _relation_holds(cut)
    assert tally["antecedent holds"] >= 100, tally


def test_frame_consequence_is_structural():
    # Gamma |- phi gives sigma Gamma |- sigma phi for a uniform substitution
    # sigma: a model that makes sigma Gamma 1 everywhere is, through the
    # values of sigma p and sigma q, one that makes Gamma 1 everywhere; here
    # sigma p is psi and sigma q is psi with p and q swapped
    def structurality(holds, gamma, phi, psi):
        if holds(gamma, phi):
            sigma = {"p": psi, "q": substitute(psi, {"p": Var("q"), "q": Var("p")})}
            assert holds([substitute(g, sigma) for g in gamma],
                         substitute(phi, sigma)) in (True, None)
            return True

    tally = _relation_holds(structurality)
    assert tally["antecedent holds"] >= 100, tally


def test_refutations_survive_generated_subframes_and_bounded_morphisms():
    # values are invariant under generated submodels and bounded morphisms
    # (Blackburn, de Rijke and Venema, *Modal Logic*, 2001, sec. 2.1), as a
    # box is a meet and a diamond a join over successors.  So a failing
    # verdict's model cut to what its witness world reaches is still a
    # countermodel there, and its subframe fails too; and G x {a, b}, with
    # (u, i) -> (v, j) exactly when u -> v, projects onto G by a surjective
    # bounded morphism, so a pair refuted on G is refuted on it
    tally = {"refuted": 0, "skipped": 0}

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_relation_case(), st.sampled_from(["std-mv", "mv-3"]))
    def check(case, alg):
        frame, gamma, phi, _ = case
        alg = StdMV() if alg == "std-mv" else MVn(3)
        doubled = KripkeFrame(
            [w + i for w in frame.worlds for i in "ab"],
            [(u + i, v + j) for u in frame.worlds for v in frame.successors(u)
             for i in "ab" for j in "ab"])
        try:
            verdict = decide_on_frame(frame, gamma, phi, alg)
            if verdict.holds:
                return
            world = verdict.witness.world
            sub = generated_submodel(verdict.witness.model, world)
            assert not consequence_witness(sub, gamma, phi).holds
            assert evaluate(sub, world, phi) == verdict.witness.value
            assert not decide_on_frame(sub.frame, gamma, phi, alg).holds
            assert not decide_on_frame(doubled, gamma, phi, alg).holds
        except ResourceLimitError:
            tally["skipped"] += 1
            return
        tally["refuted"] += 1

    check()
    print(tally)
    assert tally["refuted"] >= 100, tally


def test_refutations_and_holding_verdicts_transfer_between_algebras():
    # MV3 is a subalgebra of MV5 ({0, 1/2, 1}) and of [0, 1]_MV, and MV5 of
    # [0, 1]_MV, so on a fixed frame an MV3 countermodel is an MV5 and a
    # StdMV one, and a StdMV holding verdict holds over MV3 and MV5; a
    # guard trip skips the pair
    rng = random.Random(34)
    tally = {"refuted": 0, "holds": 0, "skipped": 0}
    algebras = {"mv3": MVn(3), "mv5": MVn(5), "std": StdMV()}
    for _ in range(300):
        gamma = tuple(random_formula(rng, 2, ("p", "q"))
                      for _ in range(rng.randint(0, 2)))
        phi = random_formula(rng, 3, ("p", "q"))
        ws = [f"w{i + 1}" for i in range(rng.randint(1, 2))]
        frame = KripkeFrame(ws, [(a, b) for a in ws for b in ws if rng.random() < 0.5])
        try:
            got = {k: decide_on_frame(frame, gamma, phi, alg)
                   for k, alg in algebras.items()}
        except ResourceLimitError:
            tally["skipped"] += 1
            continue
        if not got["mv3"].holds:
            assert not got["mv5"].holds and not got["std"].holds
            # and the MV3 witness itself refutes the pair over MV5 and StdMV
            w = got["mv3"].witness
            for alg in (MVn(5), StdMV()):
                model = KripkeModel(frame, alg, w.model.valuation_dict())
                *cols, conclusion = evaluate_all(model, gamma + (phi,))
                assert all(v == 1 for col in cols for v in col)
                assert conclusion[ws.index(w.world)] == w.value < 1
            tally["refuted"] += 1
        if got["std"].holds:
            assert got["mv3"].holds and got["mv5"].holds
            tally["holds"] += 1
    assert tally["refuted"] >= 100 and tally["holds"] >= 100, tally


def test_decide_on_frame_examples():
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2")])
    v = decide_on_frame(fr, [P("[] p")], P("p"), StdMV())
    assert not v.holds
    m = v.witness.model
    assert m.value("w1", "p") == 0 and m.value("w2", "p") == 1
    assert v.witness.world == "w1"
    assert decide_on_frame(fr, [P("p")], P("[] p"), StdMV()).holds
    lone = KripkeFrame(["w"], [])
    assert decide_on_frame(lone, [P("<> 1")], P("0"), StdMV()).holds
    with pytest.raises(ValueError):
        decide_on_frame(fr, [], P("p"), StdProduct())
    with pytest.raises(ValueError):
        decide_on_frame(fr, [], P("p"), ExpChain())


def test_decide_on_frame_witness_reverifies():
    fr = KripkeFrame(["w1", "w2"], [("w1", "w2"), ("w2", "w1")])
    v = decide_on_frame(fr, [P("p -> [] p")], P("p \\/ ~p"), MVn(3))
    if not v.holds:
        m = v.witness.model
        assert globally_satisfies(m, [P("p -> [] p")]).holds
        assert evaluate(m, v.witness.world, P("p \\/ ~p")) != 1


def test_decide_cardinality():
    v = decide_cardinality(1, [], P("[] p -> p"), StdMV())
    assert not v.holds
    assert v.witness.model.frame.edges == frozenset()
    assert decide_cardinality(1, [], P("p -> p"), StdMV()).holds
    assert decide_cardinality(2, [P("p")], P("[] p"), StdMV()).holds
    with pytest.raises(ResourceLimitError):
        decide_cardinality(4, [], P("p"), StdMV())
    with pytest.raises(ValueError):
        decide_cardinality(0, [], P("p"), StdMV())


def test_frame_decision_matches_exhaustive_search():
    # spot version of the acceptance battery: every 1- and 2-world frame
    alg = MVn(3)
    battery = [((), P("[] p -> p")), ((P("p"),), P("[] p")),
               ((), P("<> p -> [] p")), ((P("[] p"),), P("p"))]
    frames = []
    for j in (1, 2):
        ws = [f"w{i + 1}" for i in range(j)]
        prs = [(a, b) for a in ws for b in ws]
        for mask in range(2 ** (j * j)):
            frames.append(KripkeFrame(ws, [prs[b] for b in range(j * j)
                                           if mask >> b & 1]))

    def exhaustive(frame, gamma, phi):
        names = sorted(variables(tuple(gamma) + (phi,)))
        for vals in itertools.product(MV3, repeat=len(names) * len(frame.worlds)):
            it = iter(vals)
            valuation = {w: {p: next(it) for p in names} for w in frame.worlds}
            ok = all(naive_eval(frame.worlds, frame.edges, valuation, w, g) == 1
                     for w in frame.worlds for g in gamma)
            if ok and any(naive_eval(frame.worlds, frame.edges, valuation, w, phi) != 1
                          for w in frame.worlds):
                return False
        return True

    for fr in frames:
        for gamma, phi in battery:
            assert decide_on_frame(fr, gamma, phi, alg).holds == \
                exhaustive(fr, gamma, phi)


def test_coenumerate_examples():
    out = coenumerate_nonconsequences([((), P("p \\/ ~p"))], 2)
    assert len(out) == 1 and out[0].cardinality == 1
    w = out[0].verdict.witness
    assert evaluate(w.model, w.world, P("p \\/ ~p")) != 1
    out = coenumerate_nonconsequences([((P("p"),), P("p"))], 5)
    assert out == ()
    out = coenumerate_nonconsequences(
        [((), P("[] p -> p")), ((P("p"),), P("[] p"))], 3)
    assert [e.index for e in out] == [0]


def test_luk_recheck_catches_a_point_that_is_no_countermodel(monkeypatch):
    # accepting the first LP point, with every split's t left free, must
    # trip the re-check rather than return a false witness
    monkeypatch.setattr(decision._LukSystem, "violated",
                        lambda self, den, nums, order: -1)
    with pytest.raises(RuntimeError, match="^countermodel failed conclusion re-check$"):
        luk_consequence([], P("(p -> q) \\/ (q -> p)"))
    with pytest.raises(RuntimeError, match="^countermodel failed premise re-check$"):
        luk_consequence([P("p \\/ q")], P("p"))


def test_case_split_raises_on_a_broken_promise(monkeypatch, capsys):
    # violated() promises never to name a split already branched on along
    # the path; one that always names split 0 breaks that promise on the
    # first child, which must raise rather than branch again, and the CLI
    # reports the fault as an internal error
    f = P("(p -> q) \\/ (q -> p)")
    assert len(luk_system([], f).splits) == 2
    monkeypatch.setattr(decision._LukSystem, "violated",
                        lambda self, den, nums, order: 0)
    with pytest.raises(RuntimeError,
                       match="^case split 0 is violated below its own regime$"):
        luk_consequence([], f)
    code = run(["check", "--cardinality", "1", "--conclusion", "(p -> q) \\/ (q -> p)"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == \
        "internal error: RuntimeError: case split 0 is violated below its own regime\n"


def test_finite_recheck_catches_a_sweep_that_checks_nothing(monkeypatch):
    # a sweep program without its checks accepts its first leaf, every
    # variable 0, whatever the query: the re-check must trip, propositionally
    # and on a frame
    program = decision._sweep_program

    def unchecked(*args):
        held, free, vals, code, checks, one = program(*args)
        return held, free, vals, code, [[] for _ in checks], one

    monkeypatch.setattr(decision, "_sweep_program", unchecked)
    frame = KripkeFrame(["a", "b"], [("a", "b")])
    for alg in (MVn(3), G3):
        with pytest.raises(RuntimeError, match="^countermodel failed premise re-check$"):
            finite_consequence(alg, [P("p")], P("q"))
        with pytest.raises(RuntimeError, match="^countermodel failed conclusion re-check$"):
            finite_consequence(alg, [], P("p -> p"))
        with pytest.raises(RuntimeError,
                           match="^folded countermodel failed premise re-check$"):
            decide_on_frame(frame, [P("p")], P("q"), alg)
        with pytest.raises(RuntimeError,
                           match="^folded countermodel failed conclusion re-check$"):
            finite_consequence(alg, [], P("[]p -> []p"), frame=frame)


def test_frame_recheck_catches_a_backend_that_is_wrong(monkeypatch, tmp_path, capsys):
    # a backend answer of all zeros at the first world, whatever the query
    monkeypatch.setattr(decision, "_luk_countermodel", lambda *args: (0, {}))
    frame = KripkeFrame(["a", "b"], [("a", "b")])
    with pytest.raises(RuntimeError, match="^folded countermodel failed premise re-check$"):
        decide_on_frame(frame, [P("p")], P("q"), StdMV())
    with pytest.raises(RuntimeError,
                       match="^folded countermodel failed conclusion re-check$"):
        decide_on_frame(frame, [], P("[]p -> []p"), StdMV())
    # the CLI reports it as an internal error, not as a failed verdict
    path = tmp_path / "frame.json"
    path.write_text('{"worlds": ["a", "b"], "edges": [["a", "b"]]}')
    code = run(["check", "--frame", str(path), "--algebra", "std-mv",
                "--premises", "p", "--conclusion", "q"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == ("internal error: RuntimeError: folded countermodel "
                            "failed premise re-check\n")
