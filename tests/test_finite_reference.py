"""Differential battery: the pruned finite search against the full sweeps.

The backtracking search in ``finite_consequence`` and the sweep in
``finite_reference`` meet valuations in the same lexicographic order, and
``decide_cardinality`` meets the least frame of each isomorphism class where
the reference meets every labeled frame.  Both sides return the first
countermodel, so their verdicts must be equal, witnesses included.  The
named frame translation must equal ``finite_reference.named_translation``
item for item, and type elimination must not change its answer when a
chain's indices are permuted.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finite_reference
from helpers import G3
from mvmodal import decision, leq
from mvmodal.algebras import (FiniteTable, MVn, ResourceLimitError, StdMV,
                              mv_chain_tables)
from mvmodal.decision import (decide_cardinality, finite_consequence,
                              translate_on_frame)
from mvmodal.formulas import (ONE, ZERO, And, Box, Diamond, Implies, Or, Times,
                              Var, neg, parse)
from mvmodal.kripke import KripkeFrame, Verdict, model_to_json

P = parse

ALGEBRAS = {f"mv-{n}": MVn(n) for n in range(2, 6)} | {"g3": G3}

_PROP = st.recursive(
    st.sampled_from([Var("p"), Var("q"), Var("r"), Var("s"), ZERO, ONE]),
    lambda sub: st.builds(lambda op, a, b: op(a, b),
                          st.sampled_from([And, Or, Times, Implies]), sub, sub),
    max_leaves=8)

_CONTRADICTION = And(Var("p"), neg(Var("p")))  # never 1 in MVn or G3


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ALGEBRAS)), st.lists(_PROP, max_size=2), _PROP)
@example("mv-3", [], Implies(ONE, ZERO))
@example("g3", [], Implies(ZERO, ONE))
@example("mv-2", [ZERO], Var("p"))
@example("mv-4", [Or(ONE, ZERO)], And(ONE, ZERO))
@example("mv-5", [_CONTRADICTION], Var("q"))
@example("g3", [Var("q"), _CONTRADICTION], ZERO)
def test_backtracking_matches_sweep(alg, gamma, phi):
    alg = ALGEBRAS[alg]
    want = finite_reference.finite_consequence(alg, gamma, phi)
    assert repr(finite_consequence(alg, gamma, phi)) == repr(want)


def test_one_frame_per_isomorphism_class(monkeypatch):
    seen = []
    decide = decision.decide_on_frame

    def counted(frame, *args, **kwargs):
        seen.append(frame)
        return decide(frame, *args, **kwargs)

    monkeypatch.setattr(decision, "decide_on_frame", counted)
    # unlabeled digraphs with loops allowed on 1, 2 and 3 nodes; over StdMV
    # every frame is decided
    for j, classes in ((1, 2), (2, 10), (3, 104)):
        seen.clear()
        assert decide_cardinality(j, [P("p")], P("[] p"), StdMV()).holds
        assert len(seen) == classes
        assert len({tuple(sorted(fr.edges)) for fr in seen}) == classes
    # over MVn(3), type elimination proves p |- []p on every frame
    for j in (2, 3):
        seen.clear()
        assert decide_cardinality(j, [P("p")], P("[] p"), MVn(3)).holds
        assert seen == []
    # three atoms outnumber one 2-world frame's two variables, but over
    # MVn(3) they make only 27 types, so type elimination proves the pair;
    # over MVn(4) their 64 types are too many, and the sweep decides
    assert decide_cardinality(2, [P("[] p -> p")], P("[] [] p -> p"), MVn(3)).holds
    assert seen == []
    assert decide_cardinality(2, [P("[] p -> p")], P("[] [] p -> p"), MVn(4)).holds
    assert len(seen) == 10


def test_failed_proof_skips_the_dead_end_frame(monkeypatch):
    # p -> []p passes the dead-end test, so type elimination settles mask 0,
    # where both worlds are dead ends, and the sweep decides masks 1 and 2;
    # []p -> p fails on a dead end, so mask 0 is decided, and alone
    masks, decide = [], decision.decide_on_frame
    frames = decision._least_frames(2)

    def counted(frame, *args, **kwargs):
        masks.append(decision._least_masks(2)[frames.index(frame)])
        return decide(frame, *args, **kwargs)

    monkeypatch.setattr(decision, "decide_on_frame", counted)
    for conclusion, decided in (("p -> [] p", [1, 2]), ("[] p -> p", [0])):
        masks.clear()
        verdict = decide_cardinality(2, [], P(conclusion), MVn(3))
        assert not verdict.holds and masks == decided, conclusion
        want = finite_reference.decide_cardinality(2, [], P(conclusion), MVn(3))
        assert json.dumps(model_to_json(verdict.witness.model)) == \
            json.dumps(model_to_json(want.witness.model)), conclusion
        assert (verdict.witness.world, verdict.witness.value) == \
            (want.witness.world, want.witness.value), conclusion


_FAILING = {"t": ((), "[] p -> p"), "four": ((), "[] p -> [] [] p"),
            "up": ((), "p -> [] p"), "excluded middle": ((), "p \\/ ~p"),
            "converse": ((), "[] [] p -> [] p")}


@pytest.mark.parametrize("alg, j", [("mv-3", 1), ("mv-3", 2), ("mv-3", 3),
                                    ("std-mv", 1), ("std-mv", 2)])
def test_cardinality_witness_matches_labeled_sweep(alg, j):
    alg = StdMV() if alg == "std-mv" else ALGEBRAS[alg]
    for name, (prem, conc) in _FAILING.items():
        gamma, phi = [P(s) for s in prem], P(conc)
        got = decide_cardinality(j, gamma, phi, alg)
        want = finite_reference.decide_cardinality(j, gamma, phi, alg)
        assert got.holds == want.holds, name
        if not want.holds:
            assert got.witness.world == want.witness.world, name
            assert got.witness.value == want.witness.value, name
            assert json.dumps(model_to_json(got.witness.model)) == \
                json.dumps(model_to_json(want.witness.model)), name


def test_baseline_pair_at_three_worlds():
    # holds, so each of the 104 frames is decided
    assert decide_cardinality(3, [P("[] p -> p")], P("[] [] p -> p"), MVn(3)).holds


# holding and failing pairs; in the last four a variable occurs only under a
# modality, so the frames whose deltas never read it have fewer variables
_SWEEP_PAIRS = [((), "[] p -> p"), (("[] p -> p",), "[] [] p -> p"),
                (("p",), "[] p"), ((), "[] (p -> q) -> ([] p -> [] q)"),
                ((), "<> p -> [] p"), (("[] q",), "p -> <> q"),
                ((), "[] q -> p"), (("<> q",), "[] <> q"), ((), "<> [] q -> p")]


def _frame_by_frame(j, gamma, phi, alg):
    """``decide_cardinality`` as a loop over the least frames, each with a
    translation built from scratch."""
    worlds = [f"w{i + 1}" for i in range(j)]
    pairs = [(a, b) for a in worlds for b in worlds]
    for mask in decision._least_masks(j):
        decision._per_world_vars.cache_clear()
        frame = KripkeFrame(worlds, [pairs[b] for b in range(j * j) if mask >> b & 1])
        verdict = decision.decide_on_frame(frame, gamma, phi, alg)
        if not verdict.holds:
            return verdict
    return Verdict(True)


def _outcome(decide, *args):
    """The verdict and its witness model as text, or the guard's message."""
    try:
        verdict = decide(*args)
    except ResourceLimitError as exc:
        return str(exc)
    model = verdict.witness.model if verdict.witness else None
    return repr(verdict), model and json.dumps(model_to_json(model))


@pytest.mark.parametrize("alg, j", [("mv-3", 1), ("mv-3", 2), ("mv-3", 3),
                                    ("mv-4", 1), ("mv-4", 2), ("g3", 1),
                                    ("g3", 2), ("std-mv", 1), ("std-mv", 2)])
def test_sweep_equals_fresh_translation_per_frame(alg, j):
    alg = StdMV() if alg == "std-mv" else ALGEBRAS[alg]
    outcomes = set()
    for prem, conc in _SWEEP_PAIRS:
        gamma, phi = [P(s) for s in prem], P(conc)
        got = _outcome(decide_cardinality, j, gamma, phi, alg)
        assert got == _outcome(_frame_by_frame, j, gamma, phi, alg), (prem, conc)
        if isinstance(got, tuple):
            outcomes.add(got[0].split(",")[0])
    assert outcomes == {"Verdict(holds=True", "Verdict(holds=False"}


# modal-free pairs: three holding, two failing, and one whose five
# variables trip the finite guard at three worlds over MV3
_MODAL_FREE_PAIRS = [((), "p -> (q -> p)"), (("p", "p -> q"), "q"),
                     ((), "(p * q) -> (p /\\ q)"), ((), "p \\/ ~p"),
                     (("p \\/ q",), "p"), ((), "p \\/ (q \\/ (r \\/ (s \\/ t)))")]


@pytest.mark.parametrize("alg", ["std-mv", "mv-3"])
@pytest.mark.parametrize("j", [2, 3])
def test_modal_free_sweep_decides_one_frame(alg, j, monkeypatch):
    # with no modal node a frame reads only its worlds' own variables, so
    # every frame has the verdict, search and guard trip of the least frame,
    # mask 0, which the sweep decides alone; over MV3 type elimination
    # proves the holding pairs before any frame
    alg = StdMV() if alg == "std-mv" else ALGEBRAS[alg]
    decide_on_frame, calls = decision.decide_on_frame, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return decide_on_frame(*args, **kwargs)

    for prem, conc in _MODAL_FREE_PAIRS:
        gamma, phi = [P(s) for s in prem], P(conc)
        with monkeypatch.context() as mp:
            mp.setattr(decision, "decide_on_frame", counted)
            got = _outcome(decide_cardinality, j, gamma, phi, alg)
        assert got == _outcome(_frame_by_frame, j, gamma, phi, alg), (prem, conc)
        if got[0] == "Verdict(holds=True, witness=None)" and isinstance(alg, StdMV):
            assert len(calls) == 1 and not calls[0].edges, (prem, conc)
        assert len(calls) <= 1, (prem, conc)
        calls.clear()


# the four-element Boolean algebra on two-bit sets: 1 and 2 are incomparable,
# so a meet over successors need not be one of them
BOOLEAN = FiniteTable(4, [[a & b for b in range(4)] for a in range(4)],
                      [[a | b for b in range(4)] for a in range(4)],
                      [[a & b for b in range(4)] for a in range(4)],
                      [[(3 & ~a) | b for b in range(4)] for a in range(4)], 0, 3)


def _modal_formulas(leaves, max_leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(
            st.builds(lambda op, a, b: op(a, b), st.sampled_from([And, Or, Times, Implies]),
                      sub, sub),
            st.builds(Box, sub), st.builds(Diamond, sub)),
        max_leaves=max_leaves)


_MODAL = _modal_formulas([Var("p"), Var("q"), ZERO, ONE], 4)


def test_type_elimination_matches_the_sweep(monkeypatch):
    # the gated sweep against the frame-by-frame one, and a failing verdict's
    # witness against the labeled sweep's; ``checked`` records each answer of
    # type elimination, and whether only the bound on types admitted the pair
    held = []
    types_hold = decision._types_hold

    def checked(alg, source, j):
        if alg is BOOLEAN:
            raise AssertionError("type elimination ran on a non-chain lattice")
        rows, modal, _ = decision._per_world_vars(source, j)
        held.append((types_hold(alg, source, j), len(rows) + len(modal) > len(rows) * j))
        return held[-1][0]

    monkeypatch.setattr(decision, "_types_hold", checked)
    tally = {"types only, holds": 0, "types only, fails": 0, "mask 0 skipped": 0}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(["mv-2", "mv-3", "mv-4", "g3", "boolean"]),
           st.integers(1, 3), st.lists(_MODAL, max_size=2), _MODAL)
    @example("mv-3", 3, [P("p")], P("[] p"))
    @example("boolean", 2, [P("p")], P("[] p"))
    # refuted on three worlds only: a world whose two successors witness its
    # two boxes (diamonds), each with the other body above (below) its value
    @example("mv-3", 3, [P("p \\/ q")], P("[] p \\/ [] q"))
    @example("g3", 3, [P("~p \\/ ~q")], P("~<> p \\/ ~<> q"))
    # refuted on three worlds only, by a path to a dead end, where an empty
    # box is 1 (an empty diamond 0) with no witness
    @example("mv-2", 3, [], P("~<> <> [] 0 \\/ (p /\\ ~p) \\/ (q /\\ ~q)"))
    @example("mv-2", 3, [], P("~<> <> ~<> 1 \\/ (p /\\ ~p) \\/ (q /\\ ~q)"))
    def agree(alg, j, gamma, phi):
        alg = BOOLEAN if alg == "boolean" else ALGEBRAS[alg]
        before = len(held)
        got = _outcome(decide_cardinality, j, gamma, phi, alg)
        assert got == _outcome(_frame_by_frame, j, gamma, phi, alg)
        if len(held) == before or isinstance(got, str):
            return
        proved, types_only = held[-1]
        fails = got[0].startswith("Verdict(holds=False")
        tally["types only, holds"] += types_only and not fails
        tally["types only, fails"] += types_only and fails
        tally["mask 0 skipped"] += proved is None and fails
        if fails:
            assert got == _outcome(finite_reference.decide_cardinality, j, gamma, phi, alg)

    agree()
    proved = [p for p, _ in held]
    assert proved.count(True) >= 40 and len(proved) - proved.count(True) >= 40, \
        (proved.count(True), len(proved) - proved.count(True))
    assert tally["types only, holds"] >= 10 and tally["types only, fails"] >= 15 \
        and tally["mask 0 skipped"] >= 15, tally


def _permuted(tables, perm):
    """The chain ``tables`` as a ``FiniteTable`` with element ``a`` renamed
    ``perm[a]``, so the index order is no longer the value order."""
    n = tables["size"]
    old = [perm.index(a) for a in range(n)]

    def renamed(table):
        return [[perm[table[old[a]][old[b]]] for b in range(n)] for a in range(n)]
    return FiniteTable(n, *(renamed(tables[op]) for op in ("meet", "join", "times", "residuum")),
                       perm[tables["zero"]], perm[tables["one"]])


_G3_TABLES = G3.tables()
_REINDEXED = {"reversed g3": (_G3_TABLES, [2, 1, 0]),
              "mv-3 201": (mv_chain_tables(3), [2, 0, 1]),
              "mv-3 120": (mv_chain_tables(3), [1, 2, 0]),
              "mv-4 3102": (mv_chain_tables(4), [3, 1, 0, 2])}


def test_type_elimination_reads_the_order_from_meet():
    # a box's witness lies above its value and a diamond's below it in the
    # order of meet; on these tables the index order is another order
    tables = {name: (_permuted(t, list(range(t["size"]))), _permuted(t, perm))
              for name, (t, perm) in _REINDEXED.items()}
    natural, reversed_g3 = tables["reversed g3"]
    pinned = (P("<> (0 -> q) \\/ [] p"),)
    assert decision._eliminable(2, pinned, natural)
    assert decision._types_hold(natural, pinned, 2)
    assert decision._types_hold(reversed_g3, pinned, 2)
    gated = []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(tables)), st.integers(1, 3),
           st.lists(_MODAL, max_size=2), _MODAL)
    def agree(name, j, gamma, phi):
        natural, reindexed = tables[name]
        source = (*gamma, phi)
        if decision._eliminable(j, source, natural):
            gated.append(decision._types_hold(natural, source, j))
            assert decision._types_hold(reindexed, source, j) == gated[-1]

    agree()
    assert gated.count(True) >= 20 and gated.count(False) >= 20, \
        (gated.count(True), gated.count(False))


def test_table_leq_is_the_order_of_meet():
    # mvmodal.leq on a table holds exactly where meet returns the left
    # argument: the index order on a natural chain, the renamed order on a
    # permuted one
    for t, perm in _REINDEXED.values():
        n = t["size"]
        natural, renamed = _permuted(t, list(range(n))), _permuted(t, perm)
        for alg in (natural, renamed):
            assert [[leq(alg, a, b) for b in range(n)] for a in range(n)] == \
                [[alg.meet_table[a][b] == a for b in range(n)] for a in range(n)]
        assert all(leq(natural, a, b) == (a <= b) and leq(renamed, perm[a], perm[b]) == (a <= b)
                   for a in range(n) for b in range(n))


_NAMED = _modal_formulas([Var("p"), Var("q"), Var("p__w0"), ZERO, ONE], 6)
_FRAMES = st.integers(1, 3).flatmap(
    lambda j: st.tuples(st.just(j), st.integers(0, 2 ** (j * j) - 1)))


def _box_chain(depth):
    f = Var("p")
    for _ in range(depth):
        f = Box(f)
    return f


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_FRAMES, st.lists(_NAMED, max_size=2), _NAMED)
# a 2000-deep box chain on one edge, and a 2-cycle beside a dead end
@example((2, 0b10), [_box_chain(2000)], Var("p"))
@example((3, 0b1010), [P("[] <> p__w0")], P("<> [] (p -> q) /\\ [] 0"))
def test_named_view_matches_its_reference(frame, gamma, phi):
    j, mask = frame
    worlds = [f"w{i + 1}" for i in range(j)]
    pairs = [(a, b) for a in worlds for b in worlds]
    frame = KripkeFrame(worlds, [pairs[b] for b in range(j * j) if mask >> b & 1])
    premises, conclusion, legend, definitions, deltas = \
        finite_reference.named_translation(frame, gamma, phi)
    tr = translate_on_frame(frame, gamma, phi)
    assert tr.premises == premises and tr.conclusion == conclusion
    assert list(tr.legend.items()) == list(legend.items())
    assert list(tr.definitions.items()) == list(definitions.items())
    assert tr.deltas == deltas and list(tr.deltas) == list(deltas)


def test_translation_legend_is_a_fresh_copy():
    frame = KripkeFrame(["w1", "w2"], [("w1", "w2")])
    gamma, phi = [P("[] q")], P("p -> <> q")
    first = translate_on_frame(frame, gamma, phi)
    legend = dict(first.legend)
    first.legend.clear()
    first.legend["p__w0"] = ("var", "r", "w1")
    again = translate_on_frame(frame, gamma, phi)
    assert again.legend == legend
    assert again.premises == first.premises and again.deltas == first.deltas


def test_frame_classes_are_built_once():
    assert len(decision._least_masks(4)) == 3044  # OEIS A000595
    assert decision._least_masks(3) is decision._least_masks(3)
    worlds = ["w1", "w2", "w3"]
    pairs = [(a, b) for a in worlds for b in worlds]
    assert decision._least_frames(3) is decision._least_frames(3) and \
        decision._least_frames(3) == tuple(
            KripkeFrame(worlds, [pairs[b] for b in range(9) if mask >> b & 1])
            for mask in decision._least_masks(3))
