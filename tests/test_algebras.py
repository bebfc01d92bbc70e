import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvmodal import algebras
from mvmodal.algebras import (CarrierError, EXP_ONE, EXP_ZERO, ExpChain,
                              ExpValue, FiniteTable, MVn, ResourceLimitError,
                              StdGodel, StdMV, StdProduct, algebra_from_json,
                              algebra_to_json, leq, mv_chain_tables, op_apply,
                              power, validate_finite_algebra, value_from_json,
                              value_to_json)
from helpers import G3, random_rational

INFINITE = [StdMV(), StdGodel(), StdProduct(), ExpChain()]


def rand_value(rng, alg):
    if isinstance(alg, ExpChain):
        if rng.random() < 0.15:
            return EXP_ZERO
        return ExpValue(F(rng.randint(0, 24), rng.randint(1, 6)))
    return random_rational(rng)


def test_op_apply_examples():
    assert op_apply(StdMV(), "times", F(1, 2), F(1, 2)) == 0
    assert op_apply(StdProduct(), "residuum", F(1, 2), F(1, 4)) == F(1, 2)
    # exponent addition matches the concrete product algebra at a = 1/2
    chain = ExpChain()
    got = chain.times(ExpValue(F(2)), ExpValue(F(3)))
    assert got == ExpValue(F(5))
    prod = StdProduct()
    a = F(1, 2)
    assert prod.power(a, 2) * prod.power(a, 3) == prod.power(a, 5)


def test_op_apply_rejects_bad_values():
    with pytest.raises(CarrierError):
        op_apply(StdMV(), "times", F(3, 2), F(1, 2))
    with pytest.raises(CarrierError):
        op_apply(ExpChain(), "times", F(1, 2), EXP_ONE)
    with pytest.raises(CarrierError):
        op_apply(MVn(3), "meet", F(1, 3), F(1, 2))
    with pytest.raises(ValueError):
        op_apply(StdMV(), "plus", F(0), F(0))


def test_power_examples():
    alg = StdMV()
    # oracle: explicit op_apply chain
    acc = F(7, 8)
    for _ in range(7):
        acc = op_apply(alg, "times", acc, F(7, 8))
    assert power(alg, F(7, 8), 8) == acc == 0
    acc = F(7, 8)
    for _ in range(6):
        acc = op_apply(alg, "times", acc, F(7, 8))
    assert power(alg, F(7, 8), 7) == acc == F(1, 8)
    assert power(ExpChain(), ExpValue(F(1)), 7) == ExpValue(F(7))
    assert power(alg, F(1, 2), 0) == 1
    assert power(StdGodel(), F(1, 3), 5) == F(1, 3)


def test_power_closed_forms_match_iteration():
    rng = random.Random(5)
    for alg in INFINITE + [MVn(4), MVn(7)]:
        for _ in range(100):
            a = rand_value(rng, alg)
            acc = alg.one
            for n in range(1, 51):
                acc = alg.times(acc, a)
                if isinstance(alg, StdProduct) and n > alg.power_cap:
                    break
                assert alg.power(a, n) == acc, (alg.kind, a, n)


def test_product_power_cap():
    alg = StdProduct(power_cap=10)
    assert alg.power(F(1, 2), 10) == F(1, 1024)
    with pytest.raises(ResourceLimitError):
        alg.power(F(1, 2), 11)


def test_leq_examples():
    assert leq(StdMV(), F(0), F(1))
    assert leq(ExpChain(), ExpValue(F(3)), ExpValue(F(2)))
    assert not leq(ExpChain(), ExpValue(F(2)), ExpValue(F(3)))
    assert leq(MVn(3), F(1, 2), F(1, 2))
    assert leq(ExpChain(), EXP_ZERO, ExpValue(F(100)))


def test_equal_infinite_algebras_hash_equal():
    # StdMV and ExpChain hash by their kind, so fresh instances are one key
    for make in (StdMV, ExpChain):
        assert make() == make() and hash(make()) == hash(make())
        assert {make(): make}[make()] is make
    assert len({StdMV(), ExpChain(), StdMV(), ExpChain()}) == 2


def test_exp_chain_operations():
    chain = ExpChain()
    assert chain.times(ExpValue(F(2)), ExpValue(F(3))) == ExpValue(F(5))
    assert chain.residuum(ExpValue(F(2)), ExpValue(F(3))) == ExpValue(F(1))
    assert chain.residuum(ExpValue(F(3)), ExpValue(F(2))) == EXP_ONE
    assert chain.residuum(EXP_ZERO, ExpValue(F(9))) == EXP_ONE
    assert chain.residuum(ExpValue(F(9)), EXP_ZERO) == EXP_ZERO
    assert chain.meet(ExpValue(F(2)), ExpValue(F(3))) == ExpValue(F(3))
    assert chain.join(ExpValue(F(2)), EXP_ZERO) == ExpValue(F(2))
    with pytest.raises(CarrierError):
        ExpValue(F(-1))


def test_exp_value_exponent_is_a_fraction():
    assert type(ExpValue(3).exponent) is F and ExpValue(3).exponent == F(3)
    assert ExpValue(F(3, 2)).exponent == F(3, 2)
    with pytest.raises(CarrierError):
        ExpValue(-1)


def _laws(alg, triples):
    for a, b, c in triples:
        assert alg.times(a, b) == alg.times(b, a)
        assert alg.times(a, alg.one) == a
        assert alg.times(alg.times(a, b), c) == alg.times(a, alg.times(b, c))
        assert alg.leq(alg.times(a, b), c) == alg.leq(a, alg.residuum(b, c))


def test_residuation_monoid_small():
    for n in (2, 3, 4, 5):
        alg = MVn(n)
        carrier = alg.carrier()
        _laws(alg, [(a, b, c) for a in carrier for b in carrier for c in carrier])
    rng = random.Random(77)
    for alg in INFINITE:
        _laws(alg, [(rand_value(rng, alg), rand_value(rng, alg),
                     rand_value(rng, alg)) for _ in range(500)])


def test_exp_chain_never_contractive():
    chain = ExpChain()
    for t in (F(1), F(1, 2), F(7, 3)):
        for n in range(1, 10):
            hi = chain.power(ExpValue(t), n)
            lo = chain.power(ExpValue(t), n + 1)
            assert chain.leq(lo, hi) and lo != hi


def test_mvn_contractive():
    for n in (2, 3, 4, 5, 6):
        alg = MVn(n)
        for a in alg.carrier():
            assert alg.power(a, n) == alg.power(a, n - 1)


def test_stdmv_weak_saturation_witness():
    alg = StdMV()
    for a in (F(1, 2), F(3, 4), F(9, 10)):
        bound = (1 / (1 - a)).__ceil__()
        for n in range(bound, bound + 5):
            assert alg.power(a, n) == 0


def test_validate_finite_algebra():
    t = mv_chain_tables(3)
    assert validate_finite_algebra(t["size"], t["meet"], t["join"], t["times"],
                                   t["residuum"], t["zero"], t["one"]).ok
    bad = [list(row) for row in t["residuum"]]
    bad[1][1] = 0  # overwrite residuum(1/2, 1/2)
    report = validate_finite_algebra(t["size"], t["meet"], t["join"],
                                     t["times"], bad, t["zero"], t["one"])
    assert not report.ok
    assert any(v.law == "residuation" and v.elements[1:] == (1, 1)
               for v in report.violations)
    trivial = validate_finite_algebra(1, [[0]], [[0]], [[0]], [[0]], 0, 0)
    assert trivial.ok
    with pytest.raises(ValueError) as e:
        validate_finite_algebra(0, t["meet"], t["join"], t["times"], t["residuum"], 0, 1)
    assert str(e.value) == "size 0 is not a positive integer"
    with pytest.raises(ValueError) as e:
        validate_finite_algebra(3, t["meet"][:2], t["join"], t["times"], t["residuum"], 0, 2)
    assert str(e.value) == "meet table is not 3x3"


@pytest.mark.parametrize("law, table, a, b, value", [
    ("meet-idempotent", "meet", 1, 1, 0),
    ("join-idempotent", "join", 1, 1, 0),
    ("unit", "times", 1, 2, 0),
    ("bottom", "meet", 0, 1, 1),
    ("top", "meet", 1, 2, 2),
    ("meet-commutative", "meet", 1, 0, 1),
    ("join-commutative", "join", 0, 1, 0),
    ("times-commutative", "times", 2, 1, 0),
    ("absorption", "join", 1, 0, 0),
    ("meet-associative", "meet", 2, 0, 1),
    ("join-associative", "join", 0, 1, 2),
    ("times-associative", "times", 0, 0, 1),
])
def test_validate_finite_algebra_names_the_broken_law(law, table, a, b, value):
    rows = [list(row) for row in mv_chain_tables(3)[table]]
    rows[a][b] = value
    t = {**mv_chain_tables(3), table: rows}
    report = validate_finite_algebra(t["size"], t["meet"], t["join"], t["times"],
                                     t["residuum"], t["zero"], t["one"])
    assert law in {v.law for v in report.violations}
    assert law in str(report)


def test_finite_table_constructor_validates():
    t = mv_chain_tables(4)
    alg = FiniteTable(t["size"], t["meet"], t["join"], t["times"],
                      t["residuum"], t["zero"], t["one"])
    assert alg.times(3, 3) == 3 and alg.times(1, 2) == 0
    assert alg.residuum(2, 1) == 2
    with pytest.raises(ValueError):
        FiniteTable(2, [[0, 0], [0, 1]], [[0, 1], [1, 1]],
                    [[0, 0], [0, 1]], [[1, 0], [0, 1]], 0, 1)


def test_mvn_carrier_check():
    alg = MVn(3)
    with pytest.raises(CarrierError):
        alg.require(F(1, 3))
    assert alg.require(F(1, 2)) == F(1, 2)
    assert alg.carrier() == (F(0), F(1, 2), F(1))


def test_tables_are_built_once_and_shared_read_only(monkeypatch):
    chain = MVn(3)
    tables = chain.tables()
    assert chain == MVn(3) and MVn(3) == chain and hash(chain) == hash(MVn(3))
    assert MVn(3) != MVn(4)
    assert {k: list(map(list, v)) if isinstance(v, tuple) else v
            for k, v in tables.items()} == mv_chain_tables(3)
    tables["one"] = 0  # each call hands out its own dict over the same rows
    monkeypatch.setattr(algebras, "mv_chain_tables", None)
    assert chain.tables()["one"] == 2
    monkeypatch.undo()
    for alg in (chain, MVn(4), G3):
        t = alg.tables()
        for op in ("meet", "join", "times", "residuum"):
            assert isinstance(t[op], tuple)
            assert all(isinstance(row, tuple) for row in t[op])


def test_finite_table_json_text():
    assert json.dumps(algebra_to_json(G3)) == (
        '{"kind": "finite-table", "tables": {"size": 3, '
        '"meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]], '
        '"join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]], '
        '"times": [[0, 0, 0], [0, 1, 1], [0, 1, 2]], '
        '"residuum": [[2, 2, 2], [0, 2, 2], [0, 1, 2]], "zero": 0, "one": 2}}')


class _FractionSub(F):
    pass


_BIG = 2 ** 70
_DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(1, _BIG))
# exact rationals near [0, 1] and far from it, on and off every MVn grid
_EXACT = st.one_of(
    st.builds(F, st.integers(-3, 14), st.integers(1, 12)),
    _DENOMINATORS.flatmap(lambda d: st.builds(F, st.integers(-d, 2 * d), st.just(d))),
    st.builds(F, st.integers(-_BIG, _BIG), _DENOMINATORS))
_INPUTS = st.one_of(
    _EXACT, st.integers(-_BIG, _BIG), st.integers(-2, 3), st.booleans(),
    st.floats(), _EXACT.map(str),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.builds(_FractionSub, st.integers(-_BIG, _BIG), _DENOMINATORS),
    st.sampled_from(["", "abc", "1/0", "0.5", "-0", "2/4"]))
_REQUIRING = [StdMV(), StdGodel(), StdProduct()] + [MVn(n) for n in range(2, 13)]


def _outcome(call, v):
    """What ``call(v)`` does: its value and type, or its error type."""
    try:
        out = call(v)
    except Exception as exc:  # the type is what is compared
        return "raises", type(exc)
    return out, type(out)


def _old_require(alg, v):
    """The rational ``require`` on Fraction arithmetic, as it was written
    before it read numerators and denominators, but refusing bools as every
    carrier now does."""
    if isinstance(v, (float, bool)):
        raise CarrierError("not exact")
    v = F(v)
    if not 0 <= v <= 1:
        raise CarrierError("outside [0, 1]")
    if isinstance(alg, MVn) and (v * (alg.n - 1)).denominator != 1:
        raise CarrierError("off the grid")
    return v


def _old_exponent(v):
    """A power-chain exponent on Fraction arithmetic; floats and bools are
    refused, as nothing else is exact."""
    if isinstance(v, (float, bool)):
        raise CarrierError("not exact")
    v = F(v)
    if v < 0:
        raise CarrierError("negative")
    return v


@settings(max_examples=400, deadline=None, derandomize=True)
@given(v=_INPUTS)
@example(v=True)
@example(v=0.5)
@example(v=_FractionSub(1, 2))
@example(v=F(2 ** 70 + 1, 2 ** 70))
def test_require_accepts_and_refuses_as_fraction_arithmetic_did(v):
    for alg in _REQUIRING:
        assert _outcome(alg.require, v) == _outcome(
            lambda v: _old_require(alg, v), v), alg
    assert (_outcome(lambda v: ExpValue(v).exponent, v)
            == _outcome(_old_exponent, v))


_COPRIME = (2 ** 61 - 1, 2 ** 64 + 1, 3 ** 40)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(picks=st.lists(st.tuples(st.sampled_from(_COPRIME), st.integers(0, _BIG)),
                      min_size=1, max_size=6))
def test_carriers_round_trip_over_large_coprime_denominators(picks):
    rationals = [F(n % (d + 1), d) for d, n in picks]
    exponents = [ExpValue(F(n, d)) for d, n in picks] + [EXP_ZERO]
    grid = [F(n % 12, 11) for _, n in picks]
    for alg, values in ((StdMV(), rationals), (StdGodel(), rationals),
                        (ExpChain(), exponents), (MVn(12), grid)):
        encode, decode = alg._carrier(iter(values))[:2]
        for v in values:
            back = decode(encode(v))
            assert back == v and type(back) is type(v), (alg, v)


def test_floats_and_bools_are_not_exact_values():
    for bad in (0.1, 1.0, True, False):
        with pytest.raises(CarrierError):
            ExpValue(bad)
    for bad in (True, False):
        with pytest.raises(CarrierError):
            G3.require(bad)
        with pytest.raises(CarrierError):
            value_from_json(ExpChain(), {"pow": bad})
        with pytest.raises(CarrierError):
            value_from_json(G3, bad)
    assert ExpValue(3).exponent == 3 and G3.require(1) == 1
    t = mv_chain_tables(2)
    with pytest.raises(ValueError, match="designated"):
        FiniteTable(2, t["meet"], t["join"], t["times"], t["residuum"], False, True)
    t["times"][0][0] = False
    with pytest.raises(ValueError, match="times table entry False"):
        FiniteTable(2, t["meet"], t["join"], t["times"], t["residuum"])


def test_json_round_trips():
    for alg in INFINITE + [MVn(5)]:
        back = algebra_from_json(algebra_to_json(alg))
        assert back == alg
    t = mv_chain_tables(3)
    ft = FiniteTable(t["size"], t["meet"], t["join"], t["times"],
                     t["residuum"], t["zero"], t["one"])
    assert algebra_from_json(algebra_to_json(ft)) == ft
    assert value_from_json(StdMV(), "1/2") == F(1, 2)
    assert value_to_json(StdMV(), F(1)) == "1"
    assert value_from_json(ExpChain(), {"pow": "3/2"}) == ExpValue(F(3, 2))
    assert value_from_json(ExpChain(), "zero") == EXP_ZERO
    assert value_to_json(ExpChain(), EXP_ZERO) == "zero"
    assert value_from_json(ft, 2) == 2
    with pytest.raises(CarrierError) as e:
        value_from_json(ExpChain(), {"pow": "1", "x": 2})
    assert str(e.value) == "bad power-chain value: {'pow': '1', 'x': 2}"
