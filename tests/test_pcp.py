import itertools
import random
import time
from fractions import Fraction as F

import pytest

from mvmodal.algebras import ExpChain, ExpValue, FiniteTable, MVn, StdMV
from mvmodal.formulas import (And, Box, Or, Times, Var, parse, postorder,
                              render, variables)
from mvmodal.kripke import (KripkeFrame, KripkeModel, evaluate,
                            globally_satisfies, heights)
from mvmodal.pcp import (Numeral, PCPInstance, build_chain_model,
                         build_countermodel, concat, encode, extract_solution,
                         find_solutions, instance_from_json, instance_to_json,
                         verify_solution)

P0 = PCPInstance(2, ((Numeral(1, 1), Numeral(3, 2)),
                     (Numeral(3, 2), Numeral(1, 1))))


def digit_concat(pairs, base):
    """Digit-string oracle for concatenation."""
    def digits(n: Numeral) -> str:
        s = ""
        v = n.value
        for _ in range(n.length):
            s = str(v % base) + s
            v //= base
        return s
    joined = "".join(digits(n) for n in pairs)
    return Numeral(int(joined, base), len(joined))


def test_concat_examples():
    assert concat(Numeral(1, 1), Numeral(3, 2), 2) == Numeral(7, 3)
    assert concat(Numeral(2, 2), Numeral(1, 1), 2) == Numeral(5, 3)
    assert concat(Numeral(1, 1), Numeral(1, 1), 2) == Numeral(3, 2)


def test_concat_matches_digit_oracle():
    rng = random.Random(4)
    for _ in range(300):
        base = rng.randint(2, 10)
        nums = [Numeral(rng.randrange(base ** L), L)
                for L in (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3))]
        folded = concat(concat(nums[0], nums[1], base), nums[2], base)
        assert folded == digit_concat(nums, base)
        # associativity
        assert folded == concat(nums[0], concat(nums[1], nums[2], base), base)


def test_numeral_validation():
    with pytest.raises(ValueError):
        Numeral(3, 1).check_base(2)
    with pytest.raises(ValueError):
        Numeral(1, 0)
    with pytest.raises(ValueError) as e:
        Numeral(-1, 1)
    assert str(e.value) == "numeral value must be nonnegative"
    Numeral(0, 3).check_base(2)  # leading zeros are fine
    with pytest.raises(ValueError):
        PCPInstance(1, ((Numeral(0, 1), Numeral(0, 1)),))
    with pytest.raises(ValueError):
        PCPInstance(2, ())


def test_verify_solution():
    assert verify_solution(P0, [1, 2])
    assert not verify_solution(P0, [1])
    # settled by the digit-string oracle: [2, 1] is a second solution
    assert digit_concat([P0.pairs[1][0], P0.pairs[0][0]], 2) == \
        digit_concat([P0.pairs[1][1], P0.pairs[0][1]], 2)
    assert verify_solution(P0, [2, 1])
    with pytest.raises(ValueError):
        verify_solution(P0, [])
    with pytest.raises(ValueError):
        verify_solution(P0, [3])


def test_build_chain_model_rejects_indices_outside_range():
    # index 0 must not wrap around to the last pair, as pairs[-1] would
    for seq in ([0], [3], [1, -1]):
        with pytest.raises(ValueError, match=r"out of range 1\.\.2"):
            build_chain_model(P0, seq, StdMV())


def test_build_chain_model_needs_an_index():
    with pytest.raises(ValueError) as e:
        build_chain_model(P0, [], StdMV())
    assert str(e.value) == "need a nonempty index sequence"


def test_encode_shape():
    gamma, phi = encode(P0)
    assert len(gamma) == 5
    assert variables(tuple(gamma) + (phi,)) == {"x", "y", "z"}
    big = gamma[-1]
    # two disjuncts, each a conjunction of two equivalences
    assert isinstance(big, Or)
    assert isinstance(big.left, And) and isinstance(big.right, And)
    # the box-x power in disjunct 1 is base^length(x_1) = 2
    d1x = big.left.left  # x <-> (box x)^2 * z^1
    assert d1x == parse("x <-> ([] x)^2 * z")
    assert phi == parse("(x <-> y)^2 -> (x -> x * z) \\/ z")


def test_round_trip_encodes_once():
    # the last encoding is kept, so extracting after encoding reuses it
    pair = encode(P0)
    m = build_countermodel(P0, [1, 2], StdMV())
    hits = encode.cache_info().hits
    assert extract_solution(P0, m, m.worlds[-1]) == [1, 2]
    assert encode.cache_info().hits == hits + 1
    assert encode(PCPInstance(P0.base, P0.pairs)) is pair


def _timed_round_trip(inst, solution, alg):
    encode.cache_clear()
    start = time.perf_counter()
    gamma, phi = encode(inst)
    m = build_countermodel(inst, solution, alg)
    assert globally_satisfies(m, gamma).holds
    assert extract_solution(inst, m, m.worlds[-1]) == solution
    return time.perf_counter() - start, len(postorder(gamma + (phi,)))


@pytest.mark.parametrize("L", [32, 64])
@pytest.mark.parametrize("alg", [ExpChain(), StdMV()], ids=lambda a: a.kind)
def test_round_trip_at_scale(L, alg):
    # fpow squares, so the encoding has O(L) nodes, not O(2^L)
    v = 2 ** (L - 1) + 1
    seconds, nodes = _timed_round_trip(
        PCPInstance(2, ((Numeral(v, L), Numeral(v, L)),)), [1], alg)
    assert seconds < 1.0 and nodes < 400


@pytest.mark.parametrize("alg", [ExpChain(), StdMV()], ids=lambda a: a.kind)
def test_two_pair_round_trip_at_scale(alg):
    # a 48-digit word cut as 32 + 16 digits on the x side, 16 + 32 on the y
    # side: the only solution up to length 2 is [1, 2]
    word = random.Random(32).getrandbits(48) | 1 << 47 | 1 << 31 | 1 << 15
    x1, x2 = Numeral(word >> 16, 32), Numeral(word % 2 ** 16, 16)
    y1, y2 = Numeral(word >> 32, 16), Numeral(word % 2 ** 32, 32)
    inst = PCPInstance(2, ((x1, y1), (x2, y2)))
    assert find_solutions(inst, 2) == [[1, 2]]
    seconds, _ = _timed_round_trip(inst, [1, 2], alg)
    assert seconds < 1.0


def test_encode_zero_valued_numeral():
    inst = PCPInstance(2, ((Numeral(0, 1), Numeral(0, 2)),))
    gamma, phi = encode(inst)
    # z^0 is the empty product 1
    assert gamma[-1] == parse("(x <-> ([] x)^2 * 1) /\\ (y <-> ([] y)^4 * 1)")


def test_build_countermodel_stdmv_values():
    m = build_countermodel(P0, [1, 2], StdMV())
    a = F(7, 8)
    assert m.worlds == ("v1", "v2")
    assert m.frame.edges == frozenset({("v2", "v1")})
    assert m.value("v1", "x") == F(7, 8) and m.value("v1", "y") == F(5, 8)
    assert m.value("v2", "x") == F(1, 8) and m.value("v2", "y") == F(1, 8)
    assert all(m.value(w, "z") == a for w in m.worlds)


def test_build_countermodel_expchain_values():
    m = build_countermodel(P0, [1, 2], ExpChain())
    assert m.value("v2", "x") == ExpValue(F(7))
    assert m.value("v1", "y") == ExpValue(F(3))


def test_countermodel_certificate():
    gamma, phi = encode(P0)
    m = build_countermodel(P0, [1, 2], StdMV())
    assert globally_satisfies(m, gamma).holds
    assert evaluate(m, "v2", phi) == F(7, 8)
    me = build_countermodel(P0, [1, 2], ExpChain())
    assert globally_satisfies(me, gamma).holds
    assert evaluate(me, "v2", phi) == ExpValue(F(1))


def test_build_countermodel_rejects_non_solutions():
    with pytest.raises(ValueError):
        build_countermodel(P0, [1], StdMV())


def test_extraction_round_trip():
    for alg in (StdMV(), ExpChain()):
        m = build_countermodel(P0, [1, 2], alg)
        assert extract_solution(P0, m, "v2") == [1, 2]
        m = build_countermodel(P0, [2, 1], alg)
        assert extract_solution(P0, m, "v2") == [2, 1]


def test_extraction_round_trip_all_short_solutions():
    sols = find_solutions(P0, 6)
    assert [1, 2] in sols and [2, 1] in sols
    for sol in sols:
        for alg in (StdMV(), ExpChain()):
            m = build_countermodel(P0, sol, alg)
            top = m.worlds[-1]
            assert extract_solution(P0, m, top) == sol


def test_extraction_preconditions():
    gamma, phi = encode(P0)
    m = build_countermodel(P0, [1, 2], StdMV())
    # wrong top world: not a chain downward from v1
    with pytest.raises(ValueError):
        extract_solution(P0, m, "v1")
    # break a premise: constant z perturbed at one world.  The last premise
    # fails at v1 (3/8) and the z-stability premise at v2 (11/24); the first
    # failure in (world, premise) scan order is reported
    bad_val = m.valuation_dict()
    bad_val["v1"]["z"] = F(1, 3)
    bad = KripkeModel(m.frame, m.algebra, bad_val)
    with pytest.raises(ValueError, match=r"premises \(world 'v1', value "
                                         r"Fraction\(3, 8\)\)"):
        extract_solution(P0, bad, "v2")
    # a non-solution chain satisfies the premises but not the refutation
    for alg in (StdMV(), ExpChain()):
        with pytest.raises(ValueError, match="conclusion is not refuted"):
            extract_solution(P0, build_chain_model(P0, [1], alg), "v1")


def test_extraction_needs_a_disjunct_at_one():
    # in the four-element Boolean algebra 0 < a, b < 1, the join of the two
    # disjuncts is 1 while neither is: the premises hold, x -> x*z is the
    # complement of x, and no pair can be picked
    meet = [[i & j for j in range(4)] for i in range(4)]
    join = [[i | j for j in range(4)] for i in range(4)]
    residuum = [[(3 & ~i) | j for j in range(4)] for i in range(4)]
    boolean = FiniteTable(4, meet, join, meet, residuum, 0, 3)
    inst = PCPInstance(2, ((Numeral(1, 1), Numeral(1, 1)),
                           (Numeral(0, 1), Numeral(0, 1))))
    m = KripkeModel(KripkeFrame(["w"], []), boolean,
                    {"w": {"x": 1, "y": 1, "z": 0}})
    gamma, phi = encode(inst)
    assert globally_satisfies(m, gamma).holds
    assert evaluate(m, "w", phi) == 2
    with pytest.raises(ValueError, match="no disjunct holds at world 'w'"):
        extract_solution(inst, m, "w")


def test_extraction_rejects_equal_values_of_unequal_length():
    # all-zero words: [1, 2] is a solution (5 digits each side), and every
    # index sequence gives x and y the value 0, so value certificates alone
    # would accept the least disjunct [1, 1] (4 digits against 6)
    inst = PCPInstance(2, ((Numeral(0, 2), Numeral(0, 3)),
                           (Numeral(0, 3), Numeral(0, 2))))
    assert verify_solution(inst, [1, 2]) and not verify_solution(inst, [1, 1])
    for alg in (StdMV(), ExpChain()):
        m = build_countermodel(inst, [1, 2], alg)
        with pytest.raises(ValueError, match="lengths do not"):
            extract_solution(inst, m, "v2")


def test_non_solution_chains_cannot_refute():
    gamma, phi = encode(P0)
    for k in range(1, 5):
        for seq in itertools.product((1, 2), repeat=k):
            if verify_solution(P0, list(seq)):
                continue
            for alg in (StdMV(), ExpChain()):
                m = build_chain_model(P0, list(seq), alg)
                top = m.worlds[-1]
                assert globally_satisfies(m, gamma).holds, seq
                assert evaluate(m, top, phi) == alg.one, (seq, alg.kind)


def test_power_implication_bound():
    # (a^n -> a^m)^2 <= a whenever m > n and a^(m+1) < a^m
    for size in range(2, 7):
        alg = MVn(size)
        for a in alg.carrier():
            for n in range(0, 9):
                for m in range(n + 1, 10):
                    if alg.power(a, m + 1) < alg.power(a, m):
                        v = alg.residuum(alg.power(a, n), alg.power(a, m))
                        assert alg.leq(alg.times(v, v), a), (size, a, n, m)
    rng = random.Random(12)
    for _ in range(300):
        alg = StdMV()
        a = F(rng.randint(1, 19), 20)
        n = rng.randint(0, 6)
        m = rng.randint(n + 1, 9)
        if alg.power(a, m + 1) < alg.power(a, m):
            v = alg.residuum(alg.power(a, n), alg.power(a, m))
            assert alg.times(v, v) <= a
    chain = ExpChain()
    for t in (F(1), F(1, 2), F(5, 3)):
        a = ExpValue(t)
        for n in range(0, 5):
            for m in range(n + 1, 7):
                v = chain.residuum(chain.power(a, n), chain.power(a, m))
                assert chain.leq(chain.times(v, v), a)


def test_constancy_and_monotone_powers_on_countermodels():
    # z is constant on every countermodel; x and y at height h are the powers
    # of it that the digit strings of the first h + 1 indices name, strictly
    # decreasing in height
    for sol in find_solutions(P0, 4):
        for alg in (StdMV(), ExpChain()):
            m = build_countermodel(P0, sol, alg)
            zs = {m.value(w, "z") for w in m.worlds}
            assert len(zs) == 1
            hs = heights(m.frame)
            ordered = sorted(m.worlds, key=lambda w: hs[w])
            alpha = zs.pop()
            for side, var in enumerate(("x", "y")):
                values = [m.value(w, var) for w in ordered]
                words = [digit_concat([P0.pairs[i - 1][side] for i in sol[:h]], P0.base)
                         for h in range(1, len(sol) + 1)]
                assert values == [alg.power(alpha, n.value) for n in words]
                assert all(alg.leq(b, a) and b != a for a, b in zip(values, values[1:]))


def test_instance_json_round_trip():
    blob = instance_to_json(P0)
    assert blob == {"base": 2,
                    "pairs": [[["1", 1], ["3", 2]], [["3", 2], ["1", 1]]]}
    assert instance_from_json(blob) == P0
