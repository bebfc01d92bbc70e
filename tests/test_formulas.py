import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvmodal.bridges import luk2prod_formula, rewrite_to_fragment
from mvmodal.formulas import (And, Box, Const0, Const1, Diamond, Implies, ONE,
                              Or, ParseError, Times, Var, ZERO, bottom_up,
                              box_prefix, fpow, iff, is_propositional, neg,
                              parse, postorder, prop_subformulas, render,
                              subformulas, substitute, variables)
from helpers import random_formula

p, q, r = Var("p"), Var("q"), Var("r")


def test_parse_sugar_elimination():
    assert parse("~p") == Implies(p, ZERO)
    assert parse("p <-> q") == Times(Implies(p, q), Implies(q, p))
    assert parse("p^3") == Times(p, Times(p, p))


def test_parse_precedence():
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse("p * q \\/ r") == Or(Times(p, q), r)
    assert parse("p /\\ q \\/ r") == Or(And(p, q), r)
    assert parse("[] p -> q") == Implies(Box(p), q)
    assert parse("<> p * q") == Times(Diamond(p), q)
    assert parse("[] p ^ 2") == Times(Box(p), Box(p))
    assert parse("1") == ONE and parse("0") == ZERO


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("p ->")
    with pytest.raises(ParseError):
        parse("p & q")
    with pytest.raises(ParseError):
        parse("p^0")
    with pytest.raises(ParseError):
        parse("2")
    with pytest.raises(ParseError):
        parse("(p")
    for text, message in (("p q", "trailing input 'q' (at position 2)"),
                          ("p^q", "expected 'num', found 'q' (at position 2)")):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert str(e.value) == message


def test_render_examples():
    assert render(Box(p)) == "([] p)"
    assert render(Implies(p, ZERO)) == "(p -> 0)"
    assert render(Times(p, q)) == "(p * q)"
    assert render(Diamond(p)) == "(<> p)"


def test_parse_render_round_trip_random():
    rng, powers = random.Random(20240311), random.Random(5)
    for _ in range(1000):
        f = random_formula(rng, rng.randint(0, 8))
        g = fpow(random_formula(powers, powers.randint(0, 3)), powers.randint(0, 300))
        for h in (f, g, Times(f, g), Box(g), fpow(Or(g, f), powers.randint(4, 40))):
            assert parse(render(h)) is h


@pytest.mark.parametrize("base", [p, Box(p), iff(p, q), Times(p, q), ONE],
                         ids=["p", "box", "iff", "product", "one"])
def test_powers_print_as_powers_and_round_trip(base):
    for n in range(201):
        f = fpow(base, n)
        assert parse(render(f)) is f, n
        if n >= 4:
            assert render(f) == f"({render(base)}^{n})"


def test_powers_square_and_multiply():
    assert fpow(p, 5) is parse("p * (p * (p * (p * p)))")  # right-nested below 6
    assert fpow(p, 6) is Times(fpow(p, 3), fpow(p, 3))
    assert fpow(p, 13) is Times(p, Times(fpow(p, 6), fpow(p, 6)))
    for n in range(1, 1000):
        assert len(subformulas(fpow(p, n))) <= 2 * n.bit_length(), n
    huge = fpow(Box(p), 2 ** 64)
    assert len(subformulas(huge)) <= 2 * 65
    assert len(render(huge)) < 40 and parse(render(huge)) is huge
    assert parse("[]p^1000000000000") is fpow(Box(p), 10 ** 12)


def test_typed_products_print_as_powers_only_in_fpow_shape():
    # fpow squares from six factors up, so no product typed with fewer than
    # three levels of nesting prints as a power
    for text in ("((p * p) * (p * p))", "((p * (p * p)) * p)",
                 "(((p * p) * (p * p)) * ((p * p) * (p * p)))"):
        assert render(parse(text)) == text
    # below six factors fpow nests to the right, as typed here
    assert render(parse("p * (p * (p * p))")) == "(p^4)"
    assert render(parse("p * (p * (p * (p * (p * (p * p)))))")) == "(p * (p * (p^5)))"
    assert render(Box(fpow(p, 4))) == "([] (p^4))"
    assert render(fpow(fpow(p, 4), 5)) == "((p^4)^5)"


def test_subformulas_examples():
    assert subformulas(Box(Times(p, q))) == {p, q, Times(p, q), Box(Times(p, q))}
    assert subformulas(p) == {p}
    assert subformulas(ZERO) == {ZERO}


def test_subformulas_closed_and_bounded():
    rng = random.Random(7)

    def nodes(f):
        if isinstance(f, (Box, Diamond)):
            return 1 + nodes(f.body)
        if isinstance(f, (And, Or, Times, Implies)):
            return 1 + nodes(f.left) + nodes(f.right)
        return 1

    for _ in range(200):
        f = random_formula(rng, rng.randint(0, 5))
        sf = subformulas(f)
        assert len(sf) <= nodes(f)
        for g in sf:
            assert subformulas(g) <= sf


def test_prop_subformulas_examples():
    assert prop_subformulas(Implies(Box(p), q)) == {Box(p), q, Implies(Box(p), q)}
    assert prop_subformulas(Box(Times(p, q))) == {Box(Times(p, q))}
    assert prop_subformulas(p) == {p}


def test_substitute_examples():
    assert substitute(Implies(p, q), {"p": Box(r)}) == Implies(Box(r), q)
    assert substitute(Box(p), {}) == Box(p)
    assert substitute(Times(p, p), {"p": ZERO}) == Times(ZERO, ZERO)


def test_substitute_distributes():
    rng = random.Random(11)
    for _ in range(100):
        l = random_formula(rng, 3)
        rgt = random_formula(rng, 3)
        sigma = {"p": random_formula(rng, 2), "q": Box(r)}
        for cls in (And, Or, Times, Implies):
            assert substitute(cls(l, rgt), sigma) == \
                cls(substitute(l, sigma), substitute(rgt, sigma))


def test_box_prefix():
    assert box_prefix([p], 2) == (p, Box(p), Box(Box(p)))
    assert set(box_prefix([p, q], 0)) == {p, q}
    assert box_prefix([], 5) == ()
    with pytest.raises(ValueError):
        box_prefix([p], -1)


def test_fpow_and_helpers():
    assert fpow(p, 1) == p
    assert fpow(p, 0) == ONE
    assert neg(p) == Implies(p, ZERO)
    assert iff(p, q) == parse("p <-> q")


def test_variable_name_validation():
    with pytest.raises(ValueError):
        Var("1bad")
    with pytest.raises(ValueError):
        Var("")
    assert variables(parse("p -> ([] q12_x)")) == {"p", "q12_x"}


_FIELDS = {Var: ("name",), Box: ("body",), Diamond: ("body",)}
_SPEC = st.recursive(
    st.sampled_from(["p", "q", "r", "0", "1"]),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from([Box, Diamond]), sub),
        st.tuples(st.sampled_from([And, Or, Times, Implies]), sub, sub)),
    max_leaves=12)


def _build(spec):
    if spec == "0":
        return Const0()
    if spec == "1":
        return Const1()
    if isinstance(spec, str):
        return Var(spec)
    return spec[0](*map(_build, spec[1:]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SPEC)
def test_formulas_are_hash_consed(spec):
    f = _build(spec)
    assert _build(spec) is f
    assert parse(render(f)) is f
    for g in subformulas(f):
        fields = tuple(getattr(g, name)
                       for name in _FIELDS.get(type(g), ("left", "right")
                                               if isinstance(g, (And, Or, Times, Implies))
                                               else ()))
        # the hash of the field tuple, as a frozen dataclass had it: sets and
        # dicts of formulas keep their iteration order, and witnesses with it
        assert hash(g) == hash(fields)
        assert type(g)(*fields) is g


def test_formulas_are_immutable():
    with pytest.raises(AttributeError):
        p.name = "q"
    with pytest.raises(TypeError):
        Box("p")


N_DEEP = 10 ** 5


def test_deep_chains_through_formula_passes():
    x = Var("x")
    boxes, lifted, boxes_q = p, Or(p, x), q
    for _ in range(N_DEEP):
        boxes, lifted, boxes_q = Box(boxes), Box(lifted), Box(boxes_q)
    text = render(boxes)
    assert text == "([] " * N_DEEP + "p" + ")" * N_DEEP
    assert parse(text) is boxes and parse("[]" * N_DEEP + "p") is boxes
    assert substitute(boxes, {"p": q}) is boxes_q
    assert variables(boxes) == {"p"}
    assert len(subformulas(boxes)) == N_DEEP + 1
    assert not is_propositional(boxes)
    assert luk2prod_formula(rewrite_to_fragment(boxes), "x") is lifted

    names = [Var(f"q{i % 7}") for i in range(N_DEEP)]
    chain, chain_r, lifted = p, r, Or(p, x)
    for v in reversed(names):
        chain, chain_r = Implies(v, chain), Implies(v, chain_r)
        lifted = Implies(Or(v, x), lifted)
    text = render(chain)
    assert parse(text) is chain and len(text) == 8 * N_DEEP + 1
    assert parse(" -> ".join(g.name for g in names) + " -> p") is chain
    assert substitute(chain, {"p": r}) is chain_r
    assert variables(chain) == {"p"} | {f"q{i}" for i in range(7)}
    assert len(subformulas(chain)) == N_DEEP + 8
    assert is_propositional(chain)
    assert luk2prod_formula(rewrite_to_fragment(chain), "x") is lifted


def _children(f):
    if isinstance(f, (Box, Diamond)):
        return (f.body,)
    return (f.left, f.right) if isinstance(f, (And, Or, Times, Implies)) else ()


def _reference_postorder(roots):
    order = []

    def visit(f):
        if f not in order:
            for g in _children(f):
                visit(g)
            order.append(f)
    for f in roots:
        visit(f)
    return order


def _reference_prop_subformulas(f):
    out = {f}
    if isinstance(f, (And, Or, Times, Implies)):
        out |= _reference_prop_subformulas(f.left) | _reference_prop_subformulas(f.right)
    return out


_SHARED = st.recursive(
    st.sampled_from([p, q, ZERO, ONE]),
    lambda kids: st.one_of(
        st.builds(Box, kids), st.builds(Diamond, kids),
        *(st.builds(c, kids, kids) for c in (And, Or, Times, Implies)),
        st.builds(lambda a: Times(a, Implies(Box(a), a)), kids)),  # shares a
    max_leaves=10)
_DEEP_BOXES = p
for _ in range(1000):
    _DEEP_BOXES = Box(_DEEP_BOXES)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_SHARED, min_size=1, max_size=4).map(lambda fs: fs + [fs[0], Times(fs[-1], fs[0])]))
@example([_DEEP_BOXES, _DEEP_BOXES])
def test_one_walk_matches_a_recursive_reference(roots):
    # postorder places each node once, children before parents, left to
    # right, and bottom_up applies its rule once per node in that order to
    # the images of the node's children
    order = postorder(roots)
    pos = {id(f): k for k, f in enumerate(order)}
    assert len(pos) == len(order)
    assert all(pos[id(g)] < k for k, f in enumerate(order) for g in _children(f))
    calls = []

    def record(f, *images):
        calls.append((f, images))
        return len(calls) - 1
    images = bottom_up(roots, record)
    assert [f for f, _ in calls] == order
    assert all(args == tuple(pos[id(g)] for g in _children(f)) for f, args in calls)
    assert images == [pos[id(f)] for f in roots]
    if roots[0] is _DEEP_BOXES:  # too deep for the recursive reference
        assert len(order) == 1001 and order[0] is p and order[-1] is _DEEP_BOXES
        return
    assert order == _reference_postorder(roots)
    assert variables(roots) == {g.name for g in order if isinstance(g, Var)}
    for f in roots:
        nodes = _reference_postorder([f])
        assert variables(f) == {g.name for g in nodes if isinstance(g, Var)}
        assert subformulas(f) == set(nodes)
        assert prop_subformulas(f) == _reference_prop_subformulas(f)
        assert is_propositional(f) == (not any(isinstance(g, (Box, Diamond)) for g in nodes))
