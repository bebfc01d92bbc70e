"""Recursive reductions between the modal logics, plus the first-order printer.

Implemented here:

* the finite-model-to-unrestricted-global reduction: two extra premises tie a
  fresh variable p to a constant value on worlds with successors, a third
  chains a fresh q downward by multiplication with p, and the weakened
  conclusion tolerates only models where both stay strictly inside (0, 1);
* the valuation transform that certifies the reduction on a concrete finite
  countermodel;
* the standard-MV-to-product translation of formulas (joining ``x`` in at
  the spots where a value could escape the interval [a, 1]) together with
  the two model transforms between rational MV models and symbolic
  power-chain models, and a batch checker for the defining exponent identity;
* the syntactic global-to-local expansion over transitive frames;
* the standard translation of modal formulas into two-variable-indexed
  first-order syntax, with a text renderer.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import ExpChain, ExpValue, StdMV, Value
from .formulas import (And, Box, Const0, Const1, Diamond, Formula, Implies,
                       Or, Times, Var, ZERO, bottom_up, box_prefix, iff, neg,
                       postorder, _Node, _spell, rebuild, render, variables)
from .kripke import KripkeModel, evaluate_all, heights

__all__ = [
    "constancy_premises", "chain_premise", "spread_disjunct", "finite_to_global",
    "recognize_finite_to_global", "extend_model_pq",
    "rewrite_to_fragment", "luk2prod_formula", "luk2prod_extended", "product_side_premises",
    "model_l2p", "model_p2l", "verify_exponent_identity", "global_to_local_transitive",
    "FOFormula", "FOPred", "FOConst", "FOAnd", "FOOr", "FOTimes", "FOImplies",
    "FOForall", "FOExists", "modal_to_fo", "render_fo",
]


def constancy_premises(p: str) -> tuple[Formula, Formula]:
    """Premises forcing p constant on every world that has a successor."""
    pv = Var(p)
    return (Or(Box(ZERO), iff(pv, Box(pv))),
            Or(Box(ZERO), iff(Box(pv), Diamond(pv))))


def chain_premise(p: str, q: str) -> Formula:
    """Premise q = p * (box q), chaining q down the accessibility relation."""
    return iff(Var(q), Times(Var(p), Box(Var(q))))


def spread_disjunct(p: str, q: str) -> Formula:
    """p or not-p or q or not-q: equal to 1 except strictly inside (0, 1)."""
    pv, qv = Var(p), Var(q)
    return Or(Or(Or(pv, neg(pv)), qv), neg(qv))


def finite_to_global(gamma, phi: Formula, p: str, q: str
                     ) -> tuple[tuple[Formula, ...], Formula]:
    """Reduce consequence over finite models to unrestricted consequence.

    Adds the three premises over the fresh variables and weakens the
    conclusion by the spread disjunct.
    """
    gamma = tuple(gamma)
    used = variables(gamma + (phi,))
    if p == q or p in used or q in used:
        raise ValueError(f"variables {p!r}, {q!r} must be fresh and distinct")
    new_gamma = gamma + constancy_premises(p) + (chain_premise(p, q),)
    return new_gamma, Or(phi, spread_disjunct(p, q))


def recognize_finite_to_global(premises, conclusion: Formula
                               ) -> tuple[tuple[Formula, ...], Formula, str, str] | None:
    """Invert :func:`finite_to_global` syntactically, or return ``None``.

    Used by enumeration arguments: a pair of that exact shape determines the
    original pair and the fresh variables uniquely.
    """
    premises = tuple(premises)
    if not isinstance(conclusion, Or):
        return None
    phi0, tail = conclusion.left, conclusion.right
    # formulas are hash-consed, so the spread disjunct rebuilt from the
    # names at p's and q's positions is ``tail`` itself exactly when
    # ``tail`` has its whole shape ((p \/ ~p) \/ q) \/ ~q
    try:
        p, q = tail.left.left.left.name, tail.left.right.name
    except AttributeError:
        return None
    if p == q or tail is not spread_disjunct(p, q):
        return None
    marker = constancy_premises(p) + (chain_premise(p, q),)
    if any(m not in premises for m in marker):
        return None
    gamma = tuple(g for g in premises if g not in marker)
    if p in variables(gamma + (phi0,)) or q in variables(gamma + (phi0,)):
        return None
    return gamma, phi0, p, q


def extend_model_pq(model: KripkeModel, world: str, p: str, q: str) -> KripkeModel:
    """Extend a finite-height MV countermodel with witnessing values for the
    fresh variables of :func:`finite_to_global`.

    p becomes the constant midpoint of (h/(h+1), 1) for h the height of the
    witness world; q is defined upward from the successor-free worlds by
    q = (box q) * p.  The result satisfies the three added premises
    everywhere and keeps the spread disjunct below 1 at the witness world.
    """
    if not isinstance(model.algebra, StdMV):
        raise ValueError("the reduction certificate lives over the standard MV algebra")
    if p == q or p in model.variables or q in model.variables:
        raise ValueError(f"variables {p!r}, {q!r} must be fresh and distinct")
    hs = heights(model.frame)
    if any(h == float("inf") for h in hs.values()):
        raise ValueError("model has a world of infinite height (reachable cycle)")
    if world not in model.worlds:
        raise KeyError(f"unknown world {world!r}")
    h = hs[world]
    a = Fraction(2 * h + 1, 2 * h + 2)
    alg = model.algebra
    qval: dict[str, Fraction] = {}
    for w in sorted(model.worlds, key=lambda u: (hs[u], u)):
        box_q = alg.one
        for u in model.frame.successors(w):
            box_q = alg.meet(box_q, qval[u])
        qval[w] = alg.times(box_q, a)
    valuation = model.valuation_dict()
    for w in model.worlds:
        valuation[w][p] = a
        valuation[w][q] = qval[w]
    out = KripkeModel(model.frame, alg, valuation)
    *premises, spread = evaluate_all(out, constancy_premises(p)
                                     + (chain_premise(p, q), spread_disjunct(p, q)))
    if any(v != alg.one for col in premises for v in col):
        raise RuntimeError("extension failed its premise certificate")
    if spread[out.worlds.index(world)] == alg.one:
        raise RuntimeError("extension failed to keep the spread disjunct below 1")
    return out


def _fragment(f: Formula, *args: Formula) -> Formula:
    if isinstance(f, Const1):
        return Implies(ZERO, ZERO)
    if isinstance(f, Diamond):
        return neg(Box(neg(args[0])))
    if isinstance(f, And):
        left, right = args
        return Times(left, Implies(left, right))
    if isinstance(f, Or):
        # both-sided maximum, then the And rule
        left, right = args
        a = Implies(Implies(left, right), right)
        b = Implies(Implies(right, left), left)
        return Times(a, Implies(a, b))
    return rebuild(f, *args)


def rewrite_to_fragment(f: Formula) -> Formula:
    """Eliminate /\\, \\/, <> and 1 using their MV definitions, leaving the
    fragment {0, var, *, ->, []}."""
    return bottom_up([f], _fragment)[0]


def _luk2prod(f: Formula, x: str, extended: bool) -> Formula:
    def rule(g: Formula, *args: Formula) -> Formula:
        if isinstance(g, Const0):
            return Var(x)
        if isinstance(g, Var):
            if g.name == x:
                raise ValueError(f"{x!r} must not occur in the formula")
            return Or(g, Var(x))
        if isinstance(g, Times) or extended and isinstance(g, Diamond):
            return Or(Var(x), rebuild(g, *args))
        if isinstance(g, (Implies, Box)) or extended:
            return rebuild(g, *args)
        raise ValueError(f"connective outside the fragment: {render(g)}")
    return bottom_up([f], rule)[0]


def luk2prod_formula(f: Formula, x: str) -> Formula:
    """Translate a fragment formula for evaluation over the product chain:
    0 becomes x, variables join x in, products re-join x, box passes through."""
    return _luk2prod(f, x, extended=False)


def luk2prod_extended(f: Formula, x: str) -> Formula:
    """Homomorphic extension of the translation to /\\, \\/, <> and 1.

    Meets and joins of translated values stay inside [a, 1] pointwise, so
    those clauses pass through; an empty diamond join falls to 0, so the
    diamond clause re-joins x exactly like the product clause does.
    """
    return _luk2prod(f, x, extended=True)


def product_side_premises(x: str) -> tuple[Formula, Formula, Formula]:
    """Side premises pinning x to a constant, box-stable, nonzero value."""
    xv = Var(x)
    return (iff(Box(xv), Diamond(xv)), iff(Box(xv), xv), neg(neg(xv)))


def model_l2p(model: KripkeModel, x: str) -> KripkeModel:
    """Transform an MV model into a power-chain model over the same frame:
    each value v becomes a^(1-v), and x becomes the base a itself."""
    if not isinstance(model.algebra, StdMV):
        raise ValueError("source model must live over the standard MV algebra")
    if x in model.variables:
        raise ValueError(f"variable {x!r} already used in the model")
    chain = ExpChain()
    valuation = {
        w: {v: ExpValue(1 - model.value(w, v)) for v in model.variables}
        for w in model.worlds
    }
    for w in model.worlds:
        valuation[w][x] = ExpValue(Fraction(1))
    return KripkeModel(model.frame, chain, valuation)


def model_p2l(model: KripkeModel) -> KripkeModel:
    """Inverse transform: a^t maps to 1 - t after capping t at 1 (joining the
    value with the base a first); the bottom has no preimage and is rejected."""
    if not isinstance(model.algebra, ExpChain):
        raise ValueError("source model must live over the power chain")
    valuation: dict[str, dict[str, Value]] = {}
    for w in model.worlds:
        row = {}
        for v in model.variables:
            val = model.value(w, v)
            if val.is_zero:
                raise ValueError(
                    f"variable {v!r} at world {w!r} is the bottom; no preimage")
            row[v] = 1 - min(val.exponent, Fraction(1))
        valuation[w] = row
    return KripkeModel(model.frame, StdMV(), valuation)


def verify_exponent_identity(model: KripkeModel, formulas, x: str,
                  translate=luk2prod_formula) -> list[tuple]:
    """Check the defining exponent identity of the translation on a model.

    For every formula f and world w, evaluating the translation in the
    transformed model must give exactly a^(1 - value of f in the source);
    any violation is reported as (formula, world, got, expected).  A
    non-empty report indicates an implementation bug.
    """
    prod = model_l2p(model, x)
    formulas = list(formulas)
    got = evaluate_all(prod, [translate(f, x) for f in formulas])
    source = evaluate_all(model, formulas)
    violations = []
    for f, got_col, source_col in zip(formulas, got, source):
        for w, g, v in zip(model.worlds, got_col, source_col):
            expected = ExpValue(1 - v)
            if g != expected:
                violations.append((f, w, g, expected))
    return violations


def global_to_local_transitive(gamma, phi: Formula
                               ) -> tuple[tuple[Formula, ...], Formula]:
    """Over transitive frames, global consequence reduces to local consequence
    from the premises plus their boxed copies."""
    return box_prefix(tuple(gamma), 1), phi


class FOFormula(_Node):
    """A first-order term of the standard translation, hash-consed like the
    modal formulas: ``==`` is ``is``, and hash and ``repr`` do not recurse."""

    __slots__ = ()


class FOPred(FOFormula):
    __slots__ = _fields = ("name", "args")

    def __new__(cls, name: str, args: tuple[str, ...]):
        return cls._intern((name, args), (name, args))


class FOConst(FOFormula):
    __slots__ = _fields = ("value",)

    def __new__(cls, value: int):
        return cls._intern(value, (value,))


class _FOBinary(FOFormula):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: FOFormula, right: FOFormula):
        return cls._intern(id(left) << 64 | id(right), (left, right))


class _FOQuantifier(FOFormula):
    __slots__ = _fields = ("var", "body")

    def __new__(cls, var: str, body: FOFormula):
        return cls._intern((var, id(body)), (var, body))


class FOAnd(_FOBinary):
    __slots__ = ()


class FOOr(_FOBinary):
    __slots__ = ()


class FOTimes(_FOBinary):
    __slots__ = ()


class FOImplies(_FOBinary):
    __slots__ = ()


class FOForall(_FOQuantifier):
    __slots__ = ()


class FOExists(_FOQuantifier):
    __slots__ = ()


_FO_BINARY = {And: FOAnd, Or: FOOr, Times: FOTimes, Implies: FOImplies}


def modal_to_fo(f: Formula, i: int = 0) -> FOFormula:
    """Standard translation at the world variable ``x_i``: box quantifies the
    next index universally behind an implication from accessibility, diamond
    existentially behind a product with it.  Two passes over the post-order:
    parents first, the world indices each subformula is needed at (a modal
    body one past its parent's); then children first, one image per
    (subformula, index)."""
    nodes = postorder([f])
    need: dict[Formula, set[int]] = {g: set() for g in nodes}
    need[f].add(i)
    for g in reversed(nodes):
        if isinstance(g, (Box, Diamond)):
            need[g.body].update(k + 1 for k in need[g])
        elif type(g) in _FO_BINARY:
            need[g.left] |= need[g]
            need[g.right] |= need[g]
    image: dict[tuple[Formula, int], FOFormula] = {}
    for g in nodes:
        for k in need[g]:
            if isinstance(g, Var):
                image[g, k] = FOPred(f"P_{g.name}", (f"x{k}",))
            elif isinstance(g, (Box, Diamond)):
                step = FOPred("R", (f"x{k}", f"x{k + 1}"))
                body = image[g.body, k + 1]
                image[g, k] = (FOForall(f"x{k + 1}", FOImplies(step, body))
                               if isinstance(g, Box) else
                               FOExists(f"x{k + 1}", FOTimes(step, body)))
            elif type(g) in _FO_BINARY:
                image[g, k] = _FO_BINARY[type(g)](image[g.left, k], image[g.right, k])
            else:
                image[g, k] = FOConst(0 if isinstance(g, Const0) else 1)
    return image[f, i]


_FO_OPS = {FOAnd: "/\\", FOOr: "\\/", FOTimes: "*", FOImplies: "->"}


def render_fo(f: FOFormula, ascii_only: bool = False) -> str:
    forall = "forall " if ascii_only else "∀"
    exists = "exists " if ascii_only else "∃"

    def operand(g: FOFormula) -> list:
        return [g] if isinstance(g, (FOPred, FOConst)) else ["(", g, ")"]

    def parts(g: FOFormula) -> list:
        if isinstance(g, FOPred):
            return [f"{g.name}({','.join(g.args)})"]
        if isinstance(g, FOConst):
            return [str(g.value)]
        if isinstance(g, FOForall):
            return [f"{forall}{g.var} (", g.body, ")"]
        if isinstance(g, FOExists):
            return [f"{exists}{g.var} (", g.body, ")"]
        return [*operand(g.left), f" {_FO_OPS[type(g)]} ", *operand(g.right)]

    return _spell(f, parts)
