"""Modal formulas over the residuated-lattice signature.

The canonical AST has constants ``0``/``1``, variables, the binary
connectives ``/\\``, ``\\/``, ``*``, ``->`` and the unary modalities ``[]``
and ``<>``.  Negation, equivalence and powers are surface sugar only and are
eliminated while parsing:

    ~f        becomes  f -> 0
    f <-> g   becomes  (f -> g) * (g -> f)
    f^n       becomes  the n-fold product, by square and multiply

``f^n`` has O(log n) nodes (see :func:`fpow`), and :func:`render` prints
such a power back as ``(g^n)``.

Formulas are immutable, hash-consed nodes: building a formula equal to a
live one returns that very object, so identity and structural equality
coincide and ``==`` is ``is``.  Each node caches its hash, the hash of its
field tuple.  Nothing here recurses: every pass over the nodes of a formula
runs on the one walk :func:`_template`, through :func:`postorder` for the
nodes in order and :func:`bottom_up` for a bottom-up map.
"""

from __future__ import annotations

import re
import weakref
from typing import Callable, Iterable, Mapping

__all__ = [
    "Formula", "Const0", "Const1", "Var", "And", "Or", "Times", "Implies",
    "Box", "Diamond", "ZERO", "ONE", "ParseError",
    "neg", "iff", "fpow", "variables", "subformulas", "prop_subformulas",
    "substitute", "box_prefix", "render", "parse", "is_propositional",
    "postorder", "bottom_up", "rebuild", "fresh_names",
]

_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class ParseError(ValueError):
    """Malformed formula text; ``position`` is the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Ref(weakref.ref):
    __slots__ = ("key",)


class _Node:
    """A hash-consed node: formulas here, first-order terms in ``bridges``.

    Each class holds weak references to its live nodes in ``_live``, under
    a key made from the fields: a variable's name, or the ids of the
    children (a node keeps its children alive, so their ids are not reused
    while it lives).  When a node dies, its reference's callback drops the
    entry, unless a newer node already holds the key.  Each node caches the
    hash of its field tuple, and ``repr`` spells the keyword form.
    """

    __slots__ = ("_hash", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        live = cls._live = {}

        def drop(ref: _Ref) -> None:
            if live.get(ref.key) is ref:
                del live[ref.key]
        cls._drop = drop

    def __new__(cls):  # the constants; the nodes with fields override this
        return cls._intern(0, ())

    @classmethod
    def _intern(cls, key, fields: tuple) -> "_Node":
        ref = cls._live.get(key)
        node = None if ref is None else ref()
        if node is None:
            cls._check(*fields)
            node = object.__new__(cls)
            object.__setattr__(node, "_hash", hash(fields))
            for name, value in zip(cls._fields, fields):
                object.__setattr__(node, name, value)
            ref = cls._live[key] = _Ref(node, cls._drop)
            ref.key = key
        return node

    @staticmethod
    def _check(*fields) -> None:
        pass

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, *args):
        raise AttributeError("formulas are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        return _spell(self, _repr_parts)


class Formula(_Node):
    """A modal formula node; see the module docstring."""

    __slots__ = ()

    @staticmethod
    def _check(*children) -> None:
        for child in children:
            if not isinstance(child, Formula):
                raise TypeError(f"not a formula: {child!r}")


class Const0(Formula):
    __slots__ = ()


class Const1(Formula):
    __slots__ = ()


class Var(Formula):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        return cls._intern(name, (name,))

    @staticmethod
    def _check(name) -> None:
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid variable name: {name!r}")


class _Binary(Formula):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return cls._intern(id(left) << 64 | id(right), (left, right))


class _Unary(Formula):
    __slots__ = _fields = ("body",)

    def __new__(cls, body: Formula):
        return cls._intern(id(body), (body,))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Times(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Box(_Unary):
    __slots__ = ()


class Diamond(_Unary):
    __slots__ = ()


ZERO = Const0()
ONE = Const1()

_BINARY = frozenset({And, Or, Times, Implies})


def _template(formulas: tuple[Formula, ...]):
    """The one walk over formula nodes: every node under ``formulas`` once,
    children before parents, left to right, nodes told apart by ``id``
    (identity of structure for hash-consed nodes).  Returns per node ``(class,
    x, y)``, with the indices of a connective's operands or a modal node's
    body, or a variable's name or the constant itself, its key in
    ``kripke._fold``'s ``leaves`` or ``ops``; each formula's index; the nodes
    in walk order; and the modal nodes."""
    index, template, order, modal = {}, [], [], []
    stack = list(formulas)[::-1]
    while stack:
        f = stack.pop()
        if f is None:  # the node below has its children indexed
            f = stack.pop()
            if (kind := type(f)) is Box or kind is Diamond:
                modal.append(f)
                node = (kind, index[id(f.body)], None)
            else:
                node = (kind, index[id(f.left)], index[id(f.right)])
        elif id(f) in index:
            continue
        elif (kind := type(f)) in _BINARY:
            stack += (f, None, f.right, f.left)
            continue
        elif kind is Box or kind is Diamond:
            stack += (f, None, f.body)
            continue
        else:
            Formula._check(f)
            node = (kind, f.name if kind is Var else f, None)
        index[id(f)] = len(template)
        template.append(node)
        order.append(f)
    return (tuple(template), tuple([index[id(f)] for f in formulas]), order,
            tuple(modal))


def postorder(roots: Iterable[Formula]) -> list[Formula]:
    """Every node under ``roots`` once, children before parents, left to
    right: the order of :func:`_template`."""
    return _template(tuple(roots))[2]


def bottom_up(roots: Iterable[Formula], rule: Callable) -> list:
    """Images of ``roots`` under ``rule(f, *images of f's children)``, which
    is applied once per node, children first, along :func:`_template`."""
    template, at, order, _ = _template(tuple(roots))
    images: list = []
    for f, (kind, x, y) in zip(order, template):
        if y is not None:
            images.append(rule(f, images[x], images[y]))
        elif kind is Box or kind is Diamond:
            images.append(rule(f, images[x]))
        else:
            images.append(rule(f))
    return [images[i] for i in at]


def rebuild(f: Formula, *children: Formula) -> Formula:
    """``f`` with its children replaced; a leaf is returned as it is."""
    return type(f)(*children) if children else f


def neg(f: Formula) -> Formula:
    return Implies(f, ZERO)


def iff(a: Formula, b: Formula) -> Formula:
    return Times(Implies(a, b), Implies(b, a))


# fpow squares even powers from here on; below, powers nest to the right
_SQUARE_FROM = 6


def fpow(f: Formula, n: int) -> Formula:
    """n-fold product of ``f`` with itself by square and multiply: an even
    ``n >= 6`` gives ``h * h`` with ``h = f^(n/2)``, any other ``n >= 1``
    gives ``f * f^(n-1)``.  Hash-consing makes ``h`` one node, so ``f^n``
    has O(log n) nodes.  ``f^0`` is ``1``, and powers up to ``f^5`` are the
    right-nested products ``f * (f * ...)``: text of fewer than three levels
    of nesting is never a squared power."""
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return ONE
    odd_steps = []  # from n down to a right-nested power
    while n >= _SQUARE_FROM:
        odd_steps.append(n % 2)
        n = n - 1 if n % 2 else n // 2
    out = f
    for _ in range(n - 1):
        out = Times(f, out)
    for odd in reversed(odd_steps):
        out = Times(f, out) if odd else Times(out, out)
    return out


def _exponent(g: Formula, f: Formula) -> int:
    """The n that ``fpow(g, n)`` would have, read from ``f`` down to ``g``
    through squarings ``h * h`` and steps ``g * h``; 0 when ``f`` is no such
    chain, or has a longer run of steps ``g * h`` than ``fpow`` makes."""
    scale, extra, run = 1, 0, 0  # f is g^(scale * m + extra) for the m below
    while f is not g:
        if not isinstance(f, Times) or run == _SQUARE_FROM:
            return 0
        if f.left is f.right:
            f, scale, run = f.left, 2 * scale, 0
        elif f.left is g:
            f, extra, run = f.right, extra + scale, run + 1
        else:
            return 0
    return scale + extra


def _as_power(f: Times) -> tuple[Formula, int] | None:
    """``(g, n)`` with ``n >= 4`` and ``fpow(g, n) is f``, for the least such
    ``g``; ``None`` when there is none.  Below the leading squarings of
    ``f`` the base is that node's left factor or the node itself."""
    r = f.right
    if f.left is not r and not (isinstance(r, Times) and r.left in (f.left, r.right)):
        return None  # neither a squaring nor a step g * g^m with m >= 2
    u = f
    while isinstance(u, Times) and u.left is u.right:
        u = u.left
    for g in (u.left, u) if isinstance(u, Times) else (u,):
        n = _exponent(g, f)
        if n >= 4 and fpow(g, n) is f:
            return g, n
    return None


def variables(f: Formula | Iterable[Formula]) -> frozenset[str]:
    template = _template((f,) if isinstance(f, Formula) else tuple(f))[0]
    return frozenset(x for kind, x, _ in template if kind is Var)


def fresh_names(used: Iterable[str], bases: Iterable[str]) -> list[str]:
    """One new name per base, avoiding ``used`` and each other: the base
    itself if free, else the base followed by the least free of 0, 1, ..."""
    taken = set(used)
    out = []
    for base in bases:
        name, i = base, 0
        while name in taken:
            name = f"{base}{i}"
            i += 1
        taken.add(name)
        out.append(name)
    return out


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of ``f``, including ``f`` itself."""
    return frozenset(postorder([f]))


def prop_subformulas(f: Formula) -> frozenset[Formula]:
    """Propositional subformulas: modal subformulas count as atoms."""
    out = {f}
    for g in reversed(postorder([f])):  # every parent before its children
        if g in out and isinstance(g, _Binary):
            out.update((g.left, g.right))
    return frozenset(out)


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    def rule(g: Formula, *children: Formula) -> Formula:
        return mapping.get(g.name, g) if isinstance(g, Var) else rebuild(g, *children)
    return bottom_up([f], rule)[0]


def box_prefix(gamma: Iterable[Formula], k: int) -> tuple[Formula, ...]:
    """All prefixes ``[]^i g`` for ``g`` in ``gamma`` and ``0 <= i <= k``."""
    if k < 0:
        raise ValueError("negative box-prefix depth")
    gamma = tuple(gamma)
    out: list[Formula] = []
    seen: set[Formula] = set()
    layer = gamma
    for _ in range(k + 1):
        for g in layer:
            if g not in seen:
                seen.add(g)
                out.append(g)
        layer = tuple(Box(g) for g in layer)
    return tuple(out)


def is_propositional(f: Formula) -> bool:
    return not _template((f,))[3]


def _spell(f: _Node, parts: Callable) -> str:
    """Join the text of ``f``, where ``parts(g)`` lists the strings and child
    nodes that spell ``g``; one token list, so linear in the output."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        else:
            stack.extend(reversed(parts(g)))
    return "".join(out)


_SYMBOL = {And: "/\\", Or: "\\/", Times: "*", Implies: "->", Box: "[]",
           Diamond: "<>"}


def _render_parts(f: Formula) -> list:
    if isinstance(f, Var):
        return [f.name]
    power = _as_power(f) if isinstance(f, Times) else None
    if power:
        return ["(", power[0], f"^{power[1]})"]
    if isinstance(f, _Binary):
        return ["(", f.left, f" {_SYMBOL[type(f)]} ", f.right, ")"]
    if isinstance(f, _Unary):
        return [f"({_SYMBOL[type(f)]} ", f.body, ")"]
    return ["0" if isinstance(f, Const0) else "1"]


def _repr_parts(f: _Node) -> list:
    out = [f"{type(f).__name__}("]
    for k, name in enumerate(f._fields):
        value = getattr(f, name)
        out += [f"{', ' if k else ''}{name}=",
                value if isinstance(value, _Node) else repr(value)]
    return out + [")"]


def render(f: Formula) -> str:
    """Fully parenthesized concrete syntax; ``parse(render(f)) is f``.  A
    product that is ``fpow(g, n)`` with ``n >= 4`` prints as ``(g^n)``."""
    return _spell(f, _render_parts)


_TOKEN_RE = re.compile(
    r"(<->)|(->)|(/\\)|(\\/)|(\[\])|(<>)|([*^~()])|([0-9]+)|([a-zA-Z][a-zA-Z0-9_]*)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tok = m.group(0)
        if m.group(8):
            kind = "num"
        elif m.group(9):
            kind = "ident"
        else:
            kind = tok
        tokens.append((kind, tok, pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# binding strength of the binary connectives; "->" nests to the right
_INFIX = {"<->": (1, iff), "->": (2, Implies), "\\/": (3, Or), "/\\": (4, And),
          "*": (5, Times)}
_PREFIX = {"~": neg, "[]": Box, "<>": Diamond}


def parse(text: str) -> Formula:
    """Parse the concrete syntax.  From loosest to tightest: ``<->`` (left
    associative), ``->`` (right associative), ``\\/``, ``/\\`` and ``*``
    (left associative), the prefixes ``~ [] <>``, then postfix powers
    ``^n``.  Operator precedence on explicit stacks: neither long operator
    runs nor deep parentheses recurse."""
    tokens = _tokenize(text)
    i = 0
    operands: list[Formula] = []  # left operands of the pending infixes
    ops: list[str] = []           # pending infixes, prefixes and "("
    while True:
        kind, tok, pos = tokens[i]
        i += 1
        if kind in _PREFIX or kind == "(":
            ops.append(kind)
            continue
        if kind == "ident":
            f = Var(tok)
        elif tok in ("0", "1"):
            f = ZERO if tok == "0" else ONE
        else:
            what = "number" if kind == "num" else "token"
            raise ParseError(f"unexpected {what} {tok or kind!r}", pos)
        while True:  # f is a complete operand: close what it ends
            while ops and ops[-1] in _PREFIX:
                f = _PREFIX[ops.pop()](f)
            while tokens[i][0] == "^":
                kind, tok, pos = tokens[i + 1]
                if kind != "num":
                    raise ParseError(f"expected 'num', found {tok!r}", pos)
                if int(tok) == 0:
                    raise ParseError("power exponent must be positive", pos)
                f = fpow(f, int(tok))
                i += 2
            kind, tok, pos = tokens[i]
            rank = _INFIX[kind][0] if kind in _INFIX else 0
            while ops and ops[-1] in _INFIX and (
                    _INFIX[ops[-1]][0] > rank or _INFIX[ops[-1]][0] == rank and kind != "->"):
                f = _INFIX[ops.pop()][1](operands.pop(), f)
            if kind != ")" or not ops:
                break
            ops.pop()  # the matching "("
            i += 1
        if kind in _INFIX:
            operands.append(f)
            ops.append(kind)
            i += 1
        elif ops:
            raise ParseError(f"expected ')', found {tok!r}", pos)
        elif kind != "eof":
            raise ParseError(f"trailing input {tok!r}", pos)
        else:
            return f
