"""Reference semantics used to check the benchmark's answers.

Nothing here imports ``mvmodal``.  Formulas are read by an iterative parser
into an interned node table (children always get smaller ids than their
parents), so every walk is a loop over ids and depth never meets the
interpreter's recursion limit.  Three carriers are spelled out inline:
Łukasiewicz operations on ``Fraction`` (the standard MV algebra and its
finite chains), explicit operation tables, and the power chain
``{0} ∪ {a^t}`` kept as exponents.

A "holds" answer is accepted only when the query is a substitution instance
of a principle hand-listed in ``VALID``; a "fails" answer only when the
reference model search refutes the query and the returned witness
re-evaluates as a countermodel.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)

# --------------------------------------------------------------- node table

_TOKEN = re.compile(r"\s*(?:(<->)|(->)|(/\\)|(\\/)|(\[\])|(<>)|([*^~()])|([0-9]+)"
                    r"|([a-zA-Z][a-zA-Z0-9_]*))")
_PREC = {"<->": 1, "->": 2, "\\/": 3, "/\\": 4, "*": 5}
_BINOP = {"->": "imp", "\\/": "or", "/\\": "and", "*": "times"}
_PREFIX = {"[]": "box", "<>": "dia"}


class Terms:
    """Interned formula nodes: ``("0",)``, ``("1",)``, ``("var", name)``,
    ``(op, left, right)`` for and/or/times/imp, ``(op, body)`` for box/dia."""

    def __init__(self):
        self.nodes: list[tuple] = []
        self._ids: dict[tuple, int] = {}

    def mk(self, *node) -> int:
        i = self._ids.get(node)
        if i is None:
            i = self._ids[node] = len(self.nodes)
            self.nodes.append(node)
        return i

    def var(self, name: str) -> int:
        return self.mk("var", name)

    def imp(self, a: int, b: int) -> int:
        return self.mk("imp", a, b)

    def neg(self, a: int) -> int:
        return self.mk("imp", a, self.mk("0"))

    def iff(self, a: int, b: int) -> int:
        return self.mk("times", self.imp(a, b), self.imp(b, a))

    def power(self, a: int, n: int) -> int:
        """n-fold product, right-nested; the 0-th power is 1."""
        if n == 0:
            return self.mk("1")
        out = a
        for _ in range(n - 1):
            out = self.mk("times", a, out)
        return out

    def parse(self, text: str) -> int:
        """Read the formula grammar of the README (precedence climbing with
        explicit stacks)."""
        out: list[int] = []
        ops: list[str] = []
        pos = 0
        want_operand = True

        def reduce_prefix():
            while ops and ops[-1] in ("~", "[]", "<>"):
                op = ops.pop()
                a = out.pop()
                out.append(self.neg(a) if op == "~" else self.mk(_PREFIX[op], a))

        def reduce_binary():
            op = ops.pop()
            b = out.pop()
            a = out.pop()
            out.append(self.iff(a, b) if op == "<->" else self.mk(_BINOP[op], a, b))

        while True:
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ValueError(f"unexpected input at {pos}")
                break
            pos = m.end()
            tok = m.group(m.lastindex)
            if want_operand:
                if tok in ("~", "[]", "<>", "("):
                    ops.append(tok)
                    continue
                if m.group(8):
                    if tok not in ("0", "1"):
                        raise ValueError(f"unexpected number {tok}")
                    out.append(self.mk(tok))
                elif m.group(9):
                    out.append(self.var(tok))
                else:
                    raise ValueError(f"expected an operand, found {tok!r}")
                reduce_prefix()
                want_operand = False
            elif tok == "^":
                m = _TOKEN.match(text, pos)
                if m is None or not m.group(8) or int(m.group(8)) == 0:
                    raise ValueError("power needs a positive exponent")
                pos = m.end()
                out.append(self.power(out.pop(), int(m.group(8))))
            elif tok == ")":
                while ops and ops[-1] != "(":
                    reduce_binary()
                if not ops:
                    raise ValueError("unbalanced ')'")
                ops.pop()
                reduce_prefix()
            elif tok in _PREC:
                p = _PREC[tok]
                while ops and ops[-1] in _PREC and (
                        _PREC[ops[-1]] > p or (_PREC[ops[-1]] == p and tok != "->")):
                    reduce_binary()
                ops.append(tok)
                want_operand = True
            else:
                raise ValueError(f"unexpected {tok!r}")
        if want_operand:
            raise ValueError("formula ends early")
        while ops:
            if ops[-1] == "(":
                raise ValueError("unbalanced '('")
            reduce_binary()
        if len(out) != 1:
            raise ValueError("malformed formula")
        return out[0]

    def below(self, roots) -> list[int]:
        """Ids reachable from ``roots``, children before parents."""
        seen = set()
        stack = list(roots)
        while stack:
            i = stack.pop()
            if i not in seen:
                seen.add(i)
                stack.extend(c for c in self.nodes[i][1:] if isinstance(c, int))
        return sorted(seen)

    def variables(self, roots) -> list[str]:
        return sorted(self.nodes[i][1] for i in self.below(roots)
                      if self.nodes[i][0] == "var")

    def count(self, root: int, ops) -> int:
        """Occurrences of the given operators in the formula tree (not DAG)."""
        mult = {root: 1}
        total = 0
        for i in reversed(self.below([root])):
            node = self.nodes[i]
            if node[0] in ops:
                total += mult.get(i, 0)
            for c in node[1:]:
                if isinstance(c, int):
                    mult[c] = mult.get(c, 0) + mult.get(i, 0)
        return total


# ---------------------------------------------------------------- carriers

class Lukasiewicz:
    """[0, 1] or its n-element subchain, with the Łukasiewicz operations."""

    zero, one = F0, F1

    def __init__(self, n: int | None = None):
        self.carrier = None if n is None else tuple(Fraction(k, n - 1) for k in range(n))

    @staticmethod
    def op(name, a, b):
        if name == "and":
            return min(a, b)
        if name == "or":
            return max(a, b)
        if name == "times":
            return max(F0, a + b - 1)
        return min(F1, 1 - a + b)


class Table:
    """Finite algebra given by its operation tables over element indices."""

    def __init__(self, tables: dict):
        self.t = {"and": tables["meet"], "or": tables["join"],
                  "times": tables["times"], "imp": tables["residuum"]}
        self.zero, self.one = tables["zero"], tables["one"]
        self.carrier = tuple(range(tables["size"]))

    def op(self, name, a, b):
        return self.t[name][a][b]


class PowerChain:
    """{0} ∪ {a^t : t >= 0}; a value is its exponent t, or None for 0.
    Larger exponents are smaller values."""

    zero, one = None, F0
    carrier = None

    @staticmethod
    def op(name, a, b):
        if name == "times":
            return None if a is None or b is None else a + b
        if name == "and":
            return None if a is None or b is None else max(a, b)
        if name == "or":
            return b if a is None else a if b is None else min(a, b)
        if a is None or (b is not None and a >= b):   # a <= b
            return F0
        return None if b is None else b - a


def algebra(spec) -> object:
    """Reference carrier for an algebra named as in the query specs."""
    if spec == "std-mv":
        return Lukasiewicz()
    if spec == "exp-chain":
        return PowerChain()
    if isinstance(spec, str) and spec.startswith("mv-"):
        return Lukasiewicz(int(spec[3:]))
    return Table(spec)


# -------------------------------------------------------------- evaluation

def evaluate(terms: Terms, roots, worlds, edges, val, alg) -> dict[int, list]:
    """Value vectors (one entry per world, in ``worlds`` order) of every node
    below ``roots``; ``val[w][p]`` gives the variable values."""
    index = {w: k for k, w in enumerate(worlds)}
    succ = [[] for _ in worlds]
    for a, b in edges:
        succ[index[a]].append(index[b])
    out: dict[int, list] = {}
    for i in terms.below(roots):
        node = terms.nodes[i]
        tag = node[0]
        if tag == "0":
            vec = [alg.zero] * len(worlds)
        elif tag == "1":
            vec = [alg.one] * len(worlds)
        elif tag == "var":
            vec = [val[w][node[1]] for w in worlds]
        elif tag in ("box", "dia"):
            body = out[node[1]]
            op = "and" if tag == "box" else "or"
            vec = []
            for ss in succ:
                acc = alg.one if tag == "box" else alg.zero
                for s in ss:
                    acc = alg.op(op, acc, body[s])
                vec.append(acc)
        else:
            left, right = out[node[1]], out[node[2]]
            vec = [alg.op(tag, a, b) for a, b in zip(left, right)]
        out[i] = vec
    return out


def countermodel_at(terms, premises, conclusion, worlds, edges, val, alg):
    """World where the model refutes ``premises |- conclusion`` globally, or
    None (also None when a premise is not 1 everywhere)."""
    values = evaluate(terms, list(premises) + [conclusion], worlds, edges, val, alg)
    if any(v != alg.one for p in premises for v in values[p]):
        return None
    for w, v in zip(worlds, values[conclusion]):
        if v != alg.one:
            return w
    return None


def frames(n: int):
    """Every labeled frame on worlds w1..wn."""
    worlds = [f"w{i + 1}" for i in range(n)]
    pairs = [(a, b) for a in worlds for b in worlds]
    for mask in range(2 ** len(pairs)):
        yield worlds, [pairs[k] for k in range(len(pairs)) if mask >> k & 1]


def search(terms, premises, conclusion, frame_list, alg):
    """Exhaustive countermodel search over the carrier of ``alg`` on each
    frame in turn; returns ``(worlds, edges, valuation, world)`` or None."""
    names = terms.variables(list(premises) + [conclusion])
    for worlds, edges in frame_list:
        slots = [(w, p) for w in worlds for p in names]
        for point in itertools.product(alg.carrier, repeat=len(slots)):
            val = {w: {} for w in worlds}
            for (w, p), v in zip(slots, point):
                val[w][p] = v
            w = countermodel_at(terms, premises, conclusion, worlds, edges, val, alg)
            if w is not None:
                return worlds, edges, val, w
    return None


# ---------------------------------------------------------- valid principles

# Hand-listed valid principles and global consequences.  Upper-case letters
# are schematic.  "flew" marks validity in every bounded commutative
# residuated chain with crisp accessibility, "mv" in MV-algebras only,
# "godel" in Gödel chains only.
VALID = {
    "weakening": ((), "A -> (B -> A)", "flew"),
    "suffixing": ((), "(A -> B) -> ((B -> C) -> (A -> C))", "flew"),
    "luk-axiom": ((), "((A -> B) -> B) -> ((B -> A) -> A)", "mv"),
    "contraposition": ((), "(~A -> ~B) -> (B -> A)", "mv"),
    "double-negation": ((), "~~A -> A", "mv"),
    "contraction": ((), "A -> A * A", "godel"),
    "product-left": ((), "A * B -> A", "flew"),
    "meet-left": ((), "A /\\ B -> A", "flew"),
    "join-right": ((), "A -> A \\/ B", "flew"),
    "prelinearity": ((), "(A -> B) \\/ (B -> A)", "flew"),
    "residuation": ((), "A * (A -> B) -> B", "flew"),
    "currying": ((), "(A * B -> C) -> (A -> (B -> C))", "flew"),
    "k": ((), "[](A -> B) -> ([]A -> []B)", "flew"),
    "box-meet": ((), "[](A /\\ B) -> []A", "flew"),
    "dia-join": ((), "<>A -> <>(A \\/ B)", "flew"),
    "box-one": ((), "[]1", "flew"),
    "modus-ponens": (("A", "A -> B"), "B", "flew"),
    "necessitation": (("A",), "[]A", "flew"),
    "necessitation2": (("A",), "[][]A", "flew"),
    "meet-elim": (("A /\\ B",), "A", "flew"),
    # []a <= a at every world gives [][]a <= []a <= a (the ROADMAP Baseline pair)
    "t-iterate": (("[]A -> A",), "[][]A -> A", "flew"),
}

# Algebras used by the benchmark are all chains.
FAMILY = {"std-mv": {"flew", "mv"}, "mv-3": {"flew", "mv"}, "mv-4": {"flew", "mv"},
          "exp-chain": {"flew"}, "g3": {"flew", "godel"}}


def _match(terms: Terms, pat: int, term: int, subst: dict) -> bool:
    stack = [(pat, term)]
    while stack:
        p, t = stack.pop()
        pn = terms.nodes[p]
        if pn[0] == "var" and pn[1].isupper():
            if subst.setdefault(pn[1], t) != t:
                return False
            continue
        tn = terms.nodes[t]
        if pn[0] != tn[0] or len(pn) != len(tn):
            return False
        if pn[0] == "var":
            if pn[1] != tn[1]:
                return False
            continue
        stack.extend(zip(pn[1:], tn[1:]))
    return True


def valid_instance(terms: Terms, premises, conclusion, family: str) -> str | None:
    """Name of a listed principle valid in ``family`` of which the query is a
    substitution instance, or None."""
    for name, (pats, concl, where) in VALID.items():
        if where not in FAMILY[family] or len(pats) != len(premises):
            continue
        subst: dict = {}
        if all(_match(terms, terms.parse(p), t, subst)
               for p, t in zip(pats, premises)) and \
                _match(terms, terms.parse(concl), conclusion, subst):
            return name
    return None


def luk2prod(terms: Terms, root: int, x: str) -> int:
    """The MV-to-product translation of a {0, var, *, ->, []} formula:
    0 -> x, p -> p \\/ x, a * b -> x \\/ (a' * b'), -> and [] homomorphic."""
    xv = terms.var(x)
    out: dict[int, int] = {}
    for i in terms.below([root]):
        node = terms.nodes[i]
        tag = node[0]
        if tag == "0":
            out[i] = xv
        elif tag == "var":
            out[i] = terms.mk("or", i, xv)
        elif tag == "box":
            out[i] = terms.mk("box", out[node[1]])
        elif tag == "imp":
            out[i] = terms.mk("imp", out[node[1]], out[node[2]])
        elif tag == "times":
            out[i] = terms.mk("or", xv, terms.mk("times", out[node[1]], out[node[2]]))
        else:
            raise ValueError(f"{tag} is outside the translation's fragment")
    return out[root]


# ------------------------------------------------------------ numerals / PCP

def concat(numerals, base: int) -> tuple[int, int]:
    """Concatenate (value, digit count) numerals."""
    value, length = 0, 0
    for v, n in numerals:
        if not 0 <= v < base ** n:
            raise ValueError(f"{v} does not fit in {n} base-{base} digits")
        value, length = value * base ** n + v, length + n
    return value, length


def is_solution(pairs, indices, base: int) -> bool:
    """Do the x-side and y-side concatenations of the indices agree?"""
    if not indices or any(not 1 <= i <= len(pairs) for i in indices):
        return False
    return (concat([pairs[i - 1][0] for i in indices], base)
            == concat([pairs[i - 1][1] for i in indices], base))
