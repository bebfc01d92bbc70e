"""Correspondence-problem instances and their modal encoding.

An instance is a finite list of pairs of numerals in some base ``s >= 2``.
Numerals carry an explicit digit count so that words with leading zeros are
representable; concatenation is then associative and faithful:

    concat(x, y) = (x.value * s^y.length + y.value, x.length + y.length)

The encoder produces, from an instance ``P``, a premise set in the three
variables x, y, z and a conclusion formula such that chain countermodels
correspond exactly to solutions of ``P``; the constructors and the extractor
below realize both directions of that correspondence on concrete models.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .algebras import (Algebra, ExpChain, ExpValue, StdMV, Value,
                       int_from_json)
from .formulas import (And, Box, Diamond, Formula, Implies, Or, Times, Var,
                       ZERO, fpow, iff, neg)
from .kripke import (KripkeFrame, KripkeModel, _successor_path, evaluate,
                     evaluate_all)

__all__ = [
    "Numeral", "PCPInstance", "concat", "encode", "verify_solution",
    "build_chain_model", "build_countermodel", "extract_solution",
    "find_solutions", "instance_to_json", "instance_from_json",
    "load_instance",
]

X = Var("x")
Y = Var("y")
Z = Var("z")


@dataclass(frozen=True)
class Numeral:
    """A number together with its digit count in the ambient base."""

    value: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("numeral needs at least one digit")
        if self.value < 0:
            raise ValueError("numeral value must be nonnegative")

    def check_base(self, base: int) -> "Numeral":
        if self.value >= base ** self.length:
            raise ValueError(
                f"{self.value} does not fit in {self.length} base-{base} digits")
        return self


@dataclass(frozen=True)
class PCPInstance:
    base: int
    pairs: tuple[tuple[Numeral, Numeral], ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be at least 2")
        if not self.pairs:
            raise ValueError("instance needs at least one pair")
        for x, y in self.pairs:
            x.check_base(self.base)
            y.check_base(self.base)

    @property
    def size(self) -> int:
        return len(self.pairs)


def concat(x: Numeral, y: Numeral, base: int) -> Numeral:
    x.check_base(base)
    y.check_base(base)
    return Numeral(x.value * base ** y.length + y.value, x.length + y.length)


def _prefixes(instance: PCPInstance, indices: list[int]
              ) -> list[tuple[Numeral, Numeral]]:
    """The x-side and y-side concatenations of the first 1, 2, ..., k
    indexed pairs, in one pass; an index outside 1..size is an error."""
    for i in indices:
        if not 1 <= i <= instance.size:
            raise ValueError(f"index {i} out of range 1..{instance.size}")
    base = instance.base
    return list(itertools.accumulate(
        (instance.pairs[i - 1] for i in indices),
        lambda acc, pair: (concat(acc[0], pair[0], base),
                           concat(acc[1], pair[1], base))))


def verify_solution(instance: PCPInstance, indices) -> bool:
    """Do the x-side and y-side concatenations agree in value and length?"""
    indices = list(indices)
    if not indices:
        raise ValueError("a solution is a nonempty index sequence")
    x, y = _prefixes(instance, indices)[-1]
    return x == y


@functools.lru_cache(maxsize=1)
def encode(instance: PCPInstance) -> tuple[tuple[Formula, ...], Formula]:
    """Premise set and conclusion of the reduction, in variables x, y, z.

    The premises are: for each variable p, "a world with successors gives box
    and diamond of p the same value"; "a world with successors keeps z stable
    under box"; and one big disjunction tying x and y at a world to the
    values one step up, shifted by each pair of the instance.  The conclusion
    is refutable exactly on chain models that spell out a solution.  Its
    powers are square-and-multiply products, so it has O(L) nodes for
    numerals of L digits.  The last encoding is kept, so a round trip builds
    it once.
    """
    s = instance.base
    not_box_zero = neg(Box(ZERO))
    premises: list[Formula] = [
        Implies(not_box_zero, iff(Box(p), Diamond(p))) for p in (X, Y, Z)
    ]
    premises.append(Implies(not_box_zero, iff(Z, Box(Z))))
    disjuncts = []
    for xn, yn in instance.pairs:
        dx = iff(X, Times(fpow(Box(X), s ** xn.length), fpow(Z, xn.value)))
        dy = iff(Y, Times(fpow(Box(Y), s ** yn.length), fpow(Z, yn.value)))
        disjuncts.append(And(dx, dy))
    premises.append(functools.reduce(Or, disjuncts))
    conclusion = Implies(fpow(iff(X, Y), 2), Or(Implies(X, Times(X, Z)), Z))
    return tuple(premises), conclusion


def _chain_base(alg: Algebra, r: int) -> Value:
    """An element with a^(r+1) < a^r: r/(r+1) in standard MV (so a^r is
    exactly 1/(r+1) and a^(r+1) is 0), the formal generator in the chain."""
    if isinstance(alg, StdMV):
        return Fraction(r, r + 1)
    if isinstance(alg, ExpChain):
        return ExpValue(Fraction(1))
    raise ValueError(f"unsupported countermodel algebra {alg.kind!r}")


def build_chain_model(instance: PCPInstance, indices, alg: Algebra) -> KripkeModel:
    """Chain model spelled out by an index sequence, solution or not.

    World j (1-based from the successor-free end) values x and y by the
    powers a^(x-concatenation of the first j indices) and analogously for y;
    z is the constant a.  The base a is non-contractive at the larger of the
    two full concatenation values.
    """
    indices = list(indices)
    if not indices:
        raise ValueError("need a nonempty index sequence")
    prefixes = _prefixes(instance, indices)
    k = len(indices)
    a = _chain_base(alg, max(n.value for n in prefixes[-1]))
    width = len(str(k))
    worlds = [f"v{j:0{width}d}" for j in range(1, k + 1)]
    edges = [(worlds[j], worlds[j - 1]) for j in range(1, k)]
    valuation = {w: {"x": alg.power(a, x.value), "y": alg.power(a, y.value), "z": a}
                 for w, (x, y) in zip(worlds, prefixes)}
    return KripkeModel(KripkeFrame(worlds, edges), alg, valuation)


def build_countermodel(instance: PCPInstance, indices, alg: Algebra) -> KripkeModel:
    """Countermodel for the encoding from a verified solution."""
    if not verify_solution(instance, indices):
        raise ValueError(f"{list(indices)} is not a solution of the instance")
    return build_chain_model(instance, indices, alg)


def _chain_order(model: KripkeModel, top: str) -> list[str]:
    """Worlds from ``top`` down to the successor-free end; error when the
    model is not a successor chain through all of its worlds."""
    order = _successor_path(model.frame, top)
    if model.frame != KripkeFrame(order, zip(order, order[1:])):
        raise ValueError("model is not a single successor chain from the "
                         "given top world")
    return order


def _exponent_of(alg: Algebra, base: Value, value: Value) -> int:
    """Recover n with value = base^n, exactly."""
    if isinstance(alg, ExpChain):
        if value == alg.one:
            return 0
        if value.is_zero or base.is_zero or base.exponent == 0:
            raise ValueError("exponent not recoverable")
        n = value.exponent / base.exponent
        if n.denominator != 1 or n < 0:
            raise ValueError(f"{value!r} is not a power of {base!r}")
        return int(n)
    if isinstance(alg, StdMV):
        if value == 1:
            return 0
        if base in (0, 1) or value == 0:
            raise ValueError("exponent not recoverable")
        n = (1 - value) / (1 - base)
        if n.denominator != 1 or n < 0:
            raise ValueError(f"{value} is not a power of {base}")
        return int(n)
    raise ValueError(f"unsupported extraction algebra {alg.kind!r}")


def extract_solution(instance: PCPInstance, model: KripkeModel, top: str) -> list[int]:
    """Read a solution off a chain countermodel.

    Walking from the successor-free end upward, picks at each world the least
    disjunct of the big-disjunction premise that evaluates to 1 there.  The
    result is certified: the values of x and y must be the powers of the
    constant z-value dictated by the chosen indices, and the indices must
    verify as a solution, digit counts included.
    """
    gamma, phi = encode(instance)
    order = _chain_order(model, top)
    disjuncts = []
    cursor = gamma[-1]
    while isinstance(cursor, Or):
        disjuncts.append(cursor.right)
        cursor = cursor.left
    disjuncts.append(cursor)
    disjuncts.reverse()
    # the disjuncts are subformulas of the last premise: one pass, no new nodes
    cols = evaluate_all(model, gamma + tuple(disjuncts))
    premise_cols, disjunct_cols = cols[:len(gamma)], cols[len(gamma):]
    alg = model.algebra
    for k, w in enumerate(model.worlds):  # globally_satisfies' scan order
        for col in premise_cols:
            if col[k] != alg.one:
                raise ValueError(
                    f"model does not satisfy the encoding premises "
                    f"(world {w!r}, value {col[k]!r})")
    if evaluate(model, top, phi) == alg.one:
        raise ValueError("conclusion is not refuted at the top world")

    alpha = model.value(top, "z")
    indices: list[int] = []
    pos = {w: k for k, w in enumerate(model.worlds)}
    for w in reversed(order):  # successor-free end first
        for i, col in enumerate(disjunct_cols, start=1):
            if col[pos[w]] == alg.one:
                indices.append(i)
                break
        else:
            raise ValueError(f"no disjunct holds at world {w!r}")

    # certify by exponent recovery against the concatenation values
    for j, (w, (x, y)) in enumerate(zip(reversed(order), _prefixes(instance, indices)),
                                    start=1):
        got_x = _exponent_of(alg, alpha, model.value(w, "x"))
        got_y = _exponent_of(alg, alpha, model.value(w, "y"))
        if (got_x, got_y) != (x.value, y.value):
            raise ValueError(
                f"world {w!r} carries powers ({got_x}, {got_y}), expected "
                f"({x.value}, {y.value}) from indices {indices[:j]}")
    # values do not fix digit counts: all-zero words of different lengths
    # have equal powers
    if not verify_solution(instance, indices):
        raise ValueError(
            f"indices {indices} spell x and y words whose values agree but "
            f"whose lengths do not; not a solution")
    return indices


def find_solutions(instance: PCPInstance, max_length: int):
    """All solutions up to the given length, by exhaustive search."""
    out = []
    for k in range(1, max_length + 1):
        for seq in itertools.product(range(1, instance.size + 1), repeat=k):
            if verify_solution(instance, seq):
                out.append(list(seq))
    return out


def instance_to_json(instance: PCPInstance) -> dict:
    return {
        "base": instance.base,
        "pairs": [[[str(x.value), x.length], [str(y.value), y.length]]
                  for x, y in instance.pairs],
    }


def instance_from_json(obj: dict) -> PCPInstance:
    if not (isinstance(obj, dict) and isinstance(obj.get("pairs"), list) and all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(side, list) and len(side) == 2 for side in pair)
            for pair in obj["pairs"])):
        raise ValueError("an instance must be a JSON object whose 'pairs' list "
                         "holds [[value, length], [value, length]] pairs")
    pairs = tuple(
        tuple(Numeral(int_from_json(value, "a numeral's value"),
                      int_from_json(length, "a numeral's length"))
              for value, length in pair)
        for pair in obj["pairs"])
    return PCPInstance(int_from_json(obj.get("base"), "'base'"), pairs)


def load_instance(path: str) -> PCPInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))
