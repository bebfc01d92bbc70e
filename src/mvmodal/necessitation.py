"""Separating global consequence from local consequence plus necessitation.

The premise set below entails x -> x*y globally: every world of a global
model has a successor, y is constant on each connected part, and x sits below
every power of y, which in the weakly saturated algebras used here forces
x*y = x.  Locally, closing under the necessitation rule only ever prepends
finitely many boxes to the premises, and for each bound N a finite chain
model satisfies all boxed copies up to N at its start world while keeping
x -> x*y below 1 there.

The certificate builds no box tower: one evaluator column of the premises'
conjunction, read along the start world's successor frontiers, settles every
depth in time linear in the model (see :func:`verify_separation`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebras import (Algebra, ExpChain, ExpValue, StdMV, Value,
                       algebra_to_json, value_to_json)
from .formulas import (And, Box, Diamond, Formula, Implies, Times, Var, ZERO,
                       iff, neg)
from .kripke import KripkeFrame, KripkeModel, _columns
from .pcp import _chain_base

__all__ = ["separation_premises", "build_nec_model", "SeparationReport",
           "verify_separation", "build_premise_cycle_model"]

X = Var("x")
Y = Var("y")


def separation_premises() -> tuple[Formula, ...]:
    """The four premises: y stable under box and diamond, x rebuilt from its
    box times y, and every world has a successor (bottom identified with 0)."""
    return (iff(Y, Box(Y)), iff(Y, Diamond(Y)), iff(X, Times(Box(X), Y)),
            neg(Box(ZERO)))


def build_nec_model(n: int, alg: Algebra) -> KripkeModel:
    """Chain 0 -> 1 -> ... -> n+1 with y constantly a, x = 1 at the end and
    x = a^(n+1-i) below it; the start world carries the forced values
    x = a^(n+1), y = a."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = _chain_base(alg, n + 2)  # 1 > a > a^2 > ... > a^(n+2)
    width = len(str(n + 1))
    names = [f"{i:0{width}d}" for i in range(n + 2)]
    edges = [(names[i], names[i + 1]) for i in range(n + 1)]
    valuation = {}
    for i in range(n + 2):
        x = alg.one if i == n + 1 else alg.power(a, n + 1 - i)
        valuation[names[i]] = {"x": x, "y": a}
    return KripkeModel(KripkeFrame(names, edges), alg, valuation)


@dataclass(frozen=True)
class SeparationReport:
    n: int
    algebra: Algebra
    levels: tuple[tuple[int, bool], ...]  # (i, all of box^i Sigma equal 1 at 0)
    final_value: Value                    # x -> x*y at the start world
    model: KripkeModel

    @property
    def passed(self) -> bool:
        return (all(ok for _, ok in self.levels)
                and self.final_value != self.algebra.one)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "algebra": algebra_to_json(self.algebra),
            "levels": [{"i": i, "holds": ok} for i, ok in self.levels],
            "final_value": value_to_json(self.algebra, self.final_value),
            "passed": self.passed,
            "table": [
                {"world": w,
                 "x": value_to_json(self.algebra, self.model.value(w, "x")),
                 "y": value_to_json(self.algebra, self.model.value(w, "y"))}
                for w in self.model.worlds
            ],
        }


def verify_separation(n: int, alg: Algebra) -> SeparationReport:
    """Certify the chain model: every boxed copy of the premises up to depth n
    takes value 1 at the start world, while x -> x*y stays below 1 there.

    Box is the meet over successors, so box^i f at a world w is the meet of
    f over the worlds exactly i steps from w, the empty meet being 1.  A
    meet is 1 exactly when each of its arguments is, so every box^i premise
    is 1 at w exactly when the premises' conjunction is 1 at every world of
    w's i-th successor frontier.  One column of the conjunction thus decides
    every level, read along the frontiers S_0 = {start} and
    S_(i+1) = succ(S_i).  This is exact on any frame; on the chain each
    frontier is one world.
    """
    model = build_nec_model(n, alg)
    (sigma, final), decode, one = _columns(
        model, [functools.reduce(And, separation_premises()), Implies(X, Times(X, Y))])
    good = {w for w, c in zip(model.worlds, sigma) if c == one}
    levels, frontier = [], {model.worlds[0]}
    for i in range(n + 1):
        levels.append((i, frontier <= good))
        frontier = set().union(*map(model.frame.successors, frontier))
    return SeparationReport(n, alg, tuple(levels), decode(final[0]), model)


def build_premise_cycle_model(k: int, alpha: Value,
                              alg: Algebra | None = None) -> KripkeModel:
    """A k-cycle satisfying the premises globally: y is the constant alpha and
    x is 0, so x = (box x) * y holds and every world has a successor."""
    if k < 1:
        raise ValueError("cycle length must be at least 1")
    if alg is None:
        alg = ExpChain() if isinstance(alpha, ExpValue) else StdMV()
    alpha = alg.require(alpha)
    width = len(str(k - 1)) if k > 1 else 1
    names = [f"{i:0{width}d}" for i in range(k)]
    edges = [(names[i], names[(i + 1) % k]) for i in range(k)]
    valuation = {w: {"x": alg.zero, "y": alpha} for w in names}
    return KripkeModel(KripkeFrame(names, edges), alg, valuation)
