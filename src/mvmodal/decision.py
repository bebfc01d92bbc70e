"""Propositional consequence decisions and the finite-frame reduction.

Two propositional backends are provided: an exact case split over rational
LPs for the standard MV algebra (:func:`luk_consequence`), and a
backtracking sweep of one straight-line program for finite algebras
(:func:`finite_consequence`).  On top of them sit the frame decision, the
cardinality-bound decision over one frame per isomorphism class, and the
co-enumerator of non-consequences; over a finite chain the cardinality
decision first tries to prove a pair on every frame at once, by type
elimination (:func:`_types_hold`).  Global consequence over a finite frame
is propositional consequence over the source variables at each world.  Both
backends read one value-numbered fold of an integer template of the source
formulas on the frame (:func:`mvmodal.kripke._fold`, :func:`_numbering`),
the LP as a node table in the fold's own numbering and the sweep as a
program; neither builds an image formula.  What reads no edge is built
once, so a frame of a cardinality sweep costs one fold and its search.

Every countermodel is re-checked once before it is returned
(:func:`_folded`): the backend's point is folded over the template the
decision holds, on the algebra's carrier, as
:func:`mvmodal.kripke.evaluate_all` folds; a frame's on the frame, and a
propositional one on one world with no edge.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import attrgetter, gt, lt, ne
from fractions import Fraction
from typing import Iterable, Sequence

from . import lp
from .algebras import Algebra, FiniteTable, MVn, ResourceLimitError, StdMV
from .formulas import (And, Box, Const0, Const1, Diamond, Formula, Implies,
                       ONE, Or, Times, Var, ZERO, _template, fresh_names,
                       iff, is_propositional, render, variables)
from .kripke import (_OPERATION, KripkeFrame, KripkeModel, Verdict, Witness,
                     _POINT, _carrier_columns, _fold, _reads)

__all__ = [
    "BRANCH_GUARD_DEFAULT", "CARDINALITY_CAP_DEFAULT", "FINITE_SEARCH_GUARD",
    "FrameTranslation", "luk_consequence", "finite_consequence",
    "translate_on_frame", "decide_on_frame", "decide_cardinality",
    "EmittedNonConsequence", "coenumerate_nonconsequences",
]

BRANCH_GUARD_DEFAULT = 2 ** 24
CARDINALITY_CAP_DEFAULT = 3
FINITE_SEARCH_GUARD = 10 ** 7
# type elimination decides a pair with a source variable and at most this
# many types (3 atoms over a 3-chain) even where its atoms outnumber one
# frame's variables
_FEW_TYPES = 27
_NAME = attrgetter("name")

class _Unsat(Exception):
    """Premises force a contradiction; the consequence holds vacuously."""


class _Affine:
    """Linear expression c0 + sum(ci * vi) over variables ranging in [0, 1],
    with int coefficients and constant: variables and constants have integer
    forms, and every regime of ``_REGIMES`` keeps forms integer."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: dict | None = None, const: int = 0):
        self.coeffs = coeffs or {}
        self.const = const

    def add(self, other: "_Affine", sign: int = 1) -> "_Affine":
        coeffs = dict(self.coeffs)
        for v, a in other.coeffs.items():
            c = coeffs.get(v, 0) + sign * a
            if c:
                coeffs[v] = c
            else:
                coeffs.pop(v, None)
        return _Affine(coeffs, self.const + sign * other.const)

    def sub(self, other: "_Affine") -> "_Affine":
        return self.add(other, -1)

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def bounds01(self) -> tuple[int, int]:
        """Range of the expression when every variable ranges over [0, 1]."""
        lo = hi = self.const
        for a in self.coeffs.values():
            if a > 0:
                hi += a
            else:
                lo += a
        return lo, hi

    def scaled_at(self, den: int, nums: dict) -> int:
        """``den`` times the value at the point ``nums / den`` (a variable
        missing from ``nums`` is 0)."""
        return sum((a * nums.get(v, 0) for v, a in self.coeffs.items()),
                   self.const * den)


def _row(expr: _Affine, sense: str, rhs: int = 0) -> lp.Constraint:
    return lp.Constraint(expr.coeffs, sense, rhs - expr.const)


_ONE_AFF = _Affine({}, 1)
_ZERO_AFF = _Affine()

# Hähnle's case split (AMAI 1994): per connective, the operand forms (a, b)
# -> (e, low, high), its value being ``low`` where ``e <= 0`` and ``high``
# where ``e >= 0``, whose regime ``e <= 0`` is explored first; then whether
# that value is the max of ``low`` and ``high`` (else the min), and whether
# it falls as its first operand rises (an implication's antecedent)
_REGIMES = {
    Times: (lambda a, b: (s := a.add(b).sub(_ONE_AFF), _ZERO_AFF, s), True, False),
    Implies: (lambda a, b: (d := a.sub(b), _ONE_AFF, _ONE_AFF.sub(d)), False, True),
    And: (lambda a, b: (a.sub(b), a, b), False, False),
    Or: (lambda a, b: (b.sub(a), a, b), True, False),
}
# a node's sign: the search wants it small (read by a conclusion), large
# (read by a premise), or both; a one-sided node's ``t`` is bounded by its
# value on that side only, and a point breaks it on the other side
_SMALL, _LARGE, _BOTH = 1, 2, 3
_FLIP = (0, _LARGE, _SMALL, _BOTH)
_SENSE = (None, ">=", "<=", "==")
_BREAKS = (None, lt, gt, ne)


def _implied(d: _Affine, s: int) -> bool:
    """Whether the [0, 1] bounds give ``d >= 0`` (sign ``s`` small) or ``d
    <= 0`` (large)."""
    lo, hi = d.bounds01()
    return lo >= 0 if s == _SMALL else hi <= 0


class _LukSystem:
    """Case system for standard-MV consequence of one or more conclusions,
    on a node table with children before parents: ``(class, x, y)`` per
    node, with a connective's operand indices or a leaf's key (a name or a
    constant); ``premises`` and ``conclusions`` are root indices.

    Premises are pinned to 1 first.  Each node gets a sign (:meth:`_signs`):
    the search wants a conclusion small and a premise large, an implication
    reads its antecedent with the other sign, and a node may get both.  A
    connective's affine form comes from ``_REGIMES``: ``low`` when the
    [0, 1] bounds of ``e`` give ``e <= 0``, ``high`` when they give ``e >=
    0``, else a variable ``t``.  A node of both signs splits into the
    regimes ``e <= 0, t == low`` and ``e >= 0, t == high``, in that order.
    A node of one sign bounds ``t`` by its value on that side only, ``t >=``
    it wanted small and ``t <=`` it wanted large (Plaisted and Greenbaum, J.
    Symbolic Comput. 2(3), 1986).  Where that side is convex, a max wanted
    small or a min wanted large, that is the two rows ``t >= low, t >=
    high`` (or ``<=``), less those the [0, 1] bounds imply, and no split;
    else the one-row regimes ``t >= low | t >= high`` (or ``<=``), in that
    order.  Every valuation meets the rows with each ``t`` its node's value,
    and a point that meets them folds, from its source variables, to
    premises 1 and a conclusion no larger, as each connective is monotone in
    each operand; :func:`_folded` re-checks it.

    ``base_rows``, shared by every search node, are the pinned
    implications' ``<=`` rows, the convex rows and the other pinned forms'
    ``== 1`` rows; the [0, 1] box of every variable is the LP's bounds,
    ``upper``.
    """

    def __init__(self, table: Sequence[tuple], premises: Sequence[int],
                 conclusions: Sequence[int]):
        self.table, self.premises, self.conclusions = table, premises, conclusions
        # per node, the implications whose antecedent it is
        self.implications: dict[int, list[int]] = {}
        for i, (kind, x, _) in enumerate(table):
            if kind is Implies:
                self.implications.setdefault(x, []).append(i)
        self.pinned = bytearray(len(table))
        self.sign = self._signs()
        self._node_var: dict[int, str] = {}
        self._build()

    def _signs(self) -> bytearray:
        """Each node's sign, ``_SMALL``, ``_LARGE`` or ``_BOTH``, passed from
        the roots down the table."""
        table = self.table
        sign = bytearray(len(table))
        for r in self.conclusions:
            sign[r] |= _SMALL
        for r in self.premises:
            sign[r] |= _LARGE
        for i in range(len(table) - 1, -1, -1):
            kind, x, y = table[i]
            if kind in _REGIMES:
                sign[x] |= _FLIP[sign[i]] if _REGIMES[kind][2] else sign[i]
                sign[y] |= sign[i]
        return sign

    def _pin(self, roots: Iterable[int]) -> None:
        """Pin nodes to value 1, closing under the exact consequences: a
        product or meet equal to 1 forces both operands to 1, and a pinned
        implication with pinned antecedent forces its consequent."""
        table, pinned = self.table, self.pinned
        stack = list(roots)
        while stack:
            i = stack.pop()
            if pinned[i]:
                continue
            kind, x, y = table[i]
            if kind is Const0:
                raise _Unsat
            pinned[i] = 1
            if kind is Times or kind is And:
                stack += (x, y)
            elif kind is Implies and pinned[x]:
                stack.append(y)
            stack += [table[g][2] for g in self.implications.get(i, ()) if pinned[g]]

    def _affine_pass(self) -> None:
        # per split: its node and regimes' rows, and its variable, forms and
        # sign; per forced row, its node
        self.splits: list[tuple[int, list[list[lp.Constraint]]]] = []
        self.split_forms: list[tuple[str, _Affine, _Affine, _Affine, int]] = []
        self.forced_rows: list[tuple[int, lp.Constraint]] = []
        pinned, aff = self.pinned, []
        self.affine: list[_Affine] = aff
        for i, (kind, x, y) in enumerate(self.table):
            if kind is Const0:
                a = _ZERO_AFF
            elif kind is Const1:
                a = _ONE_AFF
            elif kind is Var:
                a = _ONE_AFF if pinned[i] else _Affine({"v:" + x: 1})
            elif kind is Implies and pinned[i]:
                # a -> b = 1 is exactly a <= b; no case split needed
                a = _ONE_AFF
                d = aff[x].sub(aff[y])
                if d.is_const:
                    if d.const > 0:
                        raise _Unsat
                else:
                    self.forced_rows.append((i, _row(d, "<=")))
            else:
                regimes, is_max, _ = _REGIMES[kind]
                e, low, high = regimes(aff[x], aff[y])
                lo, hi = e.bounds01()
                if hi <= 0:
                    a = low
                elif lo >= 0:
                    a = high
                else:
                    var = self._node_var.setdefault(i, f"n:{len(self._node_var)}")
                    a = _Affine({var: 1})
                    s = self.sign[i]
                    sides = [a.sub(low), a.sub(high)]
                    if s == _BOTH:
                        regimes = [[_row(e, "<="), _row(sides[0], "==")],
                                   [_row(e, ">="), _row(sides[1], "==")]]
                    else:
                        regimes = [[_row(d, _SENSE[s])] for d in sides]
                    if s != _BOTH and (s == _SMALL) == is_max:  # convex: no split
                        self.forced_rows += [(i, row) for (row,), d in zip(regimes, sides)
                                             if not _implied(d, s)]
                    else:
                        self.splits.append((i, regimes))
                        self.split_forms.append((var, e, low, high, s))
            aff.append(a)

    def _build(self) -> None:
        table, pinned = self.table, self.pinned
        self._pin(self.premises)
        while True:
            self._affine_pass()
            # a pinned implication whose antecedent folded to the constant 1
            # pins its consequent; pinned only grows, so this terminates
            new = [y for i, (kind, x, y) in enumerate(table)
                   if kind is Implies and pinned[i] and not pinned[y]
                   and self.affine[x].is_const and self.affine[x].const == 1]
            if not new:
                break
            self._pin(new)
        self.base_rows = [row for _, row in self.forced_rows]
        for a in itertools.compress(self.affine, pinned):
            if a.is_const:
                if a.const != 1:
                    raise _Unsat
            else:
                self.base_rows.append(_row(a, "==", 1))
        # the [0, 1] box of every variable in play, as the LP's bounds; every
        # row is built from the affine forms, so they name them all
        self.upper = dict.fromkeys(
            sorted({v for a in self.affine for v in a.coeffs}), 1)

    def scope(self, c: int) -> tuple[Sequence[int], list, dict]:
        """The splits under the premises or the conclusion ``c``, last first,
        the base rows of the nodes under them, and the [0, 1] bounds of the
        variables their forms read: the rows and ``c``'s form read no other
        split's ``t``."""
        if len(self.conclusions) == 1:  # every node is under the premises or c
            return range(len(self.splits) - 1, -1, -1), self.base_rows, self.upper
        # on one world with no edge, a node is read where it is under the roots
        under = _reads(self.table, (*self.premises, c), _POINT, modal=True)
        order = [k for k in range(len(self.splits) - 1, -1, -1)
                 if under[self.splits[k][0]]]
        # the pinned forms' rows, under the premises, follow the forced rows
        rows = [row for i, row in self.forced_rows if under[i]]
        rows += self.base_rows[len(self.forced_rows):]
        return order, rows, dict.fromkeys(sorted(
            {v for a in itertools.compress(self.affine, under) for v in a.coeffs}), 1)

    def violated(self, den: int, nums: dict, order: Iterable[int]) -> int:
        """The first split index in ``order`` whose variable the point
        ``nums / den`` puts on the wrong side of its connective's value,
        ``low`` where ``e <= 0`` and ``high`` where ``e >= 0``: below it
        where the node is wanted small, above it where large, and off it
        where both; or -1.  A split with a regime among the rows solved is
        never returned."""
        for k in order:
            var, e, low, high, s = self.split_forms[k]
            want = low if e.scaled_at(den, nums) <= 0 else high
            if _BREAKS[s](nums.get(var, 0), want.scaled_at(den, nums)):
                return k
        return -1


def luk_consequence(gamma: Iterable[Formula], phi: Formula, *,
                    branch_guard: int = BRANCH_GUARD_DEFAULT) -> Verdict:
    """Does ``phi`` take value 1 under every [0,1]-MV valuation making all of
    ``gamma`` equal to 1?

    Decided exactly by a depth-first case split over rational LPs on the
    node table of the formulas (:func:`_template`).  If pinning and [0, 1]
    folding leave ``phi`` the constant 1, it holds with no LP: both are
    exact wherever the premises hold.  Each search node maximizes ``1 -
    value(phi)`` over the base rows and its path's regime rows, every
    variable in [0, 1], so a split not yet branched on is a free ``t``; an
    optimum that is not positive prunes it.  A point that puts no split's
    ``t`` on the wrong side of its connective's value, the side its sign
    rules out (:class:`_LukSystem`), is a countermodel at least as bad as
    its fold, which :func:`_folded` re-checks; else the node branches on
    the first split it gets wrong, last in the table first (nearest the
    conclusion), into its two regimes, whose rows put that ``t`` on the
    right side, so no path branches twice on one split: the
    MILP rule of branching only on a disjunction the relaxation violates
    (Achterberg, Koch and Martin, Oper. Res. Lett. 33, 2005).  A child LP
    is warm-started from its parent's optimal tableau (``lp.solve_max``'s
    ``start``), with a cold solve's status and optimum.  The optimum and the
    point are read as ints; Fractions are built only for the witness.  The
    guard bounds the number of explored search nodes.
    """
    held = _propositional(tuple(gamma) + (phi,))
    _, _, (template, at) = held
    found = _luk_countermodel(template, at[:-1], at[-1:], branch_guard)
    if found is None:
        return Verdict(True)
    return _folded(None, StdMV(), held, phi, found[1])


def _luk_countermodel(table: Sequence[tuple], premises: Sequence[int],
                      conclusions: Sequence[int],
                      branch_guard: int) -> tuple[int, dict] | None:
    """The index of the first ``conclusions`` root that some [0,1]-MV
    valuation making all ``premises`` roots of the node ``table`` equal to 1
    takes below 1, and that valuation, not yet re-checked; None if none.
    One case system serves every conclusion.  Each gets the search of
    :func:`luk_consequence` in turn, over its :meth:`_LukSystem.scope`,
    unless it folds to 1 or is an earlier one's node.  The guard counts the
    search nodes of all the conclusions.  A point that breaks a split already
    branched on along its path, which :meth:`_LukSystem.violated` promises
    never to return, is a fault: it raises ``RuntimeError``."""
    try:
        system = _LukSystem(table, premises, conclusions)
    except _Unsat:
        return None
    explored = 0
    for i, c in enumerate(conclusions):
        conclusion = system.affine[c]
        if (conclusion.is_const and conclusion.const == 1) or c in conclusions[:i]:
            continue
        order, rows, upper = system.scope(c)
        objective = {v: -a for v, a in conclusion.coeffs.items()}
        offset = 1 - conclusion.const
        # depth first over (rows, parent result, bit k for each split k
        # branched on along the path); the first regime goes on last
        stack: list[tuple[list, lp.LPResult | None, int]] = [(rows, None, 0)]
        while stack:
            rows, parent, path = stack.pop()
            explored += 1
            if explored > branch_guard:
                raise ResourceLimitError(
                    f"case-split guard exceeded ({branch_guard} branches)")
            res = lp.solve_max(objective, rows, upper=upper, start=parent)
            if res.status == "infeasible" or res.optimum.num <= -offset * res.optimum.den:
                continue
            den, nums = res.scaled_point()
            k = system.violated(den, nums, order)
            if k < 0:
                leaves = sorted((x, v) for v, (kind, x, _) in enumerate(table)
                                if kind is Var)
                return i, {x: Fraction(system.affine[v].scaled_at(den, nums), den)
                           for x, v in leaves}
            if path >> k & 1:
                raise RuntimeError(f"case split {k} is violated below its own regime")
            _, regimes = system.splits[k]
            path |= 1 << k
            stack += [(rows + regime, res, path) for regime in reversed(regimes)]
    return None


def _propositional(formulas: tuple[Formula, ...]):
    """What :func:`_per_world_vars` holds, on one world, for ``formulas``,
    which must have no modal operator: each variable's one-world row, no
    modal node, and the template with each formula's index."""
    template, at, _, modal = _template(formulas)
    if modal:
        bad = next(f for f in formulas if not is_propositional(f))
        raise ValueError(f"modal operator in propositional consequence: {render(bad)}")
    names = sorted({x for kind, x, _ in template if kind is Var})
    return {p: (Var(p),) for p in names}, (), (template, at)


def _check_sweep_size(size: int, depth: int, guard: int) -> None:
    if size ** depth > guard:
        raise ResourceLimitError(
            f"{size}^{depth} valuations exceed the search guard {guard}")


def finite_consequence(alg: Algebra, gamma: Iterable[Formula], phi: Formula, *,
                       guard: int | None = None,
                       frame: KripkeFrame | None = None) -> Verdict:
    """Consequence over a finite algebra by backtracking: propositional, or
    global over all models on ``frame``.

    The formulas become one straight-line program (:func:`_sweep_program`),
    each slot with a level: one more than the index of the last variable it
    reads, or 0 for a constant.  The variables are assigned depth first in
    lexicographic order of their names; at depth d only the instructions of
    level d run, and the roots of level d are checked: a premise that is not
    1, or a conclusion that is already 1, prunes the subtree.  So the first
    leaf that passes every check is the lexicographically first
    countermodel.  The guard bounds ``size ** variables`` and the four
    operation tables, both before the tables are built; it is
    ``FINITE_SEARCH_GUARD`` as it reads at the call unless given.  Without
    ``frame`` a modal operator is refused.  A countermodel is re-checked by
    :func:`_folded`.
    """
    if not isinstance(alg, (MVn, FiniteTable)):
        raise ValueError("finite_consequence needs a finite algebra")
    held, free, vals, code, checks, one = _sweep_program(
        alg, tuple(gamma) + (phi,), frame, FINITE_SEARCH_GUARD if guard is None else guard)
    depth, last = len(free), alg.size - 1
    d = 0  # the variables assigned
    while True:
        # run level d's code and checks on the current partial valuation
        for out, table, a, b in code[d]:
            vals[out] = table[vals[a]][vals[b]]
        for root, conclusion in checks[d]:
            if (vals[root] == one) is conclusion:
                break
        else:
            if d == depth:
                break
            vals[d] = 0
            d += 1
            continue
        # pruned: the next value of the last variable that has one
        while d and vals[d - 1] == last:
            d -= 1
        if not d:
            return Verdict(True)
        vals[d - 1] += 1
    carrier = alg.carrier()
    point = {v.name: carrier[k] for v, k in zip(free, vals)}
    return _folded(frame, alg, held, phi, point)


def _sweep_program(alg: Algebra, roots: tuple[Formula, ...],
                   frame: KripkeFrame | None, guard: int):
    """The sweep's program, :func:`_fold` with :func:`_numbering` after both
    guards: what is held of the ``roots`` (:func:`_propositional` without
    ``frame``, :func:`_per_world_vars` with it), the live per-world
    variables in sorted order (slots 0, 1, ...), the slot values, per level
    the instructions ``(slot, table, a, b)`` and checks ``(slot, is
    conclusion)``, and the index of 1."""
    held = (_propositional(roots) if frame is None
            else _per_world_vars(roots, len(frame.worlds)))
    rows, modal, (template, at) = held
    frame = frame or _POINT
    reads = _reads(template, at, frame, modal)
    free = sorted((v for (kind, x, _), m in zip(template, reads) if kind is Var
                   for w, v in enumerate(rows[x]) if m >> w & 1), key=_NAME)
    size, depth = alg.size, len(free)
    _check_sweep_size(size, depth, guard)
    if 4 * size * size > guard:
        raise ResourceLimitError(
            f"four {size}x{size} operation tables exceed the search "
            f"guard {guard}")
    tables = alg.tables()  # over element indices, mapped back by carrier()
    slots = {v: k for k, v in enumerate(free)}
    leaves = {p: [slots.get(v) for v in row] for p, row in rows.items()}
    numbers, _, ops = _numbering(depth + 2)
    cols = _fold(template, reads, frame, leaves, ops | {ZERO: depth, ONE: depth + 1})
    top = functools.reduce(ops[And], cols[at[-1]])
    vals = [0] * depth + [tables["zero"], tables["one"]] + [0] * len(numbers)
    level = [*range(1, depth + 1), 0, 0]
    code: list[list[tuple]] = [[] for _ in range(depth + 1)]
    for k, (kind, a, b) in enumerate(numbers, depth + 2):
        level.append(lv := max(level[a], level[b]))
        code[lv].append((k, tables[_OPERATION[kind]], a, b))
    checks: list[list[tuple]] = [[] for _ in range(depth + 1)]
    for g in at[:-1]:
        for k in cols[g]:
            checks[level[k]].append((k, False))
    checks[level[top]].append((top, True))
    return held, free, vals, code, checks, tables["one"]


def _numbering(first: int):
    """The dict of the numbers, in order, ``number(class, x, y)``, which
    numbers each new triple from ``first`` on (equal triples share a number,
    as equal formulas share a node), and the ``ops`` of :func:`_fold` by it."""
    numbers: dict[tuple, int] = {}

    def number(*node):
        return numbers.setdefault(node, first + len(numbers))
    return numbers, number, {kind: functools.partial(number, kind) for kind in _OPERATION}


class FrameTranslation:
    """Propositional rendering of global consequence over a fixed frame.

    A formula's image at a world is its value in the frame's model whose
    values are formulas, each source variable at each world valued by a
    fresh variable: a box is the meet and a diamond the join of its body's
    images at the successors, ``ONE``/``ZERO`` at a world with none.  The LP
    reads them as a node table (:meth:`_table`).  The named view puts a
    fresh name for each modal subformula at each world instead, pinned by an
    ``iff`` delta; its five attributes come from one fold of the template,
    on first read, which only demo 3 and the finite guard's exact count make.
    """

    def __init__(self, frame: KripkeFrame, gamma: tuple[Formula, ...],
                 phi: Formula):
        self.frame = frame
        self._rows, self._modal, self._template = _per_world_vars(
            gamma + (phi,), len(frame.worlds))

    premises = property(lambda self: self._named[0])
    conclusion = property(lambda self: self._named[1])
    legend = property(lambda self: self._named[2])
    definitions = property(lambda self: self._named[3])
    deltas = property(lambda self: self._named[4])

    @functools.cached_property
    def _named(self):
        """The five named attributes: :meth:`_formulas` with each modal node
        a leaf valued by its fresh names, then one loop over the modal nodes
        that writes each name's legend entry, definition and delta."""
        worlds, rows, (template, _) = self.frame.worlds, self._rows, self._template
        tag = {Box: "box", Diamond: "dia"}
        fresh = iter(fresh_names(
            [*rows, *(v.name for row in rows.values() for v in row)],
            [f"x{tag[type(mf)]}{k}__w{i}" for k, mf in enumerate(self._modal)
             for i in range(len(worlds))]))
        names = {i: tuple(Var(next(fresh)) for _ in worlds)
                 for i, (kind, _, _) in enumerate(template) if kind is Box or kind is Diamond}
        cols, premises, conclusion = self._formulas(
            tuple((Var, i, None) if i in names else node for i, node in enumerate(template)),
            rows | names)
        legend = {v.name: ("var", p, w)
                  for p, row in rows.items() for v, w in zip(row, worlds)}
        definitions, deltas = {}, {w: [] for w in worlds}
        for (i, row), mf in zip(names.items(), self._modal):  # template post-order
            op, unit = (And, ONE) if type(mf) is Box else (Or, ZERO)
            body = cols[template[i][1]]
            for name, w, s in zip(row, worlds, self.frame._index[0]):
                legend[name.name] = (tag[type(mf)], mf.body, w)
                definitions[name.name] = d = (
                    functools.reduce(op, [body[k] for k in s]) if s else unit)
                deltas[w].append(iff(name, d))
        return (premises, functools.reduce(And, conclusion), legend, definitions,
                {w: tuple(ds) for w, ds in deltas.items()})

    def all_premises(self) -> tuple[Formula, ...]:
        return tuple(itertools.chain(self.premises, *self.deltas.values()))

    def inlined(self) -> tuple[tuple[Formula, ...], Formula]:
        """The images of the premises and the conjunction of the
        conclusion's images, as formulas; demo 3 prints them."""
        premises, conclusions = self._images()
        return premises, functools.reduce(And, conclusions)

    def _images(self) -> tuple[tuple[Formula, ...], tuple[Formula, ...]]:
        """The images of the premises, and the conclusion's image at each
        world in ``frame.worlds`` order, by :meth:`_formulas`."""
        return self._formulas(self._template[0], self._rows)[1:]

    def _formulas(self, template: tuple, leaves: dict) -> tuple[list, tuple, tuple]:
        """:func:`_fold` of ``template`` at every world with the formula
        constructors as the operations, each leaf ``leaves[key]``: every
        node's column, the premises' images and the conclusion's column."""
        cols = _fold(template, [(1 << len(self.frame.worlds)) - 1] * len(template),
                     self.frame, leaves, {c: c for c in (*_OPERATION, ZERO, ONE)})
        *premises, conclusion = (cols[r] for r in self._template[1])
        return cols, tuple(g for col in premises for g in col), tuple(conclusion)

    def _table(self) -> tuple[list[tuple], list[int], list[int]]:
        """The node table of :meth:`_images` and its roots, built with no
        formula: the triples of :func:`_fold` with :func:`_numbering`, as
        numbered, children first.  A variable is numbered only at the worlds
        that read it, so it is an LP column only there; 0 and 1 always are
        numbered."""
        template, roots = self._template
        reads = _reads(template, roots, self.frame, self._modal)
        numbers, number, ops = _numbering(0)
        leaves = {x: [number(Var, v.name, None) if m >> w & 1 else None
                      for w, v in enumerate(self._rows[x])]
                  for (kind, x, _), m in zip(template, reads) if kind is Var}
        ops |= {c: number(type(c), c, None) for c in (ZERO, ONE)}
        cols = _fold(template, reads, self.frame, leaves, ops)
        return list(numbers), [k for r in roots[:-1] for k in cols[r]], cols[roots[-1]]


@functools.lru_cache(maxsize=1)
def _per_world_vars(source: tuple[Formula, ...], n: int):
    """What of the translation reads no edge: each source variable's
    variable at each of ``n`` worlds, the modal subformulas in post-order
    and the template with each source formula's index (:func:`_template`).
    The memo serves every frame of a cardinality sweep after the first."""
    template, roots, _, modal = _template(source)
    names = sorted({x for kind, x, _ in template if kind is Var})
    fresh = iter(fresh_names(names, [f"{p}__w{i}" for p in names for i in range(n)]))
    return ({p: tuple(Var(next(fresh)) for _ in range(n)) for p in names},
            modal, (template, roots))


def translate_on_frame(frame: KripkeFrame, gamma: Iterable[Formula],
                       phi: Formula) -> FrameTranslation:
    """Star translation of ``gamma |- phi`` over the given finite frame, as
    the view :class:`FrameTranslation`: what reads no edge comes from the
    memo of :func:`_per_world_vars`, and the rest is built when asked for."""
    return FrameTranslation(frame, tuple(gamma), phi)


def decide_on_frame(frame: KripkeFrame, gamma: Iterable[Formula], phi: Formula,
                    alg: Algebra, *,
                    branch_guard: int = BRANCH_GUARD_DEFAULT) -> Verdict:
    """Global consequence over all models on a fixed finite frame.

    Over the standard MV algebra, it fails exactly when it fails at some
    world, so one case system on :meth:`FrameTranslation._table` holds the
    premises' images and the conclusion's image at each world, and the LP
    searches the worlds in order (:func:`_luk_countermodel`); the first one
    refuted is the witness world, and ``branch_guard`` counts the search
    nodes of all the worlds.  Over a finite algebra it is
    ``finite_consequence(..., frame=frame)``, with a guard that still counts
    the named translation's variables (README, "Guard rails"), built only
    when the legend's length cannot clear it.  A countermodel is re-checked
    once, on the frame, before it is returned (:func:`_folded`).
    """
    gamma = tuple(gamma)
    tr = translate_on_frame(frame, gamma, phi)
    if isinstance(alg, StdMV):
        found = _luk_countermodel(*tr._table(), branch_guard)
        if found is None:
            return Verdict(True)
        at, point = found
        return _folded(frame, alg, (tr._rows, tr._modal, tr._template), phi, point, at)
    if isinstance(alg, (MVn, FiniteTable)):
        guard = FINITE_SEARCH_GUARD
        if alg.size ** ((len(tr._rows) + len(tr._modal)) * len(frame.worlds)) > guard:
            named = variables(tr.all_premises() + (tr.conclusion,))
            _check_sweep_size(alg.size, len(named), guard)
        return finite_consequence(alg, gamma, phi, guard=guard, frame=frame)
    raise ValueError(f"no propositional decision for {alg.kind}: out of scope")


def _folded(frame: KripkeFrame | None, alg: Algebra, held: tuple, phi: Formula,
            point: dict, at: int | None = None) -> Verdict:
    """Failing verdict for a backend's point over the per-world variables of
    ``held`` (:func:`_per_world_vars` on ``frame``, :func:`_propositional`
    without one), re-checked by folding the held template on the algebra's
    carrier (a variable the point lacks is 0): every premise 1 everywhere,
    the conclusion not 1 at ``at``, or else at the first world where it is
    not.  The witness is the point, or the model on ``frame`` built after
    from the columns, whose values the re-check has already validated."""
    rows, _, (template, roots) = held
    columns = {p: [alg.require(point.get(v.name, alg.zero)) for v in row]
               for p, row in rows.items()}
    (*premises, conclusion), decode, one = _carrier_columns(
        alg, template, roots, frame or _POINT, columns)
    what = "countermodel" if frame is None else "folded countermodel"
    if any(c != one for col in premises for c in col):
        raise RuntimeError(f"{what} failed premise re-check")
    if at is None:
        at = next((k for k, c in enumerate(conclusion) if c != one), 0)
    if conclusion[at] == one:
        raise RuntimeError(f"{what} failed conclusion re-check")
    value = decode(conclusion[at])
    if frame is None:
        return Verdict(False, Witness(formula=phi, value=value, valuation=point))
    model = KripkeModel._checked(frame, alg, {
        w: {p: col[i] for p, col in columns.items()} for i, w in enumerate(frame.worlds)})
    return Verdict(False, Witness(world=frame.worlds[at], formula=phi,
                                  value=value, model=model))


@functools.cache
def _least_masks(j: int) -> tuple[int, ...]:
    """The edge masks of ``j``-world frames that no permutation of the worlds
    maps to a smaller mask, in increasing order; bit ``i*j + k`` is the edge
    from world i to world k.  Computed once per ``j``."""
    full = (1 << j) - 1
    # per permutation and world i: the image of every set of edges out of i;
    # the identity comes first and never lowers a mask
    images = [[[sum(1 << (perm[i] * j + perm[k]) for k in range(j) if row >> k & 1)
                for row in range(full + 1)] for i in range(j)]
              for perm in itertools.permutations(range(j))][1:]
    least = []
    for mask in range(2 ** (j * j)):
        rows = [mask >> (i * j) & full for i in range(j)]
        if all(sum(t[row] for t, row in zip(image, rows)) >= mask
               for image in images):
            least.append(mask)
    return tuple(least)


@functools.cache
def _least_frames(j: int) -> tuple[KripkeFrame, ...]:
    """The frames of :func:`_least_masks` on ``w1``..``wj``, once per ``j``."""
    worlds = [f"w{i + 1}" for i in range(j)]
    pairs = [(a, b) for a in worlds for b in worlds]
    return tuple(KripkeFrame(worlds, [pairs[b] for b in range(j * j) if mask >> b & 1])
                 for mask in _least_masks(j))


def _eliminable(j: int, source: tuple[Formula, ...], alg: Algebra) -> bool:
    """Whether :func:`_types_hold` may decide ``source`` for a sweep at ``j``
    worlds, read from the input alone, in this order: ``alg`` is MVn or a
    finite table whose meet is a chain (a meet or join over successors is
    then attained by one of them); its four tables clear the search guard,
    before any is built; ``size ** (atoms * max(j, 2))`` clears it, atoms
    the source variables and the modal subformulas, which is the legend
    bound of :func:`decide_on_frame`, so no frame of the sweep trips a
    guard, and which keeps the types' columns below the guard's square
    root; and there are no more atoms than one frame has source variables,
    or there is a source variable and at most ``_FEW_TYPES`` types.  Past
    those bounds a failing sweep would pay for type columns larger than the
    frames it then decides; with no source variable a frame has a single
    valuation, and a failing sweep at j <= 2 is cheaper without the check.
    Where the check proves nothing it may still settle the sweep's first
    frame (:func:`decide_cardinality`), and the first two rules keep that
    frame clear of every guard.
    """
    if isinstance(alg, FiniteTable):
        if any(m != a and m != b for a, row in enumerate(alg.meet_table)
               for b, m in enumerate(row)):
            return False
    elif not isinstance(alg, MVn):
        return False
    guard = FINITE_SEARCH_GUARD
    if 4 * alg.size * alg.size > guard:
        return False
    rows, modal, _ = _per_world_vars(source, j)
    atoms = len(rows) + len(modal)
    return alg.size ** (atoms * max(j, 2)) <= guard and (
        atoms <= len(rows) * j or (0 < len(rows) and alg.size ** atoms <= _FEW_TYPES))


def _types_hold(alg: Algebra, source: tuple[Formula, ...], j: int) -> bool | None:
    """True if ``source``, premises then conclusion, holds globally on every
    frame over the chain ``alg``, by Pratt's type elimination (FOCS 1979;
    Bou, Esteva, Godo and Rodríguez, J. Logic Comput. 21(5), 2011); False
    if it fails on a frame where every world is a dead end; else None: not
    proved, but it holds on every such frame.  The template is the sweep's
    at ``j`` worlds.

    A type gives each atom, a source variable or a modal node, a value: type
    ``t`` has the base-``size`` digits of ``t``, the modal atoms last, and a
    node's column over the types is one table lookup per type.  The types
    whose premises are 1 survive at first.  ``C(t)`` is the survivors ``s``
    with ``s(body) >= t([]body)`` and ``s(body) <= t(<>body)``, and ``t``
    survives while every box below 1 and every diamond above 0 has a witness
    in ``C(t)`` whose body takes that value; both read only ``t``'s modal
    atoms, so the types of one modal profile survive together.  In any
    model every world's type survives, as a meet or join over a finite set
    of a chain is one of its members, so the pair holds once no survivor
    gives the conclusion a value below 1.  A failing type realized by a dead
    end, whose modal profile has every box 1 and every diamond 0, answers
    False: every world of an edgeless frame may take it.  Past that test no
    failing type lives on a dead end, so a frame of dead ends holds, and a
    failing type realized at the root of a finite tree, built up from the
    dead ends with a profile's witnesses as a world's successors, or an
    elimination that stops with a failing survivor, answers None."""
    tables, size = alg.tables(), alg.size
    meet, one, zero = tables["meet"], tables["one"], tables["zero"]
    rows, modal, (template, at) = _per_world_vars(source, j)
    atoms = len(rows) + len(modal)
    types = size ** atoms
    atom = iter(zip(*itertools.product(range(size), repeat=atoms)))
    leaves = dict(zip(rows, atom))
    cols, bodies = [], []  # per modal atom: is it a box, and its body's column
    for kind, x, y in template:
        if y is not None:
            table = tables[_OPERATION[kind]]
            cols.append([table[a][b] for a, b in zip(cols[x], cols[y])])
        elif kind is Box or kind is Diamond:
            bodies.append((kind is Box, cols[x]))
            cols.append(next(atom))
        else:
            cols.append(leaves[x] if kind is Var
                        else [one if kind is Const1 else zero] * types)

    def masks(col):  # per value, the types where the column takes it
        eq = [0] * size
        for t, v in enumerate(col):
            eq[v] |= 1 << t
        return eq
    alive = functools.reduce(int.__and__, (masks(cols[r])[one] for r in at[:-1]),
                             (1 << types) - 1)
    failing = alive & ~masks(cols[at[-1]])[one]
    period = size ** len(bodies)  # type t has the modal profile t % period
    first = sum(1 << q * period for q in range(types // period))
    # a dead end's profile: every box 1 and every diamond 0
    dead = functools.reduce(lambda p, b: p * size + (one if b[0] else zero), bodies, 0)
    if failing & first << dead:
        return False
    # per modal atom: whether it is a box, the types where its body takes
    # each value, and per value v of the atom the types whose body value a
    # successor may have, at or above v (a box) or at or below it (a diamond)
    modal_atoms = []
    for box, col in bodies:
        eq = masks(col)
        modal_atoms.append((box, eq, [sum(e for u, e in enumerate(eq)
                                          if (meet[v][u] == v if box else meet[u][v] == u))
                                      for v in range(size)]))
    profiles = []  # per modal profile: its first survivors and witness masks
    for p, values in enumerate(itertools.product(range(size), repeat=len(bodies))):
        if not (members := alive & first << p):
            continue
        reach, need = alive, []
        for (box, eq, fits), v in zip(modal_atoms, values):
            reach &= fits[v]
            if v != (one if box else zero):
                need.append(eq[v])
        profiles.append((members, [reach & e for e in need]))

    def realized(within: int) -> int:
        return sum(members for members, need in profiles
                   if all(within & e for e in need))
    # the types of the roots of finite trees, from the dead ends up
    reach, grown = -1, realized(0)
    while grown != reach:
        if grown & failing:
            return None
        reach, grown = grown, realized(grown)
    while alive & failing:
        kept = realized(alive)
        if kept == alive:
            return None
        alive = kept
    return True


def decide_cardinality(j: int, gamma: Iterable[Formula], phi: Formula,
                       alg: Algebra, *, cap: int = CARDINALITY_CAP_DEFAULT,
                       branch_guard: int = BRANCH_GUARD_DEFAULT) -> Verdict:
    """Global consequence over all models of cardinality ``j``: conjunction of
    the frame decision over one frame per isomorphism class, first failure
    returned.

    Over MVn or a finite chain table with few atoms or types
    (:func:`_eliminable`), type elimination first tries to prove the pair on
    every frame at once (:func:`_types_hold`) and holds without deciding any
    frame; if it does not, the sweep below decides, so every failing
    verdict, witness and guard trip is the sweep's.  A failed proof may
    still settle the first frame, mask 0, where every world is a dead end:
    then the sweep starts at the next one.  Of the ``2^(j*j)`` labeled
    frames, only those whose edge mask is the least of its class are
    decided, in increasing mask order.  Isomorphic frames have the same
    verdict, so the first failing labeled mask is the least of its class;
    it is visited, and the witness frame and model are those of the sweep
    over every labeled frame.  The frames and the template are built once;
    each frame costs one fold (:func:`_fold`) and its search.  With no
    modal node a frame reads only its worlds' own variables, so every frame
    has the verdict, search and guard trip of the first, mask 0, decided
    alone.
    """
    if j < 1:
        raise ValueError("cardinality must be at least 1")
    if j > cap:
        raise ResourceLimitError(f"cardinality {j} above cap {cap}")
    gamma = tuple(gamma)
    source = gamma + (phi,)
    proved = _eliminable(j, source, alg) and _types_hold(alg, source, j)
    if proved:
        return Verdict(True)
    frames = _least_frames(j)
    if not _per_world_vars(source, j)[1]:  # no modal node
        frames = frames[:1]
    elif proved is None:  # mask 0, every world a dead end, holds
        frames = frames[1:]
    for frame in frames:
        verdict = decide_on_frame(frame, gamma, phi, alg, branch_guard=branch_guard)
        if not verdict.holds:
            return verdict
    return Verdict(True)


@dataclass(frozen=True)
class EmittedNonConsequence:
    index: int
    premises: tuple[Formula, ...]
    conclusion: Formula
    cardinality: int
    verdict: Verdict


def coenumerate_nonconsequences(pairs: Sequence[tuple[Sequence[Formula], Formula]],
                                budget: int, alg: Algebra | None = None, *,
                                cap: int = CARDINALITY_CAP_DEFAULT
                                ) -> tuple[EmittedNonConsequence, ...]:
    """Dovetailed co-enumeration of refutable pairs at desk scale.

    The finite input list stands in for the enumeration of all pairs, so all
    of it is stored up front.  Stage ``j <= min(budget, cap)`` checks every
    pair not yet refuted at cardinality ``j`` and emits the newly refuted
    pairs with their witnesses.  Each earlier cardinality of such a pair
    held (a failing one refutes it), and stages past ``cap`` decide nothing
    new, so this is the full dovetail over stages ``1..budget``.  Budget
    exhaustion is normal termination.
    """
    if alg is None:
        alg = StdMV()
    emitted: list[EmittedNonConsequence] = []
    done: set[int] = set()
    for j in range(1, min(budget, cap) + 1):
        for idx, (gamma, phi) in enumerate(pairs):
            if idx in done:
                continue
            verdict = decide_cardinality(j, tuple(gamma), phi, alg, cap=cap)
            if not verdict.holds:
                emitted.append(EmittedNonConsequence(
                    idx, tuple(gamma), phi, j, verdict))
                done.add(idx)
    return tuple(emitted)
