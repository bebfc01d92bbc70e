"""Finite Kripke frames and models, evaluation, and submodel extractions.

Models are finite by construction, so box/diamond meets and joins are always
defined: an empty meet evaluates to 1 and an empty join to 0.  Models are
treated as immutable after construction and all queries are pure.

The package has one evaluation core, :func:`_fold`, a walk over an integer
template of the formulas, built by the package's one walk over formula nodes
(:func:`~mvmodal.formulas._template`), that computes each node once, at the
worlds that read it (:func:`_reads`), with a table of operations per
connective.  Formulas are hash-consed, so a subformula shared by several
formulas is one node.  :func:`evaluate_all` is the fold over the model's
algebra; the decision procedures fold the same template to number an LP
node table or a sweep program and to re-check each countermodel, a
propositional one on the one-world, edgeless frame.  Over StdMV, MVn and
ExpChain the algebra's fold runs on ints scaled to one common denominator
d, the lcm of the valuation's distinct denominators, exact because the
values generate a finite chain; other algebras use their own.  A value p/q
enters as the int p * (d // q), with no rational arithmetic, and a result
is turned back once per distinct value; a caller that reads one world, as
:func:`evaluate` does, turns back only that world.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .algebras import (Algebra, Value, algebra_from_json, algebra_to_json,
                       value_from_json, value_to_json)
from .formulas import (And, Box, Diamond, Formula, Implies, ONE, Or, Times,
                       Var, ZERO, _template)

__all__ = [
    "KripkeFrame", "KripkeModel", "Witness", "Verdict",
    "evaluate", "evaluate_all", "globally_satisfies", "consequence_witness",
    "height", "heights", "unravel", "extract_chain", "generated_submodel",
    "is_transitive",
    "frame_to_json", "frame_from_json", "model_to_json", "model_from_json",
    "load_model",
]


class KripkeFrame:
    """Finite frame: nonempty world set plus a binary accessibility relation."""

    def __init__(self, worlds: Iterable[str], edges: Iterable[tuple[str, str]]):
        ws = tuple(sorted(set(worlds)))
        if not ws:
            raise ValueError("frame needs at least one world")
        wset = set(ws)
        es = frozenset((a, b) for a, b in edges)
        for a, b in es:
            if a not in wset or b not in wset:
                raise ValueError(f"edge ({a!r}, {b!r}) mentions unknown world")
        self.worlds = ws
        self.edges = es
        succ: dict[str, list[str]] = {w: [] for w in ws}
        for a, b in es:
            succ[a].append(b)
        self._succ = {w: tuple(sorted(vs)) for w, vs in succ.items()}
        self._indexed = None

    def successors(self, w: str) -> tuple[str, ...]:
        if w not in self._succ:
            raise KeyError(f"unknown world {w!r}")
        return self._succ[w]

    @property
    def _index(self) -> tuple[list[list[int]], list[int], list[tuple]]:
        """For :func:`_fold`, built on first use: each world's successors as
        indices into ``worlds``, each world's first successor (``len(worlds)``
        for none), and the further successors of the worlds that have them."""
        if self._indexed is None:  # no lock, unlike functools.cached_property
            pos = {w: i for i, w in enumerate(self.worlds)}
            succ = [[pos[u] for u in self._succ[w]] for w in self.worlds]
            self._indexed = (succ, [js[0] if js else len(succ) for js in succ],
                             [(w, js[1:]) for w, js in enumerate(succ) if len(js) > 1])
        return self._indexed

    def __eq__(self, other):
        return (isinstance(other, KripkeFrame)
                and self.worlds == other.worlds and self.edges == other.edges)

    def __hash__(self):
        return hash((self.worlds, self.edges))

    def __repr__(self):
        return f"KripkeFrame(worlds={self.worlds}, edges={sorted(self.edges)})"


_POINT = KripkeFrame(["w"], ())  # a propositional valuation's frame


class KripkeModel:
    """Frame plus algebra plus a total valuation world x variable -> value."""

    def __init__(self, frame: KripkeFrame, algebra: Algebra,
                 valuation: Mapping[str, Mapping[str, Value]]):
        for w in valuation:
            if w not in frame._succ:
                raise ValueError(f"valuation row for unknown world {w!r}")
        vars_per_world = [frozenset(valuation.get(w, {})) for w in frame.worlds]
        declared = frozenset().union(*vars_per_world)
        for w, vs in zip(frame.worlds, vars_per_world):
            if vs != declared:
                missing = declared - vs
                raise ValueError(f"valuation not total: world {w!r} lacks {sorted(missing)}")
        self.frame = frame
        self.algebra = algebra
        self.variables = tuple(sorted(declared))
        self._val = {w: {p: algebra.require(valuation[w][p]) for p in declared}
                     for w in frame.worlds}

    @classmethod
    def _checked(cls, frame: KripkeFrame, algebra: Algebra,
                 valuation: dict[str, dict[str, Value]]) -> "KripkeModel":
        """The model of a ``valuation`` already known total, one row per world
        of ``frame`` in its order, each over the same variables, and every
        value already through ``algebra.require``: kept as it is."""
        model = cls.__new__(cls)
        model.frame, model.algebra, model._val = frame, algebra, valuation
        model.variables = tuple(sorted(valuation[frame.worlds[0]]))
        return model

    @property
    def worlds(self) -> tuple[str, ...]:
        return self.frame.worlds

    def value(self, world: str, var: str) -> Value:
        try:
            return self._val[world][var]
        except KeyError:
            raise KeyError(f"no value for variable {var!r} at world {world!r}") from None

    def valuation_dict(self) -> dict[str, dict[str, Value]]:
        return {w: dict(vs) for w, vs in self._val.items()}

    def __repr__(self):
        return (f"KripkeModel({len(self.worlds)} worlds, "
                f"{self.algebra!r}, vars={list(self.variables)})")


@dataclass(frozen=True)
class Witness:
    world: str | None = None
    formula: Formula | None = None
    value: Value | None = None
    model: "KripkeModel | None" = None
    valuation: "dict | None" = None


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Witness | None = None

    def __post_init__(self):
        if self.holds and self.witness is not None:
            raise ValueError("holding verdicts carry no witness")
        if not self.holds and self.witness is None:
            raise ValueError("failing verdicts need a witness")


_OPERATION = {And: "meet", Or: "join", Times: "times", Implies: "residuum"}


def _reads(template: tuple, roots: tuple[int, ...], frame: KripkeFrame,
           modal: Sequence | bool) -> list[int]:
    """Per node, the worlds (bit w for world w) where the ``roots`` read it:
    a root everywhere, a connective's operands where it is read, and a box's
    or diamond's body at the successors of the worlds where it is read.
    Without ``modal`` nodes, every node is read everywhere."""
    everywhere = (1 << len(frame.worlds)) - 1
    if not modal:
        return [everywhere] * len(template)
    below = [sum(1 << j for j in js) for js in frame._index[0]]
    reads = [0] * len(template)
    for r in roots:
        reads[r] = everywhere
    for i in range(len(template) - 1, -1, -1):  # parents first
        kind, x, y = template[i]
        if y is not None:
            reads[x] |= reads[i]
            reads[y] |= reads[i]
        elif kind is Box or kind is Diamond:
            for w, s in enumerate(below):
                if reads[i] >> w & 1:
                    reads[x] |= s
    return reads


def _fold(template: tuple, reads: list[int], frame: KripkeFrame,
          leaves: dict, ops: dict) -> list:
    """Each node's values, in worlds order, at the worlds where ``reads``
    has it, from each variable's values ``leaves[name]`` and ``ops``, each
    connective's operation and each constant's value: a box's (a diamond's)
    is ``ops[And]`` (``ops[Or]``) folded over its body's values at the
    successors, ``ops[ONE]`` (``ops[ZERO]``) at a world with none.  A
    connective read at every world is one ``map`` over whole columns.  A
    modal column gathers every world's first successor value, or the unit,
    and folds in the further successors of the worlds that read it; as
    ``meet(1, v) = v`` and ``join(0, v) = v``, this is the fold from 1 and
    0.  A cell where the node is not read is never read."""
    n = len(frame.worlds)
    everywhere = (1 << n) - 1
    cols: list = [None] * len(template)
    for i, (kind, x, y) in enumerate(template):
        m = reads[i]
        if not m:
            continue
        if y is not None:
            a, b, op = cols[x], cols[y], ops[kind]
            if m == everywhere:
                cols[i] = list(map(op, a, b))
            else:
                cols[i] = [op(a[w], b[w]) if m >> w & 1 else None for w in range(n)]
        elif kind is Box or kind is Diamond:
            _, first, further = frame._index
            body = cols[x]
            op, unit = (ops[And], ops[ONE]) if kind is Box else (ops[Or], ops[ZERO])
            # the body is read nowhere only if no world that reads this node
            # has a successor
            col = cols[i] = list(map([*(body or [unit] * n), unit].__getitem__, first))
            for w, js in further:
                if m >> w & 1:
                    v = col[w]
                    for j in js:
                        v = op(v, body[j])
                    col[w] = v
        else:
            cols[i] = leaves[x] if kind is Var else [ops[x]] * n
    return cols


def _carrier_columns(alg: Algebra, template: tuple, roots: tuple[int, ...],
                     frame: KripkeFrame, columns: dict) -> tuple[list, Callable, object]:
    """The ``roots``' columns of :func:`_fold` over ``template`` on the
    algebra's carrier, every node at every world, from each variable's
    values in ``columns``; with the carrier's ``decode`` and its 1."""
    encode, decode, meet, join, times, residuum, zero, one = alg._carrier(
        v for col in columns.values() for v in col)
    leaves = {p: list(map(encode, col)) for p, col in columns.items()}
    cols = _fold(template, _reads(template, roots, frame, ()), frame, leaves,
                 {And: meet, Or: join, Times: times, Implies: residuum,
                  ZERO: zero, ONE: one})
    return [cols[r] for r in roots], decode, one


def _columns(model: KripkeModel,
             formulas: Iterable[Formula]) -> tuple[list, Callable, object]:
    """The columns of :func:`evaluate_all` on the algebra's carrier, its
    ``decode``, which turns a cell back into a value, and its 1."""
    template, roots, _, _ = _template(tuple(formulas))
    columns = {x: [model.value(w, x) for w in model.worlds]
               for kind, x, _ in template if kind is Var}
    return _carrier_columns(model.algebra, template, roots, model.frame, columns)


def evaluate_all(model: KripkeModel, formulas: Iterable[Formula]) -> list[list[Value]]:
    """Values of each formula at every world, in ``model.worlds`` order.

    :func:`_fold` over the algebra's carrier, every node at every world:
    connectives apply the algebra's operations pointwise, and box is the
    meet and diamond the join over the successor values, 1 and 0 at a world
    without successors.  Each node is evaluated once, at all worlds
    together; nodes are told apart by identity, which for hash-consed
    formulas is structure.

    Over StdMV and MVn the columns hold ints n for n/d, d the lcm of the
    valuation's distinct denominators, and a value p/q enters as p * (d//q);
    over ExpChain, ints n for a^(n/d), entered the same way from the
    exponent, and None for the bottom.  Both sets are closed under the
    operations, so the ints are exact; each distinct root value is turned
    back once.  A caller that reads one world, as :func:`evaluate` does,
    turns back only that world's cells.  StdGodel, StdProduct and finite
    tables keep their own values and operations.
    """
    cols, decode, _ = _columns(model, formulas)
    table = {n: decode(n) for n in set().union(*cols)}
    return [list(map(table.__getitem__, col)) for col in cols]


def evaluate(model: KripkeModel, world: str, f: Formula) -> Value:
    """Value of ``f`` at ``world``; see :func:`evaluate_all`."""
    if world not in model._val:
        raise KeyError(f"unknown world {world!r}")
    (col,), decode, _ = _columns(model, [f])
    return decode(col[model.worlds.index(world)])


def globally_satisfies(model: KripkeModel, gamma: Iterable[Formula]) -> Verdict:
    """Do all formulas of ``gamma`` take value 1 at every world?

    The witness is the first failure in (world id, formula order) scan order.
    """
    gamma = tuple(gamma)
    cols = evaluate_all(model, gamma)
    one = model.algebra.one
    for i, w in enumerate(model.worlds):
        for g, col in zip(gamma, cols):
            if col[i] != one:
                return Verdict(False, Witness(world=w, formula=g, value=col[i],
                                              model=model))
    return Verdict(True)


def consequence_witness(model: KripkeModel, gamma: Iterable[Formula],
                        phi: Formula) -> Verdict:
    """Global consequence on a single model: if ``gamma`` holds everywhere,
    ``phi`` must too; a failing verdict names a world where it does not."""
    if not globally_satisfies(model, gamma).holds:
        return Verdict(True)
    return globally_satisfies(model, [phi])


def heights(frame: KripkeFrame) -> dict[str, int | float]:
    """Height of every world: sup of outgoing path lengths, ``inf`` when a
    cycle is reachable."""
    out: dict[str, int | float | None] = {}  # None while on the path
    for root in frame.worlds:
        stack = [(root, False)]
        while stack:
            w, expanded = stack.pop()
            if expanded:  # a successor still on the path closes a cycle
                out[w] = max((math.inf if out[v] is None else out[v] + 1
                              for v in frame.successors(w)), default=0)
            elif w not in out:
                out[w] = None
                stack.append((w, True))
                stack.extend((v, False) for v in frame.successors(w))
    return out


def height(frame: KripkeFrame, w: str) -> int | float:
    if w not in frame._succ:
        raise KeyError(f"unknown world {w!r}")
    return heights(frame)[w]


def unravel(model: KripkeModel, root: str, depth: int) -> KripkeModel:
    """Path tree of the given depth rooted at ``root``.

    Each path copy inherits the valuation of its final source world; for any
    formula of modal depth at most ``depth`` the root evaluates as in the
    source model.  The root keeps its name, and a copy is named by its
    parent's copy, ``/`` and its source world's name with ``\\`` and ``/``
    escaped by a backslash, so distinct paths have distinct names.
    """
    if depth < 0:
        raise ValueError("negative depth")
    if root not in model._val:
        raise KeyError(f"unknown world {root!r}")
    source = {root: root}  # copy -> its final source world
    edges: list[tuple[str, str]] = []
    frontier = [root]
    for _ in range(depth):
        nxt = []
        for copy in frontier:
            for w in model.frame.successors(source[copy]):
                child = copy + "/" + w.replace("\\", "\\\\").replace("/", "\\/")
                source[child] = w
                edges.append((copy, child))
                nxt.append(child)
        frontier = nxt
    valuation = {copy: {v: model.value(w, v) for v in model.variables}
                 for copy, w in source.items()}
    return KripkeModel(KripkeFrame(source, edges), model.algebra, valuation)


def _successor_path(frame: KripkeFrame, root: str) -> list[str]:
    """``root``, then each world's least successor, up to a world without
    successors or the first repeat (left out)."""
    path = [root]
    seen = {root}
    while True:
        succ = frame.successors(path[-1])
        if not succ or succ[0] in seen:
            return path
        path.append(succ[0])
        seen.add(succ[0])


def extract_chain(model: KripkeModel, root: str) -> KripkeModel:
    """Submodel on one successor chain from ``root`` down to a successor-free
    world, taking the least-id successor at every step.

    Requires ``root`` to have finite height.
    """
    if root not in model._val:
        raise KeyError(f"unknown world {root!r}")
    if height(model.frame, root) == math.inf:
        raise ValueError(f"world {root!r} has infinite height (reachable cycle)")
    return _restrict(model, _successor_path(model.frame, root))


def generated_submodel(model: KripkeModel, w: str) -> KripkeModel:
    """Restriction to the worlds reachable from ``w`` (including ``w``)."""
    if w not in model._val:
        raise KeyError(f"unknown world {w!r}")
    seen = {w}
    stack = [w]
    while stack:
        u = stack.pop()
        for v in model.frame.successors(u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return _restrict(model, seen)


def _restrict(model: KripkeModel, worlds: Iterable[str]) -> KripkeModel:
    """Submodel on ``worlds``: the edges between them and their valuation."""
    keep = set(worlds)
    edges = [(a, b) for a, b in model.frame.edges if a in keep and b in keep]
    valuation = {w: {v: model.value(w, v) for v in model.variables} for w in keep}
    return KripkeModel(KripkeFrame(keep, edges), model.algebra, valuation)


def is_transitive(frame: KripkeFrame) -> bool:
    for a, b in frame.edges:
        for c in frame.successors(b):
            if (a, c) not in frame.edges:
                return False
    return True


def frame_to_json(frame: KripkeFrame) -> dict:
    return {"worlds": list(frame.worlds),
            "edges": [list(e) for e in sorted(frame.edges)]}


def _shaped(obj, kind: type, what: str):
    if not isinstance(obj, kind):
        raise ValueError(f"{what} must be a JSON {'object' if kind is dict else 'list'}")
    return obj


def _world_names(items: list) -> list:
    for w in items:
        if not isinstance(w, str):
            raise ValueError(f"world names must be JSON strings, not {w!r}")
    return items


def frame_from_json(obj: dict) -> KripkeFrame:
    obj = _shaped(obj, dict, "a frame or model")
    edges = [tuple(_world_names(_shaped(e, list, "an edge")))
             for e in _shaped(obj.get("edges"), list, "edges")]
    return KripkeFrame(_world_names(_shaped(obj.get("worlds"), list, "worlds")), edges)


def model_to_json(model: KripkeModel) -> dict:
    return {
        "algebra": algebra_to_json(model.algebra),
        "worlds": list(model.worlds),
        "edges": [list(e) for e in sorted(model.frame.edges)],
        "valuation": {w: {p: value_to_json(model.algebra, model.value(w, p))
                          for p in model.variables}
                      for w in model.worlds},
    }


def model_from_json(obj: dict) -> KripkeModel:
    frame = frame_from_json(obj)
    algebra = algebra_from_json(obj.get("algebra"))
    rows = _shaped(obj.get("valuation", {}), dict, "a valuation")
    valuation = {w: {p: value_from_json(algebra, raw)
                     for p, raw in _shaped(row, dict, "a valuation row").items()}
                 for w, row in rows.items()}
    return KripkeModel(frame, algebra, valuation)


def load_model(path: str) -> KripkeModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
