"""Reference oracles for the pruned finite search in ``mvmodal.decision``.

``finite_consequence`` is the brute-force sweep that ``mvmodal.decision``
used before it backtracked, kept verbatim: every valuation in
``itertools.product`` order runs the premises up to the first that fails,
then the conclusion.  ``decide_cardinality`` decides every labeled frame of
the given size in increasing mask order, before frames were cut to one per
isomorphism class.  Both return the first countermodel in the same order as
the package, so the differential tests require equal verdicts, witnesses
included.  ``named_translation`` is the named frame translation as a
``bottom_up`` rule per node, before it became a fold of the template; its
modal step reads the frame's successors itself, so it shares no code with
the fold's successor gather.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterable

from mvmodal.algebras import (Algebra, FiniteTable, MVn, ResourceLimitError,
                              mv_chain_tables)
from mvmodal.decision import (FINITE_SEARCH_GUARD, _folded, _per_world_vars,
                              _propositional, decide_on_frame)
from mvmodal.formulas import (ONE, ZERO, And, Box, Const0, Const1, Diamond,
                              Formula, Or, Var, bottom_up, fresh_names, iff,
                              postorder)
from mvmodal.kripke import _OPERATION, KripkeFrame, Verdict


def finite_consequence(alg: Algebra, gamma: Iterable[Formula], phi: Formula, *,
                       guard: int = FINITE_SEARCH_GUARD) -> Verdict:
    """Brute-force propositional consequence over a finite algebra.

    The formulas become one straight-line program: slot k holds the k-th
    node (the variables first), and each connective is one table lookup on
    two earlier slots.  Per valuation, the premises run in order up to the
    first that fails, and the conclusion runs only if none does.
    """
    if not isinstance(alg, (MVn, FiniteTable)):
        raise ValueError("finite_consequence needs a finite algebra")
    gamma = tuple(gamma)
    roots = gamma + (phi,)
    held = _propositional(roots)  # refuses a modal operator
    nodes = postorder(roots)
    names = sorted(f.name for f in nodes if isinstance(f, Var))
    # MVn sweeps its index tables: index k stands for k/(n-1)
    if isinstance(alg, MVn):
        tables = mv_chain_tables(alg.n)
    else:
        tables = {"size": alg.size, "meet": alg.meet_table,
                  "join": alg.join_table, "times": alg.times_table,
                  "residuum": alg.residuum_table, "zero": alg.zero_index,
                  "one": alg.one_index}
    size = tables["size"]
    if size ** len(names) > guard:
        raise ResourceLimitError(
            f"{size}^{len(names)} valuations exceed the search guard {guard}")
    slot = {id(Var(p)): k for k, p in enumerate(names)}
    vals = [0] * len(names)
    code: list[tuple] = []  # (slot, table, left slot, right slot) per connective
    steps: list[tuple[list[tuple], int]] = []  # per root: the code it adds, its slot
    for f in nodes:
        if id(f) not in slot:
            slot[id(f)] = len(vals)
            if isinstance(f, (Const0, Const1)):
                vals.append(tables["zero" if isinstance(f, Const0) else "one"])
            else:
                vals.append(0)
                code.append((slot[id(f)], tables[_OPERATION[type(f)]],
                             slot[id(f.left)], slot[id(f.right)]))
        # roots close in order, each as soon as it has a slot
        while len(steps) < len(roots) and id(roots[len(steps)]) in slot:
            steps.append((code, slot[id(roots[len(steps)])]))
            code = []
    one = tables["one"]
    conc_code = steps[-1][0]
    for assign in itertools.product(range(size), repeat=len(names)):
        vals[:len(names)] = assign
        for step, root in steps:
            for out, table, a, b in step:
                vals[out] = table[vals[a]][vals[b]]
            if vals[root] != one:
                break
        if step is conc_code and vals[root] != one:  # every premise holds
            valuation = dict(zip(names, assign))
            if isinstance(alg, MVn):
                valuation = {p: Fraction(k, alg.n - 1) for p, k in valuation.items()}
            return _folded(None, alg, held, phi, valuation)
    return Verdict(True)


def decide_cardinality(j: int, gamma: Iterable[Formula], phi: Formula,
                       alg: Algebra) -> Verdict:
    """The frame decision over all ``2^(j*j)`` labeled frames, first failure
    returned."""
    gamma = tuple(gamma)
    worlds = [f"w{i + 1}" for i in range(j)]
    pairs = [(a, b) for a in worlds for b in worlds]
    for mask in range(2 ** (j * j)):
        edges = [pairs[b] for b in range(j * j) if mask >> b & 1]
        verdict = decide_on_frame(KripkeFrame(worlds, edges), gamma, phi, alg)
        if not verdict.holds:
            return verdict
    return Verdict(True)


def named_translation(frame: KripkeFrame, gamma: Iterable[Formula], phi: Formula):
    """The named view of ``translate_on_frame``: its ``premises``,
    ``conclusion``, ``legend``, ``definitions`` and ``deltas``, in one
    bottom-up pass that makes each modal node's names, legend entries,
    definitions and deltas."""
    worlds = frame.worlds
    rows, modal, _ = _per_world_vars(tuple(gamma) + (phi,), len(worlds))
    succ = [[worlds.index(u) for u in frame.successors(w)] for w in worlds]
    tag = {Box: "box", Diamond: "dia"}
    fresh = iter(fresh_names(
        [*rows, *(v.name for row in rows.values() for v in row)],
        [f"x{tag[type(mf)]}{k}__w{i}" for k, mf in enumerate(modal)
         for i in range(len(worlds))]))
    legend = {v.name: ("var", p, w)
              for p, row in rows.items() for v, w in zip(row, worlds)}
    definitions: dict[str, Formula] = {}
    deltas: dict[str, list[Formula]] = {w: [] for w in worlds}

    def per_world(f: Formula, *images: tuple[Formula, ...]) -> tuple[Formula, ...]:
        """The named translation of ``f`` at every world."""
        if isinstance(f, Var):
            return rows[f.name]
        if isinstance(f, (Box, Diamond)):
            op, unit = (And, ONE) if isinstance(f, Box) else (Or, ZERO)
            names = tuple(Var(next(fresh)) for _ in worlds)
            for name, w, s in zip(names, worlds, succ):
                legend[name.name] = (tag[type(f)], f.body, w)
                definitions[name.name] = d = (
                    functools.reduce(op, [images[0][i] for i in s]) if s else unit)
                deltas[w].append(iff(name, d))
            return names
        return tuple(map(type(f), *images)) if images else (f,) * len(worlds)

    *premises, conclusion = bottom_up(tuple(gamma) + (phi,), per_world)
    return (tuple(g for image in premises for g in image),
            functools.reduce(And, conclusion), legend, definitions,
            {w: tuple(ds) for w, ds in deltas.items()})
