"""Reference oracles for the pruned finite search in ``mvmodal.decision``.

``finite_consequence`` is the brute-force sweep that ``mvmodal.decision``
used before it backtracked, kept verbatim: every valuation in
``itertools.product`` order runs the premises up to the first that fails,
then the conclusion.  ``decide_cardinality`` decides every labeled frame of
the given size in increasing mask order, before frames were cut to one per
isomorphism class.  Both return the first countermodel in the same order as
the package, so the differential tests require equal verdicts, witnesses
included.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable

from mvmodal.algebras import (Algebra, FiniteTable, MVn, ResourceLimitError,
                              mv_chain_tables)
from mvmodal.decision import (FINITE_SEARCH_GUARD, _folded, _propositional,
                              decide_on_frame)
from mvmodal.formulas import Const0, Const1, Formula, Var, postorder
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
