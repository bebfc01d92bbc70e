"""A catalogue of mutants: small deliberate faults in the package, each with
the tests that must fail on it.

A mutant names a file, an exact snippet that occurs once in it, the
snippet's replacement and the ids of the tests that kill it, found by
running the suite on the mutant.  ``test_mutants.py`` checks in tier 1 that
every snippet still occurs exactly once, so code that moves takes its
mutants along instead of dropping them.  Run from the repository root::

    python tests/mutants.py [NAME ...]

Each mutant (or each one named) is applied to a fresh temporary copy of
``src/``, ``tests/`` and ``demos/``, its tests run there with ``pytest
-x``, and pytest must exit with status 1: a test failed, not an error in
collection or usage.  A run past ``TIMEOUT_S`` is a survival.  One line per mutant is
printed, and the exit status is 1 if any mutant survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60  # per mutant; each is killed in a few seconds


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


_DECISION, _KRIPKE, _LP, _FORMULAS = ("src/mvmodal/decision.py", "src/mvmodal/kripke.py",
                                      "src/mvmodal/lp.py", "src/mvmodal/formulas.py")

_F, _D = "tests/test_finite_reference.py::", "tests/test_decision.py::"

MUTANTS = (
    Mutant("type elimination reads the order from the indices", _DECISION,
           "if (meet[v][u] == v if box else meet[u][v] == u))",
           "if (v <= u if box else u <= v))",
           (_F + "test_type_elimination_reads_the_order_from_meet",)),
    Mutant("type elimination narrows C(t) to equal body values", _DECISION,
           "if (meet[v][u] == v if box else meet[u][v] == u))",
           "if u == v)",
           (_F + "test_sweep_equals_fresh_translation_per_frame[mv-3-3]",
            _F + "test_type_elimination_matches_the_sweep")),
    Mutant("type elimination returns before any elimination round", _DECISION,
           "        kept = realized(alive)\n",
           "        return False\n",
           (_F + "test_one_frame_per_isomorphism_class",)),
    Mutant("type elimination accepts a non-chain lattice", _DECISION,
           "        if any(m != a and m != b for a, row in enumerate(alg.meet_table)",
           "        if False and any(m != a and m != b for a, row in enumerate(alg.meet_table)",
           (_F + "test_type_elimination_matches_the_sweep",)),
    Mutant("a failed proof skips mask 0 although a dead end fails", _DECISION,
           "    if failing & first << dead:\n        return False\n",
           "    if failing & first << dead:\n        return None\n",
           (_F + "test_failed_proof_skips_the_dead_end_frame",
            _F + "test_type_elimination_matches_the_sweep")),
    Mutant("type elimination admits 64 types", _DECISION,
           "_FEW_TYPES = 27",
           "_FEW_TYPES = 64",
           (_F + "test_one_frame_per_isomorphism_class",)),
    Mutant("a checked model's variables are not sorted", _KRIPKE,
           "model.variables = tuple(sorted(valuation[frame.worlds[0]]))",
           "model.variables = tuple(valuation[frame.worlds[0]])",
           ("tests/test_kripke.py::test_checked_model_is_the_validated_one",)),
    Mutant("the fold skips further successors", _KRIPKE,
           "            for w, js in further:",
           "            for w, js in further[:0]:",
           ("tests/test_kripke.py::test_evaluate_all_matches_fold",
            "tests/test_acceptance.py::test_criterion_02_evaluator_reference")),
    Mutant("a read connective reads world 0's bit", _KRIPKE,
           "cols[i] = [op(a[w], b[w]) if m >> w & 1 else None for w in range(n)]",
           "cols[i] = [op(a[w], b[w]) if m & 1 else None for w in range(n)]",
           (_D + "test_image_sweep_matches_named_sweep",
            _F + "test_sweep_equals_fresh_translation_per_frame[mv-3-2]")),
    Mutant("_reads does not mark a modal body", _KRIPKE,
           "                    reads[x] |= s",
           "                    reads[x] |= 0",
           (_D + "test_k_axiom_stdmv_solve_count",
            _D + "test_frame_sweep_matches_the_image_sweep")),
    Mutant("named definitions read only the first successor", _DECISION,
           "functools.reduce(op, [body[k] for k in s])",
           "functools.reduce(op, [body[k] for k in s[:1]])",
           (_D + "test_translate_definitions_inline_to_successor_meets",
            _F + "test_named_view_matches_its_reference")),
    Mutant("_folded skips its premise re-check", _DECISION,
           "    if any(c != one for col in premises for c in col):",
           "    if False:",
           (_D + "test_luk_recheck_catches_a_point_that_is_no_countermodel",
            _D + "test_finite_recheck_catches_a_sweep_that_checks_nothing")),
    Mutant("a sweep instruction's level ignores its right operand", _DECISION,
           "level.append(lv := max(level[a], level[b]))",
           "level.append(lv := level[a])",
           (_F + "test_backtracking_matches_sweep",)),
    # the per-world variables are names, and the sweep assigns them in
    # their sort order, so its first countermodel is the least one
    Mutant("the sweep's per-world names are not sorted", _DECISION,
           "    free = sorted(v for (kind, x, _), m in zip(template, reads) if kind is Var\n",
           "    free = list(v for (kind, x, _), m in zip(template, reads) if kind is Var\n",
           (_F + "test_backtracking_matches_sweep",
            _D + "test_image_sweep_matches_named_sweep")),
    Mutant("_LukSystem._pin does not close Times and And", _DECISION,
           "            if kind is Times or kind is And:",
           "            if False:",
           (_D + "test_unsolvable_pcp_one_chain_solve_count",)),
    Mutant("the Times regimes are swapped", _DECISION,
           "Times: (lambda a, b: (s := a.add(b).sub(_ONE_AFF), _ZERO_AFF, s), True, False),",
           "Times: (lambda a, b: (s := a.add(b).sub(_ONE_AFF), s, _ZERO_AFF), True, False),",
           (_D + "test_every_regime_is_load_bearing",
            _D + "test_luk_premises")),
    Mutant("the Implies regime's high form is a - b, not 1 - (a - b)", _DECISION,
           "Implies: (lambda a, b: (d := a.sub(b), _ONE_AFF, _ONE_AFF.sub(d)), False, True),",
           "Implies: (lambda a, b: (d := a.sub(b), _ONE_AFF, d), False, True),",
           (_D + "test_luk_validities",
            _D + "test_every_regime_is_load_bearing")),
    Mutant("the frame table numbers unread variables", _DECISION,
           "[number(Var, v, None) if m >> w & 1 else None",
           "[number(Var, v, None)",
           (_D + "test_frame_table_builds_the_system_of_the_images",)),
    Mutant("the And regime's e is b - a, not a - b", _DECISION,
           "And: (lambda a, b: (a.sub(b), a, b), False, False),",
           "And: (lambda a, b: (b.sub(a), a, b), False, False),",
           (_D + "test_luk_matches_leaf_oracle",
            _D + "test_every_regime_is_load_bearing")),
    # a min splits where a max wanted small is convex, and a max wanted
    # large is bounded by both operands
    Mutant("the Or regime is marked a min", _DECISION,
           "Or: (lambda a, b: (b.sub(a), a, b), True, False),",
           "Or: (lambda a, b: (b.sub(a), a, b), False, False),",
           (_D + "test_luk_validities",
            _D + "test_every_regime_is_load_bearing")),
    Mutant("an implication's antecedent keeps its parent's sign", _DECISION,
           "sign[x] |= _FLIP[sign[i]] if _REGIMES[kind][2] else sign[i]",
           "sign[x] |= sign[i]",
           (_D + "test_luk_validities",
            "tests/test_acceptance.py::test_criterion_06_luk_battery")),
    Mutant("premise roots are signed like conclusions", _DECISION,
           "            sign[r] |= _LARGE",
           "            sign[r] |= _SMALL",
           (_D + "test_luk_premises",
            _D + "test_signed_split_decides_as_the_unsigned")),
    Mutant("a one-sided row has the opposite sense", _DECISION,
           "return [[_row(d, _SENSE[s])] for d in (low, high)]",
           "return [[_row(d, _SENSE[_FLIP[s]])] for d in (low, high)]",
           (_D + "test_luk_validities",
            _D + "test_luk_premises")),
    Mutant("a one-sided min-split's first regime also bounds t by high", _DECISION,
           "            regimes = _split_rows(system.splits[k])\n",
           "            regimes = _split_rows(system.splits[k])\n"
           "            if system.splits[k][-1] == _SMALL:\n"
           "                regimes = [regimes[0] + regimes[1], regimes[1]]\n",
           (_D + "test_signed_split_decides_as_the_unsigned",
            _D + "test_luk_matches_leaf_oracle")),
    Mutant("the case split skips the conclusion-is-1 prune", _DECISION,
           'if res.status == "infeasible" or res.optimum.num <= -offset * res.optimum.den:',
           'if res.status == "infeasible":',
           (_D + "test_luk_validities",
            _D + "test_k_axiom_stdmv_solve_count")),
    Mutant("the search's int cutoff <= becomes <", _DECISION,
           "res.optimum.num <= -offset * res.optimum.den",
           "res.optimum.num < -offset * res.optimum.den",
           (_D + "test_luk_validities",
            _D + "test_k_axiom_stdmv_solve_count")),
    # the spine's reader check: a node on it that another node reads leaves
    # its ``t`` free in that node's rows, so the re-check fails
    Mutant("the spine follows a consequent with two readers", _DECISION,
           "sum(under[r] for r in self.readers[node]) == (node != c)):",
           "sum(under[r] for r in self.readers[node]) <= 2 * (node != c)):",
           (_D + "test_spine_stops_at_a_node_with_another_reader",)),
    Mutant("the spine starts at a conclusion that a premise reads", _DECISION,
           "sum(under[r] for r in self.readers[node]) == (node != c)):",
           "sum(under[r] for r in self.readers[node]) <= 1):",
           (_D + "test_spine_stops_at_a_node_with_another_reader",)),
    # a reader outside the premises and ``c`` writes no row in its search
    Mutant("scope counts readers outside its roots", _DECISION,
           "sum(under[r] for r in self.readers[node])",
           "len(self.readers[node])",
           (_D + "test_spine_counts_only_the_readers_under_its_roots",)),
    Mutant("the spine's constant is n, not n - 1", _DECISION,
           "_Affine({}, 1 - len(spine))",
           "_Affine({}, 1 - len(spine) - bool(spine))",
           (_D + "test_luk_refutations_with_witnesses",
            _D + "test_implication_spine_matches_leaf_oracle_and_its_product")),
    Mutant("the dual ratio test takes the largest ratio", _LP,
           "if col < 0 or d < 0 or (d == 0 and j < col):",
           "if col < 0 or d > 0 or (d == 0 and j < col):",
           ("tests/test_lp.py::test_textbook_maximum",
            "tests/test_lp_reference.py::test_degenerate_vertices_match_reference")),
    Mutant("an appended row is not reduced against the basis", _LP,
           "                row = _eliminate(row, r, r[j], row[j])",
           "                pass",
           ("tests/test_lp_warm.py::test_seeded_generations_match_cold",
            "tests/test_lp_warm.py::test_lazy_point_survives_children")),
    Mutant("a warm start checks no appended row", _LP,
           "            bad.add(len(tableau))\n",
           "            pass\n",
           ("tests/test_lp.py::test_textbook_maximum",)),
    # every solve pivots on a negative entry, so without the negation the
    # simplex cycles until the pivot cap stops it
    Mutant("a pivot on a negative entry keeps its row's sign", _LP,
           "    if p < 0:\n",
           "    if False:\n",
           ("tests/test_lp.py::test_pivot_on_a_negative_entry_negates_its_row",
            "tests/test_lp.py::test_textbook_maximum",
            "tests/test_lp_warm.py::test_seeded_generations_match_cold",
            "tests/test_lp_reference.py::test_degenerate_vertices_match_reference")),
    Mutant("the int-row path drops the >= negation", _LP,
           "            return coeffs, sign, 1, rhs, fixed\n",
           "            return coeffs, 1, 1, rhs, fixed\n",
           ("tests/test_lp.py::test_int_rows_are_the_rows_of_their_fractions",
            _D + "test_luk_validities")),
    # a walk that re-expands shared nodes makes a squared power such as
    # p^1000000000000 exponential, so its killers fail before any such test
    Mutant("the walk expands a node it has already placed", _FORMULAS,
           "        elif id(f) in index:\n            continue\n",
           "",
           ("tests/test_formulas.py::test_one_walk_matches_a_recursive_reference",
            _D + "test_frame_table_builds_the_system_of_the_images",
            "tests/test_lp_warm.py::test_luk_search_same_verdicts_without_start")),
    Mutant("the walk visits the right operand first", _FORMULAS,
           "stack += (f, None, f.right, f.left)",
           "stack += (f, None, f.left, f.right)",
           ("tests/test_formulas.py::test_one_walk_matches_a_recursive_reference",)),
    Mutant("the frontier walk follows first successors only", "src/mvmodal/necessitation.py",
           "        frontier = set().union(*map(model.frame.successors, frontier))",
           "        frontier = set().union(*(model.frame.successors(w)[:1] for w in frontier))",
           ("tests/test_necessitation.py::test_mutated_model_levels_match_per_premise_levels",)),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's snippet, which must occur once, under ``root``."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: snippet occurs {text.count(mutant.snippet)} times")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def killed(mutant: Mutant) -> bool:
    """Whether the mutant's tests fail (pytest exit status 1) on a copy
    within ``TIMEOUT_S``: some mutants send the LP into an endless loop, and
    a hang does not count as a kill."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "demos"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        try:
            run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                                  "no:cacheprovider", *mutant.tests], cwd=copy, env=env,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
        return run.returncode == 1


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if unknown := set(names) - {m.name for m in MUTANTS}:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    survived = 0
    for mutant in chosen:
        start = time.perf_counter()
        ok = killed(mutant)
        survived += not ok
        print(f"{'killed  ' if ok else 'SURVIVED'} {time.perf_counter() - start:5.1f} s  {mutant.name}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
