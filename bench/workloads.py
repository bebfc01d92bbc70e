"""Seeded query streams, one per workload.

A stream yields rounds of a fixed composition of query classes (stratified
sampling).  What sets a query's cost is drawn from a schedule that never
depends on the seed, so runs of different seeds measure the same mix and a
run's figures do not depend on how many rounds fit in it:

* luk-consequence and finite-frames: negated literals and frames depend on
  the slot only, so every round costs the same; the seed draws the variable
  names, which keep the queries distinct.
* chain-certify: numeral lengths and model shapes depend on the slot and
  separation depths on the round and slot; the seed draws the numerals'
  digits and the valuations and formulas of the bridge certificates.
* cli: costs are small and alike, so the seed draws everything.

A stream never yields the same query twice, so a verdict cache cannot pass
for a speed-up.

Queries are plain data (tuples of str/int), so ``repr`` of a round is a
byte-exact record of its inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from reference import VALID

WORKLOADS = ("luk-consequence", "finite-frames", "chain-certify", "cli")

# Variable names: a letter and a number, so never x, y, z (PCP), t (l2p)
# or the fresh pp/qq of the finite-to-global certificate.
NAMES = tuple(f"{c}{i}" for c in "pqrsuv" for i in range(1, 41))

# Three-element Gödel chain 0 < 1 < 2, the one finite-table algebra used.
G3 = {
    "size": 3,
    "meet": [[min(a, b) for b in range(3)] for a in range(3)],
    "join": [[max(a, b) for b in range(3)] for a in range(3)],
    "times": [[min(a, b) for b in range(3)] for a in range(3)],
    "residuum": [[2 if a <= b else b for b in range(3)] for a in range(3)],
    "zero": 0,
    "one": 2,
}

# Hand-picked invalid schemata, each with the algebras it fails in and the
# frames on which a countermodel exists.  Instances only rename variables,
# which keeps them refutable.  "holds" queries instantiate reference.VALID,
# the list the answer check consults.


def _irreflexive(worlds, edges):
    return any((w, w) not in edges for w in worlds)


def _step(worlds, edges):
    return any(a != b for a, b in edges)


def _not_transitive(worlds, edges):
    es = set(edges)
    return any((a, c) not in es for a, b in es for b2, c in es if b == b2)


def _any(worlds, edges):
    return True


FAILS = {
    "excluded-middle": ((), "A \\/ ~A", {"std-mv", "mv-3", "mv-4", "g3"}, _any),
    "contraction": ((), "A -> A * A", {"std-mv", "mv-3", "mv-4"}, _any),
    "double-negation": ((), "~~A -> A", {"g3"}, _any),
    "converse": (("A",), "B", {"std-mv", "mv-3", "mv-4", "g3"}, _any),
    "t": ((), "[]A -> A", {"std-mv", "mv-3", "mv-4", "g3"}, _irreflexive),
    "up": ((), "A -> []A", {"std-mv", "mv-3", "mv-4", "g3"}, _step),
    "four": ((), "[]A -> [][]A", {"std-mv", "mv-3", "mv-4", "g3"}, _not_transitive),
}

def _instantiate(text: str, literals: dict) -> str:
    out = text
    for meta, lit in literals.items():
        out = out.replace(meta, f"({lit})")
    return out


def _metas(texts) -> list[str]:
    return sorted({c for t in texts for c in t if c in "ABC"})


def _frame(rng, n: int, pred, p_edge: float = 0.4):
    worlds = tuple(f"w{i + 1}" for i in range(n))
    while True:
        edges = tuple((a, b) for a in worlds for b in worlds if rng.random() < p_edge)
        if pred(worlds, edges):
            return worlds, edges


def _some_frame(n: int, pred) -> bool:
    worlds = [f"w{i + 1}" for i in range(n)]
    pairs = [(a, b) for a in worlds for b in worlds]
    return any(pred(worlds, [pairs[k] for k in range(len(pairs)) if m >> k & 1])
               for m in range(2 ** len(pairs)))


def decision_query(rng, shape, kind: str, alg: str, template: str, expect: str,
                   size: int, negate: bool = True) -> tuple:
    """One consequence query.  ``kind`` is "luk" (propositional), "frame"
    (a frame of ``size`` worlds) or "card" (all frames of cardinality
    ``size``).  "holds" instances substitute literals (variables, negated when
    ``negate``); "fails" instances only rename variables.  ``shape`` draws
    the negations and the frame, ``rng`` the variable names."""
    if expect == "holds":
        prem, concl, _ = VALID[template]
        pred = _any
    else:
        prem, concl, algs, pred = FAILS[template]
        if alg not in algs:
            raise ValueError(f"{template} does not fail in {alg}")
        if kind == "card" and not _some_frame(size, pred):
            raise ValueError(f"{template} holds on every frame of size {size}")
    metas = _metas(prem + (concl,))
    # A, B, C become p<n>, q<n>, r<n>: the sorted order of the variables, which
    # steers pivoting and the translation, is the same for every seed
    names = [f"{'pqr'[k]}{rng.randrange(1, 1000)}" for k in range(len(metas))]
    literals = {m: (f"~{v}" if expect == "holds" and negate and shape.random() < 0.5 else v)
                for m, v in zip(metas, names)}
    premises = tuple(_instantiate(p, literals) for p in prem)
    conclusion = _instantiate(concl, literals)
    if kind == "luk":
        return ("luk", alg, premises, conclusion, expect, template)
    if kind == "card":
        return ("card", alg, size, premises, conclusion, expect, template)
    worlds, edges = _frame(shape, size, pred)
    return ("frame", alg, worlds, edges, premises, conclusion, expect, template)


# ------------------------------------------------------------ compositions

# (kind, algebra, template, expect, size) slots of one round.
LUK_ROUND = (
    [("luk", "std-mv", t, "holds", 0) for t in (
        "weakening", "suffixing", "luk-axiom", "contraposition", "double-negation",
        "product-left", "meet-left", "join-right", "prelinearity", "residuation",
        "currying", "modus-ponens", "meet-elim")]
    + [("luk", "std-mv", t, "fails", 0) for t in
       ("excluded-middle", "contraction", "converse")]
    + [("frame", "std-mv", t, "holds", n) for t, n in (
        ("necessitation", 3), ("modus-ponens", 3), ("meet-elim", 3), ("t-iterate", 2),
        ("dia-join", 2), ("k", 1), ("box-meet", 1))]
    + [("frame", "std-mv", t, "fails", n) for t, n in (
        ("t", 3), ("up", 3), ("four", 2), ("excluded-middle", 3), ("converse", 3))]
    + [("card", "std-mv", t, "holds", n) for t, n in (
        ("necessitation", 2), ("meet-elim", 2), ("modus-ponens", 2), ("box-meet", 1))]
    + [("card", "std-mv", t, "fails", 2) for t in (
        "t", "four", "up", "excluded-middle", "converse")]
)

FINITE_ROUND = (
    [("frame", alg, "k", "holds", 1) for alg in ("mv-3", "mv-4", "g3")]
    + [("frame", alg, "box-meet", "holds", 2) for alg in ("mv-3", "g3")]
    + [("frame", alg, "necessitation", "holds", 3) for alg in ("mv-3", "mv-4", "g3")]
    + [("frame", "mv-3", "luk-axiom", "holds", 2), ("frame", "g3", "contraction", "holds", 2)]
    + [("frame", alg, "t", "fails", 3) for alg in ("mv-3", "mv-4", "g3")]
    + [("frame", alg, "four", "fails", 3) for alg in ("mv-3", "g3")]
    + [("frame", "mv-4", "contraction", "fails", 2), ("frame", "g3", "double-negation", "fails", 2)]
    + [("card", alg, "necessitation", "holds", 2) for alg in ("mv-3", "mv-4", "g3")]
    + [("card", alg, "t-iterate", "holds", 2) for alg in ("mv-3", "g3")]
    + [("card", alg, "up", "fails", 2) for alg in ("mv-3", "mv-4", "g3")]
    + [("card", "mv-3", "excluded-middle", "fails", 1), ("card", "g3", "t", "fails", 2)]
)


def pcp_query(rng, shape, alg: str, top: int, base: int = 2, zeros: bool = False) -> tuple:
    """Instance with a planted solution: one word cut two ways into pieces of
    2..top digits (the longest exactly ``top``), then the pairs (shuffled)
    are the aligned pieces.  ``shape`` draws the cuts, ``rng`` the digits.
    Every piece starts with a nonzero digit, unless ``zeros``: then the word
    is all zeros (the known defect: extraction certifies values only, so it
    can return indices whose words differ in length)."""
    while True:
        xs = [top, shape.randint(2, top)]
        shape.shuffle(xs)
        ys = [shape.randint(2, top), shape.randint(2, top)]
        if sum(xs) == sum(ys) and xs[0] != ys[0]:   # no pair has equal lengths
            break
    word = [0 if zeros else rng.randrange(base) for _ in range(sum(xs))]
    if not zeros:
        for cuts in (xs, ys):
            for k in range(len(cuts)):
                word[sum(cuts[:k])] = rng.randrange(1, base)

    def cut(lengths):
        out, pos = [], 0
        for n in lengths:
            value = 0
            for d in word[pos:pos + n]:
                value = value * base + d
            out.append((value, n))
            pos += n
        return out

    pairs = list(zip(cut(xs), cut(ys)))
    order = [0, 1]
    shape.shuffle(order)
    shuffled = tuple(pairs[k] for k in order)
    solution = tuple(order.index(k) + 1 for k in range(2))
    return ("pcp", alg, base, shuffled, solution)


def _random_model(rng, n: int, names, values, acyclic: bool = False, shape=None):
    """Model on w1..wn; edges come from ``shape`` (default ``rng``), values
    from ``rng``."""
    shape = shape or rng
    worlds = tuple(f"w{i + 1}" for i in range(n))
    edges = tuple((a, b) for i, a in enumerate(worlds) for j, b in enumerate(worlds)
                  if (i < j or not acyclic) and shape.random() < 0.45)
    val = tuple((w, tuple((p, str(rng.choice(values))) for p in names)) for w in worlds)
    return worlds, edges, val


QUARTERS = tuple(Fraction(k, 4) for k in range(5))


def fragment_formula(rng, names, depth: int) -> str:
    """Random formula over {0, variables, *, ->, []}."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(names + ("0",))
    op = rng.choice(("*", "->", "[]"))
    if op == "[]":
        return f"[]({fragment_formula(rng, names, depth - 1)})"
    return (f"({fragment_formula(rng, names, depth - 1)}) {op} "
            f"({fragment_formula(rng, names, depth - 1)})")


def fin2glob_query(rng, shape) -> tuple:
    names = tuple(rng.sample(NAMES, 2))
    worlds, edges, val = _random_model(rng, shape.randint(2, 4), names, QUARTERS,
                                       acyclic=True, shape=shape)
    return ("fin2glob", worlds, edges, val, shape.choice(worlds))


def l2p_query(rng, shape) -> tuple:
    names = tuple(rng.sample(NAMES, 2))
    worlds, edges, val = _random_model(rng, shape.randint(1, 3), names, QUARTERS, shape=shape)
    formulas = tuple(fragment_formula(shape, names, 3) for _ in range(3))
    return ("l2p", worlds, edges, val, formulas)


def deep_formula(rng, depth: int) -> tuple[str, str]:
    """A random []/<> prefix of the given depth on one variable."""
    var = rng.choice(NAMES)
    return "".join(rng.choice(("[]", "<>")) for _ in range(depth)) + var, var


def defect_query(rng, r: int) -> tuple:
    """Known-defect inputs: the ROADMAP Baseline recursion scales (modal depth
    1000-1500, a 3000-world chain; work stays linear in the input once the
    recursion is gone) and a PCP instance with leading-zero numerals."""
    if r % 3 == 0:
        text, var = deep_formula(rng, rng.randint(1000, 1500))
        worlds, edges, val = _random_model(rng, 3, (var,), (0, Fraction(1, 2), 1))
        return ("deep", text, worlds, edges, val)
    if r % 3 == 1:
        prefix = "".join(rng.sample("abcdefgh", 3))
        return ("heights", prefix, 3000)
    return pcp_query(rng, rng, rng.choice(("exp-chain", "std-mv")), rng.randint(4, 8), zeros=True)


# Wall seconds one round takes (queries, checks and set-up of the next) at the
# reference speed; a run of S seconds plays about S / ROUND_SECONDS rounds.
# luk-consequence also carries the Baseline pair (about 4.3 s) in round 0.
ROUND_SECONDS = {"luk-consequence": 2.6, "finite-frames": 0.25,
                 "chain-certify": 2.8, "cli": 0.27}

# chain-certify slots: one PCP instance per longest-numeral length and one
# separation depth per stratum (drawn without replacement in a fixed order,
# so every round has the same spread of depths), each on a fixed algebra.
SEP_STRATA = ((2, 17), (22, 37), (42, 57), (62, 77), (85, 100))
PCP_TOPS = (4, 5, 6, 7, 8)
CHAIN_ALGS = ("exp-chain", "std-mv")


class Exhausted(Exception):
    """The stream cannot draw another distinct query; the run ends."""


class Stream:
    """Deterministic round generator for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        self.seen: set = set()
        self.r = 0
        self._sep_pool: dict = {}

    def _unique(self, make):
        for _ in range(200):
            q = make()
            if q not in self.seen:
                self.seen.add(q)
                return q
        raise Exhausted(f"no new query after 200 draws in round {self.r}")

    def _draw(self, key: str, make):
        """Distinct query from ``make(shape)``; the shape generator is seeded
        by ``key`` alone and restarts on every retry, so retries redraw only
        the seeded content."""
        return self._unique(lambda: make(random.Random(f"{self.workload}/{key}")))

    def _sep(self, stratum, alg):
        pool = self._sep_pool.get((stratum, alg))
        if not pool:
            lo, hi = stratum
            # deepest first in alternate strata, so round costs stay level
            pool = self._sep_pool[(stratum, alg)] = list(range(lo, hi + 1))
            if SEP_STRATA.index(stratum) % 2:
                pool.reverse()
        return ("sep", alg, pool.pop())

    def next_round(self) -> list[tuple]:
        rng, r = self.rng, self.r
        self.r += 1
        if self.workload == "luk-consequence":
            out = [self._draw(str(k), lambda shape: decision_query(
                rng, shape, kind, alg, template, expect, size))
                for k, (kind, alg, template, expect, size) in enumerate(LUK_ROUND)]
            if r == 0:  # the ROADMAP Baseline pair, once per run, last
                out.append(("card", "std-mv", 2, ("[]p -> p",), "[][]p -> p",
                            "holds", "t-iterate"))
            return out
        if self.workload == "finite-frames":
            return [self._draw(str(k), lambda shape: decision_query(
                rng, shape, kind, alg, template, expect, size, negate=False))
                for k, (kind, alg, template, expect, size) in enumerate(FINITE_ROUND)]
        if self.workload == "chain-certify":
            out = [self._draw(f"p{k}", lambda shape: pcp_query(
                rng, shape, CHAIN_ALGS[k % 2], top)) for k, top in enumerate(PCP_TOPS)]
            out += [self._unique(lambda: self._sep(s, CHAIN_ALGS[k % 2]))
                    for k, s in enumerate(SEP_STRATA)]
            out += [self._draw(f"f{k}", lambda shape: fin2glob_query(rng, shape))
                    for k in range(7)]
            out += [self._draw(f"l{k}", lambda shape: l2p_query(rng, shape))
                    for k in range(7)]
            return out
        from cli_queries import cli_round
        return cli_round(self, rng, r)

    def defect(self) -> tuple:
        """Known-defect input for the current round (chain-certify and cli)."""
        if self.workload == "cli":
            from cli_queries import cli_defect
            return self._unique(lambda: cli_defect(self, self.rng, self.r))
        return self._unique(lambda: defect_query(self.rng, self.r))
