"""Running one query: untimed preparation, the timed call, untimed checks.

``prepare`` turns a query spec into a zero-argument callable that makes the
calls into ``mvmodal`` being measured; ``check`` then confirms the result
with the reference semantics in ``reference.py``.  All ``mvmodal`` names are
looked up through their modules at call time, so the tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import io
import os
from fractions import Fraction

import reference as ref
from workloads import G3


class Wrong(Exception):
    """The program answered, but the answer failed an independent check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


class Env:
    """The imported package plus a scratch directory for CLI input files."""

    def __init__(self, mvmodal, workdir: str):
        self.mv = mvmodal
        self.workdir = workdir

    def algebra(self, name: str):
        alg = self.mv.algebras
        if name == "std-mv":
            return alg.StdMV()
        if name == "exp-chain":
            return alg.ExpChain()
        if name == "g3":
            return alg.FiniteTable(G3["size"], G3["meet"], G3["join"], G3["times"],
                                   G3["residuum"], G3["zero"], G3["one"])
        return alg.MVn(int(name[3:]))

    def model(self, alg_name, worlds, edges, val):
        alg = self.algebra(alg_name)
        k = self.mv.kripke
        return k.KripkeModel(k.KripkeFrame(worlds, edges), alg,
                             {w: {p: Fraction(v) for p, v in row} for w, row in val})


F1 = Fraction(1)


def ref_algebra(name: str):
    return ref.algebra(G3 if name == "g3" else name)


def search_algebra(name: str):
    """Carrier searched for countermodels: MV3 embeds in [0, 1], so an MV3
    countermodel refutes a standard-MV query."""
    return ref_algebra("mv-3" if name == "std-mv" else name)


def ref_value(v):
    """mvmodal value -> reference value (power-chain values by exponent)."""
    return v.exponent if hasattr(v, "exponent") else v


def model_data(model):
    worlds = list(model.worlds)
    val = {w: {p: ref_value(model.value(w, p)) for p in model.variables} for w in worlds}
    return worlds, sorted(model.frame.edges), val


def json_value(obj):
    if obj == "zero":
        return None
    if isinstance(obj, dict):
        return Fraction(obj["pow"])
    if isinstance(obj, int):
        return obj
    return Fraction(obj)


def json_model(obj):
    worlds = list(obj["worlds"])
    val = {w: {p: json_value(v) for p, v in obj["valuation"].get(w, {}).items()}
           for w in worlds}
    return worlds, [tuple(e) for e in obj["edges"]], val


# ---------------------------------------------------------- consequence

def check_verdict(expected, alg_name, holds, premises, conclusion, witness, frame_list):
    """Shared answer check for every consequence query.

    ``witness`` is None or ``(worlds, edges, valuation, world, value)``;
    ``frame_list`` is the frames the query ranges over."""
    terms = ref.Terms()
    prem = [terms.parse(p) for p in premises]
    concl = terms.parse(conclusion)
    expect(holds == (expected == "holds"),
           f"verdict {'holds' if holds else 'fails'}, expected {expected}")
    if holds:
        expect(ref.valid_instance(terms, prem, concl, alg_name) is not None,
               "holds, but is no instance of a listed valid principle")
        return
    alg = ref_algebra(alg_name)
    worlds, edges, val, world, value = witness
    expect((worlds, sorted(edges)) in [(list(w), sorted(e)) for w, e in frame_list],
           "witness frame is not one the query ranges over")
    values = ref.evaluate(terms, prem + [concl], worlds, edges, val, alg)
    expect(all(v == alg.one for p in prem for v in values[p]),
           "witness model does not satisfy the premises")
    got = values[concl][worlds.index(world)]
    expect(got != alg.one and got == value,
           f"witness world {world} gives {got}, witness claims {value}")
    # the refutation must also be found by the reference search
    frames = sorted(frame_list,
                    key=lambda f: (list(f[0]), sorted(f[1])) != (worlds, sorted(edges)))
    expect(ref.search(terms, prem, concl, frames, search_algebra(alg_name)) is not None,
           "reference search finds no countermodel")


def _witness(verdict):
    if verdict.holds:
        return None
    w = verdict.witness
    if w.model is None:  # propositional: one world, no edges
        val = {"w": {p: ref_value(v) for p, v in w.valuation.items()}}
        return ["w"], [], val, "w", ref_value(w.value)
    worlds, edges, val = model_data(w.model)
    return worlds, edges, val, w.world, ref_value(w.value)


def _decision(env, q):
    mv = env.mv
    kind, alg_name = q[0], q[1]
    premises, conclusion = q[-4], q[-3]
    gamma = tuple(mv.formulas.parse(p) for p in premises)
    phi = mv.formulas.parse(conclusion)
    if kind == "luk":
        return lambda: mv.decision.luk_consequence(gamma, phi)
    alg = env.algebra(alg_name)
    if kind == "card":
        return lambda: mv.decision.decide_cardinality(q[2], gamma, phi, alg)
    frame = mv.kripke.KripkeFrame(q[2], q[3])
    return lambda: mv.decision.decide_on_frame(frame, gamma, phi, alg)


def _check_decision(env, q, verdict):
    kind, alg_name = q[0], q[1]
    if kind == "luk":
        frames = [(["w"], [])]
    elif kind == "card":
        frames = list(ref.frames(q[2]))
    else:
        frames = [(list(q[2]), list(q[3]))]
    check_verdict(q[-2], alg_name, verdict.holds, q[-4], q[-3], _witness(verdict), frames)


# ------------------------------------------------------------ constructions

def _pcp_instance(env, q):
    p = env.mv.pcp
    return p.PCPInstance(q[2], tuple((p.Numeral(*x), p.Numeral(*y)) for x, y in q[3]))


def _pcp(env, q):
    mv = env.mv
    inst, alg = _pcp_instance(env, q), env.algebra(q[1])

    def run():
        gamma, phi = mv.pcp.encode(inst)
        model = mv.pcp.build_countermodel(inst, q[4], alg)
        verdict = mv.kripke.globally_satisfies(model, gamma)
        top = [w for w in model.worlds if all(e[1] != w for e in model.frame.edges)][0]
        return model, verdict, mv.pcp.extract_solution(inst, model, top)
    return run


def chain_values(alg_name, pairs, base, solution):
    """Expected (x, y, z) per world of the chain model of a solution, from
    the successor-free end: powers a^(prefix concatenation) of the base a."""
    xs = [ref.concat([pairs[i - 1][0] for i in solution[:j]], base)[0]
          for j in range(1, len(solution) + 1)]
    ys = [ref.concat([pairs[i - 1][1] for i in solution[:j]], base)[0]
          for j in range(1, len(solution) + 1)]
    if alg_name == "exp-chain":
        return [(Fraction(x), Fraction(y), F1) for x, y in zip(xs, ys)]
    r = max(xs[-1], ys[-1])
    power = lambda n: max(Fraction(0), 1 - Fraction(n, r + 1))  # noqa: E731
    return [(power(x), power(y), power(1)) for x, y in zip(xs, ys)]



def check_chain(worlds, val, alg_name, pairs, base, solution):
    """``worlds`` run from the successor-free end to the top."""
    expected = chain_values(alg_name, pairs, base, solution)
    got = [tuple(val[w][p] for p in "xyz") for w in worlds]
    expect(got == expected, "chain model values differ from the planted solution")


def _check_pcp(env, q, result):
    model, verdict, solution = result
    expect(verdict.holds, "chain countermodel fails the encoding premises")
    expect(ref.is_solution(q[3], solution, q[2]),
           f"extracted indices {solution} are not a solution")
    worlds, _, val = model_data(model)
    check_chain(worlds, val, q[1], q[3], q[2], q[4])


SEPARATION = ("y <-> []y", "y <-> <>y", "x <-> ([]x * y)", "~[]0")


def _sep(env, q):
    mv = env.mv
    alg = env.algebra(q[1])
    return lambda: mv.necessitation.verify_separation(q[2], alg)


def _check_sep(env, q, report):
    n = q[2]
    expect(report.passed, "separation report did not pass")
    expect([i for i, ok in report.levels if ok] == list(range(n + 1)),
           "not every boxing level holds")
    worlds, edges, val = model_data(report.model)
    expect(len(worlds) == n + 2, "chain model has the wrong length")
    terms = ref.Terms()
    prem = [terms.parse(s) for s in SEPARATION]
    final = terms.parse("x -> x * y")
    alg = ref_algebra(q[1])
    values = ref.evaluate(terms, prem + [final], worlds, edges, val, alg)
    # on the chain 0 -> 1 -> ... -> n+1, box^i at the start is the value at i
    expect(all(values[p][i] == alg.one for p in prem for i in range(n + 1)),
           "a boxed premise is below 1 at the start world")
    expect(values[final][0] == ref_value(report.final_value) != alg.one,
           "final value of x -> x*y is wrong")


FIN2GLOB = ("[]0 \\/ (pp <-> []pp)", "[]0 \\/ ([]pp <-> <>pp)", "qq <-> pp * []qq")
SPREAD = "((pp \\/ ~pp) \\/ qq) \\/ ~qq"


def _fin2glob(env, q):
    mv = env.mv
    model = env.model("std-mv", q[1], q[2], q[3])
    return lambda: mv.bridges.extend_model_pq(model, q[4], "pp", "qq")


def _check_fin2glob(env, q, out):
    worlds, edges, val = model_data(out)
    for w, row in q[3]:
        for p, v in row:
            expect(val[w][p] == Fraction(v), "extension changed the source valuation")
    terms = ref.Terms()
    prem = [terms.parse(s) for s in FIN2GLOB]
    spread = terms.parse(SPREAD)
    alg = ref.Lukasiewicz()
    values = ref.evaluate(terms, prem + [spread], worlds, edges, val, alg)
    expect(all(v == 1 for p in prem for v in values[p]), "added premises fail")
    expect(values[spread][worlds.index(q[4])] < 1, "spread disjunct is 1 at the world")


def _l2p(env, q):
    mv = env.mv
    model = env.model("std-mv", q[1], q[2], q[3])
    formulas = [mv.formulas.parse(f) for f in q[4]]

    def run():
        b = mv.bridges
        violations = b.verify_exponent_identity(model, formulas, "t")
        prod = b.model_l2p(model, "t")
        return violations, prod, b.model_p2l(prod)
    return run


def _check_l2p(env, q, result):
    violations, prod, back = result
    expect(violations == [], "exponent identity violated")
    worlds, edges, val = model_data(prod)
    src = {w: {p: Fraction(v) for p, v in row} for w, row in q[3]}
    expect(all(val[w]["t"] == 1 and all(val[w][p] == 1 - v for p, v in src[w].items())
               for w in worlds), "l2p model values are not a^(1-v)")
    _, _, back_val = model_data(back)
    expect(all(back_val[w][p] == v for w in worlds for p, v in src[w].items()),
           "p2l does not invert l2p")
    terms = ref.Terms()
    for text in q[4]:
        f = terms.parse(text)
        g = ref.luk2prod(terms, f, "t")
        mv_vals = ref.evaluate(terms, [f], worlds, edges, src, ref.Lukasiewicz())[f]
        pc_vals = ref.evaluate(terms, [g], worlds, edges, val, ref.PowerChain())[g]
        expect(pc_vals == [1 - v for v in mv_vals], "translation breaks the identity")


# --------------------------------------------------------- known defects

def _deep(env, q):
    mv = env.mv
    model = env.model("std-mv", q[2], q[3], q[4])

    def run():
        f = mv.formulas.parse(q[1])
        return [mv.kripke.evaluate(model, w, f) for w in model.worlds]
    return run


def _check_deep(env, q, values):
    terms = ref.Terms()
    f = terms.parse(q[1])
    val = {w: {p: Fraction(v) for p, v in row} for w, row in q[4]}
    want = ref.evaluate(terms, [f], list(q[2]), q[3], val, ref.Lukasiewicz())[f]
    expect(list(values) == want, "deep formula values differ from the reference")


def heights_frame(q):
    worlds = [f"{q[1]}{i:04d}" for i in range(q[2])]
    return worlds, list(zip(worlds, worlds[1:]))


def _heights(env, q):
    mv = env.mv
    frame = mv.kripke.KripkeFrame(*heights_frame(q))
    return lambda: mv.kripke.heights(frame)


def _check_heights(env, q, hs):
    worlds, _ = heights_frame(q)
    expect(all(hs[w] == len(worlds) - 1 - i for i, w in enumerate(worlds)),
           "chain heights are wrong")


# ------------------------------------------------------------------- CLI

def _cli(env, q):
    mv = env.mv
    for name, text in q[3]:
        with open(os.path.join(env.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    argv = [a.replace("@W/", env.workdir + os.sep) for a in q[2]]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mv.cli.run(argv)
        return code, out.getvalue(), err.getvalue()
    return run


def _check_cli(env, q, result):
    from cli_queries import check_cli
    code, out, err = result
    check_cli(q, code, out, err)


RUNNERS = {
    "luk": (_decision, _check_decision),
    "frame": (_decision, _check_decision),
    "card": (_decision, _check_decision),
    "pcp": (_pcp, _check_pcp),
    "sep": (_sep, _check_sep),
    "fin2glob": (_fin2glob, _check_fin2glob),
    "l2p": (_l2p, _check_l2p),
    "deep": (_deep, _check_deep),
    "heights": (_heights, _check_heights),
    "cli": (_cli, _check_cli),
}


def prepare(env: Env, q: tuple):
    return RUNNERS[q[0]][0](env, q)


def check(env: Env, q: tuple, result) -> None:
    RUNNERS[q[0]][1](env, q, result)


def cleanup(env: Env, q: tuple) -> None:
    if q[0] == "cli":
        for name, _ in q[3]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(env.workdir, name))

