"""The cli workload: seeded argument vectors over every subcommand, run
in-process through ``mvmodal.cli.run``, with exit codes and stdout checked
against the README contract (0 holds or built, 1 fails with a witness,
2 usage or input error, 3 resource guard).

Input files are part of the query spec; ``@W/`` in an argument stands for
the run's scratch directory.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref
from queries import (FIN2GLOB, SEPARATION, SPREAD, check_chain, check_verdict, expect, json_model,
                     json_value, ref_algebra)
from workloads import (NAMES, QUARTERS, _random_model, decision_query,
                       deep_formula, pcp_query)


def modal_formula(rng, names, depth: int) -> str:
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(names)
    op = rng.choice(("*", "->", "/\\", "\\/", "[]", "<>"))
    if op in ("[]", "<>"):
        return f"{op}({modal_formula(rng, names, depth - 1)})"
    return (f"({modal_formula(rng, names, depth - 1)}) {op} "
            f"({modal_formula(rng, names, depth - 1)})")


def model_json(alg: str, worlds, edges, val) -> str:
    kind = {"kind": "mv-n", "n": int(alg[3:])} if alg.startswith("mv-") else {"kind": alg}
    return json.dumps({"algebra": kind, "worlds": list(worlds),
                       "edges": [list(e) for e in edges],
                       "valuation": {w: dict(row) for w, row in val}}, sort_keys=True)


def instance_json(base, pairs) -> str:
    return json.dumps({"base": base, "pairs": [[[str(x[0]), x[1]], [str(y[0]), y[1]]]
                                               for x, y in pairs]})


def chain_model_json(alg, base, pairs, solution) -> str:
    """Chain countermodel of a solution, built here from the concatenations."""
    from queries import chain_values
    vals = chain_values(alg, pairs, base, solution)
    worlds = [f"v{j + 1}" for j in range(len(vals))]
    enc = (lambda v: {"pow": str(v)}) if alg == "exp-chain" else str
    return json.dumps({"algebra": {"kind": alg}, "worlds": worlds,
                       "edges": [[worlds[j], worlds[j - 1]] for j in range(1, len(worlds))],
                       "valuation": {w: dict(zip("xyz", map(enc, v)))
                                     for w, v in zip(worlds, vals)}})


def _decision_argv(q, tag):
    """check argv for a decision_query spec."""
    kind, alg = q[0], q[1]
    prem, concl = q[-4], q[-3]
    argv = ["check", "--algebra", alg, "--premises", ";".join(prem), "--conclusion", concl]
    files = ()
    if kind == "card":
        argv += ["--cardinality", str(q[2])]
    else:
        name = f"{tag}.frame.json"
        files = ((name, json.dumps({"worlds": list(q[2]),
                                    "edges": [list(e) for e in q[3]]})),)
        argv += ["--frame", "@W/" + name]
    return argv, files


def cli_round(stream, rng, r: int) -> list[tuple]:
    out = []

    def add(sub, make):
        out.append(stream._unique(lambda: ("cli", sub) + make(f"r{r}q{len(out)}")))

    def evaluation(tag, alg):
        names = tuple(rng.sample(NAMES, 2))
        values = QUARTERS if alg == "std-mv" else (0, Fraction(1, 2), 1)
        m = _random_model(rng, rng.randint(1, 3), names, values)
        f = modal_formula(rng, names, 3)
        name = f"{tag}.model.json"
        return (("eval", "--model", "@W/" + name, "--conclusion", f),
                ((name, model_json(alg, *m)),), None)

    add("eval", lambda t: evaluation(t, "std-mv"))
    add("eval", lambda t: evaluation(t, "mv-3"))

    def model_check(tag, template, expected):
        q = decision_query(rng, rng, "luk", "std-mv", template, expected, 0, negate=False)
        prem, concl = q[2], q[3]
        terms = ref.Terms()
        names = tuple(terms.variables([terms.parse(s) for s in prem + (concl,)]))
        worlds, edges, val = _random_model(rng, rng.randint(1, 3), names, QUARTERS)
        if expected == "fails":  # converse A |- B: A is 1 everywhere, B is 1/2 at w1
            a, b = prem[0].strip("()"), concl.strip("()")
            val = tuple((w, tuple((p, "1" if p == a else "1/2" if (p, w) == (b, "w1") else v)
                                  for p, v in row)) for w, row in val)
        name = f"{tag}.model.json"
        return (("check", "--model", "@W/" + name, "--premises", ";".join(prem),
                 "--conclusion", concl), ((name, model_json("std-mv", worlds, edges, val)),),
                (expected, "std-mv"))

    add("check", lambda t: model_check(t, rng.choice(("prelinearity", "residuation",
                                                      "modus-ponens")), "holds"))
    add("check", lambda t: model_check(t, "converse", "fails"))

    def decision(tag, kind, alg, template, expected, size):
        q = decision_query(rng, rng, kind, alg, template, expected, size, negate=False)
        argv, files = _decision_argv(q, tag)
        return tuple(argv), files, (expected, alg)

    add("check", lambda t: decision(t, "frame", "std-mv", "t", "fails", 2))
    add("check", lambda t: decision(t, "frame", "mv-3", "necessitation", "holds", 2))
    add("check", lambda t: decision(t, "card", "mv-3", "necessitation", "holds", 2))
    add("check", lambda t: decision(t, "card", "mv-4", "up", "fails", 2))

    def premise_file(tag):
        q = decision_query(rng, rng, "frame", "mv-3", "modus-ponens", "holds", 2, negate=False)
        argv, files = _decision_argv(q, tag)
        name = f"{tag}.premises.json"
        i = argv.index("--premises")
        argv[i + 1] = "@@W/" + name
        return (tuple(argv), files + ((name, json.dumps(list(q[-4]))),), ("holds", "mv-3"))

    add("check", premise_file)

    def pcp(tag, sub, alg):
        q = pcp_query(rng, rng, alg, rng.randint(4, 6))
        _, _, base, pairs, solution = q
        name = f"{tag}.instance.json"
        files = ((name, instance_json(base, pairs)),)
        argv = [sub, "--instance", "@W/" + name]
        if sub == "pcp-model":
            argv += ["--solution", ",".join(map(str, solution)), "--algebra", alg]
        if sub == "pcp-extract":
            mname = f"{tag}.chain.json"
            files += ((mname, chain_model_json(alg, base, pairs, solution)),)
            argv += ["--model", "@W/" + mname]
        return tuple(argv), files, (alg, base, pairs, solution)

    add("pcp-encode", lambda t: pcp(t, "pcp-encode", "exp-chain"))
    add("pcp-model", lambda t: pcp(t, "pcp-model", "exp-chain"))
    add("pcp-model", lambda t: pcp(t, "pcp-model", "std-mv"))
    add("pcp-extract", lambda t: pcp(t, "pcp-extract", rng.choice(("exp-chain", "std-mv"))))

    def reduce(tag):
        names = tuple(rng.sample(NAMES, 2))
        prem = modal_formula(rng, names, 2)
        concl = modal_formula(rng, names, 2)
        return ("reduce-fin2glob", "--premises", prem, "--conclusion", concl), (), None

    add("reduce-fin2glob", reduce)

    def l2p(tag):
        names = tuple(rng.sample(NAMES, 2))
        m = _random_model(rng, rng.randint(1, 3), names, QUARTERS)
        name = f"{tag}.model.json"
        return (("l2p", "--conclusion", modal_formula(rng, names, 3), "--model", "@W/" + name),
                ((name, model_json("std-mv", *m)),), None)

    add("l2p", l2p)
    add("mod2fo", lambda t: (("mod2fo", "--conclusion",
                              modal_formula(rng, tuple(rng.sample(NAMES, 2)), 4)), (), None))

    def coenum(tag):
        pairs = [decision_query(rng, rng, "card", "std-mv", tmpl, exp, 1, negate=False)
                 for tmpl, exp in (("excluded-middle", "fails"), ("weakening", "holds"),
                                   ("t", "fails"), ("necessitation", "holds"))]
        rng.shuffle(pairs)
        name = f"{tag}.pairs.json"
        blob = json.dumps([{"premises": list(q[3]), "conclusion": q[4]} for q in pairs])
        return (("coenum", "--instance", "@W/" + name, "--budget", "1"), ((name, blob),),
                tuple(i for i, q in enumerate(pairs) if q[-2] == "fails"))

    add("coenum", coenum)

    def formula(k=2):
        return modal_formula(rng, tuple(rng.sample(NAMES, 2)), k)

    add("usage", lambda t: (("check", "--cardinality", "1", "--algebra",
                             f"mv-{rng.choice(NAMES)}", "--conclusion", formula()), (), None))
    add("usage", lambda t: (("mod2fo", "--conclusion", f"{formula()} -> ("), (), None))
    add("usage", lambda t: (("eval", "--model", f"@W/{t}.missing.json", "--conclusion",
                             formula()), (), None))
    add("usage", lambda t: (("check", "--cardinality", rng.choice(NAMES), "--conclusion",
                             formula()), (), None))
    add("guard", lambda t: (("check", "--cardinality", "4", "--algebra", "mv-3",
                             "--conclusion", formula(3)), (), None))

    def guard_frame(tag):
        # on the complete 3-world frame K needs 4^15 valuations over MV4
        q = decision_query(rng, rng, "frame", "mv-4", "k", "holds", 3, negate=False)
        worlds = q[2]
        q = q[:3] + (tuple((a, b) for a in worlds for b in worlds),) + q[4:]
        argv, files = _decision_argv(q, tag)
        return tuple(argv), files, None

    add("guard", guard_frame)
    if r % 4 == 1:  # 78 distinct (n, algebra) pairs: one every fourth round, last
        add("nec-demo", lambda t: (("nec-demo", "--n", str(rng.randint(2, 40)), "--algebra",
                                    rng.choice(("exp-chain", "std-mv"))), (), None))
    return out


def cli_defect(stream, rng, r: int) -> tuple:
    """Known-defect inputs: ``mvmodal eval`` with a 1200-deep formula (ROADMAP
    Baseline), and ``pcp-extract`` on an instance with leading-zero numerals."""
    if r % 2:
        _, alg, base, pairs, solution = pcp_query(rng, rng, rng.choice(("exp-chain", "std-mv")),
                                                  rng.randint(4, 6), zeros=True)
        files = ((f"r{r}.zeros.json", instance_json(base, pairs)),
                 (f"r{r}.zchain.json", chain_model_json(alg, base, pairs, solution)))
        return ("cli", "pcp-extract", ("pcp-extract", "--instance", f"@W/r{r}.zeros.json",
                                       "--model", f"@W/r{r}.zchain.json"), files,
                (alg, base, pairs, solution))
    text, var = deep_formula(rng, 1200)
    m = _random_model(rng, 3, (var,), (0, Fraction(1, 2), 1))
    name = f"r{r}.deep.json"
    return ("cli", "eval", ("eval", "--model", "@W/" + name, "--conclusion", text),
            ((name, model_json("std-mv", *m)),), None)


# ------------------------------------------------------------------ checks

def _arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _file(q, ref_path):
    name = ref_path.lstrip("@").replace("W/", "", 1)
    return dict(q[3])[name]


def check_cli(q, code, out, err):
    sub, argv, info = q[1], q[2], q[4]
    if sub == "usage":
        expect(code == 2 and out == "", f"usage error gave exit {code}")
        return
    if sub == "guard":
        expect(code == 3 and out == "", f"guard trip gave exit {code}")
        return
    if sub == "check":
        return _check_check(q, argv, info, code, out)
    expect(code == 0, f"{sub} exited {code}: {err.strip()[:200]}")
    blob = json.loads(out)
    terms = ref.Terms()
    if sub == "eval":
        worlds, edges, val = json_model(json.loads(_file(q, _arg(argv, "--model"))))
        f = terms.parse(_arg(argv, "--conclusion"))
        # both eval algebras (std-mv, mv-3) use the Łukasiewicz operations
        want = ref.evaluate(terms, [f], worlds, edges, val, ref.Lukasiewicz())[f]
        got = [json_value(blob["values"][w]) for w in worlds]
        expect(got == want, "eval values differ from the reference")
    elif sub == "pcp-encode":
        _check_encoding(terms, info, blob)
    elif sub == "pcp-model":
        alg, base, pairs, solution = info
        worlds, _, val = json_model(blob)
        check_chain(worlds, val, alg, pairs, base, solution)
    elif sub == "pcp-extract":
        _, base, pairs, _ = info
        expect(ref.is_solution(pairs, blob["solution"], base), "extracted a non-solution")
    elif sub == "reduce-fin2glob":
        _check_reduce(terms, argv, blob)
    elif sub == "l2p":
        _check_l2p(terms, q, argv, blob)
    elif sub == "mod2fo":
        f = terms.parse(_arg(argv, "--conclusion"))
        fo = blob["fo_ascii"]
        expect(fo.count("forall ") == terms.count(f, ("box",))
               and fo.count("exists ") == terms.count(f, ("dia",))
               and blob["fo"].count("∀") == terms.count(f, ("box",)),
               "quantifiers do not match the modalities")
    elif sub == "nec-demo":
        _check_nec(terms, argv, blob)
    elif sub == "coenum":
        _check_coenum(q, blob, info)


def _check_check(q, argv, info, code, out):
    expected, alg = info
    expect(code == (0 if expected == "holds" else 1), f"check exited {code}")
    blob = json.loads(out)
    prem_arg = _arg(argv, "--premises")
    if prem_arg.startswith("@"):
        premises = json.loads(_file(q, prem_arg[1:]))
    else:
        premises = [p for p in prem_arg.split(";") if p.strip()]
    conclusion = _arg(argv, "--conclusion")
    if _arg(argv, "--model"):
        frames = [json_model(json.loads(_file(q, _arg(argv, "--model"))))[:2]]
    elif _arg(argv, "--frame"):
        fr = json.loads(_file(q, _arg(argv, "--frame")))
        frames = [(fr["worlds"], [tuple(e) for e in fr["edges"]])]
    else:
        frames = list(ref.frames(int(_arg(argv, "--cardinality"))))
    witness = None
    if not blob["holds"]:
        w = blob["witness"]
        worlds, edges, val = json_model(w["model"])
        witness = worlds, edges, val, w["world"], json_value(w["value"])
    check_verdict(expected, alg, blob["holds"], premises, conclusion, witness, frames)


def _check_encoding(terms, info, blob):
    """Rebuild the encoding from the paper's description and compare."""
    _, base, pairs, _ = info

    def pw(t, n):
        return f"({t})^{n}" if n else "1"

    expected = ["~[]0 -> ([]x <-> <>x)", "~[]0 -> ([]y <-> <>y)",
                "~[]0 -> ([]z <-> <>z)", "~[]0 -> (z <-> []z)"]
    disjuncts = [f"((x <-> ({pw('[]x', base ** xn)} * {pw('z', xv)})) /\\ "
                 f"(y <-> ({pw('[]y', base ** yn)} * {pw('z', yv)})))"
                 for (xv, xn), (yv, yn) in pairs]
    big = disjuncts[0]
    for d in disjuncts[1:]:
        big = f"({big}) \\/ {d}"
    expected.append(big)
    got = [terms.parse(p) for p in blob["premises"]]
    expect(got == [terms.parse(e) for e in expected], "encoding premises differ")
    expect(terms.parse(blob["conclusion"])
           == terms.parse("((x <-> y)^2) -> ((x -> x * z) \\/ z)"), "encoding conclusion differs")


def _check_reduce(terms, argv, blob):
    prem = [terms.parse(s) for s in _arg(argv, "--premises").split(";") if s.strip()]
    concl = terms.parse(_arg(argv, "--conclusion"))
    p, q = blob["p"], blob["q"]
    used = set(terms.variables(prem + [concl]))
    expect(p != q and p not in used and q not in used, "fresh variables are not fresh")
    added = [terms.parse(s.replace("pp", p).replace("qq", q)) for s in FIN2GLOB]
    spread = terms.parse(SPREAD.replace("pp", p).replace("qq", q))
    expect([terms.parse(s) for s in blob["premises"]] == prem + added, "premises differ")
    expect(terms.parse(blob["conclusion"]) == terms.mk("or", concl, spread),
           "weakened conclusion differs")


def _check_l2p(terms, q, argv, blob):
    x = blob["x"]
    src = json.loads(_file(q, _arg(argv, "--model")))
    worlds, edges, val = json_model(src)
    expect(all(x not in row for row in val.values()), "translation variable not fresh")
    pworlds, pedges, pval = json_model(blob["model"])
    expect(pworlds == worlds and sorted(pedges) == sorted(edges), "frame changed")
    expect(all(pval[w][x] == 1 and all(pval[w][p] == 1 - v for p, v in val[w].items())
               for w in worlds), "translated values are not a^(1-v)")
    f = terms.parse(_arg(argv, "--conclusion"))
    g = terms.parse(blob["formula"])
    mv_vals = ref.evaluate(terms, [f], worlds, edges, val, ref.Lukasiewicz())[f]
    pc_vals = ref.evaluate(terms, [g], worlds, edges, pval, ref.PowerChain())[g]
    expect(pc_vals == [1 - v for v in mv_vals], "translated formula breaks the identity")
    expect(len(blob["product_side_premises"]) == 3, "side premises missing")


def _check_nec(terms, argv, blob):
    n = int(_arg(argv, "--n"))
    alg_name = _arg(argv, "--algebra")
    expect(blob["passed"] and len(blob["levels"]) == n + 1
           and all(lv["holds"] for lv in blob["levels"]), "separation levels do not hold")
    rows = blob["table"]
    expect(len(rows) == n + 2, "chain has the wrong length")
    worlds = [r["world"] for r in rows]
    val = {r["world"]: {"x": json_value(r["x"]), "y": json_value(r["y"])} for r in rows}
    edges = list(zip(worlds, worlds[1:]))
    prem = [terms.parse(s) for s in SEPARATION]
    final = terms.parse("x -> x * y")
    alg = ref_algebra(alg_name)
    values = ref.evaluate(terms, prem + [final], worlds, edges, val, alg)
    expect(all(values[p][i] == alg.one for p in prem for i in range(n + 1)),
           "a boxed premise is below 1 at the start world")
    expect(values[final][0] == json_value(blob["final_value"]) != alg.one,
           "final value is wrong")


def _check_coenum(q, blob, fails):
    pairs = json.loads(_file(q, _arg(q[2], "--instance")))
    emitted = blob["emitted"]
    expect(tuple(e["index"] for e in emitted) == fails, "wrong pairs refuted")
    for e in emitted:
        w = e["witness"]
        worlds, edges, val = json_model(w["model"])
        item = pairs[e["index"]]
        check_verdict("fails", "std-mv", False, item["premises"], item["conclusion"],
                      (worlds, edges, val, w["world"], json_value(w["value"])),
                      list(ref.frames(e["cardinality"])))
