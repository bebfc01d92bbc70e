"""Self-tests of the benchmark itself (not of mvmodal):

    python3 bench/selftest.py

* the same seed gives a byte-identical query list, another seed a different one;
* the answer checks reject a tampered witness and a flipped verdict;
* the cli workload's exit codes follow the README: 0, 1 with a witness, 2, 3.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import mvmodal  # noqa: E402
import mvmodal.cli  # noqa: E402,F401

import queries  # noqa: E402
import reference as ref  # noqa: E402
from workloads import WORKLOADS, Stream  # noqa: E402


def require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def rejects(env, q, result) -> bool:
    try:
        queries.check(env, q, result)
    except queries.Wrong:
        return True
    return False


def rounds(workload, seed, n=3):
    s = Stream(workload, seed)
    return repr([s.next_round() for _ in range(n)] + [s.defect()]).encode()


def test_seeded_generation(env):
    for w in WORKLOADS:
        require(rounds(w, 7) == rounds(w, 7), f"{w}: same seed, different queries")
        require(rounds(w, 7) != rounds(w, 8), f"{w}: different seeds, same queries")
        seen = Stream(w, 7).next_round()
        require(len(seen) == len(set(seen)), f"{w}: repeated query in a round")


def _find(workload, pred):
    for q in Stream(workload, 3).next_round():
        if pred(q):
            return q
    raise LookupError("no such query in the first round")


def test_decision_checks(env):
    Verdict, Witness = env.mv.kripke.Verdict, env.mv.kripke.Witness
    q = _find("luk-consequence", lambda q: q[0] == "luk" and q[-1] == "excluded-middle")
    verdict = queries.prepare(env, q)()
    queries.check(env, q, verdict)   # the genuine answer passes
    w = verdict.witness
    tampered = Verdict(False, Witness(formula=w.formula, value=w.value,
                                      valuation={k: Fraction(1) for k in w.valuation}))
    require(rejects(env, q, tampered), "accepted a witness that is no countermodel")
    wrong_value = Verdict(False, Witness(formula=w.formula, value=w.value / 2 + Fraction(1, 7),
                                         valuation=w.valuation))
    require(rejects(env, q, wrong_value), "accepted a witness with a wrong value")
    require(rejects(env, q, Verdict(True)), "accepted a flipped 'holds' verdict")
    # relabelled query: a 'holds' claim needs an instance of a valid principle
    relabelled = q[:-2] + ("holds", q[-1])
    require(rejects(env, relabelled, Verdict(True)), "accepted 'holds' for an invalid schema")

    q = _find("finite-frames", lambda q: q[0] == "frame" and q[-2] == "holds")
    verdict = queries.prepare(env, q)()
    queries.check(env, q, verdict)
    model = env.model("mv-3", q[2], q[3], tuple((w, ()) for w in q[2]))
    fake = Verdict(False, Witness(world=q[2][0], formula=None, value=Fraction(0), model=model))
    require(rejects(env, q, fake), "accepted a flipped 'fails' verdict")


def test_construction_checks(env):
    q = _find("chain-certify", lambda q: q[0] == "pcp")
    model, verdict, solution = queries.prepare(env, q)()
    queries.check(env, q, (model, verdict, solution))
    require(rejects(env, q, (model, verdict, solution + [1])), "accepted a non-solution")
    require(not ref.is_solution(q[3], [1], q[2]) or not ref.is_solution(q[3], [2], q[2]),
            "planted instance is trivially solvable")
    q = _find("chain-certify", lambda q: q[0] == "sep")
    report = queries.prepare(env, q)()
    queries.check(env, q, report)
    bad = type(report)(report.n, report.algebra, report.levels, report.algebra.one, report.model)
    require(rejects(env, q, bad), "accepted a wrong separation value")


def test_cli_exit_codes(env):
    seen = {}
    for q in Stream("cli", 5).next_round():
        code, out, err = queries.prepare(env, q)()
        queries.check(env, q, (code, out, err))
        queries.cleanup(env, q)
        seen.setdefault(code, q[1])
        if code == 1:
            require('"witness"' in out, "exit 1 without a witness")
        if q[1] == "usage":
            require(code == 2, "usage error is not exit 2")
            require(rejects(env, q, (0, "", "")), "accepted exit 0 for a usage error")
        if q[1] == "guard":
            require(code == 3, "guard trip is not exit 3")
            require(rejects(env, q, (1, "", "")), "accepted exit 1 for a guard trip")
    require(sorted(seen) == [0, 1, 2, 3], f"exit codes seen: {sorted(seen)}")


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="selftest", dir=HERE)
    env = queries.Env(mvmodal, workdir)
    failures = 0
    try:
        tests = [v for k, v in globals().items() if k.startswith("test_")]
        for test in tests:
            try:
                test(env)
                print(f"ok    {test.__name__}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL  {test.__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(tests) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
