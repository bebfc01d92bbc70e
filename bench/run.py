"""Benchmark of the mvmodal workbench.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this single process: one closed-loop client, no
threads, no worker processes.  Queries come in rounds from the seeded stream
in ``workloads.py``; each query is prepared untimed, timed around the calls
into ``mvmodal`` only, then checked untimed against ``reference.py``.  A
run plays a fixed number of rounds, set so that it takes about ``--seconds``
at the reference speed (and has at least 100 queries).

Times are wall times rescaled to a reference machine speed (``speed.py``).
``queries_per_s`` divides the verified-correct queries by the run's busy
time, taking each query's time as the lower quartile over the run of its
slot in the round (``robust_busy``); the latency percentiles use every
query's own time, a failed query counting as infinitely slow.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` untraced and traced rounds alternate and
the metrics are the per-layer ones from ``layers.json``, plus the tracing
overhead.  The traced run fails when a span predicted to be called on this
workload is never called, or one predicted zero is called.

Known-defect inputs (the ROADMAP Baseline recursion failures, and PCP
numerals with leading zeros) are run once per round on chain-certify and
cli, outside the timed set and the attempted count; their outcome by
failure type goes to stderr and to ``known_defect.failed_ratio``.
"""

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

# String hashing is randomized per process, and set iteration order in the
# case split and the translation follows the hashes, so the same query can
# cost a different amount in each process.  Pin the hash seed (by re-running
# this same process image) so runs are reproducible.
if os.environ.get("PYTHONHASHSEED") != "0" and __name__ == "__main__":
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, PYTHONHASHSEED="0"))

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import queries  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import ROUND_SECONDS, WORKLOADS, Exhausted, Stream  # noqa: E402

SETUP_REPS = 9          # set-ups per run; setup_s is their median
PREGEN_ROUNDS = 3       # rounds generated during each set-up
MIN_QUERIES = 100       # so at least 10 latency samples lie beyond p90
HARD_STOP_S = 150       # never run past this, whatever --seconds says
PROBE_WORKLOADS = ("chain-certify", "cli")


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in a run: a fixed amount of work that takes about ``seconds``
    at the reference speed.  It does not follow the machine's speed of the
    moment, so every run of a seed plays the same queries."""
    per_round = len(Stream(workload, 0).next_round())
    return max(2, round(seconds / ROUND_SECONDS[workload]), -(-MIN_QUERIES // per_round))


def import_mvmodal():
    """Fresh import of the package (every submodule), as a new process would."""
    for name in [n for n in sys.modules if n == "mvmodal" or n.startswith("mvmodal.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mv = importlib.import_module("mvmodal")
    if not os.path.abspath(mv.__file__).startswith(SRC + os.sep):
        raise ImportError(f"mvmodal imported from {mv.__file__}, not from {SRC}")
    importlib.import_module("mvmodal.cli")
    return mv


def cold_cli_start() -> None:
    """One ``python -m mvmodal.cli`` process, start to exit."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "mvmodal.cli", "mod2fo",
                           "--conclusion", "[]p -> <>q"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0 or "fo_ascii" not in proc.stdout:
        raise RuntimeError(f"cold CLI start failed: {proc.stderr.strip()[:300]}")


def setup(workload: str, seed: int, speed: Speed):
    """Repeat the set-up: import, generate the first rounds (and for cli one
    cold CLI start).  Every repetition must generate the same bytes."""
    times, first = [], None
    for _ in range(SETUP_REPS):
        speed.sample()
        t0 = time.perf_counter()
        mv = import_mvmodal()
        stream = Stream(workload, seed)
        rounds = [stream.next_round() for _ in range(PREGEN_ROUNDS)]
        if workload == "cli":
            cold_cli_start()
        t1 = time.perf_counter()
        speed.sample()
        times.append((t1 - t0) * speed.scale(t0, t1))
        blob = repr(rounds)
        if first is None:
            first = blob
        elif blob != first:
            raise RuntimeError("query generation is not deterministic")
    return statistics.median(times), mv, stream, rounds


def run_query(env, q, tracer=None, qid=None):
    """(ok, start, latency_s, failure type or None)."""
    thunk = queries.prepare(env, q)
    if tracer is not None:
        tracer.query = qid
    t0 = time.perf_counter()
    try:
        result = thunk()
        error = None
    except Exception as exc:  # the run goes on; the failure is counted by type
        error = type(exc).__name__
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.query = None
    try:
        if error is None:
            queries.check(env, q, result)
    except queries.Wrong as exc:
        error = f"wrong answer ({q[0]}/{q[1]}): {exc}"
    finally:
        queries.cleanup(env, q)
    return error is None, t0, latency, error


def quantile(sorted_values, p):
    """Linear interpolation between order statistics; inf stays inf."""
    pos = p * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    a, b = sorted_values[lo], sorted_values[hi]
    if math.isinf(b):
        return b if pos > lo else a
    return a + (b - a) * (pos - lo)


class Run:
    def __init__(self, workload, env, stream, rounds, seconds, speed):
        self.workload, self.env, self.stream, self.speed = workload, env, stream, speed
        self.pending = list(rounds)
        self.seconds = seconds
        self.results = []            # (ok, latency, error, traced, slot)
        self.probes = Counter()
        self.tracer = None

    def next_round(self):
        if self.pending:
            return self.pending.pop(0)
        return self.stream.next_round()

    def play(self, traced: bool):
        rnd = self.next_round()
        if traced:
            self.tracer.install()
        try:
            for slot, q in enumerate(rnd):
                self.speed.maybe_sample()
                ok, t0, lat, err = run_query(self.env, q, self.tracer if traced else None,
                                             len(self.results))
                self.results.append([ok, lat, err, traced, slot, t0])
        finally:
            if traced:
                self.tracer.uninstall()
        if self.workload in PROBE_WORKLOADS:
            ok, _, _, err = run_query(self.env, self.stream.defect())
            self.probes["ok" if ok else err] += 1

    def loop(self, trace: bool):
        t0 = time.perf_counter()
        if trace:
            self.tracer = Tracer()
        for r in range(rounds_for(self.workload, self.seconds)):
            try:
                self.play(traced=trace and r % 2 == 1)
            except Exhausted:
                break
            if time.perf_counter() - t0 >= HARD_STOP_S:
                break
        self.speed.sample()
        for res in self.results:   # latencies at the reference speed
            res[1] *= self.speed.scale(res[5], res[5] + res[1])


def robust_busy(results) -> float:
    """Busy time with each query's latency replaced by the lower quartile of
    its slot's (its position in the round) latencies over the run.  Every
    round has the same composition, so this is the run's busy time when the
    host is not slowing it down; such slowdowns, which the speed rescaling
    only partly removes, only ever add time."""
    typical = slot_quartiles(results)
    return sum(typical[r[4]] for r in results)


def slot_quartiles(results) -> dict[int, float]:
    """Lower quartile (nearest rank) of each slot's latencies."""
    by_slot: dict[int, list[float]] = {}
    for _, lat, _, _, slot, _ in results:
        by_slot.setdefault(slot, []).append(lat)
    return {slot: sorted(lats)[(len(lats) - 1) // 4] for slot, lats in by_slot.items()}


def end_to_end(run: Run, setup_s: float) -> dict:
    lats = sorted(lat if ok else math.inf for ok, lat, *_ in run.results)
    good = sum(ok for ok, *_ in run.results)
    busy = robust_busy(run.results)
    return {
        "queries_per_s": (good / busy, "1/s"),
        "latency_p50_ms": (quantile(lats, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(lats, 0.9) * 1e3, "ms"),
        "success_rate": (good / len(run.results), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def overhead(traced, plain) -> float:
    """Traced over untraced time per round, slot by slot (lower-quartile
    latencies of the slots both kinds of round have)."""
    t, p = slot_quartiles(traced), slot_quartiles(plain)
    common = t.keys() & p.keys()
    return sum(t[s] for s in common) / sum(p[s] for s in common) - 1


def per_layer(run: Run, layers: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics (per traced query) and trace-integrity violations."""
    mv = run.env.mv
    traced = [r for r in run.results if r[3]]
    plain = [r for r in run.results if not r[3]]
    n = len(traced)
    agg = run.tracer.summary()

    def calls(span):
        return agg.get(span, {}).get("calls", 0)

    def notes(span):
        return agg.get(span, {}).get("notes", [])

    def size(alg):
        return getattr(alg, "n", None) or alg.size

    lp_notes = notes("lp.solve_max")
    fin = notes("decision.finite_consequence")
    special = {
        "lp.solve_max.rows_mean":
            lambda: statistics.fmean(r for r, _ in lp_notes) if lp_notes else 0.0,
        "lp.solve_max.infeasible_ratio":
            lambda: sum(i for _, i in lp_notes) / len(lp_notes) if lp_notes else 0.0,
        "decision.finite_consequence.valuations": lambda: sum(
            size(a) ** len(mv.formulas.variables(tuple(g) + (p,))) for a, g, p in fin) / n,
        "decision.translate_on_frame.premises": lambda: statistics.fmean(
            len(tr.all_premises()) for tr in notes("decision.translate_on_frame"))
            if notes("decision.translate_on_frame") else 0.0,
        "pcp.encode.nodes": lambda: statistics.fmean(
            len(set().union(*map(mv.formulas.subformulas, g + (p,))))
            for g, p in notes("pcp.encode")) if notes("pcp.encode") else 0.0,
        "trace.overhead_ratio": lambda: overhead(traced, plain),
        "known_defect.failed_ratio": lambda: (
            1 - run.probes["ok"] / sum(run.probes.values()) if run.probes else 0.0),
    }
    metrics, violations = {}, []
    for name, spec in layers["metrics"].items():
        if name in special:
            value = special[name]()
        elif name.endswith(".calls"):
            value = calls(spec["span"]) / n
        else:
            value = agg.get(spec["span"], {}).get("self_s", 0.0) / n
        metrics[name] = (value, spec["unit"])
        if "span" in spec:
            c = calls(spec["span"])
            if run.workload in spec["on"] and c == 0:
                violations.append(f"{spec['span']} predicted called on {run.workload}, got 0")
            if run.workload in spec["zero_on"] and c > 0:
                violations.append(f"{spec['span']} predicted zero on {run.workload}, got {c}")
    return metrics, violations


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = os.path.join(HERE, f"_work{os.getpid()}")
    speed = Speed()
    try:
        setup_s, mv, stream, rounds = setup(args.workload, args.seed, speed)
    except (ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    os.makedirs(workdir, exist_ok=True)
    try:
        run = Run(args.workload, queries.Env(mv, workdir), stream, rounds, args.seconds, speed)
        run.loop(trace=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = Counter(err for ok, _, err, *_ in run.results if not ok)
    for err, count in sorted(errors.items()):
        print(f"failed x{count}: {err}", file=sys.stderr)
    if run.probes:
        print("known-defect inputs (untimed): "
              + ", ".join(f"{k} x{v}" for k, v in sorted(run.probes.items())), file=sys.stderr)
    if args.trace:
        with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
            layers = json.load(fh)
        metrics, violations = per_layer(run, layers)
        for v in violations:
            print(f"trace integrity: {v}", file=sys.stderr)
    else:
        metrics, violations = end_to_end(run, setup_s), []
    failed = sum(errors.values())
    out = {
        "correct": failed == 0 and not violations,
        "attempted": len(run.results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
