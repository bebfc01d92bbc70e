"""Machine-speed calibration for the timings.

On the shared hosts this benchmark runs on, the CPU slows by up to half for
a second or more at a time, so the same query's wall time moves by tens of
percent between runs.  A fixed kernel, which no change to mvmodal can touch,
is timed between queries: the reference parser and evaluator on a fixed
formula and model, exact Gaussian elimination over ``Fraction`` (like the
LP), and a JSON round trip (like the CLI).  Each query's wall latency is
rescaled to the speed at which the kernel takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / (kernel time around the query)

Reported times are therefore wall times at a fixed reference speed; on this
benchmark's host, in its fast state, they are about what a clock shows.
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import time
from fractions import Fraction

import reference as ref

REFERENCE_S = 0.005   # kernel time that defines the reference speed
INTERVAL_S = 0.1      # at most this long between two samples


def _kernel_inputs():
    rng = random.Random("speed-kernel")
    names = ("a", "b", "c")

    def formula(d):
        if d == 0:
            return rng.choice(names)
        op = rng.choice(("*", "->", "/\\", "\\/", "[]", "<>"))
        if op in ("[]", "<>"):
            return f"{op}({formula(d - 1)})"
        return f"({formula(d - 1)}) {op} ({formula(d - 1)})"

    worlds = [f"w{i}" for i in range(12)]
    edges = [(a, b) for a in worlds for b in worlds if rng.random() < 0.3]
    val = {w: {p: Fraction(rng.randrange(13), 12) for p in names} for w in worlds}
    matrix = [[Fraction(rng.randrange(1, 60), rng.randrange(1, 60)) for _ in range(9)]
              for _ in range(8)]
    doc = {"worlds": worlds, "edges": [list(e) for e in edges],
           "valuation": {w: {p: str(v) for p, v in row.items()} for w, row in val.items()}}
    return formula(7), worlds, edges, val, matrix, doc


def _eliminate(matrix):
    rows = [r[:] for r in matrix]
    for c in range(len(rows)):
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i, r in enumerate(rows):
            if i != c and r[c]:
                f = r[c]
                rows[i] = [a - f * b for a, b in zip(r, rows[c])]
    return rows


class Speed:
    def __init__(self):
        self.text, self.worlds, self.edges, self.val, self.matrix, self.doc = _kernel_inputs()
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        terms = ref.Terms()
        f = terms.parse(self.text)
        ref.evaluate(terms, [f], self.worlds, self.edges, self.val, ref.Lukasiewicz())
        _eliminate(self.matrix)
        json.loads(json.dumps(self.doc, indent=2, sort_keys=True))
        return time.perf_counter() - t0

    def sample(self) -> None:
        """Best of two kernel runs, so a single interrupt does not count."""
        t = time.perf_counter()
        self.times.append(t)
        self.kernel_s.append(min(self._kernel() for _ in range(2)))

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the kernel time of the samples just before t0 and
        just after t1."""
        i = bisect.bisect_right(self.times, t0) - 1
        j = bisect.bisect_left(self.times, t1)
        around = [self.kernel_s[k] for k in (i, j) if 0 <= k < len(self.times)]
        return REFERENCE_S / statistics.fmean(around)
