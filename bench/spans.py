"""Spans around mvmodal's public functions, for the traced run.

Each target is wrapped once and the wrapper is put in place of the original
in every ``mvmodal`` module namespace that holds it (for example both
``mvmodal.decision.globally_satisfies`` and ``mvmodal.kripke.globally_satisfies``),
so calls between modules are seen too.  Spans record name, start, end,
parent span and query id; a span's self time is its duration minus the
durations of its direct children.  Wrappers pass straight through while no
query is being traced, so the answer checks are never counted.
"""

from __future__ import annotations

import importlib
import sys
import time

TARGETS = (
    "lp.solve_max",
    "decision.luk_consequence", "decision.finite_consequence",
    "decision.decide_on_frame", "decision.translate_on_frame",
    "decision.decide_cardinality",
    "kripke.evaluate", "kripke.globally_satisfies", "kripke.consequence_witness",
    "kripke.model_from_json", "kripke.model_to_json",
    "formulas.parse",
    "pcp.encode", "pcp.build_chain_model", "pcp.extract_solution",
    "necessitation.verify_separation",
    "bridges.verify_exponent_identity", "bridges.model_l2p", "bridges.extend_model_pq",
    "cli.run",
)


def _note(name, args, result):
    """What a span keeps besides its times; heavy counts are derived later."""
    if name == "lp.solve_max":
        return len(args[1]), result.status == "infeasible"
    if name == "decision.finite_consequence":
        return args[0], args[1], args[2]          # algebra, premises, conclusion
    if name in ("decision.translate_on_frame", "pcp.encode"):
        return result
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent, query, note]
        self.stack: list[int] = []
        self.query: int | None = None
        self.patched: list = []  # (module, attribute, original)
        self.wrappers: set[int] = set()

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.query is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.query, None]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            span[5] = _note(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        self.wrappers.add(id(wrapper))
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "mvmodal" or n.startswith("mvmodal.")) and m is not None]
        for target in TARGETS:
            mod, attr = target.rsplit(".", 1)
            original = getattr(importlib.import_module("mvmodal." + mod), attr)
            wrapper = self._wrap(target, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self.patched.append((m, key, original))

    def uninstall(self) -> None:
        """Restore every original and check that no wrapper is left behind."""
        for m, key, original in reversed(self.patched):
            setattr(m, key, original)
        self.patched.clear()
        left = [f"{n}.{k}" for n, m in sys.modules.items()
                if (n == "mvmodal" or n.startswith("mvmodal.")) and m is not None
                for k, v in vars(m).items() if id(v) in self.wrappers]
        if left:
            raise RuntimeError(f"wrappers left in place: {left}")

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total self time and the notes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for k, (name, start, end, _, _, note) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "notes": []})
            agg["calls"] += 1
            agg["self_s"] += (end - start) - child[k]
            if note is not None:
                agg["notes"].append(note)
        return out
