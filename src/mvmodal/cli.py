"""Batch command-line surface with stable, machine-readable output.

Exit codes: 0 when a verdict holds or a construction succeeds, 1 when a
verdict fails (the witness is emitted), 2 on usage or input errors, 3 when a
resource guard trips, 4 on an internal error (recursion or memory exhausted,
or a witness that failed its own re-check).  All output is deterministic:
JSON with sorted keys by default, a human rendering behind --plain.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebras import (Algebra, ResourceLimitError, StdMV, algebra_from_json,
                       value_to_json)
from .bridges import (finite_to_global, luk2prod_formula, model_l2p,
                      modal_to_fo, render_fo, rewrite_to_fragment, product_side_premises)
from .decision import (coenumerate_nonconsequences, decide_cardinality,
                       decide_on_frame)
from .formulas import (Formula, ParseError, bottom_up, fresh_names, parse,
                       render, variables)
from .kripke import (KripkeModel, Verdict, consequence_witness, evaluate_all,
                     frame_from_json, frame_to_json, load_model,
                     model_to_json)
from .necessitation import verify_separation
from .pcp import (build_countermodel, encode, extract_solution, load_instance)

__all__ = ["run", "main"]

# the most nodes the printed tree of an l2p or mod2fo formula may have
_PRINT_GUARD = 10 ** 6


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_algebra(name: str | None) -> Algebra:
    """An ``algebra_from_json`` kind, with ``mv-<n>`` for the n-element MV
    chain; no name is the standard MV algebra."""
    if name is None:
        return StdMV()
    if name.startswith("mv-"):
        return algebra_from_json({"kind": "mv-n", "n": name[3:]})
    return algebra_from_json({"kind": name})


def _parse_list(items, what: str) -> tuple[Formula, ...]:
    if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
        raise ValueError(f"{what} must be a list of formula strings")
    return tuple(parse(s) for s in items)


def _parse_premises(spec: str | None) -> tuple[Formula, ...]:
    if not spec:
        return ()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
        try:  # a box also starts with "[", so only a JSON list is one
            items = json.loads(text)
        except json.JSONDecodeError:
            items = None
        if isinstance(items, list):
            return _parse_list(items, "--premises JSON")
        return tuple(parse(line) for line in text.splitlines() if line.strip())
    return tuple(parse(part) for part in spec.split(";") if part.strip())


def _guard_print(f: Formula) -> None:
    """Refuse to print ``f`` when its tree, the interned DAG expanded as the
    printers spell it, has more than ``_PRINT_GUARD`` nodes; one pass over
    the DAG, with the count capped so it stays a small int."""
    size = bottom_up([f], lambda g, *sizes: min(1 + sum(sizes), _PRINT_GUARD + 1))[0]
    if size > _PRINT_GUARD:
        raise ResourceLimitError(
            f"formula to print exceeds the print guard ({_PRINT_GUARD} nodes)")


def _emit(obj, plain: str | None, use_plain: bool) -> None:
    if use_plain and plain is not None:
        print(plain)
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _witness_json(verdict: Verdict, alg: Algebra) -> dict:
    w = verdict.witness
    out: dict = {}
    if w.world is not None:
        out["world"] = w.world
    if w.value is not None:
        out["value"] = value_to_json(alg, w.value)
    if w.model is not None:
        out["model"] = model_to_json(w.model)
        out["frame"] = frame_to_json(w.model.frame)
    return out


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    f = parse(args.conclusion)
    (col,) = evaluate_all(model, [f])
    values = {w: value_to_json(model.algebra, v) for w, v in zip(model.worlds, col)}
    plain = "\n".join(f"{w}: {values[w]}" for w in model.worlds)
    _emit({"formula": render(f), "values": values}, plain, args.plain)
    return 0


def _cmd_check(args) -> int:
    gamma = _parse_premises(args.premises)
    phi = parse(args.conclusion)
    if args.model is not None:
        if args.algebra is not None:
            raise ValueError("--algebra does not apply to --model: "
                             "the model file names its algebra")
        model = load_model(args.model)
        alg = model.algebra
        verdict = consequence_witness(model, gamma, phi)
    else:
        alg = _parse_algebra(args.algebra)
        if args.frame is not None:
            frame = frame_from_json(_load_json(args.frame))
            verdict = decide_on_frame(frame, gamma, phi, alg)
        else:
            verdict = decide_cardinality(args.cardinality, gamma, phi, alg)
    if verdict.holds:
        _emit({"holds": True}, "holds", args.plain)
        return 0
    out = {"holds": False, "witness": _witness_json(verdict, alg)}
    plain = f"fails at world {verdict.witness.world}" \
        if verdict.witness.world else "fails"
    _emit(out, plain, args.plain)
    return 1


def _emit_consequence(gamma, phi, use_plain: bool, **extra) -> int:
    """Emit a consequence pair; ``--plain`` prints the premises, ``|-`` and
    the conclusion one a line."""
    out = {"premises": [render(g) for g in gamma], "conclusion": render(phi), **extra}
    _emit(out, "\n".join([*out["premises"], "|-", out["conclusion"]]), use_plain)
    return 0


def _cmd_pcp_encode(args) -> int:
    return _emit_consequence(*encode(load_instance(args.instance)), args.plain)


def _parse_solution(spec: str) -> list[int]:
    indices = []
    for s in filter(str.strip, spec.split(",")):
        try:
            indices.append(int(s))
        except ValueError:
            raise ValueError("--solution takes comma-separated pair indices, "
                             f"not {s.strip()!r}") from None
    return indices


def _cmd_pcp_model(args) -> int:
    instance = load_instance(args.instance)
    alg = _parse_algebra(args.algebra)
    model = build_countermodel(instance, _parse_solution(args.solution), alg)
    out = model_to_json(model)
    plain = "\n".join(
        f"{w}: " + ", ".join(f"{p}={out['valuation'][w][p]}" for p in model.variables)
        for w in model.worlds)
    _emit(out, plain, args.plain)
    return 0


def _cmd_pcp_extract(args) -> int:
    instance = load_instance(args.instance)
    model = load_model(args.model)
    entered = {b for _, b in model.frame.edges}
    targets = [w for w in model.worlds if w not in entered]
    if len(targets) != 1:
        raise ValueError("model does not have a unique top world")
    solution = extract_solution(instance, model, targets[0])
    _emit({"solution": solution, "top": targets[0]},
          ",".join(map(str, solution)), args.plain)
    return 0


def _cmd_reduce(args) -> int:
    gamma = _parse_premises(args.premises)
    phi = parse(args.conclusion)
    p, q = fresh_names(variables(gamma + (phi,)), ["p", "q"])
    return _emit_consequence(*finite_to_global(gamma, phi, p, q), args.plain, p=p, q=q)


def _cmd_l2p(args) -> int:
    if not args.conclusion and not args.model:
        raise ValueError("l2p needs --conclusion and/or --model")
    out: dict = {}
    plain_lines = []
    used: set[str] = set()
    phi = parse(args.conclusion) if args.conclusion else None
    model = load_model(args.model) if args.model else None
    if phi is not None:
        used |= variables(phi)
    if model is not None:
        used |= set(model.variables)
    (x,) = fresh_names(used, ["t"])
    out["x"] = x
    out["product_side_premises"] = [render(f) for f in product_side_premises(x)]
    if phi is not None:
        translated = luk2prod_formula(rewrite_to_fragment(phi), x)
        _guard_print(translated)
        out["formula"] = render(translated)
        plain_lines.append(out["formula"])
    if model is not None:
        out["model"] = model_to_json(model_l2p(model, x))
        plain_lines.append(f"model with {len(model.worlds)} worlds translated")
    _emit(out, "\n".join(plain_lines), args.plain)
    return 0


def _cmd_mod2fo(args) -> int:
    f = parse(args.conclusion)
    _guard_print(f)  # the first-order tree grows linearly with f's
    fo = modal_to_fo(f, 0)
    out = {"fo": render_fo(fo), "fo_ascii": render_fo(fo, ascii_only=True)}
    _emit(out, out["fo"], args.plain)
    return 0


def _cmd_nec_demo(args) -> int:
    alg = _parse_algebra(args.algebra)
    report = verify_separation(args.n, alg)
    out = report.to_json()
    rows = [f"{r['world']}: x={r['x']} y={r['y']}" for r in out["table"]]
    plain = "\n".join(rows + [f"final x -> x*y at start: {out['final_value']}",
                              "pass" if report.passed else "FAIL"])
    _emit(out, plain, args.plain)
    return 0 if report.passed else 1


def _cmd_coenum(args) -> int:
    raw = _load_json(args.instance)
    if not isinstance(raw, list) or not all(
            isinstance(item, dict) and isinstance(item.get("conclusion"), str)
            for item in raw):
        raise ValueError("coenum --instance must be a JSON list of objects, "
                         "each with a string 'conclusion'")
    pairs = [(_parse_list(item.get("premises", []), "'premises'"),
              parse(item["conclusion"])) for item in raw]
    emitted = coenumerate_nonconsequences(pairs, args.budget)
    alg = StdMV()
    out = {"emitted": [
        {"index": e.index,
         "premises": [render(g) for g in e.premises],
         "conclusion": render(e.conclusion),
         "cardinality": e.cardinality,
         "witness": _witness_json(e.verdict, alg)}
        for e in emitted
    ]}
    plain = "\n".join(
        f"#{e.index}: {'; '.join(render(g) for g in e.premises)} |/- "
        f"{render(e.conclusion)} (cardinality {e.cardinality})"
        for e in emitted) or "nothing refuted within budget"
    _emit(out, plain, args.plain)
    return 0


# flag -> argparse keyword arguments
_FLAGS = {
    "--algebra": {"help": "std-mv | std-godel | std-product | exp-chain | mv-<n>"},
    "--model": {"help": "model file (JSON)"},
    "--frame": {"help": "frame file (JSON)"},
    "--cardinality": {"type": int, "help": "model cardinality bound"},
    "--premises": {"default": "", "help": "semicolon-separated formulas, or @FILE"},
    "--conclusion": {"help": "formula"},
    "--instance": {"help": "instance file (JSON)"},
    "--solution": {"help": "indices i1,i2,..."},
    "--n": {"type": int, "help": "box-prefix depth"},
    "--budget": {"type": int, "help": "co-enumeration stage budget"},
}

# name, handler, help, flags: a trailing "!" marks a required flag, and
# "a|b|c" a required choice of exactly one of a, b and c
_COMMANDS = (
    ("eval", _cmd_eval, "evaluate a formula at every world of a model",
     ("--model!", "--conclusion!")),
    ("check", _cmd_check,
     "global-consequence verdict on a model, a frame, or all frames of a cardinality",
     ("--model|--frame|--cardinality", "--algebra", "--premises", "--conclusion!")),
    ("pcp-encode", _cmd_pcp_encode, "encode an instance into premises and conclusion",
     ("--instance!",)),
    ("pcp-model", _cmd_pcp_model, "build the chain countermodel of a solution",
     ("--instance!", "--solution!", "--algebra")),
    ("pcp-extract", _cmd_pcp_extract, "extract the solution spelled by a chain model",
     ("--instance!", "--model!")),
    ("reduce-fin2glob", _cmd_reduce,
     "reduce finite-model consequence to unrestricted global consequence",
     ("--premises", "--conclusion!")),
    ("l2p", _cmd_l2p, "translate a formula and/or model to the product side",
     ("--conclusion", "--model")),
    ("mod2fo", _cmd_mod2fo, "standard first-order translation of a modal formula",
     ("--conclusion!",)),
    ("nec-demo", _cmd_nec_demo, "chain countermodel separating global consequence "
     "from local consequence plus necessitation", ("--n!", "--algebra")),
    ("coenum", _cmd_coenum, "co-enumerate refutable pairs from a seeded list",
     ("--instance!", "--budget!")),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of ``_COMMANDS``, built on first use."""
    parser = argparse.ArgumentParser(
        prog="mvmodal",
        description="workbench for many-valued modal logics over residuated lattices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        for spec in flags:
            if "|" in spec:
                group = p.add_mutually_exclusive_group(required=True)
                for flag in spec.split("|"):
                    group.add_argument(flag, **_FLAGS[flag])
            else:
                flag = spec.rstrip("!")
                p.add_argument(flag, required=spec.endswith("!"), **_FLAGS[flag])
        p.add_argument("--plain", action="store_true", help="human-readable output")
    return parser


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.fn(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other failure is the program's (a failed witness re-check is a
        # RuntimeError), never a failed verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
