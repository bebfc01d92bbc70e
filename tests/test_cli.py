import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mvmodal import lp
from mvmodal.bridges import luk2prod_formula, rewrite_to_fragment
from mvmodal.cli import run
from mvmodal.formulas import bottom_up, parse
from mvmodal.kripke import model_from_json

P0_JSON = {"base": 2, "pairs": [[["1", 1], ["3", 2]], [["3", 2], ["1", 1]]]}
CHAIN2 = {"worlds": ["w1", "w2"], "edges": [["w1", "w2"]]}


@pytest.fixture
def files(tmp_path):
    p0 = tmp_path / "p0.json"
    p0.write_text(json.dumps(P0_JSON))
    fr = tmp_path / "chain2.json"
    fr.write_text(json.dumps(CHAIN2))
    return {"p0": str(p0), "frame": str(fr), "dir": tmp_path}


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_frame_fails_with_witness(files, capsys):
    code, out = invoke(capsys, ["check", "--frame", files["frame"],
                                "--algebra", "std-mv",
                                "--premises", "[]p", "--conclusion", "p"])
    assert code == 1
    blob = json.loads(out)
    assert blob["holds"] is False
    model = model_from_json(blob["witness"]["model"])
    assert blob["witness"]["world"] == "w1"
    # witness re-verifies through eval
    mfile = files["dir"] / "witness.json"
    mfile.write_text(json.dumps(blob["witness"]["model"]))
    code2, out2 = invoke(capsys, ["eval", "--model", str(mfile),
                                  "--conclusion", "p"])
    assert code2 == 0
    values = json.loads(out2)["values"]
    assert values[blob["witness"]["world"]] != "1"


def test_check_holds_exit_zero(files, capsys):
    code, out = invoke(capsys, ["check", "--frame", files["frame"],
                                "--algebra", "std-mv",
                                "--premises", "p", "--conclusion", "[]p"])
    assert code == 0 and json.loads(out) == {"holds": True}


def test_check_cardinality(files, capsys):
    code, out = invoke(capsys, ["check", "--cardinality", "1",
                                "--algebra", "std-mv",
                                "--conclusion", "[]p -> p"])
    assert code == 1
    code, _ = invoke(capsys, ["check", "--cardinality", "2",
                              "--algebra", "mv-3",
                              "--premises", "p", "--conclusion", "[]p"])
    assert code == 0
    # a premise file that is not JSON holds one formula a line
    pfile = files["dir"] / "premises.txt"
    pfile.write_text("<>r\n\n[](p -> q)\n")
    argv = ["check", "--cardinality", "2", "--conclusion", "[]q \\/ (r * ~p)"]
    from_file = invoke(capsys, argv + ["--premises", f"@{pfile}"])
    assert from_file[0] == 1
    assert from_file == invoke(capsys, argv + ["--premises", "<>r; [](p -> q)"])
    # a first formula that starts with a box does not make the file JSON
    pfile.write_text("[](p -> q)\n<>r\n")
    argv[3:3] = ["--algebra", "std-mv"]
    from_file = invoke(capsys, argv + ["--premises", f"@{pfile}"])
    assert from_file[0] == 1
    assert from_file == invoke(capsys, argv + ["--premises", "[](p -> q); <>r"])


def test_check_model_mode(files, capsys, tmp_path):
    code, out = invoke(capsys, ["pcp-model", "--instance", files["p0"],
                                "--solution", "1,2", "--algebra", "std-mv"])
    assert code == 0
    mfile = tmp_path / "m.json"
    mfile.write_text(out)
    code, out = invoke(capsys, ["check", "--model", str(mfile),
                                "--premises", "z", "--conclusion", "x"])
    assert code == 0  # premises not satisfied: vacuous
    code, out = invoke(capsys, ["check", "--model", str(mfile),
                                "--premises", "x <-> x", "--conclusion", "z"])
    assert code == 1


@pytest.mark.parametrize("algebra, value", [
    ({"kind": "exp-chain"}, {"pow": True}),
    ({"kind": "exp-chain"}, {"pow": 0.5}),
    ({"kind": "finite-table", "tables": {"size": 2, "meet": [[0, 0], [0, 1]],
                                         "join": [[0, 1], [1, 1]],
                                         "times": [[0, 0], [0, 1]],
                                         "residuum": [[1, 1], [0, 1]]}}, True),
])
def test_check_model_refuses_float_and_bool_values(capsys, tmp_path, algebra, value):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"algebra": algebra, "worlds": ["a"], "edges": [],
                                 "valuation": {"a": {"p": value}}}))
    assert invoke(capsys, ["check", "--model", str(mfile), "--conclusion", "p"]) == (2, "")


@pytest.mark.parametrize("argv", [["eval"], ["check"], ["check", "--premises", "p"]])
def test_missing_variable_is_an_input_error(capsys, tmp_path, argv):
    # the evaluator's KeyError is printed as its message, without the quotes
    # that str() of a KeyError adds
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"algebra": {"kind": "std-mv"}, "worlds": ["a"],
                                 "edges": [], "valuation": {"a": {"p": "1"}}}))
    code = run([*argv, "--model", str(mfile), "--conclusion", "[]q"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: no value for variable 'q' at world 'a'\n"


@pytest.mark.parametrize("field, message", [
    ("worlds", "worlds must be a JSON list"), ("edges", "edges must be a JSON list"),
    ("algebra", "an algebra must be a JSON object, got None")])
def test_model_file_without_a_field_names_it(capsys, tmp_path, field, message):
    # a missing field is named in the message, not printed as a bare key
    model = {"algebra": {"kind": "std-mv"}, "worlds": ["a"], "edges": [],
             "valuation": {"a": {"p": "1"}}}
    del model[field]
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(model))
    assert run(["eval", "--model", str(mfile), "--conclusion", "p"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_pcp_pipeline(files, capsys, tmp_path):
    code, out = invoke(capsys, ["pcp-encode", "--instance", files["p0"]])
    assert code == 0
    enc = json.loads(out)
    assert len(enc["premises"]) == 5
    gfile = tmp_path / "gamma.json"
    gfile.write_text(json.dumps(enc["premises"]))

    code, out = invoke(capsys, ["pcp-model", "--instance", files["p0"],
                                "--solution", "1,2", "--algebra", "exp-chain"])
    assert code == 0
    mfile = tmp_path / "me.json"
    mfile.write_text(out)

    # the emitted model globally satisfies the encoded premises
    code, out = invoke(capsys, ["check", "--model", str(mfile),
                                "--premises", "@" + str(gfile),
                                "--conclusion", enc["conclusion"]])
    assert code == 1  # refuted at the top world: that is the point

    code, out = invoke(capsys, ["pcp-extract", "--instance", files["p0"],
                                "--model", str(mfile)])
    assert code == 0
    assert json.loads(out)["solution"] == [1, 2]


@pytest.mark.parametrize("alg, values, expected", [
    ("std-mv", {"a": "1/2", "b": "1"}, {"a": "0", "b": "1"}),
    ("exp-chain", {"a": {"pow": "1/3"}, "b": {"pow": "0"}},
     {"a": {"pow": "1000000000000/3"}, "b": {"pow": "0"}}),
])
def test_huge_powers_stay_small(tmp_path, capsys, alg, values, expected):
    # p^(10^12) has 52 nodes; built as a linear product it would exhaust memory
    power = "p^1000000000000"
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"algebra": {"kind": alg}, "worlds": ["a", "b"],
                                 "edges": [["a", "b"]],
                                 "valuation": {w: {"p": v} for w, v in values.items()}}))
    start = time.perf_counter()
    code, out = invoke(capsys, ["eval", "--model", str(model), "--conclusion", power])
    assert code == 0
    assert json.loads(out) == {"formula": f"({power})", "values": expected}
    # no propositional decision runs over exp-chain, so its check is on the model
    where = (["--cardinality", "1", "--algebra", alg] if alg == "std-mv"
             else ["--model", str(model)])
    code, out = invoke(capsys, ["check", *where, "--conclusion", f"[]{power} -> []p"])
    assert code == 0 and json.loads(out) == {"holds": True}
    assert time.perf_counter() - start < 5


def test_determinism(files, capsys):
    args = ["check", "--frame", files["frame"], "--algebra", "std-mv",
            "--premises", "[]p", "--conclusion", "p"]
    _, out1 = invoke(capsys, args)
    _, out2 = invoke(capsys, args)
    assert out1 == out2


def test_output_does_not_depend_on_hash_seed(files):
    # every process draws a fresh string hash seed, so iteration over sets
    # and dicts of names must never reach the output
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    frame = files["dir"] / "frame.json"
    frame.write_text(json.dumps({"worlds": ["b", "a", "c"],
                                 "edges": [["a", "a"], ["b", "a"], ["c", "b"]]}))
    query = ["--premises", "[](p -> q); <>r", "--conclusion", "[]q \\/ (r * ~p)"]
    for mode in (["--cardinality", "2", "--algebra", "std-mv"],
                 ["--cardinality", "2", "--algebra", "mv-3"],
                 ["--frame", str(frame)]):
        outs = []
        for seed in ("0", "1"):
            done = subprocess.run(
                [sys.executable, "-m", "mvmodal.cli", "check", *mode, *query],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
            assert done.returncode == 1, (mode, done.stderr)
            outs.append(done.stdout)
        assert outs[0] == outs[1], mode


def test_nec_demo(capsys):
    code, out = invoke(capsys, ["nec-demo", "--n", "2"])
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    assert blob["final_value"] == "4/5"
    assert [row["x"] for row in blob["table"]] == ["2/5", "3/5", "4/5", "1"]
    code, out = invoke(capsys, ["nec-demo", "--n", "1", "--algebra", "exp-chain"])
    assert code == 0
    assert json.loads(out)["final_value"] == {"pow": "1"}


def test_coenum(tmp_path, capsys):
    pairs = [
        {"premises": [], "conclusion": "p \\/ ~p"},
        {"premises": ["p"], "conclusion": "p"},
        {"premises": [], "conclusion": "[]p -> p"},
    ]
    pfile = tmp_path / "pairs.json"
    pfile.write_text(json.dumps(pairs))
    code, out = invoke(capsys, ["coenum", "--instance", str(pfile),
                                "--budget", "2"])
    assert code == 0
    blob = json.loads(out)
    assert [e["index"] for e in blob["emitted"]] == [0, 2]


def test_mod2fo(capsys):
    code, out = invoke(capsys, ["mod2fo", "--conclusion", "[]p"])
    assert code == 0
    blob = json.loads(out)
    assert blob["fo"] == "∀x1 (R(x0,x1) -> P_p(x1))"
    assert blob["fo_ascii"] == "forall x1 (R(x0,x1) -> P_p(x1))"
    # the translation and the printer do not recurse
    n = 10 ** 4
    code, out = invoke(capsys, ["mod2fo", "--conclusion", "[]" * n + "p"])
    assert code == 0
    fo = json.loads(out)["fo"]
    assert fo.startswith("∀x1 (R(x0,x1) -> (∀x2 (R(x1,x2) -> (∀x3 ")
    assert fo.endswith(f"(R(x{n - 1},x{n}) -> P_p(x{n}))" + "))" * (n - 1))
    assert fo.count("∀") == n


def test_reduce_and_l2p(capsys, tmp_path):
    code, out = invoke(capsys, ["reduce-fin2glob", "--premises", "r",
                                "--conclusion", "r"])
    assert code == 0
    blob = json.loads(out)
    assert blob["p"] == "p" and blob["q"] == "q"
    assert len(blob["premises"]) == 4

    code, out = invoke(capsys, ["l2p", "--conclusion", "~p"])
    assert code == 0
    blob = json.loads(out)
    assert blob["x"] == "t"
    assert blob["formula"] == "((p \\/ t) -> t)"
    assert len(blob["product_side_premises"]) == 3

    # each value v becomes a^(1-v), and the fresh variable the base a
    model = {"algebra": {"kind": "std-mv"}, "worlds": ["a"], "edges": [],
             "valuation": {"a": {"p": "1/4"}}}
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(model))
    code, out = invoke(capsys, ["l2p", "--model", str(mfile)])
    assert code == 0
    blob = json.loads(out)
    assert blob["model"]["algebra"] == {"kind": "exp-chain"}
    assert blob["model"]["valuation"]["a"] == {"p": {"pow": "3/4"}, "t": {"pow": "1"}}


def conjunction(k, v):
    return "(" + " /\\ ".join(f"{v}{i}" for i in range(k)) + ")"


def test_print_guard_exits_3(capsys):
    # README, "Guard rails": the /\ rewrite doubles its left operand, so
    # the printed tree of 24 nested conjunctions has 83,886,073 nodes; and
    # p^(10^12) is a small DAG whose first-order tree is not
    for argv in (["l2p", "--conclusion", conjunction(24, "p")],
                 ["mod2fo", "--conclusion", "p^1000000000000"]):
        start = time.perf_counter()
        assert run(argv) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("resource guard: formula to print exceeds "
                                "the print guard (1000000 nodes)\n")


def test_print_guard_passes_a_formula_just_under_it(capsys):
    text = (f"{conjunction(17, 'p')} -> ({conjunction(15, 'q')} -> "
            f"({conjunction(14, 'r')} -> {conjunction(13, 's')}))")
    translated = luk2prod_formula(rewrite_to_fragment(parse(text)), "t")
    assert bottom_up([translated], lambda g, *sizes: 1 + sum(sizes)) == [942_055]
    code, out = invoke(capsys, ["l2p", "--conclusion", text])
    assert code == 0
    # the bytes printed before the guard existed
    assert len(out.encode()) == 3_674_370
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c095bab65bbe8c8e7b2d85de74a3deedf7eaa349b6017a8a78e4065b3982a41f")


def test_documented_frame_guards_exit_3(files, capsys):
    # README, "Guard rails": the finite guard counts one name per modal
    # subformula and world, so both trip although few variables are free
    assert run(["check", "--cardinality", "3", "--algebra", "mv-3",
                "--premises", "[](p -> q); []p", "--conclusion", "[]q"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource guard: 3^15 valuations exceed the "
                            "search guard 10000000\n")
    worlds = ["w1", "w2", "w3"]
    complete = files["dir"] / "complete3.json"
    complete.write_text(json.dumps(
        {"worlds": worlds, "edges": [[a, b] for a in worlds for b in worlds]}))
    assert run(["check", "--frame", str(complete), "--algebra", "mv-4",
                "--conclusion", "[](p -> q) -> ([]p -> []q)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource guard: 4^15 valuations exceed the "
                            "search guard 10000000\n")


def test_usage_errors(files, capsys):
    assert run(["check", "--conclusion", "p -> ("]) == 2
    assert run(["check", "--frame", files["frame"], "--cardinality", "1",
                "--conclusion", "p"]) == 2  # two modes at once
    assert run(["eval", "--conclusion", "p"]) == 2  # missing model
    # an empty mode value is a file name that does not exist
    assert run(["check", "--model", "", "--conclusion", "p"]) == 2
    assert run(["check", "--frame", "", "--conclusion", "p"]) == 2
    assert run(["nope"]) == 2
    assert run(["check", "--frame", files["frame"], "--weird"]) == 2
    assert run(["check", "--cardinality", "9", "--algebra", "std-mv",
                "--conclusion", "p"]) == 3  # cardinality guard
    capsys.readouterr()
    # the table guard trips before any table is built, type elimination's too
    assert run(["check", "--algebra", "mv-1000000", "--cardinality", "1",
                "--conclusion", "p \\/ ~p"]) == 3  # MV chain table guard
    assert capsys.readouterr().err == (
        "resource guard: four 1000000x1000000 operation tables exceed the "
        "search guard 10000000\n")
    assert run(["coenum", "--instance", files["p0"], "--budget", "1",
                "--jobs", "2"]) == 2  # the flag is gone
    # --instance must be a list of objects with a string conclusion
    bad = files["dir"] / "bad.json"
    for blob in ([{"premises": ["p"]}], [{"conclusion": 1}], ["p"],
                 [{"conclusion": "p", "premises": [1]}]):
        bad.write_text(json.dumps(blob))
        assert run(["coenum", "--instance", str(bad), "--budget", "1"]) == 2, blob
    assert run(["coenum", "--instance", files["p0"], "--budget", "1"]) == 2
    # JSON premise files hold formula strings only
    bad.write_text("[1]")
    assert run(["check", "--cardinality", "1", "--premises", f"@{bad}",
                "--conclusion", "p"]) == 2
    # frame, model and instance files of the wrong shape are input errors
    bad.write_text("[1, 2]")
    assert run(["check", "--frame", str(bad), "--conclusion", "p"]) == 2
    assert run(["eval", "--model", str(bad), "--conclusion", "p"]) == 2
    assert run(["pcp-encode", "--instance", str(bad)]) == 2
    model = {"algebra": {"kind": "std-mv"}, "worlds": ["a"], "edges": [],
             "valuation": {"a": {"p": "1"}}}
    bad.write_text(json.dumps(model))
    assert run(["eval", "--model", str(bad), "--conclusion", "p"]) == 0
    # a model file names its own algebra, so --algebra beside --model is an
    # error, even when it names the model's algebra
    assert run(["check", "--model", str(bad), "--conclusion", "p"]) == 0
    capsys.readouterr()
    for name in ("nonsense", "std-mv"):
        assert run(["check", "--model", str(bad), "--algebra", name,
                    "--conclusion", "p"]) == 2, name
        out, err = capsys.readouterr()
        assert out == "" and "--algebra" in err, name
    for change in ({"valuation": {"a": 5}}, {"edges": [1]}, {"algebra": "std-mv"},
                   {"worlds": [["a"]]}):
        bad.write_text(json.dumps({**model, **change}))
        assert run(["eval", "--model", str(bad), "--conclusion", "p"]) == 2, change
    # world names and edge endpoints are strings
    bad.write_text(json.dumps({**model, "worlds": [1], "valuation": {}}))
    assert run(["eval", "--model", str(bad), "--conclusion", "1"]) == 2
    bad.write_text(json.dumps({"worlds": ["a", "b"], "edges": [["a", ["b"]]]}))
    assert run(["check", "--frame", str(bad), "--conclusion", "p"]) == 2
    capsys.readouterr()
    # a valuation row for a world the model does not have
    bad.write_text(json.dumps({**model, "valuation": {"a": {"p": "1/2"},
                                                      "b": {"p": "1"}}}))
    assert run(["eval", "--model", str(bad), "--conclusion", "p"]) == 2
    assert capsys.readouterr().out == ""
    # a chain model has exactly one world without a predecessor
    bad.write_text(json.dumps({**model, "worlds": ["a", "b"],
                               "valuation": {"a": {"p": "1"}, "b": {"p": "1"}}}))
    assert run(["pcp-extract", "--instance", files["p0"], "--model", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: model does not have a unique top world\n"
    # malformed values are input errors, not internal ones
    g2 = {"size": 2, "meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]],
          "times": [[0, 0], [0, 1]], "residuum": [[1, 1], [0, 1]], "one": "1"}
    for change in ({"valuation": {"a": {"p": "1/0"}}},
                   {"algebra": {"kind": "exp-chain"},
                    "valuation": {"a": {"p": {"pow": "1/0"}}}},
                   {"algebra": {"kind": "exp-chain"},
                    "valuation": {"a": {"p": {"pow": 0.1}}}},  # not exact
                   {"algebra": {"kind": "mv-n", "n": None}},
                   {"algebra": {"kind": "finite-table", "tables": g2},
                    "valuation": {"a": {"p": 1}}}):
        bad.write_text(json.dumps({**model, **change}))
        assert run(["eval", "--model", str(bad), "--conclusion", "p"]) == 2, change
        assert capsys.readouterr().out == ""
    for instance in ({**P0_JSON, "pairs": [[[None, 1], ["3", 2]]]},
                     {**P0_JSON, "base": []}):
        bad.write_text(json.dumps(instance))
        for argv in (["pcp-encode"], ["pcp-model", "--solution", "1"]):
            assert run([*argv, "--instance", str(bad)]) == 2, (argv, instance)
            assert capsys.readouterr().out == ""
    # --algebra names go through the model files' algebra decoder
    for name in ("mv-1", "mv-p", "finite-table", "std-nope"):
        assert run(["check", "--cardinality", "1", "--algebra", name,
                    "--conclusion", "p"]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# each subcommand with its required flags (check with one of its three modes);
# every one of these runs, and a copy without any one of its flags, or check
# with two modes, is a usage error
COMPLETE = [
    ["eval", "--model", "{model}", "--conclusion", "x"],
    ["check", "--frame", "{frame}", "--conclusion", "p"],
    ["pcp-encode", "--instance", "{p0}"],
    ["pcp-model", "--instance", "{p0}", "--solution", "1,2"],
    ["pcp-extract", "--instance", "{p0}", "--model", "{model}"],
    ["reduce-fin2glob", "--conclusion", "p"],
    ["l2p", "--conclusion", "p"],
    ["mod2fo", "--conclusion", "p"],
    ["nec-demo", "--n", "1"],
    ["coenum", "--instance", "{pairs}", "--budget", "1"],
]


def _without(argv, flag):
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


USAGE = [(argv, _without(argv, flag)) for argv in COMPLETE for flag in argv[1::2]]
USAGE += [(COMPLETE[1], COMPLETE[1] + extra)
          for extra in (["--model", "{model}"], ["--cardinality", "1"])]


@pytest.fixture
def complete_files(files, capsys, tmp_path):
    assert run(["pcp-model", "--instance", files["p0"], "--solution", "1,2"]) == 0
    model = tmp_path / "chain.json"
    model.write_text(capsys.readouterr().out)
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([{"conclusion": "p"}]))
    return {**files, "model": str(model), "pairs": str(pairs)}


@pytest.mark.parametrize("complete, broken", USAGE, ids=[" ".join(b) for _, b in USAGE])
def test_missing_or_conflicting_flags(complete_files, capsys, complete, broken):
    assert run([a.format(**complete_files) for a in complete]) in (0, 1)
    capsys.readouterr()
    assert run([a.format(**complete_files) for a in broken]) == 2
    assert capsys.readouterr().out == ""


def test_one_parser_serves_every_run(files, capsys):
    a = ["check", "--frame", files["frame"], "--premises", "[]p", "--conclusion", "p"]
    b = ["check", "--cardinality", "1", "--algebra", "mv-3", "--premises", "q",
         "--conclusion", "[]q", "--plain"]
    first = invoke(capsys, a)
    assert first[0] == 1
    assert invoke(capsys, b) == (0, "holds\n")
    assert run(["--help"]) == 0
    assert "pcp-extract" in capsys.readouterr().out
    assert invoke(capsys, a) == first


def test_internal_errors_exit_four(files, capsys, tmp_path, monkeypatch):
    code, out = invoke(capsys, ["pcp-model", "--instance", files["p0"],
                                "--solution", "1,2", "--algebra", "std-mv"])
    assert code == 0
    mfile = tmp_path / "m.json"
    mfile.write_text(out)
    # parsing and evaluation do not recurse, so a 1200-deep formula evaluates
    code = run(["eval", "--model", str(mfile), "--conclusion", "[]" * 1200 + "x"])
    assert code == 0 and json.loads(capsys.readouterr().out)["values"]
    # running out of stack is an internal failure, not a failed verdict
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr("mvmodal.cli.evaluate_all", too_deep)
    code = run(["eval", "--model", str(mfile), "--conclusion", "[]x"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("internal error: RecursionError")
    assert captured.err.count("\n") == 1

    def failed_recheck(*args):
        raise RuntimeError("countermodel failed premise re-check")
    monkeypatch.setattr("mvmodal.cli.decide_on_frame", failed_recheck)
    code = run(["check", "--frame", files["frame"], "--premises", "[]p",
                "--conclusion", "p"])
    assert code == 4
    assert capsys.readouterr().err == \
        "internal error: RuntimeError: countermodel failed premise re-check\n"

    def broken(*args):
        raise TypeError("unsupported operand type(s)")
    monkeypatch.setattr("mvmodal.cli.decide_on_frame", broken)
    code = run(["check", "--frame", files["frame"], "--premises", "[]p",
                "--conclusion", "p"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "internal error: TypeError: unsupported operand type(s)\n"


def test_pcp_model_names_a_bad_solution_token(files, capsys):
    for spec, token in (("x", "x"), ("1, 2,y ", "y"), ("1;2", "1;2")):
        assert run(["pcp-model", "--instance", files["p0"], "--solution", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --solution takes comma-separated pair "
                                f"indices, not {token!r}\n")
    # blanks around and between the indices are read as before
    _, spaced = invoke(capsys, ["pcp-model", "--instance", files["p0"],
                                "--solution", " 1, ,2 ,", "--algebra", "std-mv"])
    _, plain = invoke(capsys, ["pcp-model", "--instance", files["p0"],
                               "--solution", "1,2", "--algebra", "std-mv"])
    assert spaced == plain


def test_a_solve_past_the_pivot_cap_exits_four(files, capsys, monkeypatch):
    # a solve that pivots more than lp.PIVOT_CAP times is a fault in the
    # simplex, not a verdict; this consequence needs a pivot in its first solve
    argv = ["check", "--frame", files["frame"], "--algebra", "std-mv",
            "--conclusion", "p \\/ ~p"]
    assert run(argv) == 1
    capsys.readouterr()
    monkeypatch.setattr(lp, "PIVOT_CAP", 0)
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: more than 0 pivots in one solve\n"


def test_plain_output(files, capsys):
    code, out = invoke(capsys, ["check", "--frame", files["frame"],
                                "--algebra", "std-mv", "--premises", "[]p",
                                "--conclusion", "p", "--plain"])
    assert code == 1
    assert out.strip() == "fails at world w1"
