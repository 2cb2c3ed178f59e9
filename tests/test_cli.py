import argparse
import json
import os
import subprocess
import sys

import pytest

from hylo.cli import _TRANSLATIONS, main
from hylo.formula import parse
from hylo.model import load_model, model_from_dict, model_to_dict
from hylo.satellites import FOConst, FOStructure, fo_eval, fo_rename, parse_fo, parse_pdl


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def translated(rule, source, sigma=None):
    """What the rule's translation gives for a parsed source, as an AST."""
    _, translation, _ = _TRANSLATIONS[rule]
    return translation(source, argparse.Namespace(rule=rule, sigma=sigma))


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", "--formula", "p & <>p")
    assert code == 0
    assert out.splitlines() == ["p & <>p", "fragment: ML"]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "--formula", "p & ")
    assert code == 65
    assert "error" in err or "1:" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sat", "--formula", "p"])  # missing --frame
    assert exc.value.code == 64


def test_check_command(tmp_path, capsys):
    doc = {"states": ["a"], "rel": [["a", "a"]], "val": {}, "nom": {}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "check", "--model", str(path), "--formula", "down $x . <> $x", "--state", "a"
    )
    assert code == 0 and out.strip() == "true"
    code, _, _ = run(
        capsys, "check", "--model", str(path), "--formula", "~down $x . <> $x", "--state", "a"
    )
    assert code == 1


def test_check_assignment(tmp_path, capsys):
    doc = {"states": ["a", "b"], "rel": [["a", "b"]], "val": {"p": ["b"]}, "nom": {}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys,
        "check",
        "--model", str(path),
        "--formula", "<> $x",
        "--state", "a",
        "--assign", "$x=b",
    )
    assert code == 0


def test_check_deeply_nested_formula(tmp_path, capsys):
    doc = {"states": ["a"], "rel": [["a", "a"]], "val": {"p": ["a"]}, "nom": {}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "check", "--model", str(path), "--formula", "<>" * 250 + "p", "--state", "a"
    )
    assert code == 0 and out.strip() == "true"


def test_sat_command_chain_formula(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys,
        "sat",
        "--frame", "trans",
        "--formula", "p & <>p & []<>p & []down $x.~<> $x",
        "--max-clique", "2", "--max-nodes", "2", "--max-c", "2",
        "--witness", str(tmp_path / "w.json"),
    )
    assert code == 0
    assert out.startswith("SAT")
    # the witness file loads and realizes
    code, out, _ = run(
        capsys, "realize", "--rep", str(tmp_path / "w.json"), "--depth", "4"
    )
    assert code == 0
    doc = json.loads(out)
    m = model_from_dict(doc)
    assert len(m.val["p"]) >= 5
    # --out writes the same model as a model file
    path = tmp_path / "m.json"
    code, out, _ = run(
        capsys, "realize", "--rep", str(tmp_path / "w.json"), "--depth", "4", "--out", str(path)
    )
    assert code == 0 and out == f"model written to {path}\n"
    assert model_to_dict(load_model(path)) == doc


def test_sat_unsat_and_unknown(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "sat", "--frame", "trans", "--formula", "p & ~p",
        "--max-clique", "1", "--max-nodes", "1", "--max-c", "0",
        "--witness", str(tmp_path / "w.json"),
    )
    assert code == 1 and out.startswith("UNSAT")
    code, out, _ = run(
        capsys,
        "sat", "--frame", "trans", "--formula", "down $x . <>($x & ~<> $x)",
        "--max-clique", "1", "--max-nodes", "1", "--max-c", "1",
        "--witness", str(tmp_path / "w.json"),
    )
    assert code == 2 and out.startswith("UNKNOWN")


def test_sat_complete_frame(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "sat", "--frame", "complete", "--formula", "down $x . <> $x",
        "--witness", str(tmp_path / "w.json"),
    )
    assert code == 0


def test_oracle_command(capsys):
    code, out, _ = run(
        capsys,
        "oracle", "--frame", "trans", "--max-states", "2",
        "--formula", "down $x . <> $x",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["model"]["rel"] == [["s0", "s0"]]

    code, out, _ = run(
        capsys,
        "oracle", "--frame", "trans", "--max-states", "4",
        "--formula", "p & <>p & []<>p & []down $x.~<> $x",
    )
    assert code == 1
    assert "not found within bound" in out


def test_oracle_fo(capsys):
    code, out, _ = run(
        capsys,
        "oracle", "--frame", "any", "--max-states", "2",
        "--fo", "E x. E y. ~x=y",
    )
    assert code == 0
    assert len(json.loads(out)["domain"]) == 2


def test_oracle_fo_reads_closure_atoms_as_the_relation_on_transitive_frames(capsys):
    text = "E x. E y. R+(x,y)"
    code, out, _ = run(capsys, "oracle", "--frame", "trans", "--max-states", "2", "--fo", text)
    assert code == 0
    doc = json.loads(out)
    s = FOStructure(
        tuple(doc["domain"]), frozenset(map(tuple, doc["rel"])),
        {p: frozenset(v) for p, v in doc["unary"].items()}, doc["constants"],
    )
    assert fo_eval(s, {}, parse_fo(text))
    # over any frames R+ is not R, and the search cannot decide it
    code, _, err = run(capsys, "oracle", "--frame", "any", "--max-states", "2", "--fo", text)
    assert code == 65 and "closure atoms" in err


def test_oracle_jobs_identical(capsys):
    argv = [
        "oracle", "--frame", "any", "--max-states", "3",
        "--formula", "<>p & ~p",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--frame", "any", "--max-states", "-1", "--formula", "p"],
        ["oracle", "--frame", "any", "--max-states", "0", "--formula", "p"],
        ["oracle", "--frame", "any", "--max-states", "2", "--formula", "p", "--jobs", "0"],
        ["oracle", "--frame", "any", "--max-states", "2", "--fo", "E x. p(x)", "--jobs", "2"],
        ["sat", "--frame", "trans", "--formula", "p", "--max-clique", "0"],
        ["sat", "--frame", "trans", "--formula", "p", "--max-nodes", "-1"],
        ["sat", "--frame", "trans", "--formula", "p", "--max-c", "-1"],
        ["sat", "--frame", "trans", "--formula", "p", "--max-clique", "two"],
        ["realize", "--rep", "w.json", "--depth", "-1"],
    ],
)
def test_meaningless_bounds_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    out = capsys.readouterr()
    assert out.out == "" and "error: argument --" in out.err


def test_fo_oracle_accepts_one_job(capsys):
    code, _, _ = run(
        capsys, "oracle", "--frame", "any", "--max-states", "1", "--fo", "E x. p(x)", "--jobs", "1"
    )
    assert code == 0


@pytest.mark.parametrize(
    "rule,kind,text",
    [
        ("until-down", "--formula", "U(p, q)"),
        ("until-down-tense", "--formula", "U(p, q)"),
        ("ml-until", "--formula", "<>p"),
        ("globsat", "--formula", "<>p"),
        ("u-upp", "--formula", "U(p, q)"),
        ("upp-u", "--formula", "U++(p, q)"),
        ("tt-nat-tense", "--formula", "P p"),
        ("tt-nat-at", "--formula", "P p"),
        ("at-elim-linear", "--formula", "@'i p"),
        ("e-at", "--formula", "E p"),
        # the pretty fresh name is taken: the next one is x1, i1, ...
        ("until-down", "--formula", "U(down $x . <>$x, q)"),
        ("e-at", "--formula", "E 'i"),
    ],
)
def test_translate_hybrid_outputs_reparse(capsys, rule, kind, text):
    code, out, _ = run(capsys, "translate", "--rule", rule, kind, text)
    assert code == 0
    assert parse(out.strip()) == translated(rule, parse(text))


@pytest.mark.parametrize(
    "rule,text,sigma",
    [
        ("ht", "E x. p(x)", None),
        ("complete", "E x. p(x)", None),
        ("spy-at", "E x. R(x,x)", None),
        ("spy-fp", "E x. R(x,x)", None),
        ("ht", "E x. ~True(x)", None),
        ("complete", "E x. Down(x)", None),
        ("spy-at", "E x. E y. (R(x,y) & P(x) & ~p(x))", None),
        ("spy-fp", "E x. E x. R(x, x0)", None),
        ("spy-at", "E i. R(i,i)", None),
        ("string", "E x. a(x)", "a,b"),
        # a reserved letter would print a proposition that does not read back
        ("string", "E x. a(x)", "a,_b"),
    ],
)
def test_translate_fo_rules_reparse(capsys, rule, text, sigma):
    extra = ["--sigma", sigma] if sigma else []
    code, out, err = run(capsys, "translate", "--rule", rule, "--fo", text, *extra)
    if sigma and "_" in sigma:
        assert code == 65 and out == "" and "reserved namespace: ['_b']" in err
        return
    assert code == 0
    assert parse(out.strip()) == translated(rule, parse_fo(text), sigma=sigma)


def test_translate_st_and_zigzag_reparse(capsys):
    code, out, _ = run(capsys, "translate", "--rule", "st", "--formula", "<>p & U++(p,q)")
    assert code == 0
    # the free world variable x reads back as a constant
    st = fo_rename(translated("st", parse("<>p & U++(p,q)")), lambda v, scope: v, FOConst)
    assert parse_fo(out.strip()) == st
    code, out, _ = run(capsys, "translate", "--rule", "st", "--formula", "<>p", "--lfp")
    assert code == 0 and "LFP" not in out  # no closure atom in plain diamonds
    code, out, _ = run(capsys, "translate", "--rule", "st", "--formula", "U++(p,q)", "--lfp")
    assert code == 0 and "LFP" in out
    for text in ("E x. E y. R(x,y)", "E x. E x. R(x, x0)"):
        code, out, _ = run(capsys, "translate", "--rule", "zigzag", "--fo", text)
        assert code == 0
        assert parse_fo(out.strip()) == translated("zigzag", parse_fo(text))


def test_translate_string_and_pdl(capsys):
    code, out, _ = run(
        capsys, "translate", "--rule", "string", "--fo", "E x. a(x)", "--sigma", "a,b"
    )
    assert code == 0
    assert parse(out.strip()) == translated(
        "string", parse_fo("E x. a(x)"), sigma="a,b"
    )
    code, out, err = run(
        capsys, "translate", "--rule", "string", "--fo", "E x. a(x)", "--sigma", "a,F"
    )
    assert code == 65 and out == "" and "keywords: ['F']" in err
    # a nominal brings the right-nested uniqueness programs into the output
    for rule in ("pdl", "pdl-flat"):
        for text in ("U(p, q)", "'i & S(p, ~'i)"):
            code, out, _ = run(capsys, "translate", "--rule", rule, "--formula", text)
            assert code == 0
            assert parse_pdl(out.strip()) is translated(rule, parse(text))


def test_fo_reserved_identifiers_exit_65(capsys):
    text = "E i. E _spy. ((A z. ~R(_spy,z)) & (E w. R(w,w)))"
    code, out, err = run(capsys, "translate", "--rule", "spy-at", "--fo", text)
    assert code == 65 and out == ""
    assert err == "hylo: 1:8: identifier '_spy' uses the reserved namespace\n"


def test_translate_until_down_requires_until_root(capsys):
    code, _, err = run(capsys, "translate", "--rule", "until-down", "--formula", "p")
    assert code == 65


def test_fragment_errors_exit_65(capsys):
    code, out, err = run(capsys, "translate", "--rule", "ml-until", "--formula", "'i")
    assert code == 65 and out == ""
    assert err == "hylo: atom 'i is outside modal logic\n"


def test_parse_labels_a_binder_hybrid(capsys):
    code, out, _ = run(capsys, "parse", "--formula", "down $x . <> $x")
    assert code == 0
    assert out.splitlines() == ["down $x . <>$x", "fragment: HL↓"]


def test_sat_exhaustive_searches_exactly_the_bounds(capsys, tmp_path):
    # bounds (1, 1, 0); the default --max-* limits would take minutes
    code, out, _ = run(
        capsys,
        "sat", "--frame", "trans", "--formula", "p & ~p", "--exhaustive",
        "--witness", str(tmp_path / "w.json"),
    )
    assert code == 1 and out.startswith("UNSAT")


def test_sat_verdict_is_the_same_in_every_process(tmp_path):
    import os
    import subprocess
    import sys

    import hylo

    src = os.path.dirname(os.path.dirname(os.path.abspath(hylo.__file__)))
    argv = [
        sys.executable, "-m", "hylo.cli", "sat", "--frame", "trans",
        "--formula", "<>true & []p & []~p",
        "--max-clique", "2", "--max-nodes", "2", "--max-c", "1",
        "--witness", str(tmp_path / "w.json"),
    ]
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, (seed, proc.stdout, proc.stderr)


@pytest.mark.parametrize(
    "doc",
    [
        {"states": 5},
        {"states": ["a"], "rel": [["a"]]},
        {"states": ["a"], "val": {"p": "a"}},
        {"states": ["a"], "nom": {"i": ["a"]}},
    ],
)
def test_misshapen_model_file_exit_65(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", "--model", str(path), "--formula", "p", "--state", "a")
    assert code == 65
    assert "Traceback" not in err


def test_misshapen_rep_file_exit_65(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"states": ["a"], "c_states": ["c"], "ref": {"c": ["a"]}}))
    code, _, _ = run(capsys, "realize", "--rep", str(path), "--depth", "1")
    assert code == 65


def test_internal_error_exit_70(capsys, monkeypatch):
    import hylo.cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(hylo.cli._COMMANDS, "parse", broken)
    code, _, err = run(capsys, "parse", "--formula", "p")
    assert code == 70
    assert err == "hylo: internal error: RuntimeError: boom\n"


# what a process running one command has imported, by command family
_STARTUP = """
import sys
from hylo.cli import main
print(main(sys.argv[1:]))
print(" ".join(sorted(sys.modules)))
"""
_ORACLE = {"numpy", "hylo.oracle"}
_REDUCTIONS = {"hylo.translate", "hylo.satellites"}
# modules no command needs: hylo builds its records without dataclasses, and
# the oracle sweeps in its own process whatever --jobs says
_NEVER = {"dataclasses", "multiprocessing"}


def _command_env():
    import hylo

    src = os.path.dirname(os.path.dirname(os.path.abspath(hylo.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def _command_process(tmp_path, argv):
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP, *argv],
        cwd=tmp_path, env=_command_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.stderr == "", proc.stderr
    *out, code, modules = proc.stdout.splitlines()
    return int(code), out, set(modules.split())


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["parse", "--formula", "p & <>p"], _ORACLE | _REDUCTIONS),
        (["check", "--model", "m.json", "--formula", "<>p", "--state", "a"], _ORACLE | _REDUCTIONS),
        (["sat", "--frame", "trans", "--formula", "<>p", "--max-clique", "1", "--max-nodes", "2",
          "--max-c", "0", "--witness", "w.json"], _ORACLE | _REDUCTIONS),
        (["realize", "--rep", "rep.json", "--depth", "2"], _ORACLE | _REDUCTIONS),
        (["translate", "--rule", "st", "--formula", "<>p"], _ORACLE),
        (["translate", "--rule", "spy-at", "--fo", "E x. R(x,x)"], _ORACLE),
        (["oracle", "--frame", "any", "--max-states", "3", "--formula", "<>p & ~p", "--jobs", "2"],
         {"hylo.translate"}),
    ],
)
def test_commands_load_only_the_modules_they_run(tmp_path, argv, absent):
    from hylo.blocktree import save_rep
    from hylo.solver import Budget, sat_transitive

    doc = {"states": ["a", "b"], "rel": [["a", "b"]], "val": {"p": ["b"]}, "nom": {}}
    (tmp_path / "m.json").write_text(json.dumps(doc))
    rep = sat_transitive(parse("<>p"), Budget(max_clique=1, max_nodes=2, max_c=0)).witness_rep
    save_rep(rep, tmp_path / "rep.json")
    code, out, modules = _command_process(tmp_path, argv)
    assert code == 0 and out
    assert "hylo.formula" in modules
    assert modules & (absent | _NEVER) == set()


def _st_diamond_chain(n):
    """The standard translation of n nested diamonds over p, as printed."""
    steps = [f"E y{i}. R({f'y{i - 1}' if i else 'x'},y{i}) & " for i in range(n)]
    return "(".join(steps) + f"p(y{n - 1})" + ")" * (n - 1)


@pytest.mark.parametrize(
    "argv,line",
    [
        (["parse", "--formula", "<>" * 900 + "p"], "fragment: ML"),
        (["parse", "--formula", "(" * 300 + "p" + ")" * 300], "fragment: ML"),
        (["parse", "--formula", "<>" * 3000 + "p"], "fragment: ML"),
        (["parse", "--formula", "~" * 3000 + "p"], "fragment: ML"),
        (["parse", "--formula", "@'i " * 3000 + "p"], "fragment: HL^@"),
        (["check", "--model", "m.json", "--formula", "<>" * 900 + "p", "--state", "a"], "true"),
        (["sat", "--frame", "trans", "--formula", "<>" * 400 + "p", "--max-clique", "1",
          "--max-nodes", "1", "--max-c", "0", "--witness", "w.json"], "SAT (witness written to w.json)"),
        (["check", "--model", "m.json", "--formula", "<>" * 10000 + "p", "--state", "a"], "true"),
        (["sat", "--frame", "trans", "--formula", "<>" * 10000 + "p", "--max-clique", "1",
          "--max-nodes", "1", "--max-c", "0", "--witness", "w.json"], "SAT (witness written to w.json)"),
        (["oracle", "--frame", "trans", "--max-states", "1", "--formula", "<>" * 10000 + "p"],
         json.dumps({"model": {"states": ["s0"], "rel": [["s0", "s0"]], "val": {"p": ["s0"]}, "nom": {}},
                     "state": "s0"})),
        (["translate", "--rule", "ml-until", "--formula", "<>" * 10000 + "p"],
         "U(" * 10000 + "p" + ", false)" * 10000),
        (["translate", "--rule", "st", "--formula", "<>" * 10000 + "p"], _st_diamond_chain(10000)),
        (["translate", "--rule", "ml-until", "--formula", "<>" * 40000 + "p"],
         "U(" * 40000 + "p" + ", false)" * 40000),
    ],
    ids=[
        "parse-900", "parse-brackets-300", "parse-3000", "parse-not-3000", "parse-at-3000",
        "check-900", "sat-400", "check-10000", "sat-10000", "oracle-10000", "ml-until-10000",
        "st-10000", "ml-until-40000",
    ],
)
def test_deeply_nested_formulas_get_a_verdict(tmp_path, argv, line):
    # the node heights and facts (signature, free variables, atoms), the
    # printer, the checker's compile step and a prefix chain in the parser
    # take no Python frame per nesting level, and a bracket level costs the
    # parser two; evaluation, translation and the lane engine recurse per
    # level, so a formula taller than formula.SHALLOW levels runs on a
    # deep-stack thread whose recursion limit follows its height
    doc = {"states": ["a"], "rel": [["a", "a"]], "val": {"p": ["a"]}, "nom": {}}
    (tmp_path / "m.json").write_text(json.dumps(doc))
    code, out, _ = _command_process(tmp_path, argv)
    assert code == 0 and line in out


def test_a_thread_that_cannot_start_is_an_internal_error(tmp_path, capsys, monkeypatch):
    import threading

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    doc = {"states": ["a"], "rel": [["a", "a"]], "val": {"p": ["a"]}, "nom": {}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--model", str(path), "--formula", "<>" * 300 + "p", "--state", "a")
    assert (code, out) == (70, "")
    assert err == "hylo: internal error: RuntimeError: can't start new thread\n"


# prints which thread the search starts on, then runs it
_REPORT_THREAD = """
import sys, threading
from hylo import cli, solver
hop = solver.on_deep_stack
def report(f, call, *args):
    def run(*args):
        print("main" if threading.current_thread() is threading.main_thread() else "worker", flush=True)
        return call(*args)
    return hop(f, run, *args)
solver.on_deep_stack = report
cli.main(sys.argv[1:])
"""


def test_ctrl_c_ends_a_running_search(tmp_path):
    # a formula taller than formula.SHALLOW levels is searched on a worker
    # thread, and the main thread that waits for it still takes the
    # interrupt; the exhaustive search on this UNSAT sentence runs for minutes
    import signal

    text = "~" * 300 + "(" + " & ".join(["[]p & <>~p"] * 8) + ")"
    argv = ["sat", "--frame", "trans", "--exhaustive", "--formula", text]
    proc = subprocess.Popen(
        [sys.executable, "-c", _REPORT_THREAD, *argv],
        cwd=tmp_path, env=_command_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline() == "worker\n"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=5)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode != 0 and "KeyboardInterrupt" in err


def test_oracle_command_loads_the_oracle(tmp_path):
    argv = ["oracle", "--frame", "any", "--max-states", "2", "--formula", "<>p & ~p"]
    code, out, modules = _command_process(tmp_path, argv)
    assert code == 0 and json.loads(out[0])["state"] == "s0"
    assert {"hylo.oracle", "numpy"} <= modules
    assert modules & _NEVER == set()
