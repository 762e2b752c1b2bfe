"""End-to-end command-line behavior: verdicts, reports, exit codes, JSON."""

import json
import os
import subprocess
import sys

import pytest
from jsonschema import Draft7Validator

import setsyl.cli as cli
from setsyl.cli import main
from setsyl.errors import InvariantViolation
from setsyl.formulas import and_
from setsyl.hf import SetAssignment, parse_braces
from setsyl.oracle import eval_formula
from setsyl.sexpr import parse_script

SCHEMA_DIR = os.path.join(os.path.dirname(cli.__file__), "schemas")
FIXTURE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "fixtures",
                       "enlargement.syl")


def schema(name: str) -> Draft7Validator:
    with open(os.path.join(SCHEMA_DIR, name + ".schema.json")) as fh:
        doc = json.load(fh)
    Draft7Validator.check_schema(doc)
    return Draft7Validator(doc)


def script(tmp_path, text: str) -> str:
    path = tmp_path / "input.syl"
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ solve


def test_solve_sat_human(tmp_path, capsys):
    f = script(tmp_path, "(assert (subset x y))\n(assert (in z x))\n")
    code, out, err = run(capsys, "solve", f)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sat"
    assert any(line.startswith("x = {") for line in lines)
    assert err == ""


def test_solve_unsat_human(tmp_path, capsys):
    f = script(tmp_path, "(assert (in x y))\n(assert (in y x))\n")
    code, out, _ = run(capsys, "solve", f)
    assert code == 0
    assert out.splitlines() == ["unsat"]


def test_solve_json_validates(tmp_path, capsys):
    val = schema("solve")
    f = script(tmp_path, "(assert (subset x y))\n(assert (in z x))\n")
    for extra in ((), ("--witness",)):
        code, out, _ = run(capsys, "solve", f, "--json", *extra)
        assert code == 0
        doc = json.loads(out)
        val.validate(doc)
        assert doc["verdict"] == "sat"
        assert doc["engine"] == "mls"
    assert doc["witness"]["topo"]

    f2 = script(tmp_path, "(assert (in x y))\n(assert (in y x))\n")
    code, out, _ = run(capsys, "solve", f2, "--json")
    doc = json.loads(out)
    val.validate(doc)
    assert doc["verdict"] == "unsat" and doc["model"] is None


def test_solve_model_with_junk_prints_and_satisfies_script(tmp_path, capsys):
    text = (
        "(assert (not (= v1 v0)))\n"
        "(assert (not (= v2 v0)))\n"
        "(assert (not (subset (inter v2 v2) (setminus v0 v3))))\n"
        "(assert (subset (setminus v2 v2) (setminus v1 v2)))\n"
    )
    code, out, _ = run(capsys, "solve", script(tmp_path, text), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "sat"
    model = SetAssignment({k: parse_braces(v) for k, v in doc["model"].items()})
    assert eval_formula(and_(*parse_script(text).asserts), model)


def test_solve_mixed_theories_json(tmp_path, capsys):
    val = schema("solve")
    f = script(
        tmp_path,
        "(assert (subset x y))\n(assert (subset y x))\n(assert (not (<= y x)))\n",
    )
    code, out, _ = run(capsys, "solve", f, "--json")
    assert code == 0
    doc = json.loads(out)
    val.validate(doc)
    assert doc["engine"] == "combined"
    assert doc["verdict"] == "unsat"
    assert doc["culprit"] == "lra"
    assert ["x", "y"] in doc["propagated"]


def test_solve_mixed_sat_fragments(tmp_path, capsys):
    f = script(tmp_path, "(assert (in x y))\n(assert (<= u v))\n(assert (atom w))\n")
    code, out, _ = run(capsys, "solve", f, "--json")
    doc = json.loads(out)
    schema("solve").validate(doc)
    assert doc["verdict"] == "sat"
    assert set(doc["fragments"]) == {"mls", "lra", "list"}
    assert doc["fragments"]["list"]["w"] == "w"


def test_solve_plugin_order_flag(tmp_path, capsys):
    f = script(tmp_path, "(assert (in x y))\n")
    code, out, _ = run(capsys, "solve", f, "--plugins", "list,lra,mls")
    assert code == 0
    assert out.splitlines()[0] == "sat"
    code, _, err = run(capsys, "solve", f, "--plugins", "mls,bogus")
    assert code == 2
    assert "bogus" in err


def test_solve_extension_operators_rejected(tmp_path, capsys):
    f = script(tmp_path, "(assert (= x (pow y)))\n")
    code, _, err = run(capsys, "solve", f)
    assert code == 2
    assert "oracle" in err


def test_solve_budget_exhaustion_exit_code(tmp_path, capsys):
    f = script(tmp_path, "(assert (subset x y))\n(assert (subset y z))\n")
    code, _, err = run(capsys, "solve", f, "--budget", "2")
    assert code == 3
    assert "resource limit" in err


def test_solve_disjunction_splits(tmp_path, capsys):
    f = script(tmp_path, "(assert (or (in x x) (in x y)))\n")
    code, out, _ = run(capsys, "solve", f)
    assert code == 0
    assert out.splitlines()[0] == "sat"


# -------------------------------------------------------------- normalize


def test_normalize_golden_subset(tmp_path, capsys):
    f = script(tmp_path, "(assert (subset x y))\n")
    code, out, _ = run(capsys, "normalize", f)
    assert code == 0
    assert out.splitlines() == [
        "(assert (= _g1 (setminus y x)))",
        "(assert (= x (setminus y _g1)))",
    ]
    code, out, _ = run(capsys, "normalize", f, "--json")
    doc = json.loads(out)
    schema("normalize").validate(doc)
    assert doc["disjuncts"][0]["differences"] == [
        ["_g1", "y", "x"],
        ["x", "y", "_g1"],
    ]


def test_normalize_disjunction_labels(tmp_path, capsys):
    f = script(tmp_path, "(assert (or (in x y) (in y x)))\n")
    code, out, _ = run(capsys, "normalize", f)
    assert code == 0
    assert "; disjunct 0" in out.splitlines()
    assert "; disjunct 1" in out.splitlines()


# ----------------------------------------------------------------- oracle


def test_oracle_sat_and_unsat(tmp_path, capsys):
    val = schema("oracle")
    f = script(tmp_path, "(assert (in x y))\n")
    code, out, _ = run(capsys, "oracle", f, "--rank", "2")
    assert code == 0
    assert out.splitlines()[0] == "sat within rank 2"

    code, out, _ = run(capsys, "oracle", f, "--rank", "2", "--json")
    doc = json.loads(out)
    val.validate(doc)
    assert doc["verdict"] == "sat" and doc["model"]["x"] == "{}"

    f2 = script(tmp_path, "(assert (in x x))\n")
    code, out, _ = run(capsys, "oracle", f2, "--json")
    doc = json.loads(out)
    val.validate(doc)
    assert doc["verdict"] == "unsat" and doc["model"] is None


def test_oracle_handles_extension_operators(tmp_path, capsys):
    f = script(tmp_path, "(assert (= y (pow x)))\n(assert (= x empty))\n")
    code, out, _ = run(capsys, "oracle", f, "--rank", "2")
    assert code == 0
    assert out.splitlines()[0] == "sat within rank 2"
    assert "y = {{}}" in out.splitlines()


def test_oracle_rank_bound_enforced(tmp_path, capsys):
    f = script(tmp_path, "(assert (in x y))\n")
    code, _, err = run(capsys, "oracle", f, "--rank", "5")
    assert code == 2
    assert "rank" in err
    code, _, _ = run(capsys, "oracle", f, "--rank", "0")
    assert code == 2


# ---------------------------------------------------------------- witness


def test_witness_replays_fixture(tmp_path, capsys):
    code, out, err = run(capsys, "witness", FIXTURE, "--eq", "xbar=ybar")
    assert code == 0
    lines = out.splitlines()
    assert "direction: ybar" in lines
    assert "fresh element: {{{{{}}}}}" in lines
    assert "separator: {}" in lines
    assert "V_0 = {ybar, z}" in lines
    assert "V_1 = {v, w, z}" in lines
    assert "V_2 = {v}" in lines
    assert "V_3 = {}" in lines
    assert "stabilized at stage 2" in lines
    assert "invariant checks: 26/26 pass" in lines
    assert err == ""


def test_witness_json_and_trace_file(tmp_path, capsys):
    val = schema("trace")
    trace_path = str(tmp_path / "trace.json")
    code, out, _ = run(
        capsys, "witness", FIXTURE, "--eq", "xbar=ybar", "--json",
        "--trace", trace_path,
    )
    assert code == 0
    doc = json.loads(out)
    val.validate(doc)
    assert doc["all_pass"] is True
    assert doc["pair"] == ["xbar", "ybar"]
    assert len(doc["checks"]) == 26
    with open(trace_path) as fh:
        assert json.load(fh) == doc


def test_witness_searches_models_when_unpinned(tmp_path, capsys):
    f = script(tmp_path, "(assert (subset x y))\n")
    code, out, _ = run(capsys, "witness", f, "--eq", "x=y", "--rank", "2")
    assert code == 0
    assert out.splitlines()[0] == "designated pair: x = y"


def test_witness_eq_flag_validation(tmp_path, capsys):
    code, _, err = run(capsys, "witness", FIXTURE, "--eq", "xbar")
    assert code == 2
    assert "name=name" in err


def test_witness_without_equal_model(tmp_path, capsys):
    f = script(tmp_path, "(assert (in x y))\n")
    code, _, err = run(capsys, "witness", f, "--eq", "x=y", "--rank", "2")
    assert code == 2
    assert "no model with x = y" in err


# ------------------------------------------------------------------- fuzz


def test_fuzz_json_validates_and_repeats(tmp_path, capsys):
    val = schema("fuzz")
    args = ("fuzz-convexity", "--vars", "3", "--lits", "3", "--iters", "25",
            "--seed", "11", "--rank", "2", "--json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    val.validate(doc)
    assert doc["violations"] == []
    assert doc["checked"] + doc["skipped"] == 25
    code, out2, _ = run(capsys, *args)
    assert out2 == out1


def test_fuzz_guard_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "fuzz-convexity", "--vars", "9", "--iters", "1")
    assert code == 2
    assert "capped" in err
    for flags in (("--vars", "0"), ("--iters", "-5"), ("--lits", "-1")):
        code, out, err = run(capsys, "fuzz-convexity", *flags)
        assert code == 2, flags
        assert out == "" and len(err.splitlines()) == 1, flags


# --------------------------------------------------------- nonconvex-demo


def test_nonconvex_demo_all_theories(capsys):
    for theory in ("mlss", "mlsp", "mlsu", "mlsx", "mlsox"):
        code, out, _ = run(capsys, "nonconvex-demo", "--theory", theory)
        assert code == 0, theory
        assert out.splitlines()[-1] == "demo: pass", theory


def test_nonconvex_demo_json(capsys):
    val = schema("nonconvex")
    code, out, _ = run(capsys, "nonconvex-demo", "--theory", "mlsp", "--json")
    assert code == 0
    doc = json.loads(out)
    val.validate(doc)
    assert doc["passed"] is True
    assert doc["pinned_padding"] is True
    assert doc["k"] == 2
    assert all(c["refuted"] for c in doc["cases"])


def test_nonconvex_demo_requires_theory(capsys):
    code, _, _ = run(capsys, "nonconvex-demo")
    assert code == 2


# ------------------------------------------------------------- exit codes


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/input.syl")
    assert code == 2
    assert "error:" in err


def test_parse_error_is_usage_error(tmp_path, capsys):
    f = script(tmp_path, "(assert (in x y)\n")
    code, _, err = run(capsys, "solve", f)
    assert code == 2
    assert "error:" in err


def test_deep_nesting_is_usage_error(tmp_path, capsys):
    term = "x"
    for _ in range(3000):
        term = f"(union {term} y)"
    code, out, err = run(capsys, "solve", script(tmp_path, f"(assert (= z {term}))\n"))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1

    deep = "{" * 3000 + "}" * 3000
    f = script(tmp_path, f"(set-option :base x={deep},y={deep})\n(assert (subset x y))\n")
    code, out, err = run(capsys, "witness", f, "--eq", "x=y")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_no_arguments_usage(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_invariant_violation_exit_code(monkeypatch, capsys):
    def boom(*a, **k):
        raise InvariantViolation("synthetic")

    monkeypatch.setattr(cli, "convexity_fuzz", boom)
    code, _, err = run(capsys, "fuzz-convexity", "--iters", "1")
    assert code == 4
    assert "invariant" in err


def test_unexpected_exception_is_one_line_exit_4(monkeypatch, capsys):
    def boom(*a, **k):
        raise RuntimeError("synthetic\nsecond line")

    monkeypatch.setattr(cli, "cmd_fuzz", boom)
    code, out, err = run(capsys, "fuzz-convexity", "--iters", "1")
    assert code == 4
    assert out == ""
    assert err == "internal error: RuntimeError: synthetic second line\n"


def test_reader_closing_stdout_early_exits_zero(tmp_path):
    # Far more output than a pipe buffers, so the writer sees the closed pipe.
    f = script(tmp_path, "".join(f"(assert (in a{i} b{i}))\n" for i in range(6000)))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "setsyl.cli", "normalize", f],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first == b"(assert (in a0 b0))\n"
    assert err == b""


# ------------------------------------------------------------ determinism


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    f = script(tmp_path, "(assert (subset x y))\n(assert (in z x))\n")
    outs = set()
    for _ in range(2):
        for flags in ((), ("--json",)):
            code, out, _ = run(capsys, "solve", f, *flags)
            assert code == 0
            outs.add((flags, out))
    assert len(outs) == 2
