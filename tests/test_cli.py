"""End-to-end command-line behavior: verdicts, reports, exit codes, JSON."""

import json
import os
import resource
import subprocess
import sys

import pytest
from jsonschema import Draft7Validator

import setsyl.cli as cli
import setsyl.convexity as convexity
from setsyl.cli import main
from setsyl.errors import DEFAULT_BUDGET, Budget, InvariantViolation
from setsyl.formulas import EMPTY, Eq, Var, and_
from setsyl.hf import parse_braces, to_strings
from setsyl.normalize import dnf_split, normalize
from setsyl.oracle import eval_formula, nonconvexity_schema, oracle_implies
from setsyl.sexpr import parse_formula, parse_script

SCHEMA_DIR = os.path.join(os.path.dirname(cli.__file__), "schemas")
FIXTURES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "fixtures")
FIXTURE = os.path.join(FIXTURES, "enlargement.syl")


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
    model = {k: parse_braces(v) for k, v in doc["model"].items()}
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
    assert err.splitlines() == ["error: unknown plugin 'bogus' (choose from mls, lra, list)"]


def test_solve_repeated_plugin_is_a_usage_error(capsys):
    f = os.path.join(FIXTURES, "planted_mixed.syl")
    code, out, err = run(capsys, "solve", f, "--plugins", "mls,mls,lra,list")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: plugin 'mls' listed twice"]


def test_solve_empty_plugin_list_is_a_usage_error(tmp_path, capsys):
    f = script(tmp_path, "(assert (in x y))\n")
    code, out, err = run(capsys, "solve", f, "--plugins", ",")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: empty plugin list"]


def test_solve_script_without_asserts_is_one_empty_conjunction(tmp_path, capsys):
    # No assert is the empty conjunction: sat, with no variable anywhere,
    # not even a fresh one.
    f = script(tmp_path, "(set-option :seed 4)\n")
    code, out, err = run(capsys, "solve", f, "--witness", "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    schema("solve").validate(doc)
    assert doc["verdict"] == "sat" and doc["model"] == {}
    assert doc["witness"] == {"vars": [], "sigma": [], "junk": [], "topo": [], "full_model": {}}
    code, out, _ = run(capsys, "solve", f, "--witness")
    assert (code, out) == (0, "sat\nwitness: topo = (none)\n")


def test_solve_extension_operators_rejected(tmp_path, capsys):
    f = script(tmp_path, "(assert (= x (pow y)))\n")
    code, _, err = run(capsys, "solve", f)
    assert code == 2
    assert "oracle" in err


def test_solve_budget_exhaustion_exit_code(tmp_path, capsys):
    f = script(tmp_path, "(assert (in x y))\n(assert (in y z))\n")
    code, _, err = run(capsys, "solve", f, "--budget", "2")
    assert code == 3
    assert err.splitlines() == [
        "resource limit: budget of 2 steps exhausted while enumerating places (3 steps reached)"
    ]


# 16 unsat disjuncts of 12 steps each: one meter of 16 runs out in the second.
_UNSAT_PRODUCT = "(assert (= x empty))\n" + "".join(
    f"(assert (or (in y{i} x) (in z{i} x)))\n" for i in range(1, 5)
)
# Two combination rounds of one set-solver step each.
_TWO_ROUNDS = (
    "(assert (subset x0 x1))\n(assert (subset x1 x2))\n(assert (subset x2 x3))\n"
    "(assert (subset x3 x0))\n(assert (<= x0 x1))\n(assert (not (= (car x0) (car x3))))\n"
)


@pytest.mark.parametrize("text, budget", [(_UNSAT_PRODUCT, "16"), (_TWO_ROUNDS, "1")],
                         ids=["disjuncts", "rounds"])
def test_solve_budget_is_one_meter_for_the_command(tmp_path, capsys, text, budget):
    f = script(tmp_path, text)
    code, _, err = run(capsys, "solve", f, "--budget", budget)
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("resource limit: ")
    code, out, _ = run(capsys, "solve", f)
    assert code == 0
    assert out.splitlines()[0] == "unsat"


def _limited_child(*args):
    """setsyl run in a child process limited to 20 s of CPU time, so that
    a missing charge shows as a killed child, not a hung test."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "setsyl.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_CPU, (20, 20)),
        timeout=120,
    )


def test_fourier_motzkin_spends_the_command_budget():
    # Unmetered, elimination on these rows runs for seconds to minutes.
    rows = os.path.join(os.path.dirname(__file__), "scripts", "dense_arithmetic.syl")
    proc = _limited_child("solve", rows, "--budget", "1000")
    assert (proc.returncode, proc.stdout) == (3, "")
    [line] = proc.stderr.splitlines()
    assert line.startswith("resource limit: budget of 1000 steps exhausted while eliminating arithmetic variables")


def test_normalize_spends_one_step_per_disjunct(tmp_path):
    # 40 two-way clauses have 2**40 disjuncts; unmetered, normalize builds
    # them all and grows without bound.
    clauses = [f"(assert (or (in a{i} b{i}) (subset a{i} c{i})))\n" for i in range(40)]
    f = script(tmp_path, "".join(clauses))
    proc = _limited_child("normalize", f, "--budget", "1000")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        "resource limit: budget of 1000 steps exhausted while normalizing disjuncts (1001 steps reached)"
    ]


def test_normalize_budget_counts_disjuncts(tmp_path, capsys):
    f = script(tmp_path, _UNSAT_PRODUCT)  # 16 disjuncts
    code, out, _ = run(capsys, "normalize", f, "--budget", "16")
    assert code == 0 and out.count("; disjunct") == 16
    code, out, err = run(capsys, "normalize", f, "--budget", "15")
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "resource limit: budget of 15 steps exhausted while normalizing disjuncts (16 steps reached)"
    ]


_PEAK_RSS = (
    "import resource, sys\n"
    "from setsyl.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
)


def _peak_rss_kb(*args):
    """The exit code of `setsyl args` in a child process, and the child's
    own peak resident set in KB; stdout is discarded."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    code, kb = proc.stderr.split()
    return int(code), int(kb)


def _normalize_growth_kb(tmp_path, *flags):
    """The peak resident set that `setsyl normalize` adds, in KB, going
    from 2**8 to 2**12 disjuncts: k two-way clauses have 2**k."""
    peak = {}
    for k in (8, 12):
        path = tmp_path / f"wide{k}.syl"
        path.write_text("".join(f"(assert (or (in a{i} b{i}) (subset a{i} c{i})))\n" for i in range(k)))
        code, peak[k] = _peak_rss_kb("normalize", str(path), *flags)
        assert code == 0
    return peak[12] - peak[8]


def test_normalize_text_output_holds_no_disjunct(tmp_path):
    # Text output prints each disjunct as it is normalized, so sixteen times
    # as many add almost no memory, where keeping the 2**12 disjuncts for
    # printing would take about 25 MB.
    assert _normalize_growth_kb(tmp_path) < 5 * 1024


def test_normalize_json_output_holds_no_disjunct(tmp_path):
    # So does --json, which writes its document one disjunct at a time.
    assert _normalize_growth_kb(tmp_path, "--json") < 5 * 1024


def _normalize_doc(path):
    """The document `setsyl normalize --json` prints, built whole."""
    with open(path) as fh:
        asserts = parse_script(fh.read()).asserts
    branches = dnf_split(and_(*asserts)) if asserts else [[]]
    disjuncts = [
        {
            "vars": list(nc.vars),
            "memberships": [list(m) for m in nc.memberships],
            "differences": [list(d) for d in nc.differences],
            "disequalities": [list(q) for q in nc.disequalities],
        }
        for nc in map(normalize, branches)
    ]
    return {"command": "normalize", "disjuncts": disjuncts}


@pytest.mark.parametrize("text", [None, "; no assert\n", "(assert (or (in x y) (subset y x)))\n"],
                         ids=["normal_forms", "no_assert", "two_disjuncts"])
def test_normalize_json_streams_the_bytes_of_one_dump(tmp_path, capsys, text):
    path = os.path.join(FIXTURES, "normal_forms.syl") if text is None else script(tmp_path, text)
    code, out, err = run(capsys, "normalize", path, "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps(_normalize_doc(path), indent=2, sort_keys=True) + "\n"


def test_normalize_json_prints_no_disjunct_as_an_empty_list(tmp_path, capsys, monkeypatch):
    # Every script has a disjunct, so this replaces the split to reach the case.
    monkeypatch.setattr(cli, "dnf_split", lambda f: iter(()))
    code, out, _ = run(capsys, "normalize", script(tmp_path, "(assert (in x y))\n"), "--json")
    assert code == 0
    assert out == json.dumps({"command": "normalize", "disjuncts": []}, indent=2, sort_keys=True) + "\n"


def test_normalize_script_without_asserts_prints_nothing(tmp_path, capsys):
    f = script(tmp_path, "; no assert\n")
    code, out, err = run(capsys, "normalize", f)
    assert (code, out, err) == (0, "", "")
    code, out, _ = run(capsys, "normalize", f, "--json")
    assert code == 0
    assert json.loads(out)["disjuncts"] == [
        {"vars": [], "memberships": [], "differences": [], "disequalities": []}
    ]


def test_solve_zero_denominator_is_a_parse_error(tmp_path, capsys):
    f = script(tmp_path, "(assert (<= x 1/0))\n")
    code, out, err = run(capsys, "solve", f)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: 1:15: zero denominator in '1/0'"]


@pytest.mark.parametrize("command", ["solve", "normalize"])
def test_three_signature_atom_is_one_usage_error(tmp_path, capsys, command):
    f = script(tmp_path, "(assert (= x (cons 1 empty)))\n")
    code, out, err = run(capsys, command, f)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: atom mixes list, lra and set operators: Eq(left=Var(name='x'), right=ListOp("
        "op='cons', args=(RationalConst(value=Fraction(1, 1)), Empty())))"
    ]


def test_solve_disjunction_splits(tmp_path, capsys):
    f = script(tmp_path, "(assert (or (in x x) (in x y)))\n")
    code, out, _ = run(capsys, "solve", f)
    assert code == 0
    assert out.splitlines()[0] == "sat"


def test_solve_stops_at_the_first_sat_branch(tmp_path, capsys):
    # 2^40 branches; the first one is sat and the rest are never built.
    text = "".join(f"(assert (or (in a{i} b{i}) (subset a{i} c{i})))\n" for i in range(40))
    code, out, _ = run(capsys, "solve", script(tmp_path, text))
    assert code == 0
    assert out.splitlines()[0] == "sat"


def test_solve_long_subset_chain(tmp_path, capsys):
    # one component of 2401 variables after normalization; its places are
    # listed without recursion
    text = "".join(f"(assert (subset x{i} x{i + 1}))\n" for i in range(1200))
    code, out, _ = run(capsys, "solve", script(tmp_path, text))
    assert code == 0
    assert out.splitlines()[0] == "sat"


def test_solve_three_thousand_asserts(tmp_path, capsys):
    text = "".join(f"(assert (subset a{i} b{i}))\n" for i in range(3000))
    code, out, _ = run(capsys, "solve", script(tmp_path, text))
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


def test_normalize_pins_every_rewrite_rule(capsys):
    # fixtures/normal_forms.syl applies every rewrite rule of the normal
    # form.  The golden files were printed when x != y became a literal of
    # the normal form; test_normalize_matches_the_reference_normalizer
    # compares the rules with the reference that builds each rewrite step
    # as In, Eq and SetOp terms.
    fixture = os.path.join(FIXTURES, "normal_forms.syl")
    golden = os.path.join(os.path.dirname(__file__), "golden", "normal_forms.normalize")
    for flags, suffix in (((), ".txt"), (("--json",), ".json")):
        code, out, err = run(capsys, "normalize", fixture, *flags)
        assert (code, err) == (0, "")
        with open(golden + suffix) as fh:
            assert out == fh.read()


def test_arithmetic_sample_keeps_its_bytes(capsys):
    # fixtures/planted_mixed.syl has rational constants, a strict bound, two
    # equalities solved by substitution and a disequality on the rows'
    # sample, which the repair walk leaves.  The golden file was printed when
    # elimination still ran on Fraction rows, so it pins that integer rows
    # sample the same point.  Its list fragment lists w alone: p and q are
    # shared by the sets and the arithmetic, and the list literals never
    # mention them.
    code, out, err = run(capsys, "solve", os.path.join(FIXTURES, "planted_mixed.syl"), "--json")
    assert (code, err) == (0, "")
    with open(os.path.join(os.path.dirname(__file__), "golden", "planted_mixed.solve.json")) as fh:
        assert out == fh.read()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("witness", FIXTURE, "--eq", "xbar=ybar"), "enlargement.witness"),
        (("solve", "--witness", os.path.join(FIXTURES, "two_components.syl")),
         "two_components.solve-witness"),
    ],
    ids=["witness", "solve-witness"],
)
def test_printed_models_match_the_golden_bytes(capsys, argv, golden):
    # The golden files pin the printed models and witnesses, in text and
    # JSON.  The enlargement one was printed when models were still wrapped
    # in an assignment class; the two-component one when b != c became a
    # literal decided by its split place.
    path = os.path.join(os.path.dirname(__file__), "golden", golden)
    for flags, suffix in (((), ".txt"), (("--json",), ".json")):
        code, out, err = run(capsys, *argv, *flags)
        assert (code, err) == (0, "")
        with open(path + suffix) as fh:
            assert out == fh.read()


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


def test_oracle_on_a_formula_without_variables(tmp_path, capsys):
    # the search binds no variable: the ground conjuncts alone decide
    f = script(tmp_path, "(assert (not (in empty empty)))\n")
    code, out, _ = run(capsys, "oracle", f, "--json")
    assert code == 0
    assert json.loads(out)["model"] == {}
    code, out, _ = run(capsys, "oracle", f)
    assert (code, out) == (0, "sat within rank 3\n")
    f = script(tmp_path, "(assert (in empty empty))\n")
    code, out, _ = run(capsys, "oracle", f)
    assert (code, out) == (0, "no model within rank 3\n")
    f = script(tmp_path, "")
    code, out, _ = run(capsys, "oracle", f)
    assert (code, out) == (0, "sat within rank 3\n")


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


def test_witness_reports_failing_checks_with_exit_4(monkeypatch, capsys):
    real = cli.check_trace_invariants
    failed = []

    def one_failing(trace, base, nc):
        first, *rest = real(trace, base, nc)
        failed.append(first.name)
        return (first.replace(ok=False, index=1, detail="synthetic"), *rest)

    monkeypatch.setattr(cli, "check_trace_invariants", one_failing)
    code, out, err = run(capsys, "witness", FIXTURE, "--eq", "xbar=ybar")
    assert code == 4
    lines = out.splitlines()
    assert "invariant checks: 25/26 pass" in lines
    assert [ln for ln in lines if ln.startswith("FAIL ")] == [f"FAIL {failed[0]} [stage 1]: synthetic"]
    assert err == "invariant checks failed\n"
    code, out, err = run(capsys, "witness", FIXTURE, "--eq", "xbar=ybar", "--json")
    assert code == 4 and json.loads(out)["all_pass"] is False
    assert err == "invariant checks failed\n"


def test_witness_assignment_option_needs_equals(tmp_path, capsys):
    f = script(tmp_path, "(set-option :base x={},xy)\n(assert (in x y))\n")
    code, out, err = run(capsys, "witness", f, "--eq", "x=y", "--rank", "2")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: expected name=braces in assignment option, got 'xy'"]


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


def test_fuzz_violation_writes_reproducers(monkeypatch, tmp_path, capsys):
    # Force the violation branch: every checked iteration's disjunction is
    # implied with no single equality, and no model separates the pairs.
    from setsyl.solver import Unsat

    class NoneImplied:
        def implied_pairs(self):
            return ()

    monkeypatch.setattr(
        convexity, "first_countermodels", lambda f, eqs, rank, meter: (True, [{} for _ in eqs])
    )
    monkeypatch.setattr(
        convexity, "minimize_equalities", lambda nc, pairs, meter: (Unsat(), NoneImplied())
    )
    code, out, err = run(
        capsys, "fuzz-convexity", "--vars", "2", "--lits", "2", "--iters", "4", "--seed", "5",
        "--rank", "2", "--trace", str(tmp_path),
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    report = convexity.convexity_fuzz(2, 2, 4, 5, 2)
    assert report.violations and len(report.violations) == report.checked
    assert lines[2] == f"violations: {len(report.violations)}"
    assert lines[3:] == [
        f"reproducer: {tmp_path / f'convexity-violation-{v.iteration}.sexpr'}"
        for v in report.violations
    ]
    v = report.violations[0]
    script_lines = (tmp_path / f"convexity-violation-{v.iteration}.sexpr").read_text().splitlines()
    assert script_lines[:2] == [
        "; equality-disjunction implied but no single equality implied",
        f"; stream 5/{v.iteration}, rank bound 2",
    ]
    assert script_lines[-1] == "; disjunction: " + " or ".join(f"{a}={b}" for a, b in v.pairs)
    # the asserts between read back as the conjunction that was checked
    asserts = parse_script("\n".join(script_lines)).asserts
    assert len(asserts) == len(v.memberships) + len(v.differences)


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


def test_nonconvex_countermodels_match_the_oracle(capsys):
    # One pass over the models of the padded formula must pick, for each
    # disjunct, the countermodel a search for that disjunct alone finds.
    for theory in ("mlss", "mlsp", "mlsu", "mlsx", "mlsox"):
        kind, text, xbar, k = cli._DEMOS[theory]
        phi = parse_formula(text)
        if kind == "probe":
            big, pairs = nonconvexity_schema(phi, xbar, k)
            disjuncts = [Eq(Var(a), Var(b)) for a, b in pairs]
        else:
            big, disjuncts = phi, [Eq(Var("x"), EMPTY), Eq(Var("y"), EMPTY)]
        for rank in (2, 3):
            code, out, _ = run(capsys, "nonconvex-demo", "--theory", theory,
                               "--rank", str(rank), "--json")
            assert code == 0, (theory, rank)
            want = []
            for d in disjuncts:
                r = oracle_implies(big, d, rank)
                want.append(None if r.implied else to_strings(r.model))
            assert [c["countermodel"] for c in json.loads(out)["cases"]] == want, (theory, rank)


def test_nonconvex_demo_pins_padding_at_rank_four(capsys):
    # The pinned-padding search tries 65536^3 assignments in principle but
    # prunes to three expanded nodes, well inside the default budget.
    code, out, err = run(capsys, "nonconvex-demo", "--theory", "mlsp", "--rank", "4", "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["passed"] is True and doc["pinned_padding"] is True


def test_each_oracle_question_charges_one_meter(monkeypatch, tmp_path, capsys):
    # nonconvex-demo's walks (mlsp's pin walk too) and witness's two
    # searches spend one Budget per command; fuzz-convexity one per checked
    # iteration, for its walk and its exact confirmation together.
    made, confirmed = [], []
    init, minimize = Budget.__init__, convexity.minimize_equalities
    monkeypatch.setattr(Budget, "__init__", lambda self, limit: made.append(limit) or init(self, limit))
    monkeypatch.setattr(
        convexity, "minimize_equalities", lambda *a: confirmed.append(a) or minimize(*a)
    )
    for theory in cli._DEMOS:
        made.clear()
        code, out, _ = run(capsys, "nonconvex-demo", "--theory", theory, "--rank", "2")
        assert (code, out.splitlines()[-1]) == (0, "demo: pass"), theory
        assert made == [DEFAULT_BUDGET], theory
    made.clear()
    f = script(tmp_path, "(assert (in a b))\n(assert (subset b c))\n")
    code, out, _ = run(capsys, "witness", f, "--eq", "b=c", "--rank", "2")
    assert code == 0 and "invariant checks" in out
    assert made == [DEFAULT_BUDGET]
    made.clear()
    # one of these iterations is implied at rank 2 with no single equality
    code, out, _ = run(capsys, "fuzz-convexity", "--json", "--vars", "4", "--lits", "4",
                       "--iters", "20", "--seed", "0", "--rank", "2")
    doc = json.loads(out)
    assert made == [DEFAULT_BUDGET] * doc["checked"]
    assert len(confirmed) == 1 and isinstance(confirmed[0][2], Budget)


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


def _fresh_runs(*argv):
    """stdout of `setsyl argv` in two fresh processes, under hash seeds 0
    and 1; each must exit 0 with nothing on stderr."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "setsyl.cli", *argv],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == b""
        outs.append(proc.stdout)
    return outs


def test_two_component_witness_validates_and_repeats_across_hash_seeds():
    fixture = os.path.join(FIXTURES, "two_components.syl")
    outs = _fresh_runs("solve", "--witness", "--json", fixture)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    schema("solve").validate(doc)
    assert doc["verdict"] == "sat"
    # b != c needs one tag, in the first place holding exactly one of the
    # two elements that the junk-free build gives one value
    assert len(doc["witness"]["junk"]) <= 1
    with open(fixture) as fh:
        text = fh.read()
    full = doc["witness"]["full_model"]
    model = {k: parse_braces(v) for k, v in full.items()}
    assert eval_formula(and_(*parse_script(text).asserts), model)


def test_combined_engine_repeats_across_hash_seeds():
    outs = _fresh_runs("solve", "--json", os.path.join(FIXTURES, "chain_mixed.syl"))
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    schema("solve").validate(doc)
    assert doc["engine"] == "combined"
    assert doc["verdict"] == "unsat" and doc["culprit"] == "list"
    # a spanning tree of the one class x0 ... x7
    assert len(doc["propagated"]) == 7


# HF sets hash by address, so these commands, which build and print set
# values, must not let a Python set's iteration order reach their output.
@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--rank", "2", "--json", FIXTURE),
        ("witness", "--json", FIXTURE, "--eq", "xbar=ybar"),
        ("fuzz-convexity", "--json"),
        ("nonconvex-demo", "--theory", "mlsp", "--json"),
    ],
    ids=["oracle", "witness", "fuzz-convexity", "nonconvex-demo"],
)
def test_set_valued_commands_repeat_across_processes(argv):
    outs = _fresh_runs(*argv)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["command"] == argv[0]


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    f = script(tmp_path, "(assert (subset x y))\n(assert (in z x))\n")
    outs = set()
    for _ in range(2):
        for flags in ((), ("--json",)):
            code, out, _ = run(capsys, "solve", f, *flags)
            assert code == 0
            outs.add((flags, out))
    assert len(outs) == 2
