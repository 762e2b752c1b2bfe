"""Script parsing and printing round-trips."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl.errors import ArityError, ParseError
from setsyl.formulas import (
    EMPTY,
    ArithOp,
    AtomPred,
    Eq,
    ExtOp,
    In,
    Leq,
    ListOp,
    Not,
    Or,
    RationalConst,
    SetOp,
    Subset,
    Var,
)
from setsyl.sexpr import (
    MAX_NESTING,
    _OPERATORS,
    _PREDICATES,
    _Reader,
    parse_formula,
    parse_script,
    print_formula,
    print_script,
)


def test_parse_simple_script():
    s = parse_script("(assert (in x y))\n(assert (= x (setminus y z)))")
    assert len(s.asserts) == 2
    assert s.asserts[0] == In(Var("x"), Var("y"))
    assert s.asserts[1] == Eq(Var("x"), SetOp("setminus", Var("y"), Var("z")))


def test_comments_and_whitespace_ignored():
    s = parse_script("; header\n(assert (subset x y)) ; trailing\n")
    assert s.asserts == (Subset(Var("x"), Var("y")),)


def test_set_option_collected():
    s = parse_script("(set-option :seed 42)\n(assert (in a b))")
    assert s.options == (("seed", "42"),)


def test_empty_constant_and_connectives():
    f = parse_formula("(and (= x empty) (or (in x y) (not (subset y x))))")
    parts = f.parts
    assert parts[0] == Eq(Var("x"), EMPTY)
    assert isinstance(parts[1], Or)


def test_extension_arith_and_list_operators():
    assert parse_formula("(= x (pow y))") == Eq(Var("x"), ExtOp("pow", (Var("y"),)))
    f = parse_formula("(<= (+ x 1/2) y)")
    assert f == Leq(ArithOp("plus", (Var("x"), RationalConst(Fraction(1, 2)))), Var("y"))
    assert parse_formula("(atom (car x))") == AtomPred(ListOp("car", (Var("x"),)))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_script("(assert (in x))")
    assert ei.value.line == 1
    with pytest.raises(ParseError):
        parse_script("(assert (in x y)")
    with pytest.raises(ParseError):
        parse_script("(frobnicate x)")


def test_zero_denominator_is_a_parse_error_at_its_token():
    with pytest.raises(ParseError) as ei:
        parse_script("(assert (<= x 1/0))")
    assert (ei.value.line, ei.value.col) == (1, 15)
    assert "zero denominator" in str(ei.value)
    assert parse_formula("(<= x 0/7)") == Leq(Var("x"), RationalConst(Fraction(0)))


def test_nesting_limit_applies_to_terms_and_formulas():
    def term(depth):
        return "(union " * depth + "x" + " y)" * depth

    def formula(depth):
        return "(not " * depth + "(in x y)" + ")" * depth

    assert parse_formula(f"(= z {term(MAX_NESTING - 1)})")
    assert parse_formula(formula(MAX_NESTING - 1))
    for text in (f"(= z {term(3000)})", formula(3000)):
        with pytest.raises(ParseError) as ei:
            parse_formula(text)
        assert ei.value.line == 1 and "nesting" in str(ei.value)


def test_arity_checked_at_parse_time():
    with pytest.raises((ParseError, ArityError)):
        parse_formula("(= x (union y))")


def test_print_parse_round_trip():
    texts = [
        "(assert (in x y))",
        "(assert (= x (setminus y z)))",
        "(assert (not (subset x (union y z))))",
        "(assert (or (= x empty) (and (in x y) (in y z))))",
        "(assert (<= (+ x (- y)) 3/7))",
        "(assert (atom (cons x (cdr y))))",
        "(assert (= x (ucross y z)))",
    ]
    script = parse_script("\n".join(texts))
    printed = print_script(script)
    again = parse_script(printed)
    assert again.asserts == script.asserts


def test_print_formula_is_reparseable():
    f = Not(Eq(Var("x"), ExtOp("bigU", (Var("y"),))))
    assert parse_formula(print_formula(f)) == f


def test_identifiers_allow_primes_and_underscores():
    s = parse_script("(assert (in x' _g1))")
    assert s.asserts[0] == In(Var("x'"), Var("_g1"))


def test_reserved_words_not_variables():
    with pytest.raises(ParseError):
        parse_formula("(in and or)")


def test_repeated_identifier_is_read_once():
    s = parse_script("(assert (in x y))\n(assert (= y (union x y)))")
    x, y = s.asserts[0].left, s.asserts[0].right
    assert s.asserts[1].left is y
    assert s.asserts[1].right.left is x and s.asserts[1].right.right is y


def _reference_tokens(text):
    """The reader's former character loop: (text, line, col) per token."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            toks.append((c, line, col))
            col += 1
            i += 1
        else:
            start = i
            startcol = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            toks.append((text[start:i], line, startcol))
    return toks


_PIECES = ["(", ")", ";", "\n", "\r", "\t", " ", "\x0c", "é", "\r\n", "; note\n",
           "assert", "set-option", ":seed", "in", "union", "not", "empty", "x", "y'", "_g1",
           "-3", "1/2", "1/0"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_reader_tokens_and_positions_match_the_character_loop(text):
    ref = _reference_tokens(text)
    r = _Reader(text)
    assert r.toks == [t for t, _, _ in ref]
    assert [r.at(i) for i in range(len(ref))] == [(line, col) for _, line, col in ref]
    last = ref[-1] if ref else ("", 1, 1)
    assert r.at(len(ref)) == (last[1], last[2] + len(last[0]))


def _big_script(n):
    return "".join(
        f"(assert (subset (union x{i:05d} y{i:05d}) (inter z{i:05d} w{i:05d})))\n; {i:05d}\n"
        for i in range(n)
    )


@pytest.mark.parametrize(
    "parse, text, kind, message, line, col",
    [
        (parse_script, "; header\r\n(assert (in x y))\r\n(assert (subset x))\r\n",
         ArityError, "subset takes 2 arguments, got 1", 3, 10),
        (parse_script, "(assert (in x y))\n\t\t(assert (in x (union y)))\n",
         ArityError, "union takes 2 arguments, got 1", 2, 18),
        (parse_script, "(assert (in x y)) ; done\n(assert (in x y)   \n; tail\n",
         ParseError, "unexpected end of input, expected )", 2, 17),
        (parse_formula, "; only a comment", ParseError, "unexpected end of input, expected formula", 1, 1),
        (parse_formula, "(in x y)\n  ; note\n  x", ParseError, "trailing input 'x'", 3, 3),
        (parse_script, "(assert (in x y))\n(assert " + "(not " * MAX_NESTING + "(in x y)" + ")" * (MAX_NESTING + 1),
         ParseError, f"nesting deeper than {MAX_NESTING} levels", 2, 5 * MAX_NESTING + 4),
        (parse_script, "(set-option seed 4)", ParseError, "option key must start with ':', found 'seed'", 1, 13),
        (parse_script, "(set-option :seed (4))", ParseError, "option value must be a single token", 1, 19),
        (parse_script, "(assert (in x y))\n(assert (= x (frob y z)))", ParseError, "unknown operator 'frob'", 2, 15),
        (parse_script, _big_script(20000)[: -len("\n; 19999\n") - 1],
         ParseError, "unexpected end of input, expected )", 39999, 61),
        (parse_script, "(assert (in x y))\n(assert (frob x y))", ParseError,
         "unknown predicate or connective 'frob'", 2, 10),
        (parse_formula, "(= x (plus y z))", ParseError, "unknown operator 'plus'", 1, 7),
        (parse_formula, "(= x\n (union y", ParseError, "unterminated term", 2, 3),
        (parse_formula, "(and (in x y)", ParseError, "unterminated (and ...)", 1, 2),
        (parse_formula, "(or\n(in x (car y)",ParseError, "unterminated (in ...)", 2, 2),
    ],
    ids=["crlf-after-comment", "tab-indented", "end-after-last-token", "comment-only-formula",
         "trailing-input", "nesting-in-script", "bad-option-key", "bad-option-value",
         "unknown-operator-line-2", "corrupted-large-script", "unknown-predicate",
         "internal-name-is-not-surface", "unterminated-term", "unterminated-connective",
         "unterminated-predicate"],
)
def test_diagnostics_name_class_message_and_position(parse, text, kind, message, line, col):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert type(ei.value) is kind
    assert str(ei.value) == f"{line}:{col}: {message}"
    assert (ei.value.line, ei.value.col) == (line, col)


# Every operator and predicate of the surface syntax, with its arity.
OPERATORS = [("union", 2), ("inter", 2), ("setminus", 2),
             ("single", 1), ("pow", 1), ("bigU", 1), ("bigI", 1), ("cross", 2), ("ucross", 2),
             ("+", 2), ("-", 1), ("cons", 2), ("car", 1), ("cdr", 1)]
PREDICATES = [("in", 2), ("=", 2), ("subset", 2), ("<=", 2), ("atom", 1)]
ARGS = ["a", "b", "c"]


def _arity_text(name, want, got):
    return f"{name} takes {want} argument{'' if want == 1 else 's'}, got {got}"


def test_tables_hold_exactly_these_names():
    assert sorted(_OPERATORS) == sorted(n for n, _ in OPERATORS)
    assert sorted(_PREDICATES) == sorted(n for n, _ in PREDICATES)
    assert all(_OPERATORS[n][2] == k for n, k in OPERATORS)
    assert all(_PREDICATES[n][1] == k for n, k in PREDICATES)


def test_one_argument_is_singular():
    with pytest.raises(ArityError, match=r"^1:16: car takes 1 argument, got 2$"):
        parse_script("(assert (atom (car x y)))")


@pytest.mark.parametrize("name, arity", OPERATORS, ids=[n for n, _ in OPERATORS])
@pytest.mark.parametrize("delta", [-1, 1])
def test_operator_arity_error_text_and_position(name, arity, delta):
    got = arity + delta
    text = f"(assert (in x y))\n  (assert (= x ({' '.join([name] + ARGS[:got])})))"
    with pytest.raises(ArityError) as ei:
        parse_script(text)
    assert str(ei.value) == "2:17: " + _arity_text(name, arity, got)


@pytest.mark.parametrize("name, arity", PREDICATES, ids=[n for n, _ in PREDICATES])
@pytest.mark.parametrize("delta", [-1, 1])
def test_predicate_arity_error_text_and_position(name, arity, delta):
    got = arity + delta
    with pytest.raises(ArityError) as ei:
        parse_script(f"(assert ({' '.join([name] + ARGS[:got])}))")
    assert str(ei.value) == "1:10: " + _arity_text(name, arity, got)


def test_not_arity_error_text():
    with pytest.raises(ArityError) as ei:
        parse_formula("(not (in x y) (in y x))")
    assert str(ei.value) == "1:2: not takes 1 argument, got 2"


@pytest.mark.parametrize(
    "text",
    [f"(= x ({' '.join([n] + ARGS[:k])}))" for n, k in OPERATORS]
    + [f"({' '.join([n] + ARGS[:k])})" for n, k in PREDICATES],
)
def test_each_name_prints_as_it_reads(text):
    f = parse_formula(text)
    assert print_formula(f) == text
    assert parse_formula(print_formula(f)) == f


@pytest.mark.parametrize(
    "name", [n for n, _ in OPERATORS + PREDICATES] + ["assert", "set-option", "not", "and", "or"]
)
def test_each_name_is_refused_as_a_variable(name):
    with pytest.raises(ParseError) as ei:
        parse_formula(f"(in x {name})")
    if re.fullmatch(r"[A-Za-z_'][A-Za-z0-9_']*", name):
        assert str(ei.value) == f"1:7: reserved word {name!r} cannot be a variable"
    else:
        assert str(ei.value) == f"1:7: not a term: {name!r}"
