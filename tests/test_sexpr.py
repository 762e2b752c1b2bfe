"""Script parsing and printing round-trips."""

from fractions import Fraction

import pytest

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
    assert s.option_map() == {"seed": "42"}


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
