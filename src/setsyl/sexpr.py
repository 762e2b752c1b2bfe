"""Surface syntax: an s-expression reader and printer for scripts.

A script is a sequence of forms:

    (assert <formula>)
    (set-option :<key> <value>)

Formulas and terms follow a small SMT-flavoured grammar; see the README
for the operator table.  parse and print are exact inverses on the
canonical form: parse_script(print_script(s)) reproduces s.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import ArityError, ParseError
from .formulas import (
    ARITH_OPS,
    EXT_OPS,
    LIST_OPS,
    SET_OPS,
    And,
    AtomPred,
    Empty,
    EMPTY,
    Eq,
    ExtOp,
    Formula,
    In,
    Leq,
    ListOp,
    Not,
    Or,
    ArithOp,
    RationalConst,
    Script,
    SetOp,
    Subset,
    Term,
    Var,
)

# Deepest parenthesis nesting a script may use.  The parser and the later
# passes over formulas and terms recurse once or more per level, so deeper
# input is refused here rather than overflowing the interpreter stack.
MAX_NESTING = 200

_IDENT = re.compile(r"[A-Za-z_'][A-Za-z0-9_']*\Z")
_NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")

_PRED_NAMES = {"in", "=", "subset", "<=", "atom"}
_OP_SURFACE = {"plus": "+", "neg": "-"}
_SURFACE_OP = {"+": "plus", "-": "neg"}
_RESERVED = (
    {"assert", "set-option", "empty", "not", "and", "or"}
    | _PRED_NAMES
    | set(SET_OPS)
    | set(EXT_OPS)
    | set(LIST_OPS)
    | {"+", "-"}
)


@dataclass
class _Token:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Token]:
    toks: List[_Token] = []
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
            toks.append(_Token(c, line, col))
            col += 1
            i += 1
        else:
            start = i
            startcol = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            toks.append(_Token(text[start:i], line, startcol))
    return toks


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Optional[_Token]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self, expected: str = "") -> _Token:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Token("", 1, 1)
            raise ParseError(
                f"unexpected end of input{', expected ' + expected if expected else ''}",
                last.line,
                last.col + len(last.text),
            )
        self.pos += 1
        if t.text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise _fail(t, f"nesting deeper than {MAX_NESTING} levels")
        elif t.text == ")":
            self.depth -= 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next(text)
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t


def _fail(tok: _Token, msg: str) -> ParseError:
    return ParseError(msg, tok.line, tok.col)


def _parse_term(r: _Reader) -> Term:
    tok = r.next("term")
    if tok.text == "(":
        head = r.next("operator")
        op = head.text
        args: List[Term] = []
        while True:
            nxt = r.peek()
            if nxt is None:
                raise _fail(head, "unterminated term")
            if nxt.text == ")":
                r.next()
                break
            args.append(_parse_term(r))
        return _build_term(op, args, head)
    if tok.text == ")":
        raise _fail(tok, "unexpected ')' in term position")
    if tok.text == "empty":
        return EMPTY
    if _NUMBER.match(tok.text):
        try:
            return RationalConst(Fraction(tok.text))
        except ZeroDivisionError:
            raise _fail(tok, f"zero denominator in {tok.text!r}") from None
    if _IDENT.match(tok.text):
        if tok.text in _RESERVED:
            raise _fail(tok, f"reserved word {tok.text!r} cannot be a variable")
        return Var(tok.text)
    raise _fail(tok, f"not a term: {tok.text!r}")


def _build_term(op: str, args: List[Term], head: _Token) -> Term:
    if op in SET_OPS:
        if len(args) != SET_OPS[op]:
            raise ArityError(f"{op} takes {SET_OPS[op]} arguments, got {len(args)}", head.line, head.col)
        return SetOp(op, args[0], args[1])
    if op in EXT_OPS:
        if len(args) != EXT_OPS[op]:
            raise ArityError(f"{op} takes {EXT_OPS[op]} arguments, got {len(args)}", head.line, head.col)
        return ExtOp(op, tuple(args))
    if op in _SURFACE_OP:
        name = _SURFACE_OP[op]
        if len(args) != ARITH_OPS[name]:
            raise ArityError(f"{op} takes {ARITH_OPS[name]} arguments, got {len(args)}", head.line, head.col)
        return ArithOp(name, tuple(args))
    if op in LIST_OPS:
        if len(args) != LIST_OPS[op]:
            raise ArityError(f"{op} takes {LIST_OPS[op]} arguments, got {len(args)}", head.line, head.col)
        return ListOp(op, tuple(args))
    raise _fail(head, f"unknown operator {op!r}")


def _parse_formula(r: _Reader) -> Formula:
    tok = r.next("formula")
    if tok.text != "(":
        raise _fail(tok, f"formula must be parenthesized, found {tok.text!r}")
    head = r.next("predicate or connective")
    kw = head.text
    if kw in ("and", "or", "not"):
        parts: List[Formula] = []
        while True:
            nxt = r.peek()
            if nxt is None:
                raise _fail(head, f"unterminated ({kw} ...)")
            if nxt.text == ")":
                r.next()
                break
            parts.append(_parse_formula(r))
        if kw == "not":
            if len(parts) != 1:
                raise ArityError(f"not takes 1 argument, got {len(parts)}", head.line, head.col)
            return Not(parts[0])
        if not parts:
            raise ArityError(f"{kw} needs at least one argument", head.line, head.col)
        return And(tuple(parts)) if kw == "and" else Or(tuple(parts))
    if kw in _PRED_NAMES:
        args: List[Term] = []
        while True:
            nxt = r.peek()
            if nxt is None:
                raise _fail(head, f"unterminated ({kw} ...)")
            if nxt.text == ")":
                r.next()
                break
            args.append(_parse_term(r))
        want = 1 if kw == "atom" else 2
        if len(args) != want:
            raise ArityError(f"{kw} takes {want} arguments, got {len(args)}", head.line, head.col)
        if kw == "in":
            return In(args[0], args[1])
        if kw == "=":
            return Eq(args[0], args[1])
        if kw == "subset":
            return Subset(args[0], args[1])
        if kw == "<=":
            return Leq(args[0], args[1])
        return AtomPred(args[0])
    raise _fail(head, f"unknown predicate or connective {kw!r}")


def parse_script(text: str) -> Script:
    """Parse a whole script. Raises ParseError or ArityError on bad input."""
    r = _Reader(text)
    asserts: List[Formula] = []
    options: List[Tuple[str, str]] = []
    while r.peek() is not None:
        open_tok = r.expect("(")
        head = r.next("assert or set-option")
        if head.text == "assert":
            asserts.append(_parse_formula(r))
            r.expect(")")
        elif head.text == "set-option":
            key = r.next("option key")
            if not key.text.startswith(":") or len(key.text) < 2:
                raise _fail(key, f"option key must start with ':', found {key.text!r}")
            val = r.next("option value")
            if val.text in ("(", ")"):
                raise _fail(val, "option value must be a single token")
            options.append((key.text[1:], val.text))
            r.expect(")")
        else:
            raise _fail(head, f"expected 'assert' or 'set-option', found {head.text!r}")
        del open_tok
    return Script(tuple(asserts), tuple(options))


def parse_formula(text: str) -> Formula:
    """Parse a single formula, mainly a convenience for tests and the REPL."""
    r = _Reader(text)
    f = _parse_formula(r)
    if r.peek() is not None:
        t = r.peek()
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return f


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Empty):
        return "empty"
    if isinstance(t, SetOp):
        return f"({t.op} {print_term(t.left)} {print_term(t.right)})"
    if isinstance(t, ExtOp):
        return "(" + " ".join([t.op] + [print_term(a) for a in t.args]) + ")"
    if isinstance(t, ArithOp):
        return "(" + " ".join([_OP_SURFACE[t.op]] + [print_term(a) for a in t.args]) + ")"
    if isinstance(t, ListOp):
        return "(" + " ".join([t.op] + [print_term(a) for a in t.args]) + ")"
    if isinstance(t, RationalConst):
        return str(t.value)
    raise TypeError(f"not a term: {t!r}")


def print_formula(f: Formula) -> str:
    if isinstance(f, In):
        return f"(in {print_term(f.left)} {print_term(f.right)})"
    if isinstance(f, Eq):
        return f"(= {print_term(f.left)} {print_term(f.right)})"
    if isinstance(f, Subset):
        return f"(subset {print_term(f.left)} {print_term(f.right)})"
    if isinstance(f, Leq):
        return f"(<= {print_term(f.left)} {print_term(f.right)})"
    if isinstance(f, AtomPred):
        return f"(atom {print_term(f.arg)})"
    if isinstance(f, Not):
        return f"(not {print_formula(f.body)})"
    if isinstance(f, And):
        return "(and " + " ".join(print_formula(p) for p in f.parts) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(print_formula(p) for p in f.parts) + ")"
    raise TypeError(f"not a formula: {f!r}")


def print_script(s: Script) -> str:
    lines = [f"(set-option :{k} {v})" for k, v in s.options]
    lines.extend(f"(assert {print_formula(f)})" for f in s.asserts)
    return "\n".join(lines) + ("\n" if lines else "")
