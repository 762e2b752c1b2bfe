"""Surface syntax: an s-expression reader and printer for scripts.

A script is a sequence of forms:

    (assert <formula>)
    (set-option :<key> <value>)

Formulas and terms follow a small SMT-flavoured grammar; see the README
for the operator table.  parse and print are exact inverses on the
canonical form: parse_script(print_script(s)) reproduces s.

The reader splits the text into tokens with one regular expression.  A
token is a plain string: a parenthesis, or a run of characters other than
blanks (space, tab, CR, LF), parentheses and ';'.  A ';' starts a comment
that runs to the end of its line.  A token's line and column are computed
only when an error reports them.  Within one parse, each identifier is
read into a Var once, and later occurrences share that Var.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

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


# One match per token or comment: group 1 holds the token, and a comment
# leaves it empty.
_TOKEN = re.compile(r";[^\n]*|([()]|[^ \t\r\n();]+)")


class _Reader:
    """The tokens of one text, consumed left to right.

    Tokens are plain strings and the grammar functions name a token by its
    index.  Positions are only needed for an error, so at() works them out
    from the text then.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks = [t for t in _TOKEN.findall(text) if t]
        self.pos = 0
        self.depth = 0
        # Each identifier read in this text, and the Var it was read as.
        self.vars: Dict[str, Var] = {}

    def at(self, i: int) -> Tuple[int, int]:
        """Line and column of token i; one past the last token when i is
        the end, and 1:1 when the text has no token."""
        if not self.toks:
            return 1, 1
        starts = [m.start() for m in _TOKEN.finditer(self.text) if m.group(1)]
        off = starts[i] if i < len(starts) else starts[-1] + len(self.toks[-1])
        return self.text.count("\n", 0, off) + 1, off - self.text.rfind("\n", 0, off)

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self, expected: str = "") -> str:
        i = self.pos
        if i == len(self.toks):
            raise ParseError(
                f"unexpected end of input{', expected ' + expected if expected else ''}",
                *self.at(i),
            )
        t = self.toks[i]
        self.pos = i + 1
        if t == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", *self.at(i))
        elif t == ")":
            self.depth -= 1
        return t

    def expect(self, text: str) -> None:
        t = self.next(text)
        if t != text:
            raise ParseError(f"expected {text!r}, found {t!r}", *self.at(self.pos - 1))


def _parse_term(r: _Reader) -> Term:
    tok = r.next("term")
    if tok == "(":
        head = r.pos
        op = r.next("operator")
        args: List[Term] = []
        while True:
            nxt = r.peek()
            if nxt is None:
                raise ParseError("unterminated term", *r.at(head))
            if nxt == ")":
                r.next()
                break
            args.append(_parse_term(r))
        return _build_term(r, op, args, head)
    var = r.vars.get(tok)
    if var is not None:
        return var
    if tok == ")":
        raise ParseError("unexpected ')' in term position", *r.at(r.pos - 1))
    if tok == "empty":
        return EMPTY
    if _NUMBER.match(tok):
        try:
            return RationalConst(Fraction(tok))
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {tok!r}", *r.at(r.pos - 1)) from None
    if _IDENT.match(tok):
        if tok in _RESERVED:
            raise ParseError(f"reserved word {tok!r} cannot be a variable", *r.at(r.pos - 1))
        var = r.vars[tok] = Var(tok)
        return var
    raise ParseError(f"not a term: {tok!r}", *r.at(r.pos - 1))


def _build_term(r: _Reader, op: str, args: List[Term], head: int) -> Term:
    if op in SET_OPS:
        if len(args) != SET_OPS[op]:
            raise ArityError(f"{op} takes {SET_OPS[op]} arguments, got {len(args)}", *r.at(head))
        return SetOp(op, args[0], args[1])
    if op in EXT_OPS:
        if len(args) != EXT_OPS[op]:
            raise ArityError(f"{op} takes {EXT_OPS[op]} arguments, got {len(args)}", *r.at(head))
        return ExtOp(op, tuple(args))
    if op in _SURFACE_OP:
        name = _SURFACE_OP[op]
        if len(args) != ARITH_OPS[name]:
            raise ArityError(f"{op} takes {ARITH_OPS[name]} arguments, got {len(args)}", *r.at(head))
        return ArithOp(name, tuple(args))
    if op in LIST_OPS:
        if len(args) != LIST_OPS[op]:
            raise ArityError(f"{op} takes {LIST_OPS[op]} arguments, got {len(args)}", *r.at(head))
        return ListOp(op, tuple(args))
    raise ParseError(f"unknown operator {op!r}", *r.at(head))


def _parse_formula(r: _Reader) -> Formula:
    tok = r.next("formula")
    if tok != "(":
        raise ParseError(f"formula must be parenthesized, found {tok!r}", *r.at(r.pos - 1))
    head = r.pos
    kw = r.next("predicate or connective")
    if kw in ("and", "or", "not"):
        parts: List[Formula] = []
        while True:
            nxt = r.peek()
            if nxt is None:
                raise ParseError(f"unterminated ({kw} ...)", *r.at(head))
            if nxt == ")":
                r.next()
                break
            parts.append(_parse_formula(r))
        if kw == "not":
            if len(parts) != 1:
                raise ArityError(f"not takes 1 argument, got {len(parts)}", *r.at(head))
            return Not(parts[0])
        if not parts:
            raise ArityError(f"{kw} needs at least one argument", *r.at(head))
        return And(tuple(parts)) if kw == "and" else Or(tuple(parts))
    if kw in _PRED_NAMES:
        args: List[Term] = []
        while True:
            nxt = r.peek()
            if nxt is None:
                raise ParseError(f"unterminated ({kw} ...)", *r.at(head))
            if nxt == ")":
                r.next()
                break
            args.append(_parse_term(r))
        want = 1 if kw == "atom" else 2
        if len(args) != want:
            raise ArityError(f"{kw} takes {want} arguments, got {len(args)}", *r.at(head))
        if kw == "in":
            return In(args[0], args[1])
        if kw == "=":
            return Eq(args[0], args[1])
        if kw == "subset":
            return Subset(args[0], args[1])
        if kw == "<=":
            return Leq(args[0], args[1])
        return AtomPred(args[0])
    raise ParseError(f"unknown predicate or connective {kw!r}", *r.at(head))


def parse_script(text: str) -> Script:
    """Parse a whole script. Raises ParseError or ArityError on bad input."""
    r = _Reader(text)
    asserts: List[Formula] = []
    options: List[Tuple[str, str]] = []
    while r.peek() is not None:
        r.expect("(")
        head = r.pos
        kw = r.next("assert or set-option")
        if kw == "assert":
            asserts.append(_parse_formula(r))
            r.expect(")")
        elif kw == "set-option":
            key = r.next("option key")
            if not key.startswith(":") or len(key) < 2:
                raise ParseError(f"option key must start with ':', found {key!r}", *r.at(r.pos - 1))
            val = r.next("option value")
            if val in ("(", ")"):
                raise ParseError("option value must be a single token", *r.at(r.pos - 1))
            options.append((key[1:], val))
            r.expect(")")
        else:
            raise ParseError(f"expected 'assert' or 'set-option', found {kw!r}", *r.at(head))
    return Script(tuple(asserts), tuple(options))


def parse_formula(text: str) -> Formula:
    """Parse a single formula, mainly a convenience for tests and the REPL."""
    r = _Reader(text)
    f = _parse_formula(r)
    t = r.peek()
    if t is not None:
        raise ParseError(f"trailing input {t!r}", *r.at(r.pos))
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
