"""Surface syntax: an s-expression reader and printer for scripts.

A script is a sequence of forms:

    (assert <formula>)
    (set-option :<key> <value>)

Formulas and terms follow a small SMT-flavoured grammar (the README lists
it).  parse and print are exact inverses on the canonical form:
parse_script(print_script(s)) reproduces s.

Two tables hold the vocabulary, and the reader, the printer and the
reserved words read only them.  The operator table maps each surface name
to its term class, internal name and arity; it is built from the arity
dicts of `formulas`, and only arithmetic is written under other names
than it is stored (`+` is plus, `-` is neg).  The predicate table maps
each predicate to its atom class and arity.  Every "takes n arguments"
message comes from _arity_error, which writes "1 argument" singular.

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
    arguments,
)

# Deepest parenthesis nesting a script may use.  The parser and the later
# passes over formulas and terms recurse once or more per level, so deeper
# input is refused here rather than overflowing the interpreter stack.
MAX_NESTING = 200

_IDENT = re.compile(r"[A-Za-z_'][A-Za-z0-9_']*\Z")
_NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")

# The operator table: surface name -> (term class, internal name, arity).
# Arithmetic alone is written under other names than it is stored.
_OPERATORS = {
    name: (cls, name, arity)
    for cls, ops in ((SetOp, SET_OPS), (ExtOp, EXT_OPS), (ListOp, LIST_OPS))
    for name, arity in ops.items()
}
_OPERATORS["+"] = (ArithOp, "plus", ARITH_OPS["plus"])
_OPERATORS["-"] = (ArithOp, "neg", ARITH_OPS["neg"])
# The predicate table: surface name -> (atom class, arity).
_PREDICATES = {"in": (In, 2), "=": (Eq, 2), "subset": (Subset, 2), "<=": (Leq, 2), "atom": (AtomPred, 1)}

# The printer's names, read off the two tables.
_OPERATOR_NAME = {(cls, name): surface for surface, (cls, name, _) in _OPERATORS.items()}
_PREDICATE_NAME = {cls: surface for surface, (cls, _) in _PREDICATES.items()}
_RESERVED = {"assert", "set-option", "empty", "not", "and", "or"} | _PREDICATES.keys() | _OPERATORS.keys()


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


def _items(r: _Reader, head: int, item, unterminated: str) -> list:
    """What item(r) reads, repeatedly, up to and including the ')' closing
    the form whose head is token head; unterminated names the form in the
    error for a missing ')'."""
    out = []
    while True:
        nxt = r.peek()
        if nxt is None:
            raise ParseError(f"unterminated {unterminated}", *r.at(head))
        if nxt == ")":
            r.next()
            return out
        out.append(item(r))


def _arity_error(r: _Reader, head: int, name: str, want: int, got: int) -> ArityError:
    return ArityError(f"{name} takes {arguments(want)}, got {got}", *r.at(head))


def _parse_term(r: _Reader) -> Term:
    tok = r.next("term")
    if tok == "(":
        head = r.pos
        op = r.next("operator")
        return _build_term(r, op, _items(r, head, _parse_term, "term"), head)
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
    entry = _OPERATORS.get(op)
    if entry is None:
        raise ParseError(f"unknown operator {op!r}", *r.at(head))
    cls, name, arity = entry
    if len(args) != arity:
        raise _arity_error(r, head, op, arity, len(args))
    return SetOp(name, *args) if cls is SetOp else cls(name, tuple(args))


def _parse_formula(r: _Reader) -> Formula:
    tok = r.next("formula")
    if tok != "(":
        raise ParseError(f"formula must be parenthesized, found {tok!r}", *r.at(r.pos - 1))
    head = r.pos
    kw = r.next("predicate or connective")
    if kw in ("and", "or", "not"):
        parts = _items(r, head, _parse_formula, f"({kw} ...)")
        if kw == "not":
            if len(parts) != 1:
                raise _arity_error(r, head, kw, 1, len(parts))
            return Not(parts[0])
        if not parts:
            raise ArityError(f"{kw} needs at least one argument", *r.at(head))
        return And(tuple(parts)) if kw == "and" else Or(tuple(parts))
    pred = _PREDICATES.get(kw)
    if pred is None:
        raise ParseError(f"unknown predicate or connective {kw!r}", *r.at(head))
    cls, arity = pred
    args = _items(r, head, _parse_term, f"({kw} ...)")
    if len(args) != arity:
        raise _arity_error(r, head, kw, arity, len(args))
    return cls(*args)


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
    if isinstance(t, RationalConst):
        return str(t.value)
    if isinstance(t, SetOp):
        args = (t.left, t.right)
    elif isinstance(t, (ExtOp, ArithOp, ListOp)):
        args = t.args
    else:
        raise TypeError(f"not a term: {t!r}")
    return "(" + " ".join([_OPERATOR_NAME[type(t), t.op], *map(print_term, args)]) + ")"


def print_formula(f: Formula) -> str:
    name = _PREDICATE_NAME.get(type(f))
    if name is not None:
        args = (f.arg,) if isinstance(f, AtomPred) else (f.left, f.right)
        return "(" + " ".join([name, *map(print_term, args)]) + ")"
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
