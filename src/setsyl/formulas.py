"""Term, atom and formula syntax trees.

The language is single-sorted on the surface: one pool of variables is
shared by the set-theoretic, arithmetic and list signatures, and atoms are
classified after parsing.  Everything here is an immutable dataclass so
formulas can live in sets and dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Tuple, Union

from .errors import MixedAtomError

SET_OPS = {"union": 2, "inter": 2, "setminus": 2}
EXT_OPS = {"single": 1, "pow": 1, "bigU": 1, "bigI": 1, "cross": 2, "ucross": 2}
ARITH_OPS = {"plus": 2, "neg": 1}
LIST_OPS = {"cons": 2, "car": 1, "cdr": 1}

# Theory tags produced by classify_atom.
MLS = "mls"
MLS_EXT = "mls-ext"
LRA = "lra"
LIST = "list"
SHARED = "shared"


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Empty:
    pass


EMPTY = Empty()


@dataclass(frozen=True)
class SetOp:
    op: str
    left: "Term"
    right: "Term"

    def __post_init__(self):
        if self.op not in SET_OPS:
            raise ValueError(f"unknown set operator {self.op!r}")


@dataclass(frozen=True)
class ExtOp:
    op: str
    args: Tuple["Term", ...]

    def __post_init__(self):
        if self.op not in EXT_OPS:
            raise ValueError(f"unknown extension operator {self.op!r}")
        if len(self.args) != EXT_OPS[self.op]:
            raise ValueError(f"{self.op} expects {EXT_OPS[self.op]} arguments")


@dataclass(frozen=True)
class ArithOp:
    op: str
    args: Tuple["Term", ...]

    def __post_init__(self):
        if self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")
        if len(self.args) != ARITH_OPS[self.op]:
            raise ValueError(f"{self.op} expects {ARITH_OPS[self.op]} arguments")


@dataclass(frozen=True)
class RationalConst:
    value: Fraction


@dataclass(frozen=True)
class ListOp:
    op: str
    args: Tuple["Term", ...]

    def __post_init__(self):
        if self.op not in LIST_OPS:
            raise ValueError(f"unknown list operator {self.op!r}")
        if len(self.args) != LIST_OPS[self.op]:
            raise ValueError(f"{self.op} expects {LIST_OPS[self.op]} arguments")


Term = Union[Var, Empty, SetOp, ExtOp, ArithOp, RationalConst, ListOp]


@dataclass(frozen=True)
class In:
    left: Term
    right: Term


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Subset:
    left: Term
    right: Term


@dataclass(frozen=True)
class Leq:
    left: Term
    right: Term


@dataclass(frozen=True)
class AtomPred:
    arg: Term


Atom = Union[In, Eq, Subset, Leq, AtomPred]


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    parts: Tuple["Formula", ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("And needs at least one part")


@dataclass(frozen=True)
class Or:
    parts: Tuple["Formula", ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("Or needs at least one part")


Formula = Union[Atom, Not, And, Or]

ATOM_TYPES = (In, Eq, Subset, Leq, AtomPred)


def and_(*parts: Formula) -> Formula:
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def or_(*parts: Formula) -> Formula:
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


@dataclass
class Script:
    asserts: Tuple[Formula, ...]
    options: Tuple[Tuple[str, str], ...] = ()


def is_atom(f: Formula) -> bool:
    return isinstance(f, ATOM_TYPES)


def is_literal(f: Formula) -> bool:
    return is_atom(f) or (isinstance(f, Not) and is_atom(f.body))


def atoms(f: Formula) -> Iterator[Atom]:
    """The atoms of f in order of occurrence, under Not, And and Or."""
    if is_atom(f):
        yield f
    elif isinstance(f, Not):
        yield from atoms(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from atoms(p)
    else:
        raise TypeError(f"not a formula: {f!r}")


def literal_atom(f: Formula):
    """The atom under an optional negation, plus the sign."""
    if isinstance(f, Not):
        return f.body, False
    return f, True


def _term_vars(t: Term, acc: dict) -> None:
    if isinstance(t, Var):
        acc.setdefault(t.name, None)
    elif isinstance(t, SetOp):
        _term_vars(t.left, acc)
        _term_vars(t.right, acc)
    elif isinstance(t, (ExtOp, ArithOp, ListOp)):
        for a in t.args:
            _term_vars(a, acc)
    # Empty and RationalConst carry no variables.


def _formula_vars(f: Formula, acc: dict) -> None:
    if isinstance(f, AtomPred):
        _term_vars(f.arg, acc)
    elif isinstance(f, ATOM_TYPES):
        _term_vars(f.left, acc)
        _term_vars(f.right, acc)
    elif isinstance(f, Not):
        _formula_vars(f.body, acc)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            _formula_vars(p, acc)
    else:
        raise TypeError(f"not a formula: {f!r}")


def free_vars(f: Formula) -> list:
    """Variable names in order of first occurrence."""
    acc: dict = {}
    _formula_vars(f, acc)
    return list(acc)


def max_fresh_index(prefix: str, names: Iterable[str]) -> int:
    """The largest n with prefix + n (decimal digits) among names, else 0.

    Minters of fresh names such as _g1 or _p1 count on from here, so a
    minted name never clashes with one the input already uses.
    """
    top = 0
    for name in names:
        digits = name[len(prefix):]
        if name.startswith(prefix) and digits.isascii() and digits.isdigit():
            top = max(top, int(digits))
    return top


def _term_signatures(t: Term, acc: set) -> None:
    if isinstance(t, Empty):
        acc.add(MLS)
    elif isinstance(t, SetOp):
        acc.add(MLS)
        _term_signatures(t.left, acc)
        _term_signatures(t.right, acc)
    elif isinstance(t, ExtOp):
        acc.add(MLS_EXT)
        for a in t.args:
            _term_signatures(a, acc)
    elif isinstance(t, (ArithOp, RationalConst)):
        acc.add(LRA)
        if isinstance(t, ArithOp):
            for a in t.args:
                _term_signatures(a, acc)
    elif isinstance(t, ListOp):
        acc.add(LIST)
        for a in t.args:
            _term_signatures(a, acc)
    # bare Var: no signature commitment


def classify_atom(a: Atom) -> str:
    """Assign an atom to its home theory.

    Returns one of MLS, MLS_EXT, LRA, LIST or SHARED.  SHARED is reserved
    for equality between two bare variables, the only atom every theory
    accepts.  Atoms drawing operators from two or more signatures raise
    MixedAtomError, which names every family.
    """
    sigs: set = set()
    if isinstance(a, In) or isinstance(a, Subset):
        sigs.add(MLS)
        _term_signatures(a.left, sigs)
        _term_signatures(a.right, sigs)
    elif isinstance(a, Leq):
        sigs.add(LRA)
        _term_signatures(a.left, sigs)
        _term_signatures(a.right, sigs)
    elif isinstance(a, AtomPred):
        sigs.add(LIST)
        _term_signatures(a.arg, sigs)
    elif isinstance(a, Eq):
        _term_signatures(a.left, sigs)
        _term_signatures(a.right, sigs)
    else:
        raise TypeError(f"not an atom: {a!r}")

    # The two set-theoretic layers share a signature family.
    families = set()
    for s in sigs:
        families.add("set" if s in (MLS, MLS_EXT) else s)
    if len(families) > 1:
        *rest, last = sorted(families)
        raise MixedAtomError(f"atom mixes {', '.join(rest)} and {last} operators: {a!r}")
    if not sigs:
        return SHARED
    if MLS_EXT in sigs:
        return MLS_EXT
    return next(iter(sigs))


def nnf(f: Formula) -> Formula:
    """Negation normal form; negations end up directly on atoms."""
    if is_atom(f):
        return f
    if isinstance(f, Not):
        body = f.body
        if is_atom(body):
            return f
        if isinstance(body, Not):
            return nnf(body.body)
        if isinstance(body, And):
            return Or(tuple(nnf(Not(p)) for p in body.parts))
        if isinstance(body, Or):
            return And(tuple(nnf(Not(p)) for p in body.parts))
        raise TypeError(f"not a formula: {body!r}")
    if isinstance(f, And):
        return And(tuple(nnf(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(nnf(p) for p in f.parts))
    raise TypeError(f"not a formula: {f!r}")


def conjuncts(f: Formula) -> list:
    """Flatten nested conjunctions into a list of non-And formulas."""
    if isinstance(f, And):
        out = []
        for p in f.parts:
            out.extend(conjuncts(p))
        return out
    return [f]
