"""Term, atom and formula syntax trees.

The language is single-sorted on the surface: one pool of variables is
shared by the set-theoretic, arithmetic and list signatures, and atoms are
classified after parsing.  Every node is a Record: an immutable value
whose fields are its class's __slots__, compared and hashed by class and
fields, so formulas can live in sets and dict keys.  Record is also the
base of the package's other value classes (verdicts, witnesses, reports).

The vocabulary is declared once.  The arity dicts SET_OPS, EXT_OPS,
ARITH_OPS and LIST_OPS are the only source of each operator's internal
name and arity: the term classes check against them, and the reader's
operator table in `sexpr` is built from them.  The theory table,
TERM_THEORY for term classes and ATOM_THEORY for atom classes but Eq
(whose theory is its sides'), is the only source of which theory a symbol
belongs to, for classify_atom here and for purification in `combine`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from operator import attrgetter
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


def arguments(n: int) -> str:
    """An argument count as arity messages print it: '1 argument', '2 arguments'."""
    return f"{n} argument" if n == 1 else f"{n} arguments"


class Record:
    """An immutable value whose fields are its class's __slots__ (its
    bases' first), each set once by the constructor.

    Records are equal when they have the same class and equal fields, and
    hash as the tuple of their fields.  repr prints Name(field=value, ...).
    A record pickles and copies by calling its class with its fields in
    order, so a subclass's __init__ takes them positionally in that order,
    and by name for replace.  The generic __init__ here takes exactly the
    fields; a class that validates or is made often defines its own, which
    sets each field with object.__setattr__.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(
            f for c in reversed(cls.__mro__) for f in c.__dict__.get("__slots__", ())
        )
        # a record hashes as the tuple of its fields; attrgetter of one name
        # returns the bare value, so that tuple is built here
        if len(fields) == 1:
            key = attrgetter(*fields)

            def __hash__(self) -> int:
                return hash((key(self),))

        else:
            key = attrgetter(*fields) if fields else (lambda record: ())

            def __hash__(self) -> int:
                return hash(key(self))

        def __eq__(self, other) -> bool:
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, (*args, *(kwargs[n] for n in names[len(args):]))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes) -> "Record":
        """A record of the same class with the named fields changed."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def asdict(self) -> dict:
        """The fields by name; a record among them, or inside a tuple among
        them, as its own asdict."""
        return {f: _plain(v) for f, v in zip(self._fields, self._values())}


def _plain(v):
    if isinstance(v, Record):
        return v.asdict()
    if isinstance(v, tuple):
        return tuple(_plain(x) for x in v)
    return v


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)


class Empty(Record):
    __slots__ = ()


EMPTY = Empty()


class SetOp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Term", right: "Term") -> None:
        if op not in SET_OPS:
            raise ValueError(f"unknown set operator {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class _Application(Record):
    """An operator of OPS applied to a tuple of arguments of its arity;
    FAMILY names the family in the error for an unknown operator."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Tuple["Term", ...]) -> None:
        if op not in self.OPS:
            raise ValueError(f"unknown {self.FAMILY} operator {op!r}")
        if len(args) != self.OPS[op]:
            raise ValueError(f"{op} expects {arguments(self.OPS[op])}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)


class ExtOp(_Application):
    __slots__ = ()
    OPS, FAMILY = EXT_OPS, "extension"


class ArithOp(_Application):
    __slots__ = ()
    OPS, FAMILY = ARITH_OPS, "arithmetic"


class RationalConst(Record):
    __slots__ = ("value",)

    def __init__(self, value: Fraction) -> None:
        object.__setattr__(self, "value", value)


class ListOp(_Application):
    __slots__ = ()
    OPS, FAMILY = LIST_OPS, "list"


Term = Union[Var, Empty, SetOp, ExtOp, ArithOp, RationalConst, ListOp]


class _Binary(Record):
    """An atom over two terms."""

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class In(_Binary):
    __slots__ = ()


class Eq(_Binary):
    __slots__ = ()


class Subset(_Binary):
    __slots__ = ()


class Leq(_Binary):
    __slots__ = ()


class AtomPred(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: Term) -> None:
        object.__setattr__(self, "arg", arg)


Atom = Union[In, Eq, Subset, Leq, AtomPred]


class Not(Record):
    __slots__ = ("body",)

    def __init__(self, body: "Formula") -> None:
        object.__setattr__(self, "body", body)


class _Junction(Record):
    """A conjunction or disjunction of one or more parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Tuple["Formula", ...]) -> None:
        if not parts:
            raise ValueError(f"{type(self).__name__} needs at least one part")
        object.__setattr__(self, "parts", parts)


class And(_Junction):
    __slots__ = ()


class Or(_Junction):
    __slots__ = ()


Formula = Union[Atom, Not, And, Or]

ATOM_TYPES = (In, Eq, Subset, Leq, AtomPred)

# A bare Var commits to no signature, so it has no entry.
TERM_THEORY = {Empty: MLS, SetOp: MLS, ExtOp: MLS_EXT, ArithOp: LRA, RationalConst: LRA, ListOp: LIST}
ATOM_THEORY = {In: MLS, Subset: MLS, Leq: LRA, AtomPred: LIST}


def and_(*parts: Formula) -> Formula:
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def or_(*parts: Formula) -> Formula:
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


class Script(Record):
    __slots__ = ("asserts", "options")

    def __init__(
        self, asserts: Tuple[Formula, ...], options: Tuple[Tuple[str, str], ...] = ()
    ) -> None:
        object.__setattr__(self, "asserts", asserts)
        object.__setattr__(self, "options", options)


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


def free_vars(*fs: Formula) -> list:
    """The variable names of fs, in order of first occurrence, in one walk."""
    acc: dict = {}
    for f in fs:
        _formula_vars(f, acc)
    return list(acc)


def max_fresh_index(prefix: str, names: Iterable[str]) -> int:
    """The largest n with prefix + n (decimal digits) among names, else 0.

    fresh_names counts on from here, so a minted name never clashes with
    one the input already uses.
    """
    top = 0
    for name in names:
        digits = name[len(prefix):]
        if name.startswith(prefix) and digits.isascii() and digits.isdigit():
            top = max(top, int(digits))
    return top


def fresh_names(prefix: str, taken: Iterable[str]) -> Iterator[str]:
    """prefix + n for n = t + 1, t + 2, ..., t the max_fresh_index of
    prefix in taken, which is read once, now.  The only minter of fresh
    names: normalize's _g, purify's _p, pad_vars' _g and the
    non-convexity schema's _m."""
    return (f"{prefix}{n}" for n in count(max_fresh_index(prefix, taken) + 1))


def _term_signatures(t: Term, acc: set) -> None:
    tag = TERM_THEORY.get(type(t))
    if tag is None:
        return  # bare Var: no signature commitment
    acc.add(tag)
    if isinstance(t, SetOp):
        _term_signatures(t.left, acc)
        _term_signatures(t.right, acc)
    elif isinstance(t, _Application):
        for a in t.args:
            _term_signatures(a, acc)


def classify_atom(a: Atom) -> str:
    """Assign an atom to its home theory.

    Returns one of MLS, MLS_EXT, LRA, LIST or SHARED.  SHARED is reserved
    for equality between two bare variables, the only atom every theory
    accepts.  Atoms drawing operators from two or more signatures raise
    MixedAtomError, which names every family.
    """
    sigs: set = set()
    tag = ATOM_THEORY.get(type(a))
    if tag is not None:
        sigs.add(tag)
    elif type(a) is not Eq:
        raise TypeError(f"not an atom: {a!r}")
    if type(a) is AtomPred:
        _term_signatures(a.arg, sigs)
    else:
        _term_signatures(a.left, sigs)
        _term_signatures(a.right, sigs)

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


def conjuncts(f: Formula) -> list:
    """Flatten nested conjunctions into a list of non-And formulas."""
    if isinstance(f, And):
        out = []
        for p in f.parts:
            out.extend(conjuncts(p))
        return out
    return [f]
