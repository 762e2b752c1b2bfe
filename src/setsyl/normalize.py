"""Reduction of set formulas to the normal form of three literal shapes.

Every conjunction over the set-theoretic atoms (=, subset, in, with union,
inter, setminus, empty in terms) is equisatisfiable with a conjunction
using only three literal shapes:

    x in y            membership between variables
    x = y setminus z  a difference constraint between variables
    x != y            a disequality between variables

normalize performs that reduction with a fixed rule order and deterministic
fresh names _g1, _g2, ...  Fresh variables are existential witnesses, so a
model of the output restricted to the original variables is a model of the
input; the tests extend a model of the input to the fresh variables with
a reference normalizer's witness plan.

_Normalizer.process names each side of a literal with term_to_var (a
compound term t becomes a fresh g with g = t rewritten below) and hands
the names to one rule method:

    mem       x in y            kept
              x not in y        x in w,  w = w setminus y
    eq_empty  x = empty         x = x setminus x
              x != empty        w in x
    eq_var    x = y             x = y setminus e,  e = e setminus e
              x != y            kept
    eq_op     x = y setminus z  kept
              x = y inter z     w = y setminus z,  x = y setminus w
              x = y union z     w = x setminus y,  w = z setminus y,
                                e = y setminus x,  e = e setminus e
              x != y op z       x != w,  w = y op z
              x subset y        as x = y inter x, with either sign

Here w and e are fresh, minted in the order shown.  A disequality between
variables mints nothing: the solver decides it from the other literals
(the Disequalities section of the solver module).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import UnsupportedAtomError
from .formulas import (
    ATOM_TYPES,
    MLS,
    SHARED,
    And,
    Atom,
    Empty,
    EMPTY,
    Eq,
    Formula,
    In,
    Not,
    Or,
    SetOp,
    Subset,
    Term,
    Var,
    and_,
    atoms,
    classify_atom,
    free_vars,
    fresh_names,
    is_atom,
)


class NormalizedConjunction:
    """A conjunction of membership pairs, difference triples and
    disequality pairs.

    memberships holds (x, y) for "x in y"; differences holds (x, y, z) for
    "x = y setminus z"; disequalities holds (x, y) for "x != y".  Each is
    duplicate-free and keeps first-emission order, so equal inputs
    normalize to equal objects.  vars lists the variables in order of
    first occurrence, memberships before differences before
    disequalities; it is computed once, here.
    """

    __slots__ = ("memberships", "differences", "disequalities", "vars")

    def __init__(
        self,
        memberships: Iterable[Tuple[str, str]] = (),
        differences: Iterable[Tuple[str, str, str]] = (),
        disequalities: Iterable[Tuple[str, str]] = (),
    ):
        self.memberships = tuple(dict.fromkeys(tuple(m) for m in memberships))
        self.differences = tuple(dict.fromkeys(tuple(d) for d in differences))
        lits = self.memberships + self.differences
        if disequalities:
            self.disequalities = tuple(dict.fromkeys(tuple(q) for q in disequalities))
            lits += self.disequalities
        else:
            self.disequalities = ()
        self.vars: Tuple[str, ...] = tuple(dict.fromkeys(chain.from_iterable(lits)))

    @classmethod
    def _unchecked(
        cls,
        memberships: Tuple[Tuple[str, str], ...],
        differences: Tuple[Tuple[str, str, str], ...],
        vars: Tuple[str, ...],
    ) -> NormalizedConjunction:
        """The conjunction of literals already duplicate-free, with no
        disequality and vars given in their order of first occurrence;
        nothing is checked."""
        nc = cls.__new__(cls)
        nc.memberships, nc.differences, nc.disequalities, nc.vars = memberships, differences, (), vars
        return nc

    def literals(self) -> List[Formula]:
        lits: List[Formula] = [In(Var(x), Var(y)) for x, y in self.memberships]
        lits.extend(
            Eq(Var(x), SetOp("setminus", Var(y), Var(z))) for x, y, z in self.differences
        )
        lits.extend(Not(Eq(Var(x), Var(y))) for x, y in self.disequalities)
        return lits

    def to_formula(self) -> Formula:
        lits = self.literals()
        if not lits:
            return Eq(EMPTY, EMPTY)  # the vacuous, always-true conjunction
        return and_(*lits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalizedConjunction):
            return NotImplemented
        return (
            self.memberships == other.memberships
            and self.differences == other.differences
            and self.disequalities == other.disequalities
        )

    def __hash__(self) -> int:
        return hash((self.memberships, self.differences, self.disequalities))

    def __repr__(self) -> str:
        mems = ", ".join(f"{x} in {y}" for x, y in self.memberships)
        diffs = ", ".join(f"{x} = {y}\\{z}" for x, y, z in self.differences)
        diseqs = ", ".join(f"{x} != {y}" for x, y in self.disequalities)
        body = "; ".join(p for p in (mems, diffs, diseqs) if p)
        return f"NormalizedConjunction({body})"


def _check_mls_atom(a: Atom) -> None:
    tag = classify_atom(a)
    if tag not in (MLS, SHARED):
        raise UnsupportedAtomError(
            f"atom outside the conjunctive set fragment ({tag}): {a!r}"
        )


def split_disjuncts(f: Formula) -> Iterator[List[Formula]]:
    """Structural disjunctive normal form, agnostic to atom theory.

    Purely syntactic: no semantic pruning, so contradictory conjunctions
    survive (downstream solvers report them unsatisfiable).  Literals are
    deduplicated within each conjunction.  The conjunctions are generated
    one at a time, so a caller that stops at the first satisfiable one
    never builds the rest of the product.

    One walk carries the sign of the subformula, flipped at each Not, so
    negations reach the atoms as by De Morgan's laws: under a positive sign
    an Or lists its parts' disjuncts and an And multiplies them, under a
    negative sign the other way round, and an atom is the literal atom or
    Not(atom).
    """
    return _disjuncts(f, True)


def _disjuncts(h: Formula, positive: bool) -> Iterator[List[Formula]]:
    if isinstance(h, Not):
        yield from _disjuncts(h.body, not positive)
    elif is_atom(h):
        yield [h if positive else Not(h)]
    elif not isinstance(h, (And, Or)):
        raise TypeError(f"not a formula: {h!r}")
    elif isinstance(h, Or) == positive:
        # an Or under a positive sign, or an And under a negative one
        for p in h.parts:
            yield from _disjuncts(p, positive)
    else:
        # The product over the parts, first part slowest, walked with one
        # iterator per part on an explicit stack: a script's top-level And
        # may have thousands of parts.
        parts = h.parts
        stack = [_disjuncts(parts[0], positive)]
        picked: List[List[Formula]] = []
        while stack:
            lits = next(stack[-1], None)
            if lits is None:
                stack.pop()
                if picked:
                    picked.pop()
                continue
            picked.append(lits)
            if len(picked) == len(parts):
                yield list(dict.fromkeys(lit for ls in picked for lit in ls))
                picked.pop()
            else:
                stack.append(_disjuncts(parts[len(picked)], positive))


def first_sat(branches: Iterable[List[Formula]], decide: Callable[[List[Formula]], Any]) -> Any:
    """Decide branches in turn with decide, whose result has is_sat.

    Returns the first satisfiable result, else the last result (None when
    there is no branch).  `setsyl solve` walks split_disjuncts' branches
    through here on both of its paths, each decide spending the command's
    one meter.
    """
    res = None
    for branch in branches:
        res = decide(branch)
        if res.is_sat:
            break
    return res


def _group(names: Iterable[str], split: Callable, key: Optional[Callable] = None) -> List[List[str]]:
    """names grouped into the classes split cannot tell apart, by first member.

    split(h, v) is None when h and v are in one class, and otherwise a set
    of names that one model tells apart from the others: it holds exactly
    one of h and v, and each class lies wholly inside or outside it.  Two
    names of one class also have one key.  Every set split returns is
    kept, and a name is compared only with the class head of its key that
    the same kept sets hold, since a kept set tells apart every two names
    it holds exactly one of.  A comparison either settles the name or
    keeps one more set, after which no head matches the name, so there are
    fewer comparisons than names.  The set solver's sets are places; the
    arithmetic plugin's are the names that share a value at one point.
    """
    kept: List[frozenset] = []
    # (key, signature) -> the class of that head, in class order; bit j of
    # a signature: kept[j] holds the name
    heads: Dict[Tuple[object, int], List[str]] = {}
    for v in names:
        k = key(v) if key else None
        sig = sum(1 << j for j, p in enumerate(kept) if v in p) if kept else 0
        group = heads.get((k, sig))
        if group is not None:
            p = split(group[0], v)
            if p is None:
                group.append(v)
                continue
            bit = 1 << len(kept)
            kept.append(p)
            heads = {(hk, hs | bit if g[0] in p else hs): g for (hk, hs), g in heads.items()}
            sig |= bit if v in p else 0
        heads[k, sig] = [v]
    return list(heads.values())


def _is_set_term(t: Term) -> bool:
    kind = type(t)
    if kind is SetOp:
        return _is_set_term(t.left) and _is_set_term(t.right)
    return kind is Var or kind is Empty


def _is_set_atom(a: Atom) -> bool:
    """Whether a is an In, Subset or Eq whose sides are built from Var,
    Empty and SetOp alone, tested on exact types."""
    return type(a) in (In, Subset, Eq) and _is_set_term(a.left) and _is_set_term(a.right)


def dnf_split(f: Formula) -> Iterator[List[Formula]]:
    """split_disjuncts restricted to the set fragment's atoms.

    The atoms are checked here, at call time and in order of occurrence,
    before any conjunction is made; normalize, which takes the branches,
    does not check them again.  An atom passing _is_set_atom is one that
    classify_atom tags mls or shared: over variables, empty and set
    operations, an In or Subset gathers the mls signature alone and an Eq
    gathers mls or none, so no family is mixed in.  Conversely an atom it
    tags mls or shared has no extension, arithmetic or list term, so it
    passes.  classify_atom runs only on an atom that fails the walk, and
    raises UnsupportedAtomError naming its theory, or MixedAtomError.  So
    the first bad atom raises the same error as when every atom is
    classified.
    """
    for a in atoms(f):
        if not _is_set_atom(a):
            _check_mls_atom(a)
    return split_disjuncts(f)


class _Normalizer:
    def __init__(self, taken: Iterable[str]):
        self.fresh = fresh_names("_g", taken).__next__
        self.mems: List[Tuple[str, str]] = []
        self.diffs: List[Tuple[str, str, str]] = []
        self.diseqs: List[Tuple[str, str]] = []

    # -- flattening ---------------------------------------------------

    def term_to_var(self, t: Term) -> str:
        """Name a term with a fresh variable and queue its definition."""
        kind = type(t)
        if kind is Var:
            return t.name
        if kind is Empty:
            g = self.fresh()
            self.eq_empty(True, g)
            return g
        if kind is SetOp:
            y = self.term_to_var(t.left)
            z = self.term_to_var(t.right)
            g = self.fresh()
            self.eq_op(True, g, t.op, y, z)
            return g
        raise UnsupportedAtomError(f"not a set term: {t!r}")

    def process(self, lit: Formula) -> None:
        atom, sign = (lit.body, False) if type(lit) is Not else (lit, True)
        kind = type(atom)
        if kind not in ATOM_TYPES:
            raise UnsupportedAtomError(f"normalize expects literals, got {lit!r}")
        # Flattening succeeds exactly on the atoms that classify_atom tags
        # mls or shared: In, Subset and Eq over variables, empty and set
        # operations.  Only an atom it rejects is classified, for the error.
        try:
            if kind is In:
                self.mem(sign, self.term_to_var(atom.left), self.term_to_var(atom.right))
            elif kind is Subset:
                # x subset y  <=>  x = y inter x
                x = self.term_to_var(atom.left)
                self.eq_op(sign, x, "inter", self.term_to_var(atom.right), x)
            elif kind is Eq:
                s, t = atom.left, atom.right
                if type(s) is not Var and type(t) is Var:
                    s, t = t, s
                x = self.term_to_var(s)
                rhs = type(t)
                if rhs is Var:
                    self.eq_var(sign, x, t.name)
                elif rhs is Empty:
                    self.eq_empty(sign, x)
                elif rhs is SetOp:
                    self.eq_op(sign, x, t.op, self.term_to_var(t.left), self.term_to_var(t.right))
                else:
                    raise UnsupportedAtomError(f"not a set term: {t!r}")
            else:
                raise UnsupportedAtomError(f"atom outside the set fragment: {atom!r}")
        except UnsupportedAtomError:
            _check_mls_atom(atom)  # raises the error naming the atom's theory or mix
            raise

    # -- rewrite rules, depth first -----------------------------------

    def mem(self, sign: bool, x: str, y: str) -> None:
        if sign:
            self.mems.append((x, y))
        else:
            # x not in y: put x into a fresh set disjoint from y.
            w = self.fresh()
            self.mems.append((x, w))
            self.diffs.append((w, w, y))

    def eq_empty(self, sign: bool, x: str) -> None:
        if sign:
            # x = empty  <=>  x = x setminus x
            self.diffs.append((x, x, x))
        else:
            # x nonempty: witness a member.
            self.mems.append((self.fresh(), x))

    def eq_var(self, sign: bool, x: str, y: str) -> None:
        if sign:
            # x = y  <=>  x = y setminus e  and  e empty
            e = self.fresh()
            self.diffs.append((x, y, e))
            self.diffs.append((e, e, e))
        else:
            self.diseqs.append((x, y))

    def eq_op(self, sign: bool, x: str, op: str, y: str, z: str) -> None:
        if not sign:
            # x != y op z: name the compound side, then disequality.
            w = self.fresh()
            self.eq_var(False, x, w)
            self.eq_op(True, w, op, y, z)
        elif op == "setminus":
            self.diffs.append((x, y, z))
        elif op == "inter":
            # x = y inter z  <=>  w = y setminus z  and  x = y setminus w
            w = self.fresh()
            self.diffs.append((w, y, z))
            self.diffs.append((x, y, w))
        else:
            # x = y union z  <=>  w = x\y = z\y  and  y\x empty
            w = self.fresh()
            e = self.fresh()
            self.diffs.append((w, x, y))
            self.diffs.append((w, z, y))
            self.diffs.append((e, y, x))
            self.diffs.append((e, e, e))


def normalize(literals: Sequence[Formula]) -> NormalizedConjunction:
    """Rewrite a conjunction of set literals into membership/difference form.

    Each literal's atom is flattened first; only an atom that cannot be
    flattened is classified, to raise UnsupportedAtomError naming its
    theory, or MixedAtomError.  Those are exactly the atoms classify_atom
    tags neither mls nor shared, so the first such literal fails as it
    would under an up-front check.  Callers that take literals from
    dnf_split have had every atom checked already.
    """
    literals = list(dict.fromkeys(literals))  # repeated literals must not mint fresh vars twice
    n = _Normalizer(free_vars(*literals))
    for lit in literals:
        n.process(lit)
    return NormalizedConjunction(n.mems, n.diffs, n.diseqs)
