"""Reduction of set formulas to the two-literal normal form.

Every conjunction over the set-theoretic atoms (=, subset, in, with union,
inter, setminus, empty in terms) is equisatisfiable with a conjunction
using only two literal shapes:

    x in y            membership between variables
    x = y setminus z  a difference constraint between variables

normalize performs that reduction with a fixed rule order and deterministic
fresh names _g1, _g2, ...  Fresh variables are existential witnesses, so a
model of the output restricted to the original variables is a model of the
input.  normalize_with_plan additionally returns a recipe that extends any
model of the input to the fresh variables, which is how the tests check
equisatisfiability constructively instead of re-searching.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as _iterproduct
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import InvariantViolation, UnsupportedAtomError
from .formulas import (
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
    classify_atom,
    free_vars,
    is_atom,
    is_literal,
    literal_atom,
    max_fresh_index,
    nnf,
)
from .hf import SetAssignment, hf, set_diff, set_inter, set_union
from .oracle import eval_term


class NormalizedConjunction:
    """A conjunction of membership pairs and difference triples.

    memberships holds (x, y) for "x in y"; differences holds (x, y, z) for
    "x = y setminus z".  Both are duplicate-free and keep first-emission
    order, so equal inputs normalize to equal objects.
    """

    __slots__ = ("memberships", "differences", "__dict__")

    def __init__(
        self,
        memberships: Iterable[Tuple[str, str]] = (),
        differences: Iterable[Tuple[str, str, str]] = (),
    ):
        self.memberships = tuple(dict.fromkeys(tuple(m) for m in memberships))
        self.differences = tuple(dict.fromkeys(tuple(d) for d in differences))

    @cached_property
    def vars(self) -> Tuple[str, ...]:
        acc: Dict[str, None] = {}
        for x, y in self.memberships:
            acc.setdefault(x)
            acc.setdefault(y)
        for x, y, z in self.differences:
            acc.setdefault(x)
            acc.setdefault(y)
            acc.setdefault(z)
        return tuple(acc)

    def literals(self) -> List[Formula]:
        lits: List[Formula] = [In(Var(x), Var(y)) for x, y in self.memberships]
        lits.extend(
            Eq(Var(x), SetOp("setminus", Var(y), Var(z))) for x, y, z in self.differences
        )
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
            self.memberships == other.memberships and self.differences == other.differences
        )

    def __hash__(self) -> int:
        return hash((self.memberships, self.differences))

    def __repr__(self) -> str:
        mems = ", ".join(f"{x} in {y}" for x, y in self.memberships)
        diffs = ", ".join(f"{x} = {y}\\{z}" for x, y, z in self.differences)
        body = "; ".join(p for p in (mems, diffs) if p)
        return f"NormalizedConjunction({body})"


def normalized_size(nc: NormalizedConjunction) -> Tuple[int, int]:
    """(variable count, literal count) of a normalized conjunction."""
    return len(nc.vars), len(nc.memberships) + len(nc.differences)


def _check_mls_atom(a: Atom) -> None:
    tag = classify_atom(a)
    if tag not in (MLS, SHARED):
        raise UnsupportedAtomError(
            f"atom outside the conjunctive set fragment ({tag}): {a!r}"
        )


def split_disjuncts(f: Formula) -> List[List[Formula]]:
    """Structural disjunctive normal form, agnostic to atom theory.

    Purely syntactic: no semantic pruning, so contradictory conjunctions
    survive (downstream solvers report them unsatisfiable).  Literals are
    deduplicated within each conjunction.
    """
    g = nnf(f)

    def walk(h: Formula) -> List[List[Formula]]:
        if is_literal(h):
            return [[h]]
        if isinstance(h, Or):
            out: List[List[Formula]] = []
            for p in h.parts:
                out.extend(walk(p))
            return out
        if isinstance(h, And):
            out = []
            for combo in _iterproduct(*(walk(p) for p in h.parts)):
                merged: Dict[Formula, None] = {}
                for lits in combo:
                    for lit in lits:
                        merged.setdefault(lit)
                out.append(list(merged))
            return out
        raise TypeError(f"unexpected formula after nnf: {h!r}")

    return walk(g)


def dnf_split(f: Formula) -> List[List[Formula]]:
    """split_disjuncts restricted to the set fragment's atoms."""
    def check(g: Formula) -> None:
        if is_atom(g):
            _check_mls_atom(g)
        elif isinstance(g, Not):
            check(g.body)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                check(p)
        else:
            raise TypeError(f"not a formula: {g!r}")

    check(f)
    return split_disjuncts(f)


# Witness-plan opcodes: how to compute a fresh variable's value from the
# assignment built so far.
PLAN_TERM = "term"
PLAN_MIN_MEMBER = "min_member"
PLAN_SINGLETON = "singleton"
PLAN_DIFF = "diff"
PLAN_UNION = "union"
PLAN_INTER = "inter"
PLAN_SYMDIFF_MIN = "symdiff_min"


class _Normalizer:
    def __init__(self, taken: Iterable[str]):
        self.counter = max_fresh_index("_g", taken)
        self.mems: List[Tuple[str, str]] = []
        self.diffs: List[Tuple[str, str, str]] = []
        self.plan: List[tuple] = []

    def fresh(self, kind: str, *payload) -> str:
        self.counter += 1
        name = f"_g{self.counter}"
        self.plan.append((name, kind) + payload)
        return name

    # -- flattening ---------------------------------------------------

    def term_to_var(self, t: Term) -> str:
        """Name a term with a fresh variable and queue its definition."""
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Empty):
            g = self.fresh(PLAN_TERM, EMPTY)
            self.dispatch(True, Eq(Var(g), EMPTY))
            return g
        if isinstance(t, SetOp):
            lv = self.term_to_var(t.left)
            rv = self.term_to_var(t.right)
            flat = SetOp(t.op, Var(lv), Var(rv))
            g = self.fresh(PLAN_TERM, flat)
            self.dispatch(True, Eq(Var(g), flat))
            return g
        raise UnsupportedAtomError(f"not a set term: {t!r}")

    def flat_rhs(self, t: Term) -> Term:
        """Make an equality right-hand side depth-one: a variable, empty, or
        a set operation on variables."""
        if isinstance(t, (Var, Empty)):
            return t
        if isinstance(t, SetOp):
            return SetOp(t.op, Var(self.term_to_var(t.left)), Var(self.term_to_var(t.right)))
        raise UnsupportedAtomError(f"not a set term: {t!r}")

    # -- literal processing -------------------------------------------

    def process(self, lit: Formula) -> None:
        if not is_literal(lit):
            raise UnsupportedAtomError(f"normalize expects literals, got {lit!r}")
        atom, sign = literal_atom(lit)
        _check_mls_atom(atom)
        if isinstance(atom, In):
            flat = In(Var(self.term_to_var(atom.left)), Var(self.term_to_var(atom.right)))
        elif isinstance(atom, Subset):
            flat = Subset(Var(self.term_to_var(atom.left)), Var(self.term_to_var(atom.right)))
        elif isinstance(atom, Eq):
            s, t = atom.left, atom.right
            if not isinstance(s, Var) and isinstance(t, Var):
                s, t = t, s
            if not isinstance(s, Var):
                s = Var(self.term_to_var(s))
            flat = Eq(s, self.flat_rhs(t))
        else:
            raise UnsupportedAtomError(f"atom outside the set fragment: {atom!r}")
        self.dispatch(sign, flat)

    def dispatch(self, sign: bool, atom: Atom) -> None:
        """Apply the rewrite rules to one flat literal, depth first."""
        if isinstance(atom, In):
            x, y = atom.left.name, atom.right.name
            if sign:
                self.mems.append((x, y))
            else:
                # x not in y: put x into a fresh set disjoint from y.
                w = self.fresh(PLAN_SINGLETON, x)
                self.dispatch(True, In(Var(x), Var(w)))
                self.dispatch(True, Eq(Var(w), SetOp("setminus", Var(w), Var(y))))
            return

        if isinstance(atom, Subset):
            # x subset y  <=>  x = y inter x
            x, y = atom.left, atom.right
            self.dispatch(sign, Eq(x, SetOp("inter", y, x)))
            return

        if isinstance(atom, Eq):
            x = atom.left.name
            rhs = atom.right
            if sign:
                if isinstance(rhs, Empty):
                    # x = empty  <=>  x = x setminus x
                    self.diffs.append((x, x, x))
                elif isinstance(rhs, Var):
                    # x = y  <=>  x = y setminus e  and  e empty
                    y = rhs.name
                    e = self.fresh(PLAN_TERM, EMPTY)
                    self.diffs.append((x, y, e))
                    self.diffs.append((e, e, e))
                elif rhs.op == "setminus":
                    self.diffs.append((x, rhs.left.name, rhs.right.name))
                elif rhs.op == "inter":
                    # x = y inter z  <=>  w = y setminus z  and  x = y setminus w
                    y, z = rhs.left.name, rhs.right.name
                    w = self.fresh(PLAN_DIFF, y, z)
                    self.diffs.append((w, y, z))
                    self.diffs.append((x, y, w))
                else:
                    # x = y union z  <=>  w = x\y = z\y  and  y\x empty
                    y, z = rhs.left.name, rhs.right.name
                    w = self.fresh(PLAN_DIFF, x, y)
                    e = self.fresh(PLAN_DIFF, y, x)
                    self.diffs.append((w, x, y))
                    self.diffs.append((w, z, y))
                    self.diffs.append((e, y, x))
                    self.diffs.append((e, e, e))
            else:
                if isinstance(rhs, Empty):
                    # x nonempty: witness a member.
                    w = self.fresh(PLAN_MIN_MEMBER, x)
                    self.dispatch(True, In(Var(w), Var(x)))
                elif isinstance(rhs, Var):
                    # x != y: some v lies in the union but not the intersection.
                    y = rhs.name
                    w = self.fresh(PLAN_UNION, x, y)
                    z = self.fresh(PLAN_INTER, x, y)
                    v = self.fresh(PLAN_SYMDIFF_MIN, x, y)
                    self.dispatch(True, Eq(Var(w), SetOp("union", Var(x), Var(y))))
                    self.dispatch(True, Eq(Var(z), SetOp("inter", Var(x), Var(y))))
                    self.dispatch(True, In(Var(v), Var(w)))
                    self.dispatch(False, In(Var(v), Var(z)))
                else:
                    # x != y op z: name the compound side, then disequality.
                    w = self.fresh(PLAN_TERM, rhs)
                    self.dispatch(False, Eq(Var(x), Var(w)))
                    self.dispatch(True, Eq(Var(w), rhs))
            return

        raise UnsupportedAtomError(f"atom outside the set fragment: {atom!r}")


def normalize_with_plan(literals: Sequence[Formula]):
    """Normalize a literal conjunction; also return the witness plan.

    The plan is a list of (fresh_name, opcode, payload...) tuples in
    definition order; apply_plan folds it over a model of the input to
    produce a model of the output.
    """
    literals = list(dict.fromkeys(literals))  # repeated literals must not mint fresh vars twice
    taken: Dict[str, None] = {}
    for lit in literals:
        for v in free_vars(lit):
            taken.setdefault(v)
    n = _Normalizer(taken)
    for lit in literals:
        n.process(lit)
    return NormalizedConjunction(n.mems, n.diffs), tuple(n.plan)


def normalize(literals: Sequence[Formula]) -> NormalizedConjunction:
    """Rewrite a conjunction of set literals into membership/difference form."""
    nc, _ = normalize_with_plan(literals)
    return nc


def normalize_formula(f: Formula) -> List[NormalizedConjunction]:
    """dnf_split followed by normalize, one conjunction per disjunct."""
    return [normalize(lits) for lits in dnf_split(f)]


def apply_plan(plan: Sequence[tuple], base: SetAssignment) -> SetAssignment:
    """Extend a model of the original literals to the fresh variables.

    Only valid when base satisfies the literals the plan came from; each
    step computes a witness value from the assignment built so far.
    """
    cur = dict(base.items())
    for entry in plan:
        name, kind = entry[0], entry[1]
        if kind == PLAN_TERM:
            val = eval_term(entry[2], SetAssignment(cur))
        elif kind == PLAN_MIN_MEMBER:
            src = cur[entry[2]]
            if not src.children:
                raise InvariantViolation(f"witness plan needs a member of empty {entry[2]}")
            val = src.children[0]
        elif kind == PLAN_SINGLETON:
            val = hf((cur[entry[2]],))
        elif kind == PLAN_DIFF:
            val = set_diff(cur[entry[2]], cur[entry[3]])
        elif kind == PLAN_UNION:
            val = set_union(cur[entry[2]], cur[entry[3]])
        elif kind == PLAN_INTER:
            val = set_inter(cur[entry[2]], cur[entry[3]])
        elif kind == PLAN_SYMDIFF_MIN:
            a, b = cur[entry[2]], cur[entry[3]]
            sym = sorted(set(a.children) ^ set(b.children), key=lambda s: s.key())
            if not sym:
                raise InvariantViolation("witness plan needs a separating element")
            val = sym[0]
        else:
            raise InvariantViolation(f"unknown plan opcode {kind!r}")
        cur[name] = val
    return SetAssignment(cur)
