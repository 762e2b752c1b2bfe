"""Equality-propagating combination of the set, arithmetic, and list solvers.

Mixed conjunctions are first purified: every nested application below the
top of an atom is named by a fresh `_p` variable whose defining equality is
routed to the subterm's own theory, so each partition's literals mention
one theory only (plus shared variables).  The partitions then exchange
implied equalities between shared variables until a fixpoint: because each
participating theory is convex and stably infinite, propagating single
equalities is a complete combination procedure for conjunctions of
literals.

Plugins are polled in a caller-chosen order; the verdict is independent of
that order (only the discovery order of propagated pairs may differ).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple, Union

from .errors import InvariantViolation, NonConvexPluginError, UnsupportedAtomError
from .formulas import (
    ArithOp,
    AtomPred,
    Empty,
    Eq,
    ExtOp,
    Formula,
    In,
    Leq,
    ListOp,
    Not,
    RationalConst,
    SetOp,
    Subset,
    Term,
    Var,
    and_,
    free_vars,
    is_literal,
    literal_atom,
    max_fresh_index,
)
from .hf import SetAssignment
from .lists import ListState, list_check, list_implied
from .lra import LraState, lra_check, lra_implied, lra_sample
from .normalize import split_disjuncts
from .solver import DEFAULT_SOLVE_BUDGET, implied_equalities, normalize, solve

THEORIES = ("mls", "lra", "list")


def _top_theory(t: Term) -> Optional[str]:
    if isinstance(t, Var):
        return None
    if isinstance(t, (SetOp, ExtOp, Empty)):
        return "mls"
    if isinstance(t, (ArithOp, RationalConst)):
        return "lra"
    if isinstance(t, ListOp):
        return "list"
    raise UnsupportedAtomError(f"not a term: {t!r}")


@dataclass(frozen=True)
class TheoryProblem:
    """A purified conjunction, split by theory.

    `shared` lists variables occurring in at least two partitions, in
    first-occurrence order; `fresh_defs` are the defining equalities the
    purifier introduced (each also present in its home partition).
    """

    mls: Tuple[Formula, ...]
    lra: Tuple[Formula, ...]
    lists: Tuple[Formula, ...]
    shared: Tuple[str, ...]
    fresh_defs: Tuple[Formula, ...]

    def partition(self, name: str) -> Tuple[Formula, ...]:
        return {"mls": self.mls, "lra": self.lra, "list": self.lists}[name]


class _Purifier:
    def __init__(self, taken: Iterable[str]):
        self._next = max_fresh_index("_p", taken) + 1
        self.memo: Dict[Term, Var] = {}
        self.parts: Dict[str, List[Formula]] = {t: [] for t in THEORIES}
        self.defs: List[Formula] = []

    def _fresh(self) -> Var:
        v = Var(f"_p{self._next}")
        self._next += 1
        return v

    def _rebuild(self, t: Term) -> Term:
        if isinstance(t, SetOp):
            return SetOp(t.op, self._name(t.left), self._name(t.right))
        if isinstance(t, (ExtOp, ArithOp, ListOp)):
            return type(t)(t.op, tuple(self._name(a) for a in t.args))
        return t

    def _name(self, t: Term) -> Term:
        """Replace an application by its defining variable; leave leaves."""
        if isinstance(t, (Var, Empty, RationalConst)):
            return t
        flat = self._rebuild(t)
        got = self.memo.get(flat)
        if got is not None:
            return got
        v = self._fresh()
        self.memo[flat] = v
        d = Eq(v, flat)
        self.parts[_top_theory(flat)].append(d)
        self.defs.append(d)
        return v

    def route(self, lit: Formula) -> Optional[Tuple[Formula, Tuple[str, str]]]:
        """Place one literal; returns a deferred shared equality, if any."""
        if not is_literal(lit):
            raise UnsupportedAtomError(f"combination expects literals, got {lit!r}")
        atom, sign = literal_atom(lit)
        if isinstance(atom, (In, Subset)):
            out: Formula = type(atom)(self._rebuild(atom.left), self._rebuild(atom.right))
            target = "mls"
        elif isinstance(atom, Leq):
            out = Leq(self._rebuild(atom.left), self._rebuild(atom.right))
            target = "lra"
        elif isinstance(atom, AtomPred):
            out = AtomPred(self._rebuild(atom.arg))
            target = "list"
        elif isinstance(atom, Eq):
            left = self._rebuild(atom.left)
            right = self._rebuild(atom.right)
            ta, tb = _top_theory(left), _top_theory(right)
            if ta is None and tb is None:
                return (lit if sign else Not(Eq(left, right)), (left.name, right.name))
            if ta is not None and tb is not None and ta != tb:
                left = self._name(left)
                ta = None
            out = Eq(left, right)
            target = ta or tb
        else:
            raise UnsupportedAtomError(f"unroutable atom: {atom!r}")
        if not sign:
            out = Not(out)
        self.parts[target].append(out)
        return None


def purify(literals: Sequence[Formula]) -> TheoryProblem:
    """Split a conjunction of possibly-mixed literals by theory.

    Every application nested under another is replaced by a `_p` variable,
    even when both belong to one theory, so partition literals are flat.
    Equalities and disequalities between bare variables go to every
    partition already mentioning both sides; if none does, to the first
    partition (set, arithmetic, list order) mentioning either; as a last
    resort to the set partition.
    """
    taken: Dict[str, None] = {}
    for lit in literals:
        for v in free_vars(lit):
            taken.setdefault(v)
    pur = _Purifier(taken)
    deferred: List[Tuple[Formula, Tuple[str, str]]] = []
    for lit in literals:
        d = pur.route(lit)
        if d is not None:
            deferred.append(d)

    occurs: Dict[str, Dict[str, None]] = {t: {} for t in THEORIES}
    for t in THEORIES:
        for lit in pur.parts[t]:
            for v in free_vars(lit):
                occurs[t].setdefault(v)
    for lit, (x, y) in deferred:
        both = [t for t in THEORIES if x in occurs[t] and y in occurs[t]]
        either = [t for t in THEORIES if x in occurs[t] or y in occurs[t]]
        for t in both or either[:1] or ["mls"]:
            pur.parts[t].append(lit)
            occurs[t].setdefault(x)
            occurs[t].setdefault(y)

    counts: Dict[str, int] = {}
    for t in THEORIES:
        for v in occurs[t]:
            counts[v] = counts.get(v, 0) + 1
    shared: List[str] = []
    for t in THEORIES:
        for lit in pur.parts[t]:
            for v in free_vars(lit):
                if counts.get(v, 0) >= 2 and v not in shared:
                    shared.append(v)

    return TheoryProblem(
        mls=tuple(pur.parts["mls"]),
        lra=tuple(pur.parts["lra"]),
        lists=tuple(pur.parts["list"]),
        shared=tuple(shared),
        fresh_defs=tuple(pur.defs),
    )


class TheoryPlugin(Protocol):
    """What the propagation loop requires of a participating solver."""

    name: str
    is_convex: bool

    def assert_literals(self, literals: Sequence[Formula]) -> bool: ...

    def implied_equalities(self, shared: Sequence[str]) -> Tuple[Tuple[str, str], ...]: ...

    def model_fragment(self) -> Mapping[str, object]: ...


class MlsTheory:
    """Set-solver adapter: satisfiability and implied equalities via search."""

    name = "mls"
    is_convex = True

    def __init__(self, budget: Optional[int] = DEFAULT_SOLVE_BUDGET):
        self._budget = budget
        self._nc = None
        self._model = None
        self._vars: Tuple[str, ...] = ()

    def assert_literals(self, literals: Sequence[Formula]) -> bool:
        acc: Dict[str, None] = {}
        for lit in literals:
            for v in free_vars(lit):
                acc.setdefault(v)
        self._vars = tuple(acc)
        self._nc = normalize(list(literals))
        res = solve(self._nc, budget=self._budget)
        self._model = res.model if res.is_sat else None
        return res.is_sat

    def implied_equalities(self, shared: Sequence[str]) -> Tuple[Tuple[str, str], ...]:
        """Probe only the pairs the last model equates.

        That model was verified against the asserted literals, so a pair
        it separates is not implied and needs no probe.  Without a model
        (the literals were unsatisfiable) every pair is probed.
        """
        present = [v for v in shared if v in self._nc.vars]
        m = self._model
        pairs = tuple(
            (a, b) for a, b in combinations(present, 2) if m is None or m[a] == m[b]
        )
        return implied_equalities(self._nc, pairs, budget=self._budget)

    def model_fragment(self) -> Mapping[str, str]:
        return self._model.restrict(v for v in self._vars if v in self._model).to_strings()


class LraTheory:
    """Rational-arithmetic plugin over exact fractions."""

    name = "lra"
    is_convex = True

    def __init__(self):
        self._state = LraState((), ())
        self._sat = True

    def assert_literals(self, literals: Sequence[Formula]) -> bool:
        self._state = LraState.from_literals(literals)
        self._sat = lra_check(self._state)
        return self._sat

    def implied_equalities(self, shared: Sequence[str]) -> Tuple[Tuple[str, str], ...]:
        return lra_implied(self._state, shared)

    def model_fragment(self) -> Mapping[str, Fraction]:
        return lra_sample(self._state)


class ListTheory:
    """Cons-cell plugin: congruence closure with projections."""

    name = "list"
    is_convex = True

    def __init__(self):
        self._state = ListState()
        self._vars: Tuple[str, ...] = ()

    def assert_literals(self, literals: Sequence[Formula]) -> bool:
        acc: Dict[str, None] = {}
        for lit in literals:
            for v in free_vars(lit):
                acc.setdefault(v)
        self._vars = tuple(acc)
        self._state = ListState(literals)
        return list_check(self._state)

    def implied_equalities(self, shared: Sequence[str]) -> Tuple[Tuple[str, str], ...]:
        return list_implied(self._state, shared)

    def model_fragment(self) -> Mapping[str, str]:
        return self._state.representatives(self._vars)


@dataclass(frozen=True)
class CombinedSat:
    fragments: Mapping[str, Mapping[str, object]]
    propagated: Tuple[Tuple[str, str], ...]
    rounds: int
    problem: TheoryProblem

    @property
    def is_sat(self) -> bool:
        return True


@dataclass(frozen=True)
class CombinedUnsat:
    culprit: str
    propagated: Tuple[Tuple[str, str], ...]
    rounds: int
    problem: TheoryProblem

    @property
    def is_sat(self) -> bool:
        return False


CombinedResult = Union[CombinedSat, CombinedUnsat]


def propagate(
    problem: TheoryProblem, plugins: Optional[Sequence[TheoryPlugin]] = None
) -> CombinedResult:
    """Run the equality-exchange loop to a fixpoint.

    Each round re-asserts every partition together with all equalities
    propagated so far, then merges the plugins' newly implied pairs into
    the pool; new pairs go to every partition on the next round.  At most
    C(|shared|, 2) rounds can add a pair, since each adding round grows a
    set that lives inside the shared-variable pairs.
    """
    if plugins is None:
        plugins = (MlsTheory(), LraTheory(), ListTheory())
    for p in plugins:
        if not p.is_convex:
            raise NonConvexPluginError(
                f"plugin {p.name!r} is not convex; single-equality propagation "
                "would be incomplete"
            )
    have = {p.name for p in plugins}
    for t in THEORIES:
        if problem.partition(t) and t not in have:
            raise UnsupportedAtomError(f"literals require the {t!r} plugin")

    known: List[Tuple[str, str]] = []
    seen: set = set()
    n = len(problem.shared)
    max_adding = n * (n - 1) // 2
    adding_rounds = 0
    while True:
        eq_lits = [Eq(Var(a), Var(b)) for a, b in known]
        for p in plugins:
            lits = list(problem.partition(p.name)) + eq_lits
            if not p.assert_literals(lits):
                return CombinedUnsat(p.name, tuple(known), adding_rounds, problem)
        new: List[Tuple[str, str]] = []
        for p in plugins:
            for a, b in p.implied_equalities(problem.shared):
                canon = (a, b) if a <= b else (b, a)
                if a != b and canon not in seen:
                    seen.add(canon)
                    new.append((a, b))
        if not new:
            frags = {p.name: p.model_fragment() for p in plugins}
            return CombinedSat(frags, tuple(known), adding_rounds, problem)
        known.extend(new)
        adding_rounds += 1
        if adding_rounds > max_adding:
            raise InvariantViolation(
                "propagation exceeded the pair-count bound on adding rounds"
            )


PLUGIN_FACTORIES = {
    "mls": MlsTheory,
    "lra": LraTheory,
    "list": ListTheory,
}


def solve_combined(
    asserts: Sequence[Formula],
    plugin_names: Sequence[str] = THEORIES,
    budget: Optional[int] = DEFAULT_SOLVE_BUDGET,
) -> CombinedResult:
    """Decide a mixed-theory assertion set; disjunctions split upstream.

    Each disjunct is purified and propagated with a fresh plugin set; the
    first satisfiable branch wins.  Plugin polling follows `plugin_names`
    order.
    """
    for name in plugin_names:
        if name not in PLUGIN_FACTORIES:
            raise UnsupportedAtomError(f"unknown plugin {name!r}")

    def make() -> List[TheoryPlugin]:
        out: List[TheoryPlugin] = []
        for name in plugin_names:
            out.append(MlsTheory(budget) if name == "mls" else PLUGIN_FACTORIES[name]())
        return out

    branches = split_disjuncts(and_(*asserts)) if asserts else [[]]
    last: Optional[CombinedResult] = None
    for branch in branches:
        res = propagate(purify(branch), make())
        if res.is_sat:
            return res
        last = res
    return last
