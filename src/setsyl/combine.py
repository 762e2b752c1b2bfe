"""Equality-propagating combination of the set, arithmetic, and list solvers.

Mixed conjunctions are first purified: every nested application below the
top of an atom is named by a fresh `_p` variable whose defining equality is
routed to the subterm's own theory, so each partition's literals mention
one theory only (plus shared variables).  The partitions then exchange
implied equalities between shared variables until a fixpoint: because each
participating theory is convex and stably infinite, propagating single
equalities is a complete combination procedure for conjunctions of
literals.

What is exchanged is a partition of the shared variables into classes, not
a set of pairs.  Implied equality is an equivalence, so each plugin answers
with its classes: lists of two or more names, members in `shared` order,
classes by first member.  A union-find over `shared` keeps the classes
found so far; each plugin class is merged member by member into its first
member, and a (head, member) pair counts only when it merges two classes.
The merging pairs form a spanning forest of the classes, so at most
|shared| - 1 rounds can merge anything, which is the convex case's
polynomial bound with no case split.  Each plugin hears and tells only
about the shared variables its own partition mentions: it is given each
class restricted to them, as the equalities from the class's first such
member to each other one, at most one fewer than those variables.

Plugins are polled in a caller-chosen order.  The order can change which
pairs of a class are listed in `propagated` (the first reported pair that
merges two classes is kept), but not the partition they generate, and so
not the verdict.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple, Union

from .errors import DEFAULT_BUDGET, Budget, NonConvexPluginError, UnsupportedAtomError
from .formulas import (
    ATOM_THEORY,
    MLS,
    MLS_EXT,
    TERM_THEORY,
    ArithOp,
    AtomPred,
    Empty,
    Eq,
    ExtOp,
    Formula,
    ListOp,
    Not,
    RationalConst,
    Record,
    SetOp,
    Term,
    Var,
    and_,
    free_vars,
    fresh_names,
    is_literal,
    literal_atom,
)
from .hf import to_strings
from .lists import ListTheory
from .lra import LraTheory
from .normalize import first_sat, normalize, split_disjuncts
from .solver import _decide

THEORIES = ("mls", "lra", "list")


def _top_theory(t: Term) -> Optional[str]:
    if isinstance(t, Var):
        return None
    tag = TERM_THEORY.get(type(t))
    if tag is None:
        raise UnsupportedAtomError(f"not a term: {t!r}")
    return MLS if tag == MLS_EXT else tag


class TheoryProblem(Record):
    """A purified conjunction, split by theory.

    `parts` maps each name of THEORIES, which is also its plugin's name, to
    that theory's literals.  `shared` lists variables occurring in at least
    two partitions, in first-occurrence order, and `mentions` maps each
    name of THEORIES to the shared variables its partition mentions, in
    `shared` order.  The purifier's defining equalities sit in their home
    partitions.
    """

    __slots__ = ("parts", "shared", "mentions")


class _Purifier:
    def __init__(self, taken: Iterable[str]):
        self.fresh = fresh_names("_p", taken)
        self.memo: Dict[Term, Var] = {}
        self.parts: Dict[str, List[Formula]] = {t: [] for t in THEORIES}

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
        v = Var(next(self.fresh))
        self.memo[flat] = v
        self.parts[_top_theory(flat)].append(Eq(v, flat))
        return v

    def route(self, lit: Formula) -> Optional[Tuple[Formula, Tuple[str, str]]]:
        """Place one literal; returns a deferred shared equality, if any."""
        if not is_literal(lit):
            raise UnsupportedAtomError(f"combination expects literals, got {lit!r}")
        atom, sign = literal_atom(lit)
        target = ATOM_THEORY.get(type(atom))
        if type(atom) is AtomPred:
            out: Formula = AtomPred(self._rebuild(atom.arg))
        elif target is not None:
            out = type(atom)(self._rebuild(atom.left), self._rebuild(atom.right))
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
    pur = _Purifier(free_vars(*literals))
    deferred: List[Tuple[Formula, Tuple[str, str]]] = []
    for lit in literals:
        d = pur.route(lit)
        if d is not None:
            deferred.append(d)

    occurs = {t: dict.fromkeys(free_vars(*pur.parts[t])) for t in THEORIES}
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
    # occurs[t] holds parts[t]'s variables in first-occurrence order
    shared = tuple(dict.fromkeys(v for t in THEORIES for v in occurs[t] if counts[v] >= 2))
    mentions = {t: tuple(v for v in shared if v in occurs[t]) for t in THEORIES}
    return TheoryProblem({t: tuple(pur.parts[t]) for t in THEORIES}, shared, mentions)


class TheoryPlugin(Protocol):
    """What the propagation loop requires of a participating solver."""

    name: str
    is_convex: bool

    def assert_literals(self, literals: Sequence[Formula]) -> bool: ...

    def implied_equalities(self, shared: Sequence[str]) -> List[List[str]]: ...

    def model_fragment(self) -> Mapping[str, object]: ...


class MlsTheory:
    """The set plugin: satisfiability and implied equalities via search."""

    name = "mls"
    is_convex = True

    def __init__(self, budget: Union[int, Budget, None] = DEFAULT_BUDGET):
        self._budget = Budget.of(budget)  # one meter for every round
        self._nc = None
        self._decision = None
        self._vars: Tuple[str, ...] = ()

    def assert_literals(self, literals: Sequence[Formula]) -> bool:
        self._vars = tuple(free_vars(*literals))
        self._nc = normalize(list(literals))
        # one decision per round; implied_equalities asks its engines split
        # queries, on the same meter, and lists no places
        self._decision = _decide(self._nc, self._budget)
        return self._decision.result.is_sat

    def implied_equalities(self, shared: Sequence[str]) -> List[List[str]]:
        return self._decision.classes(v for v in shared if v in self._nc.vars)

    def model_fragment(self) -> Mapping[str, str]:
        model = self._decision.result.model
        return to_strings({v: model[v] for v in self._vars if v in model})


def _plugins(names: Sequence[str], budget: Union[int, Budget, None]) -> List[TheoryPlugin]:
    """A fresh plugin for each name of THEORIES, in that order; the set
    and arithmetic plugins spend budget."""
    make = {"mls": lambda: MlsTheory(budget), "lra": lambda: LraTheory(budget), "list": ListTheory}
    return [make[name]() for name in names]


class CombinedResult(Record):
    """The verdict of the combination: culprit names the plugin that
    refuted the last round, and is None exactly when the conjunction is
    satisfiable, in which case fragments holds each plugin's model."""

    __slots__ = ("fragments", "culprit", "propagated", "rounds", "problem")

    @property
    def is_sat(self) -> bool:
        return self.culprit is None


def propagate(
    problem: TheoryProblem, plugins: Optional[Sequence[TheoryPlugin]] = None
) -> CombinedResult:
    """Run the equality-exchange loop to a fixpoint.

    Each round asserts to each plugin its partition together with the
    classes found so far, restricted to the shared variables that its
    partition mentions (`problem.mentions`): for each class, `Eq` literals
    from the first member it mentions to each other member it mentions.
    Then it polls each plugin for its classes of implied equalities among
    those same variables.  Each class [h, *rest] is offered as the pairs
    (h, b) for b in rest.  A pair whose variables are already in one
    class is dropped; a pair that joins two classes is kept, appended to
    `propagated`, and asserted from the next round on.  The loop ends at
    the first round that merges nothing.  Each counted round merges at
    least once among |shared| classes, so `rounds` and `len(propagated)`
    are both at most |shared| - 1.

    Keeping only the forest loses nothing against asserting every implied
    pair.  The forest generates the same partition as all the pairs it
    stands for, and restricting that partition to a plugin's variables
    loses nothing either: a model of the partition and the restricted
    equalities extends to every other variable of a class by the value of
    a member the plugin mentions (a class it mentions none of takes any
    one value), since no other literal of the plugin holds such a
    variable.  So each plugin is given a conjunction equivalent, over its
    own variables, to its partition and all the pairs, and it reports the
    same classes among them.  Verdicts and culprits are therefore the
    same, and no fragment names a variable its partition does not mention.

    Offering classes gives the same `propagated` as offering every implied
    pair (x, y) of a plugin, x before y in `shared`, sorted by the position
    of x and then of y, and keeping those that merge.  A pair (y, z) whose
    first member y is not the head h of its plugin class comes after
    (h, y) and (h, z), which have already joined y and z, so it never
    merges.  Only (head, member) pairs are ever kept, sorted by the head's
    position and then the member's, and that is the order in which the
    classes, in head order, offer them.  So `propagated`, `rounds`, the
    asserted literals and the fragments are those of the pair exchange.
    """
    if plugins is None:
        plugins = _plugins(THEORIES, DEFAULT_BUDGET)
    for p in plugins:
        if not p.is_convex:
            raise NonConvexPluginError(
                f"plugin {p.name!r} is not convex; single-equality propagation "
                "would be incomplete"
            )
    have = {p.name for p in plugins}
    for t in THEORIES:
        if problem.parts[t] and t not in have:
            raise UnsupportedAtomError(f"literals require the {t!r} plugin")

    heads = {v: v for v in problem.shared}

    def find(v: str) -> str:
        while heads[v] != v:
            heads[v] = heads[heads[v]]
            v = heads[v]
        return v

    known: List[Tuple[str, str]] = []
    eqs: Dict[str, List[Formula]] = {p.name: [] for p in plugins}
    rounds = 0
    while True:
        for p in plugins:
            if not p.assert_literals(list(problem.parts[p.name]) + eqs[p.name]):
                return CombinedResult(None, p.name, tuple(known), rounds, problem)
        merged = False
        for p in plugins:
            for h, *rest in p.implied_equalities(problem.mentions[p.name]):
                for b in rest:
                    ra, rb = find(h), find(b)
                    if ra != rb:
                        heads[rb] = ra
                        known.append((h, b))
                        merged = True
        if not merged:
            frags = {p.name: p.model_fragment() for p in plugins}
            return CombinedResult(frags, None, tuple(known), rounds, problem)
        rounds += 1
        for p in plugins:
            # the next round's literals: each class, restricted to the
            # plugin's names, as the equalities from its first member to
            # each other member
            first: Dict[str, str] = {}
            pairs = [(first.setdefault(find(v), v), v) for v in problem.mentions[p.name]]
            eqs[p.name] = [Eq(Var(h), Var(v)) for h, v in pairs if h != v]


def solve_combined(
    asserts: Sequence[Formula],
    plugin_names: Sequence[str] = THEORIES,
    budget: Union[int, Budget, None] = DEFAULT_BUDGET,
) -> CombinedResult:
    """Decide a mixed-theory assertion set; disjunctions split upstream.

    Each disjunct is purified and propagated with a fresh plugin set; the
    first satisfiable branch wins.  Plugin polling follows `plugin_names`
    order.  One meter of budget is spent across every disjunct and round.
    """
    for name in plugin_names:
        if name not in THEORIES:
            raise UnsupportedAtomError(
                f"unknown plugin {name!r} (choose from {', '.join(THEORIES)})"
            )
        if plugin_names.count(name) > 1:
            raise UnsupportedAtomError(f"plugin {name!r} listed twice")
    meter = Budget.of(budget)
    return first_sat(
        split_disjuncts(and_(*asserts)) if asserts else [[]],
        lambda branch: propagate(purify(branch), _plugins(plugin_names, meter)),
    )
