"""Decision procedure for normalized set conjunctions.

Satisfiability of a conjunction of "x in y" and "x = y setminus z" literals
is decided in three layers:

1. Places: boolean valuations of the variables consistent with every
   difference literal read as a pointwise biconditional.  Each element of a
   would-be model occupies exactly one place (the set of variables it
   belongs to), so an unsatisfiable boolean layer refutes the conjunction
   outright.  The places are listed by a depth-first search that decides
   the variables in vars order, False before True, and after each decision
   propagates the difference literals x <-> y & ~z it touches:

     y = F or z = T forces x = F;       y = T and z = F forces x = T;
     x = T forces y = T and z = F;      x = F and y = T forces z = T;
     x = F and z = F forces y = F.

   A variable already forced is not branched on, and a value forced both
   ways ends the branch.  Each rule is a consequence of x <-> y & ~z, so a
   forced value is the one every consistent completion of the branch
   takes, and a contradiction means the branch has no consistent
   completion: propagation cuts only subtrees without a place.  A literal
   is looked at again whenever one of its variables is set, so at a full
   valuation the first two rules have checked every literal, and every
   leaf is a place.  The leaves are therefore exactly the consistent
   valuations, in the order of a plain False-before-True enumeration of
   vars, which checks each literal once its last variable is set.  A node
   of the search sits at the first variable still unset; the prefix before
   it is set and satisfies every literal inside it, so plain enumeration
   visits that prefix's node too, and the search visits no more nodes.
   The search keeps its pending decisions on a stack and undoes a branch
   by popping the trail of variables it set, so no recursion is needed.

   The same search answers queries.  Given a partial valuation A (the
   assumptions), it first sets A's variables and propagates them, then
   searches as above and yields each leaf as it reaches it, so a caller
   draws only the places it reads.  A value propagated from A is the one
   every place agreeing with A takes, and a contradiction means no place
   agrees with A: propagation from a partial valuation cuts only subtrees
   with no agreeing place.  So the leaves are exactly the places that
   agree with A, and they come in place order, since the decisions still
   go in vars order, False before True.  A query visits no more nodes than
   the full listing.  The valuation V at a node of a query is closed under
   the rules, free of contradictions, and sets every variable before the
   node's position i.  A rule that fires on part of V fires on V, so the
   full search, deciding each variable before i as V does, sets only
   values of V, meets no contradiction, and reaches a node at or past i.
   Two nodes of a query on different branches disagree on a variable
   both set before their positions, and a node's descendants set its own
   variable, so no two nodes of a query reach the same node of the full
   search.
2. A placement sigma maps each element variable (one that occurs on the
   left of a membership) to the place its value will occupy.  sigma must
   put x somewhere inside y for every "x in y", must be constant on
   variables no place can tell apart, and the containment edges it induces
   must be acyclic, since sets are well founded.

   The search never lists the places; it asks the engine of layer 1, one
   engine per component, whose index is built once.  (i) Can u and v
   differ, that is, does some place hold one of them but not the other?
   The element variables no place tells apart form the classes: each joins
   the first class whose first member it cannot differ from.  Members of a
   class are held by the same places, so the edges of a placement run
   between classes: C -> D when C's place holds the members of D, and C
   must be built before D.  A class's targets are the y of every "x in y"
   with x in the class.

   (ii) The placement is found by greedy peeling.  While classes are left,
   take the first class, in class order, with a place that holds every
   target of the class and no element of any class left, the class itself
   included: one query, with those values as assumptions.  Give the class
   the first such place, in place order, and remove it.  When no class
   left has such a place, the component is unsatisfiable.

   An admissible placement exists iff greedy peeling succeeds.  If it
   succeeds, a class's place holds elements only of classes peeled before
   it, so every edge runs from a class to one peeled earlier; in the
   reverse peel order every edge runs forward, the edges are acyclic, and
   that order, each class's members in a row, is the witness's topo.
   Conversely, let sigma be admissible, with its classes in an order in
   which every edge runs forward.  The class sigma builds last has no
   edge, so its place holds every target of the class and no element at
   all: that class is eligible before anything is peeled.  Eligibility
   only widens as classes are removed, since a removal only drops
   assumptions, and after any removals the class left that sigma builds
   last has edges only to classes built after it, none of them left, so
   it is eligible too.  So peeling stops only when no class is left.  A
   component with k classes takes at most k(k + 1)/2 peel queries.
   (iii) The first place holding exactly one of u and w is the earlier, in
   place order, of the first place holding u but not w and the first
   holding w but not u; layer 3 seeds junk there.
3. From an admissible sigma, such as the peeled one, a concrete
   hereditarily finite model is built bottom-up along topo: each
   variable's value collects the values of the elements whose place holds
   it, plus one fresh tag set ("junk") for each seeded place that holds
   it.  Every tag has the same rank, top + 1, where top is at least
   len(vars) + 3: junk-free values have rank at most len(vars) and any
   value holding a tag has rank at least top + 2, so no tag equals a
   variable's value.  Tags differ from one another by the bits of their
   index, so the model's rank does not grow with the tag count.

   The junk-free build comes first and is returned when it verifies.  Two
   element variables u and w collide when the junk-free build gives them
   one value although sigma places them differently.  Seeding one tag in
   each place of a list J gives a model whenever every collision is
   separated by J, that is, some place of J holds exactly one of u and w:

   * Memberships hold by construction: sigma puts x inside y for every
     "x in y", so x's value is collected into y's.
   * By extensionality "x = y setminus z" holds iff, for every member e of
     the three values, the variables whose values hold e satisfy it as a
     boolean valuation.  For a tag those variables form the tag's place.
     For an element value they form the union of the places sigma gives
     the elements of that value, which is a single place unless the value
     is that of a collision.  So a difference literal can fail only at the
     value of a collision.
   * Adding tags never merges two distinct values, by induction over topo
     on the later of two elements.  If u's and w's junk-free values
     differ, one of them, say u's, holds the junk-free value of an earlier
     element a that w's does not.  With the tags, u's value holds a's new
     value.  If w's did too, it would be the new value of an earlier
     element b whose junk-free value lies in w's and so differs from a's
     (a's new value is no tag, by rank), and the induction hypothesis
     keeps a's and b's new values apart.  So u's and w's new values differ.
   * The tag of a place holding exactly one of u and w lies in exactly one
     of their values, so the seeded build keeps every collision apart.
     With the previous point it has no collision left, and it is a model.

   A collision u, w lies in two classes (sigma is constant on a class),
   whose signatures differ, so some place holds exactly one of them.  The
   search seeds the first such place, in place order (query (iii) of layer
   2), for each collision of the junk-free build that fails verification,
   builds once and verifies once.  Seeding every place, the maximal junk,
   separates every collision too, so by the same argument the maximal-junk
   build of any admissible placement is a model.

Before the engine is asked anything, solve applies two reductions.

* Membership cycles.  Each "x in y" forces rank(x) < rank(y), and HF sets
  are well founded, so no model has a chain x1 in x2 in ... in x1 (a
  self-membership being the shortest).  A cycle in the graph of
  membership literals refutes the conjunction outright.
* Components.  Variables are connected when a literal mentions both; the
  literals split into the components of that relation, and no literal
  spans two of them.  Each component is peeled on its own places, under
  one shared budget (the nodes of every query and the models built), and
  picks its own junk (none when its junk-free build verifies, else the
  places layer 3 chooses).
  The conjunction is satisfiable iff every component is: a model of the
  whole restricts to each part, and the merged witness below builds a
  model of the whole from the parts.  The merged witness concatenates the
  components' sigma, junk and topo over all the variables.  A component's
  places hold only its own variables, so in the merged build a variable
  collects only element values and junk tags of its own component.  Each
  component's part of the model is therefore the build of its own witness
  with the tags relabelled injectively: tags stay pairwise distinct and all
  of rank top + 1 >= len(vars) + 4, which still exceeds every junk-free
  value, so the equalities and memberships between the component's values
  do not change, and that build is a model (verified when junk-free, by
  layer 3 otherwise).  The merged model is re-verified against the whole
  conjunction all the same.  A connected conjunction is its own single
  component and is peeled as a whole.

Peeling is deterministic and complete (layer 2), so a component none of
whose classes can be peeled proves unsatisfiability.  Every produced
model is re-verified literal by literal before it is returned.

Implied equalities are read off one decision and the place list.  The
signature of a variable is the tuple of its truth values over
enumerate_places(nc) (each component's places, component after
component).  The places are listed only when the decision is Sat, once,
by the decision's engines and on its meter, so one budget caps the
decision and the listing together.  When nc is satisfiable, "x = y" holds
in every model of nc iff x and y have equal signatures:

(<=) The variables whose values contain a given element of a model form a
     boolean valuation that satisfies every difference literal pointwise,
     so on each component it is one of that component's places: every
     element lies in exactly one place of each component.  If x and y
     share a component, an element lies in x's value iff its place holds
     x, iff that place holds y, iff it lies in y's value.  If they do not,
     equal signatures mean no place holds either, so both values are
     empty.  Either way the two values are equal.
(=>) Let a place p hold x but not y.  solve found an admissible placement,
     and its maximal-junk build, one tag in every place of every component,
     is a model by layer 3 and the merging argument above.  That build
     puts p's tag into exactly the values of the variables p holds, and no
     tag equals a variable's value or another tag, so p's tag lies in x's
     value and not in y's.

When nc is unsatisfiable every pair is implied.  A variable nc does not
mention is unconstrained, so it is implied equal only to itself.  This is
the convexity of the theory in its cheapest form: one decision answers
every pair, and no pair needs a refutation probe of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .errors import DEFAULT_BUDGET, Budget, InvariantViolation
from .hf import HFSet, SetAssignment, hf, nested_singleton, set_diff
from .normalize import NormalizedConjunction

# The rank of a tag's largest member is rounded up to a multiple of this, so
# that conjunctions with nearby variable counts share one interned tag family.
_TAG_TOP_STEP = 16


@dataclass(frozen=True)
class Place:
    """A boolean valuation of the variables, as the set it maps to True."""

    trues: frozenset

    def holds(self, name: str) -> bool:
        return name in self.trues

    def sorted_trues(self) -> Tuple[str, ...]:
        return tuple(sorted(self.trues))

    def __repr__(self) -> str:
        return "Place({" + ", ".join(self.sorted_trues()) + "})"


def _difference_rules() -> Dict[tuple, Optional[Tuple[Tuple[int, bool], ...]]]:
    """The unit rules of x <-> y & ~z, keyed by the values of (x, y, z).

    A value is None while unset.  An entry lists the (slot, value) pairs
    the rules of layer 1 force on unset slots, or is None when a rule
    contradicts a set slot.
    """
    table = {}
    for known in product((None, False, True), repeat=3):
        x, y, z = known
        need = []
        if y is False or z is True:
            need.append((0, False))
        if y is True and z is False:
            need.append((0, True))
        if x is True:
            need += [(1, True), (2, False)]
        if x is False and y is True:
            need.append((2, True))
        if x is False and z is False:
            need.append((1, False))
        if any(known[s] is not None and known[s] is not c for s, c in need):
            table[known] = None
        else:
            table[known] = tuple(dict.fromkeys((s, c) for s, c in need if known[s] is None))
    return table


_FORCES = _difference_rules()


class _Engine:
    """The search of layer 1 over one component's places (module docstring).

    The variable index and the watch lists are built once; every query
    about the component goes through them, metered by meter.
    """

    def __init__(self, nc: NormalizedConjunction, meter: Budget) -> None:
        self.nc = nc
        self.meter = meter
        self.pos = {v: i for i, v in enumerate(nc.vars)}
        # watch[i]: the differences that mention variable i, as index triples
        self.watch: List[List[Tuple[int, int, int]]] = [[] for _ in nc.vars]
        for d in nc.differences:
            t = (self.pos[d[0]], self.pos[d[1]], self.pos[d[2]])
            for i in dict.fromkeys(t):
                self.watch[i].append(t)

    def places(self, assume: Sequence[Tuple[str, bool]] = ()) -> Iterator[Place]:
        """The places that agree with assume, drawn lazily in place order.

        assume is a partial valuation, as (variable, value) pairs; without
        it every place comes.  The search starts from the valuation assume
        and its propagation.
        """
        order, pos, watch, meter = self.nc.vars, self.pos, self.watch, self.meter
        n = len(order)
        val: List[Optional[bool]] = [None] * n
        trail: List[int] = []  # the variables set so far, in the order set

        def assign(i: int, b: bool) -> bool:
            """Set variable i to b and all it forces; False on a contradiction."""
            val[i] = b
            trail.append(i)
            k = len(trail) - 1
            while k < len(trail):  # trail[k:] is set but not yet propagated
                for t in watch[trail[k]]:
                    forced = _FORCES[val[t[0]], val[t[1]], val[t[2]]]
                    if forced is None:
                        return False
                    for slot, c in forced:
                        w = t[slot]
                        if val[w] is None:
                            val[w] = c
                            trail.append(w)
                        elif val[w] is not c:  # x, y and z need not be distinct
                            return False
                k += 1
            return True

        # decisions still to try: (variable, value, trail length before it)
        pending: List[Tuple[int, bool, int]] = []

        def visit(i: int) -> Optional[Place]:
            """The node at the first unset variable from i on: its place when
            every variable is set, else None with its two branches pending."""
            meter.spend("enumerating places")
            while i < n and val[i] is not None:
                i += 1
            if i == n:
                return Place(frozenset(compress(order, val)))
            pending.append((i, True, len(trail)))
            pending.append((i, False, len(trail)))
            return None

        for v, b in assume:
            i = pos[v]
            if val[i] is None:
                if not assign(i, b):
                    return
            elif val[i] is not b:
                return
        leaf = visit(0)
        if leaf is not None:
            yield leaf
        while pending:
            i, b, mark = pending.pop()
            while len(trail) > mark:
                val[trail.pop()] = None
            if assign(i, b):
                leaf = visit(i + 1)
                if leaf is not None:
                    yield leaf

    def first(self, assume: Sequence[Tuple[str, bool]]) -> Optional[Place]:
        """The first place that agrees with assume, or None."""
        return next(self.places(assume), None)

    def splits(self, u: str, w: str) -> Iterator[Optional[Place]]:
        """The first place holding u but not w, then the first holding w but
        not u; None for either that does not exist.  Query (i) of layer 2."""
        for a, b in ((u, w), (w, u)):
            yield self.first(((a, True), (b, False)))

    def classes(self, elems: Sequence[str]) -> List[List[str]]:
        """elems grouped into the classes no place tells apart, by first member.

        Each element joins the first class whose first member it cannot
        differ from.  Such variables are equal in every model (module
        docstring), so they must share a placement: differing placements
        would put one value in conflicting sets.
        """
        classes: List[List[str]] = []
        for u in elems:
            for group in classes:
                if all(p is None for p in self.splits(group[0], u)):
                    group.append(u)
                    break
            else:
                classes.append([u])
        return classes


def _components(nc: NormalizedConjunction) -> List[NormalizedConjunction]:
    """nc split into its variable-connected components, by first variable.

    A connected (or empty) conjunction comes back as [nc] itself.
    """
    # group[v] is the set of variables connected to v so far, shared by all
    # of them; a literal merges the smaller of two groups into the larger.
    group: Dict[str, Set[str]] = {}
    for lit in nc.memberships + nc.differences:
        g = group.get(lit[0])
        if g is None:
            g = group[lit[0]] = {lit[0]}
        for v in lit[1:]:
            h = group.get(v)
            if h is None:
                g.add(v)
                group[v] = g
            elif h is not g:
                if len(h) > len(g):
                    g, h = h, g
                g |= h
                for u in h:
                    group[u] = g
    if not group or len(group[nc.vars[0]]) == len(group):
        return [nc]
    parts = {id(group[v]): ([], []) for v in nc.vars}
    for m in nc.memberships:
        parts[id(group[m[0]])][0].append(m)
    for d in nc.differences:
        parts[id(group[d[0]])][1].append(d)
    return [NormalizedConjunction(mems, diffs) for mems, diffs in parts.values()]


def _acyclic(succ: Dict[str, List[str]]) -> bool:
    """Whether the edges from each key u to every v in succ[u] close no
    cycle, a self-loop included.  Kahn's algorithm; every successor must
    itself be a key."""
    indeg = dict.fromkeys(succ, 0)
    for vs in succ.values():
        for v in vs:
            indeg[v] += 1
    ready = [u for u, d in indeg.items() if d == 0]
    done = 0
    while ready:
        done += 1
        for v in succ[ready.pop()]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return done == len(succ)


def _signatures(places: Sequence[Place], names: Iterable[str]) -> Dict[str, Tuple[bool, ...]]:
    """Each name's signature: which of the places hold it, in place order."""
    return {u: tuple(p.holds(u) for p in places) for u in names}


def enumerate_places(
    nc: NormalizedConjunction, budget: Optional[int] = None
) -> List[Place]:
    """nc's places, each component's in turn: those implied_equalities reads.

    A component's places are the boolean valuations of its variables
    consistent with its difference literals, in deterministic order:
    variables in vars order, False tried before True.  The all-False
    valuation is always a place, so the list is never empty.
    """
    meter = Budget(budget)
    return [p for part in _components(nc) for p in _Engine(part, meter).places()]


@dataclass(frozen=True)
class SolverWitness:
    """Everything needed to rebuild a model without re-searching."""

    vars: Tuple[str, ...]
    sigma: Tuple[Tuple[str, Place], ...]
    junk: Tuple[Place, ...]
    topo: Tuple[str, ...]


@dataclass(frozen=True)
class Sat:
    model: SetAssignment
    witness: SolverWitness

    @property
    def is_sat(self) -> bool:
        return True


@dataclass(frozen=True)
class Unsat:
    @property
    def is_sat(self) -> bool:
        return False


SolveResult = Union[Sat, Unsat]


def _junk_tags(nvars: int, count: int) -> List[HFSet]:
    """count distinct tag sets, all of rank top + 1 with top >= nvars + 3.

    Tag j is {N(top)} | {N(b) : bit b of j is set}, N(d) being the nested
    singleton of rank d.  Every bit b is below top, so N(top) alone sets
    the rank and distinct indices give distinct sets.
    """
    if count == 0:
        return []
    nbits = (count - 1).bit_length()
    top = -(-max(nvars + 3, nbits) // _TAG_TOP_STEP) * _TAG_TOP_STEP
    head = nested_singleton(top)
    low = [nested_singleton(b) for b in range(nbits)]
    return [
        hf([head] + [s for b, s in enumerate(low) if j >> b & 1])
        for j in range(count)
    ]


def build_model(witness: SolverWitness) -> SetAssignment:
    """Construct the assignment a solver witness describes.

    Each variable's value collects the element-variable values whose place
    puts them inside it, plus the tag of each junk place that holds the
    variable.  Junk-free values have rank at most len(vars), every tag
    has rank top + 1 >= len(vars) + 4, and any value holding a tag has rank
    at least top + 2; so no tag equals an element value.  Tag j holds
    nested singletons for the set bits of j, so tags are pairwise distinct.
    The model's rank is at most top + 1 + len(vars), and top grows with
    the junk count only once log2 of it exceeds len(vars) + 3.
    """
    sig = dict(witness.sigma)
    members: Dict[str, List[HFSet]] = {v: [] for v in witness.vars}
    for t, p in zip(_junk_tags(len(witness.vars), len(witness.junk)), witness.junk):
        for v in p.trues:
            members[v].append(t)
    # topo puts every u before the variables sig[u] holds, so u's members
    # are all collected when its turn comes.
    vals: Dict[str, HFSet] = {}
    for u in witness.topo:
        vals[u] = hf(members[u])
        for v in sig[u].trues:
            members[v].append(vals[u])
    for v in witness.vars:
        if v not in vals:
            vals[v] = hf(members[v])
    return SetAssignment(vals)


def satisfies(nc: NormalizedConjunction, model: SetAssignment) -> bool:
    """Check every literal of nc against an assignment of its variables."""
    for x, y in nc.memberships:
        if model[x] not in model[y]:
            return False
    for x, y, z in nc.differences:
        if model[x] is not set_diff(model[y], model[z]):
            return False
    return True


def _search(
    engine: _Engine,
) -> Optional[Tuple[SolverWitness, Optional[SetAssignment]]]:
    """Peel the classes of engine's component; None when it is unsat.

    The places come from queries to the engine, never from a full listing.
    The witness of the peeled placement comes with its verified junk-free
    model, or, when the junk-free build fails, with the junk of layer 3
    (module docstring) and no model: the caller builds and verifies that
    one.
    """
    nc, meter = engine.nc, engine.meter
    elems: List[str] = list(dict.fromkeys(x for x, _ in nc.memberships))
    classes = engine.classes(elems)
    of = {u: k for k, group in enumerate(classes) for u in group}
    targets: List[List[Tuple[str, bool]]] = [[] for _ in classes]
    for x, y in nc.memberships:
        targets[of[x]].append((y, True))
    sig: Dict[str, Place] = {}
    left = list(range(len(classes)))  # the unpeeled classes, in class order
    peeled: List[int] = []
    while left:
        # the first class with a place holding its targets and no unpeeled element
        unpeeled = [(u, False) for k in left for u in classes[k]]
        for k in left:
            p = engine.first(targets[k] + unpeeled)
            if p is not None:
                break
        else:
            return None
        for u in classes[k]:
            sig[u] = p
        left.remove(k)
        peeled.append(k)
    # a class's place holds elements of earlier-peeled classes only, so
    # the reverse peel order builds every element before the sets holding it
    topo = tuple(u for k in reversed(peeled) for u in classes[k])

    def place_order(p: Place) -> Tuple[bool, ...]:
        return tuple(p.holds(v) for v in nc.vars)

    sigma = tuple((u, sig[u]) for u in elems)
    meter.spend("building candidate models")
    witness = SolverWitness(vars=nc.vars, sigma=sigma, junk=(), topo=topo)
    model = build_model(witness)
    if satisfies(nc, model):
        return witness, model
    # The classes' representatives, grouped by junk-free value: two
    # differently placed ones in a group collide, and the earlier of
    # their splits is the first place that holds exactly one (layer 3).
    by_value: Dict[HFSet, List[str]] = {}
    for group in classes:
        by_value.setdefault(model[group[0]], []).append(group[0])
    junk = {
        min((p for p in engine.splits(u, w) if p is not None), key=place_order)
        for reps in by_value.values()
        for u, w in combinations(reps, 2)
        if sig[u] != sig[w]
    }
    return SolverWitness(nc.vars, sigma, tuple(sorted(junk, key=place_order)), topo), None


def _decide(
    nc: NormalizedConjunction, budget: Optional[int]
) -> Tuple[SolveResult, List[_Engine]]:
    """solve's verdict on nc with the engines of nc's components, which
    _implied goes on querying on the same meter."""
    meter = Budget(budget)
    edges: Dict[str, List[str]] = {}
    for x, y in nc.memberships:
        edges.setdefault(x, []).append(y)
        edges.setdefault(y, [])
    if not _acyclic(edges):
        return Unsat(), []
    engines, found = [], []
    for part in _components(nc):
        engines.append(_Engine(part, meter))
        hit = _search(engines[-1])
        if hit is None:
            return Unsat(), engines
        found.append(hit)
    if len(found) == 1 and found[0][1] is not None:
        witness, model = found[0]
        return Sat(model, witness), engines
    witness = SolverWitness(
        vars=nc.vars,
        sigma=tuple(s for w, _ in found for s in w.sigma),
        junk=tuple(j for w, _ in found for j in w.junk),
        topo=tuple(u for w, _ in found for u in w.topo),
    )
    meter.spend("building candidate models")
    model = build_model(witness)
    if not satisfies(nc, model):
        raise InvariantViolation("admissible placement built a non-model")
    return Sat(model, witness), engines


def solve(
    nc: NormalizedConjunction, budget: Optional[int] = DEFAULT_BUDGET
) -> SolveResult:
    """Decide a normalized conjunction; Sat carries a verified model.

    budget caps the total count of search steps (the nodes the place
    engine visits for its queries, which meter the peeling, and the model
    builds) over all components; exceeding it raises ResourceLimitError.  None means
    unbounded.  No place is listed: a component without memberships takes
    one step.
    """
    return _decide(nc, budget)[0]


def _implied(
    nc: NormalizedConjunction,
    decision: Tuple[SolveResult, List[_Engine]],
    pairs: Iterable[Tuple[str, str]],
) -> Tuple[Tuple[str, str], ...]:
    """The pairs implied by nc, read off decision = _decide(nc, ...).

    On Sat, each component's places are listed once, by the decision's
    engines and on its meter.
    """
    result, engines = decision
    if not result.is_sat:
        return tuple(pairs)
    places = [p for engine in engines for p in engine.places()]
    signature = _signatures(places, nc.vars)
    return tuple(
        (x, y)
        for x, y in pairs
        if x == y or (x in signature and signature.get(y) == signature[x])
    )


def implied_equalities(
    nc: NormalizedConjunction,
    pairs: Iterable[Tuple[str, str]],
    budget: Optional[int] = DEFAULT_BUDGET,
) -> Tuple[Tuple[str, str], ...]:
    """The pairs (x, y) whose equality holds in every model of nc.

    nc is decided once and, when satisfiable, its places are listed once
    for the signatures: a pair is implied iff its two sides are one name or
    have equal signatures (see the module docstring for why).  budget caps
    the decision and the listing together.
    """
    return _implied(nc, _decide(nc, budget), pairs)
