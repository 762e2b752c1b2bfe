"""Decision procedure for normalized set conjunctions.

Satisfiability of a conjunction of "x in y" and "x = y setminus z" literals
is decided in three layers, and its "x != y" literals are decided after
them, from the same decision (Disequalities, below):

1. Places: boolean valuations of the variables consistent with every
   difference literal read as a pointwise biconditional.  Each element of a
   would-be model occupies exactly one place (the set of variables it
   belongs to, kept as a frozenset of their names), so an unsatisfiable
   boolean layer refutes the conjunction outright.  The places are listed
   by a depth-first search that decides the variables in vars order, False
   before True, and after each decision propagates the difference
   literals x <-> y & ~z it touches: a literal sets each of its unset
   variables on which every completion satisfying x == y & ~z agrees, and
   a literal no completion satisfies ends the branch.  A variable already
   forced is not branched on, and a value forced both ways ends the
   branch.  By construction a forced value is the one every consistent
   completion of the branch takes, and a contradiction means the branch
   has no consistent completion: propagation cuts only subtrees without a
   place.  A literal is looked at again whenever one of its variables is
   set, and a set literal that fails has no satisfying completion, so
   every leaf is a place.  The leaves are therefore exactly the consistent
   valuations, in the order of a plain False-before-True enumeration of
   vars, which checks each literal once its last variable is set.  A node
   of the search sits at the first variable still unset; the prefix before
   it is set and satisfies every literal inside it, so plain enumeration
   visits that prefix's node too, and the search visits no more nodes.
   The search keeps its pending decisions on a stack and undoes a branch
   by popping the trail of variables it set, so no recursion is needed.
   A valuation is a list of codes, one per variable: 0 for False, 1 for
   True, 2 while unset.  The rules are derived once from the definition,
   for the 27 coded values of a literal's (x, y, z), at index 9x + 3y + z:
   each entry lists the (slot, value) pairs on which every satisfying
   completion agrees, or is None when none satisfies it, so a watched
   literal costs one lookup.
   Each node the search visits costs one budget step.

   The same search answers queries.  Given a partial valuation A (the
   assumptions), it first sets A's variables and propagates them, then
   searches as above and yields each leaf as it reaches it, so a caller
   draws only the places it reads; the first place is one search to its
   first leaf.  A value propagated from A is the one every place agreeing
   with A takes, and a contradiction means no place agrees with A:
   propagation from a partial valuation cuts only subtrees with no
   agreeing place.  So the leaves are exactly the places that
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

   Free components.  A component with no difference literal constrains no
   valuation, so every valuation of its variables is a place, and a query
   for the first place needs no search.  With no literal, propagation sets
   nothing beyond A, and A contradicts itself only by assuming one
   variable both ways: then no place agrees with A, and the search visits
   no node.  Otherwise it decides each unset variable False, with no
   backtrack, and its first leaf is the place holding exactly the names A
   sets True, reached after 1 + (variables A leaves unset) nodes.  That
   place is the answer and those nodes are charged.  It is built from its
   names in vars order, as the leaf is, so the two frozensets are equal
   and iterate alike, and verdicts, models and witnesses come out the
   same.  The nodes go in one charge, cut at one more than the budget has
   left: a search charging them one by one raises at that node, so
   running out reports the same count.
2. A placement sigma maps each element variable (one that occurs on the
   left of a membership) to the place its value will occupy.  sigma must
   put x somewhere inside y for every "x in y", must be constant on
   variables no place can tell apart, and the containment edges it induces
   must be acyclic, since sets are well founded.

   The search never lists the places; it asks the engine of layer 1, one
   engine per component, whose index is built once.  (i) Can u and v
   differ, that is, does some place hold one of them but not the other?
   The first such place found answers it.  The element variables no place
   tells apart form the classes, each headed by its first member.  Every
   place an answer finds is kept: a kept place p tells apart every two
   variables it holds exactly one of, so a variable is asked only against
   the head held by the same kept places as itself.  Either it joins that
   class, or the answer keeps one more place, after which no head shares
   its kept places, and it heads a new class.  So there are fewer
   questions than elements.  Members of a class are held by the same places, so the
   edges of a placement run between classes: C -> D when C's place holds
   the members of D, and C must be built before D.  A class's targets are
   the y of every "x in y" with x in the class.

   (ii) The placement is found by greedy peeling.  While classes are left,
   take the first class, in class order, with a place that holds every
   target of the class and no element of any class left, the class itself
   included: one query, with those values as assumptions.  Give the class
   the first such place, in place order, and remove it.  When no class
   left has such a place, the component is unsatisfiable.

   The elements left are the same for every query of one round, so they
   are set False and propagated once per round, into a base valuation;
   that never meets a contradiction, since the all-False valuation is a
   place.  Each query sets its class's targets on that base and
   propagates them, and what it set is undone before the next class is
   asked: every value a query sets goes on the trail, so popping the
   trail back to the base's length restores the base exactly.  Each rule
   only adds values, and a value it forces on a partial valuation it
   forces on every extension (or the extension contradicts it), so the
   values propagation derives from a set of assumptions, and whether it
   meets a contradiction, do not depend on the order in which they are
   set.  A query therefore starts from the very valuation that setting
   its targets and the elements left together, and propagating them,
   gives.  The search from there is the same, so it finds the same first
   place in the same nodes; setting and propagating assumptions charges
   no step, so the steps spent are the same too.  A round costs one
   propagation of the elements left, not one per class asked.

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
   (iv) A component with no difference literal, of n variables, is
   peeled in closed form, with the answers and costs of layer 1's free
   components.  The place {h} holds h but not u, so every element is its
   own class, in elems order.  Grouping compares each element after the
   first with the element h before it, the one head that no kept place
   tells apart from it, and the first query finds {h} in n - 1 nodes: it
   sets two variables and decides the rest False.  So there are
   len(elems) - 1 queries, and none when there are fewer than two
   elements.  A round's query for an element sets the unpeeled elements
   False and its targets True; it contradicts itself, at no step, iff a
   target is unpeeled.  Otherwise its first place is exactly the targets,
   reached in 1 + n - (unpeeled elements) - (targets) nodes.  So each
   round peels the first element, in elems order, none of whose targets
   is unpeeled, at the place of its targets, and the component is
   unsatisfiable when no element is eligible.  The peel charges all these
   nodes at once, at its end.  The search charges nothing else meanwhile,
   so the capped charge of layer 1 runs out at the same count.
3. From an admissible sigma, such as the peeled one, a concrete
   hereditarily finite model is built bottom-up along topo: each
   variable's value collects the values of the elements whose place holds
   it, plus one fresh tag set ("junk") for each seeded place that holds
   it.  Every tag has the same rank, top + 1, where top is at least
   len(vars) + 3: junk-free values have rank at most len(vars) and any
   value holding a tag has rank at least top + 2, so no tag equals a
   variable's value.  Tags differ from one another by the bits of their
   index, so the model's rank does not grow with the tag count.

   The junk-free build comes first, made once for all the components
   together, and is returned when it verifies.  Two element variables u
   and w collide when the junk-free build gives them
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
   and no two classes hold the same places, so some place holds exactly
   one of u and w.  J is found from the classes' representatives: their
   collisions go in class order, a collision that a place already in J
   separates is skipped, and any other adds the first place, in place
   order, holding exactly one of the two (query (iii) of layer 2).  Every
   collision is then separated by J.  Each place added splits a group of
   colliding representatives that the earlier places hold alike, so J
   has fewer places than there are colliding classes.  When the junk-free
   build fails verification, the decision seeds J, builds once more and
   verifies once more.

Before the engine is asked anything, solve applies two reductions.

* Membership cycles.  Each "x in y" forces rank(x) < rank(y), and HF sets
  are well founded, so no model has a chain x1 in x2 in ... in x1 (a
  self-membership being the shortest).  A cycle in the graph of
  membership literals refutes the conjunction outright.
* Components.  Variables are connected when a membership or difference
  literal mentions both; those literals split into the components of that
  relation, and no literal spans two of them.  A disequality connects
  nothing and belongs to no component, and a variable that occurs only in
  disequalities is a component of its own, with no literal: its places
  are the empty place and the one holding it.  A component keeps its
  literals in nc's order and needs no second deduplication, since nc's
  literals are duplicate-free.  Its variables are nc's vars restricted to
  it, in the same order: each of its variables occurs in no other
  component's literals, and nc's vars list disequalities last, so it first
  occurs in its own literals, at the same place relative to the
  component's other variables as in nc; a component of one variable is
  trivially in order.  Each component is peeled on its own places, under
  one shared budget (the nodes of every query and the models built).
  The conjunction without its disequalities is satisfiable iff every
  component is: a model of the
  whole restricts to each part, and the merged witness below builds a
  model of the whole from the parts.  The merged witness concatenates the
  components' sigma, junk and topo over all the variables.  A component's
  places hold only its own variables, so in the merged build a variable
  collects only element values and junk tags of its own component.
  Without junk, a component's values in the merged build are therefore
  the very values of its own junk-free build: each is built from its own
  component's values alone, in the same order, and interning makes equal
  sets one object.  So whether a component's own junk-free build
  verifies, and which of its elements collide there, is read off the one
  merged junk-free build, whose values each component's literals are
  checked against once; a conjunction of k components costs one build,
  not one per component and one more for the whole.  Each component then
  picks its own junk: none when its literals hold there, else the places
  layer 3 chooses for its collisions.  When any component needs junk,
  the merged witness is built once more, with every component's junk
  seeded.  Each component's part of that model is the build of its own
  witness with the tags relabelled injectively: tags stay pairwise
  distinct and all of rank top + 1 >= len(vars) + 4, which still exceeds
  every junk-free value, so the equalities and memberships between the
  component's values do not change, and that build is a model (verified
  when junk-free, by layer 3 otherwise).  The seeded model is re-verified
  against the whole conjunction all the same.  A connected conjunction is
  its own single component and is peeled as a whole.

Peeling is deterministic and complete (layer 2), so a component none of
whose classes can be peeled proves unsatisfiability.  Every produced
model is re-verified literal by literal before it is returned.

Implied equalities and separating models come from one decision and
split queries; no place is listed.  Let a and b be variables of a
satisfiable nc.  Their split place is

* if they share a component, the earlier in place order of the first
  place holding a but not b and the first holding b but not a: the first
  place holding exactly one of them (query (iii) of layer 2);
* otherwise the first place of a's component holding a or, when there is
  none, the first place of b's component holding b.

The queries go to the decision's engines, on its meter, so one budget
caps the decision and every query.  "a = b" holds in every model of nc
iff a and b have no split place:

(<=) The variables whose values contain a given element of a model form a
     boolean valuation that satisfies every difference literal pointwise,
     so on each component it is one of that component's places: every
     element lies in exactly one place of each component.  If a and b
     share a component and no place holds exactly one of them, an element
     lies in a's value iff its place holds a, iff that place holds b, iff
     it lies in b's value.  If they do not share one, no place holds a or
     b, so both values are empty.  Either way the two values are equal.
(=>) Let p be any place holding exactly one of a and b, such as the
     split place (a place holds only variables of its own component).
     Let J be the collision junk of p's component (layer 3), and seed J
     and p there, every other component keeping the junk of the
     decision's witness.
     J separates every collision of the component's junk-free build, so
     J with p does too, and by layer 3 and the merging argument above the
     build is a model.  p's tag lies in exactly the values of the
     variables p holds, and no tag equals a variable's value or another
     tag, so the tag lies in one of a's and b's values and not in the
     other: they differ.  J is seeded even when the junk-free build
     verified, so that the argument of layer 3, which asks for every
     collision to be separated, covers the build as it stands.

That build, made once and verified (InvariantViolation if it is not a
model separating a and b), is the separating model minimize_equalities
enlarges along.  implied_equalities needs no build.  Implied equality is
an equivalence, so its answer is a partition, and it groups the
variables into classes as layer 2 (i) groups the elements, with the
split place as the answer: by (=>), a kept place holding exactly one of
two variables tells them apart.  A variable is compared only with the
head h of the same kept places and the same value in the decision's
model: that model satisfies nc, so a pair it separates is not implied.
The classes of two or more are the answer, members in the order asked
and classes by first member, with no pair listed.  When nc is
unsatisfiable every name is in one class.  A variable nc does not
mention is unconstrained, so it is implied equal only to itself and in
no class.  This is the convexity of the theory in its cheapest form: one
decision and fewer split queries than variables, with no enumeration of
models or places and no probe conjunction of its own.

A split query asks no search when propagation ties its pair: in one
component, a = True propagates b = True and a = False propagates b =
False, a contradiction counting as either; in two, a = True and b = True
each meet a contradiction.  A propagated value is the one every place
agreeing with the assumption takes (layer 1), so no place holds exactly
one of a and b.  The pair's own queries would meet the same contradiction
before searching; the test saves their propagation, since each engine
propagates a name once per value however many pairs ask.

Disequalities.  Let G be nc without its disequalities x1 != y1, ...,
xk != yk.  The places, the placement and the split places above are
G's alone: no disequality constrains a place.  MLS is convex, so
G and the disequalities are satisfiable together iff G is satisfiable
and implies none of the equalities xi = yi: if every model of G made
some xi = yi, G would imply their disjunction and, by convexity, one of
them.  So the decision goes as follows.

* A pair propagation ties refutes nc before any search, spending no
  step: it has no split place, so by the (<=) argument every model of G
  makes xi = yi.  That argument reads G's places, not a model found, so
  it holds whether or not G is satisfiable.  x != x is always tied.
* Otherwise the decision peels G and makes its junk-free build as above.
  A pair that build keeps apart needs no query.  Seeding junk never
  merges two distinct values (layer 3), so every later build keeps it
  apart too.
* Any other pair asks for its split place.  With none, xi = yi is implied
  by G (the (<=) argument) and nc is unsat.
* Otherwise each such pair's split place is seeded in its component, with
  that component's collision junk J.  J with any further places still
  separates every collision, so by layer 3 and the merging argument the
  build is a model of G, and the tag of a pair's split place lies in
  exactly one of its two values, as in (=>).  So the build is a model of
  nc.  It is built once, one step, and re-verified against the whole of
  nc, disequalities included.

One seeded build serves solve and every separating model: each
component seeds its J with the given places that hold its names, or,
when none does, J if its junk-free build fails.  solve gives it the
pairs' split places, and a separating build these and a and b's split
place; the (=>) argument goes through unchanged, so separating models
keep every disequality.  Implied equalities do not change either: the
places do not depend on the pairs, so the split queries ask what they
asked of G, and a pair implied by nc when nc is satisfiable is implied
by G, by the convexity argument above.  So one decision answers nc with
disequalities at the cost of at most one split query per pair.
"""

from __future__ import annotations

from itertools import combinations, compress, product
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .errors import DEFAULT_BUDGET, Budget, InvariantViolation
from .formulas import Record
from .hf import HFSet, hf, nested_singleton, set_diff
from .normalize import NormalizedConjunction, _group

# The rank of a tag's largest member is rounded up to a multiple of this, so
# that conjunctions with nearby variable counts share one interned tag family.
_TAG_TOP_STEP = 16


def _difference_rules() -> Tuple[Optional[Tuple[Tuple[int, int], ...]], ...]:
    """The unit rules of x <-> y & ~z, indexed by 9x + 3y + z.

    A value is 0 (False), 1 (True) or 2 (unset).  An entry lists, in slot
    order, the (slot, value) pairs of the unset slots on which every
    completion satisfying x == y & ~z agrees, or is None when no completion
    satisfies it.
    """
    table = []
    for known in product((0, 1, 2), repeat=3):
        # the completions of known that satisfy the definition (on 0 and 1,
        # y & ~z is y and not z)
        fits = [
            v
            for v in product((0, 1), repeat=3)
            if v[0] == v[1] & ~v[2] and all(k == 2 or k == b for k, b in zip(known, v))
        ]
        if not fits:
            table.append(None)
            continue
        first = fits[0]
        table.append(tuple(
            (s, first[s]) for s in range(3) if known[s] == 2 and all(v[s] == first[s] for v in fits)
        ))
    return tuple(table)


_FORCES = _difference_rules()


class _Engine:
    """The search of layer 1 over one component's places (module docstring).

    The variable index and the watch lists are built once; every query
    about the component goes through them, metered by meter.  A valuation
    is a list of codes by variable index: 0 (False), 1 (True) or 2 (unset).
    """

    def __init__(self, nc: NormalizedConjunction, meter: Budget) -> None:
        self.nc = nc
        self.meter = meter
        self.pos = pos = {v: i for i, v in enumerate(nc.vars)}
        # watch[i]: the differences that mention variable i, as index triples
        self.watch: List[List[Tuple[int, int, int]]] = [[] for _ in nc.vars]
        for x, y, z in nc.differences:
            t = (pos[x], pos[y], pos[z])
            self.watch[t[0]].append(t)
            if t[1] != t[0]:
                self.watch[t[1]].append(t)
            if t[2] != t[0] and t[2] != t[1]:
                self.watch[t[2]].append(t)
        self._propagated: Dict[Tuple[str, bool], Optional[List[int]]] = {}

    def _assign(self, val: List[int], trail: List[int], i: int, b: int) -> bool:
        """Set variable i to b and all it forces, extending the trail of
        variables set; False on a contradiction."""
        watch = self.watch
        val[i] = b
        k = len(trail)
        trail.append(i)
        while k < len(trail):  # trail[k:] is set but not yet propagated
            for t in watch[trail[k]]:
                x, y, z = t
                forced = _FORCES[9 * val[x] + 3 * val[y] + val[z]]
                if forced is None:
                    return False
                for slot, c in forced:
                    w = t[slot]
                    if val[w] == 2:
                        val[w] = c
                        trail.append(w)
                    elif val[w] != c:  # x, y and z need not be distinct
                        return False
            k += 1
        return True

    def _start(
        self, assume: Sequence[Tuple[str, bool]], base: Optional[Tuple[List[int], List[int]]] = None
    ) -> Optional[Tuple[List[int], List[int]]]:
        """The valuation that sets assume and propagates it, with its trail;
        None on a contradiction.  Given base, a valuation from _start and its
        trail, assume extends base in place, and the caller undoes what the
        trail gained to return to it."""
        if base is None:
            val, trail = [2] * len(self.nc.vars), []
        else:
            val, trail = base
        for v, b in assume:
            i, c = self.pos[v], 1 if b else 0
            if val[i] == 2:
                if not self._assign(val, trail, i, c):
                    return None
            elif val[i] != c:
                return None
        return val, trail

    def _descend(
        self, val: List[int], trail: List[int], pending: List[Tuple[int, int, int]], i: int
    ) -> Optional[frozenset]:
        """Search on to the next leaf: its place, or None when the search is over.

        The search visits the node at the first unset variable from i on,
        or, when i is -1, takes the last pending decision first.  pending
        holds the decisions still to try, as (variable, value, trail
        length before it).
        """
        order, spend, assign = self.nc.vars, self.meter.spend, self._assign
        n = len(order)
        while True:
            if i >= 0:
                spend("enumerating places")
                while i < n and val[i] != 2:
                    i += 1
                if i == n:
                    return frozenset(compress(order, val))
                pending.append((i, 1, len(trail)))
                b = 0  # False first: taken at once, nothing to undo
            elif pending:
                i, b, mark = pending.pop()
                while len(trail) > mark:
                    val[trail.pop()] = 2
            else:
                return None
            i = i + 1 if assign(val, trail, i, b) else -1

    def propagated(self, v: str, b: bool) -> Optional[List[int]]:
        """The codes, by variable index, that v = b sets and propagates, 2
        where unset; None when no place gives v that value.  Every place
        that does takes these values (layer 1).  Made once per v and b."""
        if (v, b) not in self._propagated:
            start = self._start(((v, b),))
            self._propagated[v, b] = None if start is None else start[0]
        return self._propagated[v, b]

    def places(self, assume: Sequence[Tuple[str, bool]] = ()) -> Iterator[frozenset]:
        """The places that agree with assume, drawn lazily in place order.

        assume is a partial valuation, as (variable, value) pairs; without
        it every place comes.  The search starts from the valuation assume
        and its propagation.
        """
        start = self._start(assume)
        if start is None:
            return
        val, trail = start
        pending: List[Tuple[int, int, int]] = []
        leaf = self._descend(val, trail, pending, 0)
        while leaf is not None:
            yield leaf
            leaf = self._descend(val, trail, pending, -1)

    def first(self, assume: Sequence[Tuple[str, bool]]) -> Optional[frozenset]:
        """The first place that agrees with assume, or None.  Without a
        difference literal, the names assumed True (layer 1, Free
        components), at the search's cost."""
        if self.nc.differences:
            start = self._start(assume)
            return None if start is None else self._descend(start[0], start[1], [], 0)
        given: Dict[str, bool] = {}
        for v, b in assume:
            if given.setdefault(v, b) != b:
                return None
        self.charge(1 + len(self.nc.vars) - len(given))
        return self.place([v for v, b in given.items() if b])

    def charge(self, nodes: int) -> None:
        """Spend the steps of nodes visited one at a time, in one call: past
        the limit, only up to the node that runs it out, so exhaustion
        reports the same count."""
        left = self.meter.left
        self.meter.spend("enumerating places", nodes if left is None else min(nodes, left + 1))

    def place(self, names: Iterable[str]) -> frozenset:
        """The place holding exactly names, built in vars order as a leaf
        is, so that it iterates alike."""
        return frozenset(sorted(names, key=self.pos.__getitem__))

    def order(self, p: frozenset) -> Tuple[bool, ...]:
        """p's key in place order, False before True over the vars."""
        return tuple(v in p for v in self.nc.vars)

    def splits(self, u: str, w: str) -> Iterator[frozenset]:
        """The first place holding u but not w, then the first holding w but
        not u, each when it exists.  Query (i) of layer 2."""
        for a, b in ((u, w), (w, u)):
            p = self.first(((a, True), (b, False)))
            if p is not None:
                yield p

    def split(self, u: str, w: str) -> Optional[frozenset]:
        """The first place holding exactly one of u and w, or None.  Query
        (iii) of layer 2."""
        return min(self.splits(u, w), key=self.order, default=None)


def _components(nc: NormalizedConjunction) -> List[NormalizedConjunction]:
    """nc's memberships and differences split into their variable-connected
    components, by first variable.

    No component holds a disequality, and a name that occurs only in
    disequalities is a component of its own, with no literal.  A connected
    (or empty) conjunction without disequalities comes back as [nc] itself,
    and one whose memberships and differences connect every name as nc
    without its disequalities.
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
    if not nc.disequalities and (not group or len(group[nc.vars[0]]) == len(group)):
        return [nc]
    if len(group) == len(nc.vars) and len(group[nc.vars[0]]) == len(group):
        return [NormalizedConjunction._unchecked(nc.memberships, nc.differences, nc.vars)]
    parts: Dict[Union[int, str], Tuple[List, List, List[str]]] = {}
    for v in nc.vars:
        g = group.get(v)
        parts.setdefault(v if g is None else id(g), ([], [], []))[2].append(v)
    for m in nc.memberships:
        parts[id(group[m[0]])][0].append(m)
    for d in nc.differences:
        parts[id(group[d[0]])][1].append(d)
    return [
        NormalizedConjunction._unchecked(tuple(mems), tuple(diffs), tuple(vs))
        for mems, diffs, vs in parts.values()
    ]


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


def enumerate_places(
    nc: NormalizedConjunction, budget: Union[int, Budget, None] = None
) -> List[frozenset]:
    """nc's places, each component's in turn.

    The solver itself lists no places; this full listing serves as the
    reference the queries are tested against and for benchmark probes.
    A component's places are the boolean valuations of its variables
    consistent with its difference literals, in deterministic order:
    variables in vars order, False tried before True.  The all-False
    valuation is always a place, so the list is never empty.
    """
    meter = Budget.of(budget)
    return [p for part in _components(nc) for p in _Engine(part, meter).places()]


class SolverWitness(Record):
    """Everything needed to rebuild a model without re-searching: each
    element's place and the junk places, as frozensets of names."""

    __slots__ = ("vars", "sigma", "junk", "topo")

    def __init__(
        self,
        vars: Tuple[str, ...],
        sigma: Tuple[Tuple[str, frozenset], ...],
        junk: Tuple[frozenset, ...],
        topo: Tuple[str, ...],
    ) -> None:
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "junk", junk)
        object.__setattr__(self, "topo", topo)


class Sat(Record):
    __slots__ = ("model", "witness")

    def __init__(self, model: Dict[str, HFSet], witness: SolverWitness) -> None:
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "witness", witness)

    @property
    def is_sat(self) -> bool:
        return True


class Unsat(Record):
    __slots__ = ()

    def __init__(self) -> None:
        pass

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


def build_model(witness: SolverWitness) -> Dict[str, HFSet]:
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
        for v in p:
            members[v].append(t)
    # topo puts every u before the variables sig[u] holds, so u's members
    # are all collected when its turn comes.
    vals: Dict[str, HFSet] = {}
    for u in witness.topo:
        vals[u] = hf(members[u])
        for v in sig[u]:
            members[v].append(vals[u])
    for v in witness.vars:
        if v not in vals:
            vals[v] = hf(members[v])
    return vals


def satisfies(nc: NormalizedConjunction, model: Mapping[str, HFSet]) -> bool:
    """Check every literal of nc against an assignment of its variables."""
    for x, y in nc.memberships:
        if model[x] not in model[y]:
            return False
    for x, y, z in nc.differences:
        if model[x] is not set_diff(model[y], model[z]):
            return False
    if nc.disequalities:
        for x, y in nc.disequalities:
            if model[x] is model[y]:
                return False
    return True


class _Part:
    """One component's engine and peeled classes, with the decision's
    junk-free build and whether the component's literals hold in it.

    The component's values in that build are those of its own junk-free
    build (module docstring, Components), so verified says whether its own
    build verifies, and its collision junk J of layer 3 is read off the
    same values, at most once: when the component fails, or when a
    disequality or a separating build seeds a place in it.
    """

    def __init__(
        self,
        engine: _Engine,
        classes: List[List[str]],
        sigma: Tuple[Tuple[str, frozenset], ...],
        free: Dict[str, HFSet],
        verified: bool,
    ) -> None:
        self.engine, self.classes, self.sigma = engine, classes, sigma
        self.free, self.verified = free, verified
        self._collisions: Optional[Tuple[frozenset, ...]] = None

    def collisions(self) -> Tuple[frozenset, ...]:
        """J: places separating every collision of the junk-free build, in place order.

        The classes' representatives are grouped by junk-free value, and
        two differently placed ones in a group collide.  The pairs go in
        class order; a pair that a place already chosen separates is
        skipped, and any other gets the earlier of its splits, the first
        place holding exactly one of the two (query (iii) of layer 2).
        """
        if self._collisions is None:
            sig = dict(self.sigma)
            by_value: Dict[HFSet, List[str]] = {}
            for group in self.classes:
                by_value.setdefault(self.free[group[0]], []).append(group[0])
            chosen: List[frozenset] = []
            held = {group[0]: 0 for group in self.classes}  # bit j: chosen[j] holds it
            for reps in by_value.values():
                for u, w in combinations(reps, 2):
                    if sig[u] != sig[w] and held[u] == held[w]:
                        p = self.engine.split(u, w)
                        for r in held:
                            if r in p:
                                held[r] |= 1 << len(chosen)
                        chosen.append(p)
            self._collisions = tuple(sorted(chosen, key=self.engine.order))
        return self._collisions


_Peel = Tuple[List[List[str]], Tuple[Tuple[str, frozenset], ...], Tuple[str, ...]]


def _search(engine: _Engine) -> Optional[_Peel]:
    """Peel the classes of engine's component: the classes, sigma and
    topo, or None when the component is unsat.

    The places are the first leaves of the engine's queries, never a full
    listing; a component with no difference literal is peeled in closed
    form, at the queries' cost (layer 2 (iv)).  Nothing is built here; the
    decision builds every component at once.
    """
    nc = engine.nc
    if not nc.differences:
        return _peel_free(engine)
    elems: List[str] = list(dict.fromkeys(x for x, _ in nc.memberships))
    if len(elems) < 2:  # most components: nothing to compare, and the call would cost more
        classes = [[u] for u in elems]
    else:
        classes = _group(elems, lambda h, u: next(engine.splits(h, u), None))
    of = {u: k for k, group in enumerate(classes) for u in group}
    targets: List[List[Tuple[str, bool]]] = [[] for _ in classes]
    for x, y in nc.memberships:
        targets[of[x]].append((y, True))
    sig: Dict[str, frozenset] = {}
    left = list(range(len(classes)))  # the unpeeled classes, in class order
    peeled: List[int] = []
    while left:
        # the first class with a place holding its targets and no unpeeled
        # element: each query extends the round's one propagated base, which
        # is never None, and is undone back to it
        base = engine._start([(u, False) for k in left for u in classes[k]])
        val, trail = base
        mark = len(trail)
        for k in left:
            if engine._start(targets[k], base) is not None:
                p = engine._descend(val, trail, [], 0)
                if p is not None:
                    break
            while len(trail) > mark:
                val[trail.pop()] = 2
        else:
            return None
        for u in classes[k]:
            sig[u] = p
        left.remove(k)
        peeled.append(k)
    # a class's place holds elements of earlier-peeled classes only, so
    # the reverse peel order builds every element before the sets holding it
    topo = tuple(u for k in reversed(peeled) for u in classes[k])
    return classes, tuple((u, sig[u]) for u in elems), topo


def _peel_free(engine: _Engine) -> Optional[_Peel]:
    """_search on a component with no difference literal, in closed form:
    each element its own class, and each round peels the first element
    none of whose targets is left, at the place of its targets, charging
    the nodes the queries would visit (layer 2 (iv))."""
    n = len(engine.nc.vars)
    targets: Dict[str, List[str]] = {}  # by element, in elems order
    for x, y in engine.nc.memberships:
        targets.setdefault(x, []).append(y)
    k = len(targets)
    nodes = (k - 1) * (n - 1) if k > 1 else 0  # the grouping's queries
    sig: Dict[str, frozenset] = {}
    left = dict.fromkeys(targets)  # the unpeeled elements, in elems order
    unpeeled = left.keys()
    while left:
        for u in left:
            if unpeeled.isdisjoint(targets[u]):
                break
        else:
            engine.charge(nodes)
            return None
        nodes += 1 + n - len(left) - len(targets[u])
        sig[u] = engine.place(targets[u])
        del left[u]
    engine.charge(nodes)
    return [[u] for u in targets], tuple((u, sig[u]) for u in targets), tuple(reversed(sig))


class _Decision:
    """solve's verdict on nc, kept to answer equality questions about nc.

    engines holds one engine per component of nc, in component order, on
    the decision's meter.  On Sat, parts holds each component's peeled
    placement, in the same order, and splits the split places of the
    disequalities the junk-free build does not keep apart.
    """

    def __init__(self, nc: NormalizedConjunction, meter: Budget, engines: List[_Engine]) -> None:
        self.nc, self.meter, self.engines = nc, meter, engines
        self.result: SolveResult = Unsat()
        self.parts: List[_Part] = []
        self.splits: List[frozenset] = []
        self.of: Optional[Dict[str, int]] = None

    def where(self, a: str, b: str) -> Tuple[int, int]:
        """The indices of the components of a and b.  The map from each
        variable of nc to its component's index is built on first use."""
        of = self.of
        if of is None:
            of = self.of = {v: k for k, engine in enumerate(self.engines) for v in engine.nc.vars}
        return of[a], of[b]

    def tied(self, a: str, b: str) -> bool:
        """Whether propagation alone ties a and b, so that a = b in every
        model of nc without its disequalities (module docstring).  No
        search, so no step."""
        i, j = self.where(a, b)
        up = self.engines[i].propagated(a, True)
        if i != j:
            return up is None and self.engines[j].propagated(b, True) is None
        k = self.engines[i].pos[b]
        if up is not None and up[k] != 1:
            return False
        down = self.engines[i].propagated(a, False)
        return down is None or down[k] == 0

    def split(self, a: str, b: str) -> Optional[frozenset]:
        """The split place of two variables of nc, or None when a = b is
        implied (module docstring); a tied pair asks no search.  The place
        holds names of its own component only."""
        if self.tied(a, b):
            return None
        i, j = self.where(a, b)
        if i == j:
            return self.engines[i].split(a, b)
        # a place holding a is not empty, so not false
        return self.engines[i].first(((a, True),)) or self.engines[j].first(((b, True),))

    def classes(self, names: Iterable[str]) -> List[List[str]]:
        """The classes of two or more names whose equality holds in every
        model of nc, members in names order, classes by first member.

        When nc is unsat every name is in one class.  Otherwise two
        variables of nc are in one class when they have no split place,
        and a name nc does not mention is in none; they are grouped with
        the model's value as key (module docstring).
        """
        names = list(dict.fromkeys(names))
        if not self.result.is_sat:
            return [names] if len(names) > 1 else []
        model = self.result.model
        groups = _group([v for v in names if v in model], self.split, model.__getitem__)
        return [group for group in groups if len(group) > 1]

    def build(self, *places: frozenset) -> Sat:
        """The Sat decision's placement built once with junk, and verified:
        each part seeds its J with the places and splits that hold its
        names, in place order, or, when none does, J if its junk-free build
        fails (module docstring, Disequalities).  One step."""
        seeds = (*self.splits, *places)
        junk: List[frozenset] = []
        for part in self.parts:
            mine = [p for p in seeds if next(iter(p)) in part.engine.pos]
            if mine:
                junk += sorted({*part.collisions(), *mine}, key=part.engine.order)
            elif not part.verified:
                junk += part.collisions()
        witness = self.result.witness.replace(junk=tuple(junk))
        self.meter.spend("building candidate models")
        model = build_model(witness)
        if not satisfies(self.nc, model):
            raise InvariantViolation("admissible placement built a non-model")
        return Sat(model, witness)

    def separating(self, a: str, b: str) -> Optional[Dict[str, HFSet]]:
        """A verified model of a Sat nc in which a and b differ, or None
        when a = b is implied: the build that also seeds their split place
        (module docstring)."""
        p = self.split(a, b)
        if p is None:
            return None
        model = self.build(p).model
        if model[a] is model[b]:
            raise InvariantViolation("separating build does not split its pair")
        return model


def _decide(nc: NormalizedConjunction, budget: Union[int, Budget, None]) -> _Decision:
    """solve's verdict on nc, kept with the engines and parts of nc's components."""
    meter = Budget.of(budget)
    edges: Dict[str, List[str]] = {}
    for x, y in nc.memberships:
        edges.setdefault(x, []).append(y)
        edges.setdefault(y, [])
    if not _acyclic(edges):
        return _Decision(nc, meter, [])
    decision = _Decision(nc, meter, [_Engine(comp, meter) for comp in _components(nc)])
    # a pair propagation ties refutes nc before any search (Disequalities)
    if nc.disequalities and any(decision.tied(a, b) for a, b in nc.disequalities):
        return decision
    peels = []
    for engine in decision.engines:
        peel = _search(engine)
        if peel is None:
            return decision
        peels.append(peel)
    witness = SolverWitness(
        vars=nc.vars,
        sigma=tuple(s for _, sigma, _ in peels for s in sigma),
        junk=(),
        topo=tuple(u for _, _, topo in peels for u in topo),
    )
    meter.spend("building candidate models")
    model = build_model(witness)
    # each component's literals, checked once against the one build
    decision.parts = [
        _Part(e, classes, sigma, model, satisfies(e.nc, model))
        for e, (classes, sigma, _) in zip(decision.engines, peels)
    ]
    decision.result = Sat(model, witness)
    # a pair the junk-free build keeps apart stays apart; any other is
    # seeded at its split place, or refutes nc when it has none
    for a, b in nc.disequalities:
        if model[a] is model[b]:
            p = decision.split(a, b)
            if p is None:
                decision.result = Unsat()
                return decision
            decision.splits.append(p)
    if decision.splits or not all(part.verified for part in decision.parts):
        decision.result = decision.build()
    return decision


def solve(
    nc: NormalizedConjunction, budget: Union[int, Budget, None] = DEFAULT_BUDGET
) -> SolveResult:
    """Decide a normalized conjunction; Sat carries a verified model.

    budget caps the total count of search steps over all components: the
    nodes the place engine visits for its queries, which meter the
    peeling and the disequalities' split queries, and one step for the
    decision's junk-free build, plus one more when junk is seeded.
    Exceeding it raises ResourceLimitError.  None means unbounded.  No
    place is listed: a conjunction without memberships or disequalities
    takes one step, its build, and a disequality whose sides propagation
    ties refutes nc in none.
    """
    return _decide(nc, budget).result


def implied_equalities(
    nc: NormalizedConjunction,
    names: Iterable[str],
    budget: Union[int, Budget, None] = DEFAULT_BUDGET,
) -> List[List[str]]:
    """The names grouped into the classes whose equality holds in every
    model of nc: classes of two or more, members in names order, classes
    by first member.

    nc is decided once.  When it is unsatisfiable every name is in one
    class.  Otherwise two variables of nc are in one class iff they have
    no split place, and they are grouped with fewer split queries than
    variables (see the module docstring for why); a name nc does not
    mention is in no class.  budget caps the decision and the queries
    together.
    """
    return _decide(nc, budget).classes(names)
