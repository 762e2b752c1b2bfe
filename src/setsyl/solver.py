"""Decision procedure for normalized set conjunctions.

Satisfiability of a conjunction of "x in y" and "x = y setminus z" literals
is decided in three layers:

1. Places: boolean valuations of the variables consistent with every
   difference literal read as a pointwise biconditional.  Each element of a
   would-be model occupies exactly one place (the set of variables it
   belongs to), so an unsatisfiable boolean layer refutes the conjunction
   outright.
2. A placement sigma maps each element variable (one that occurs on the
   left of a membership) to the place its value will occupy.  sigma must
   put x somewhere inside y for every "x in y", must be constant on
   variables no place can tell apart, and the containment edges it induces
   must be acyclic, since sets are well founded.
3. From an admissible sigma a concrete hereditarily finite model is built
   bottom-up, seeding every place with fresh tag sets ("junk") so that
   distinct places stay extensionally distinct.  Every tag has the same
   rank, top + 1, where top is at least len(vars) + 3: junk-free values
   have rank at most len(vars) and any value holding a tag has rank at
   least top + 2, so no tag equals an element value.  Tags differ from one
   another by the bits of their index, so the model's rank does not grow
   with the number of places.

Before any place is enumerated, solve applies two reductions.

* Membership cycles.  Each "x in y" forces rank(x) < rank(y), and HF sets
  are well founded, so no model has a chain x1 in x2 in ... in x1 (a
  self-membership being the shortest).  A cycle in the graph of
  membership literals refutes the conjunction outright.
* Components.  Variables are connected when a literal mentions both; the
  literals split into the components of that relation, and no literal
  spans two of them.  Each component is searched on its own places, under
  one shared budget, and picks its own junk (none, else its maximal junk).
  The conjunction is satisfiable iff every component is: a model of the
  whole restricts to each part, and the merged witness below builds a
  model of the whole from the parts.  The merged witness concatenates the
  components' sigma, junk and topo over all the variables.  A component's
  places hold only its own variables, so in the merged build a variable
  collects only element values and junk tags of its own component.  Each
  component's part of the model is therefore its own model with the tags
  relabelled injectively: tags stay pairwise distinct and all of rank
  top + 1 >= len(vars) + 4, which still exceeds every junk-free value, so
  the equalities and memberships between the component's values do not
  change.  The merged model is re-verified against the whole conjunction
  all the same.  A connected conjunction is its own single component and
  takes the search unchanged.

The search is deterministic and exhaustive, so exhaustion proves
unsatisfiability.  Every produced model is re-verified literal by literal
before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .errors import InvariantViolation, ResourceLimitError
from .formulas import Eq, Not, Var
from .hf import HFSet, SetAssignment, hf, nested_singleton, set_diff
from .normalize import NormalizedConjunction, normalize

DEFAULT_SOLVE_BUDGET = 10_000_000

_COPIES = 2
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


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: Optional[int]):
        self.left = limit

    def spend(self, what: str) -> None:
        if self.left is None:
            return
        self.left -= 1
        if self.left < 0:
            raise ResourceLimitError(f"solver budget exhausted while {what}")


def _enumerate_places(nc: NormalizedConjunction, budget: _Budget) -> List[Place]:
    order = nc.vars
    pos = {v: i for i, v in enumerate(order)}
    by_last: List[List[Tuple[str, str, str]]] = [[] for _ in order]
    for d in nc.differences:
        x, y, z = d
        by_last[max(pos[x], pos[y], pos[z])].append(d)

    out: List[Place] = []
    val: Dict[str, bool] = {}

    def rec(i: int) -> None:
        budget.spend("enumerating places")
        if i == len(order):
            out.append(Place(frozenset(v for v in order if val[v])))
            return
        for b in (False, True):
            val[order[i]] = b
            if all(val[x] == (val[y] and not val[z]) for x, y, z in by_last[i]):
                rec(i + 1)
        val.pop(order[i], None)

    rec(0)
    return out


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


def _has_membership_cycle(nc: NormalizedConjunction) -> bool:
    """Whether the x -> y edges of the literals "x in y" close a cycle.

    Kahn's algorithm: peel off variables with no incoming edge; any
    variable left over lies on or behind a cycle (a self-loop included).
    """
    succ: Dict[str, List[str]] = {}
    indeg: Dict[str, int] = {}
    for x, y in nc.memberships:
        succ.setdefault(x, []).append(y)
        indeg.setdefault(x, 0)
        indeg[y] = indeg.get(y, 0) + 1
    ready = [v for v, d in indeg.items() if d == 0]
    peeled = 0
    while ready:
        peeled += 1
        for w in succ.get(ready.pop(), ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return peeled < len(indeg)


def enumerate_places(
    nc: NormalizedConjunction, budget: Optional[int] = None
) -> List[Place]:
    """The places solve searches: each component's, component after component.

    A component's places are the boolean valuations of its variables
    consistent with its difference literals, in deterministic order:
    variables in vars order, False tried before True.  The all-False
    valuation is always a place, so the list is never empty.
    """
    meter = _Budget(budget)
    return [p for part in _components(nc) for p in _enumerate_places(part, meter)]


@dataclass(frozen=True)
class SolverWitness:
    """Everything needed to rebuild a model without re-searching."""

    vars: Tuple[str, ...]
    sigma: Tuple[Tuple[str, Place], ...]
    junk: Tuple[Tuple[Place, int], ...]
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
    puts them inside it, plus the tag of each junk entry whose place holds
    the variable.  Junk-free values have rank at most len(vars), every tag
    has rank top + 1 >= len(vars) + 4, and any value holding a tag has rank
    at least top + 2; so no tag equals an element value.  Tag j holds
    nested singletons for the set bits of j, so tags are pairwise distinct.
    The model's rank is at most top + 1 + len(vars), and top grows with
    the junk count only once log2 of it exceeds len(vars) + 3.
    """
    sig = dict(witness.sigma)
    tags = _junk_tags(len(witness.vars), len(witness.junk))

    vals: Dict[str, HFSet] = {}

    def settle(v: str) -> None:
        members = [vals[u] for u in witness.topo if sig[u].holds(v)]
        members.extend(t for t, (p, _) in zip(tags, witness.junk) if p.holds(v))
        vals[v] = hf(members)

    for u in witness.topo:
        settle(u)
    for v in witness.vars:
        if v not in vals:
            settle(v)
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


def _kahn(elems: Sequence[str], sig: Dict[str, Place]) -> Optional[Tuple[str, ...]]:
    remaining = list(elems)
    done: List[str] = []
    placed = set()
    while remaining:
        for v in remaining:
            if all(u in placed for u in elems if u != v and sig[u].holds(v)):
                done.append(v)
                placed.add(v)
                remaining.remove(v)
                break
        else:
            return None
    return tuple(done)


def _has_cycle(assigned: Sequence[str], sig: Dict[str, Place]) -> bool:
    if any(sig[u].holds(u) for u in assigned):
        return True
    color: Dict[str, int] = {}

    def visit(u: str) -> bool:
        color[u] = 1
        for v in assigned:
            if v in sig and sig[u].holds(v):
                c = color.get(v, 0)
                if c == 1 or (c == 0 and visit(v)):
                    return True
        color[u] = 2
        return False

    return any(color.get(u, 0) == 0 and visit(u) for u in assigned)


def _search(
    nc: NormalizedConjunction, meter: _Budget
) -> Optional[Tuple[SolverWitness, Optional[SetAssignment]]]:
    """Search the placements of nc; None when no placement is admissible.

    The witness of the first admissible placement comes with its verified
    junk-free model, or, when the junk-free build fails, with maximal junk
    and no model: the caller builds and verifies that one.
    """
    places = _enumerate_places(nc, meter)

    elems: List[str] = list(dict.fromkeys(x for x, _ in nc.memberships))
    targets: Dict[str, List[str]] = {u: [] for u in elems}
    for x, y in nc.memberships:
        targets[x].append(y)

    # Variables no place distinguishes must share a placement: the junk
    # seeding makes their values extensionally equal, so differing
    # placements would put one value in conflicting sets.
    signature = {u: tuple(p.holds(u) for p in places) for u in elems}
    classes: List[List[str]] = []
    by_sig: Dict[tuple, List[str]] = {}
    for u in elems:
        group = by_sig.get(signature[u])
        if group is None:
            group = by_sig[signature[u]] = []
            classes.append(group)
        group.append(u)

    candidates: List[List[Place]] = []
    for group in classes:
        cand = [
            p
            for p in places
            if all(p.holds(y) for u in group for y in targets[u])
        ]
        if not cand:
            return None
        candidates.append(cand)

    sig: Dict[str, Place] = {}

    def leaf() -> Tuple[SolverWitness, Optional[SetAssignment]]:
        topo = _kahn(elems, sig)
        if topo is None:
            raise InvariantViolation("acyclic placement has no build order")
        sigma = tuple((u, sig[u]) for u in elems)
        meter.spend("building candidate models")
        witness = SolverWitness(vars=nc.vars, sigma=sigma, junk=(), topo=topo)
        model = build_model(witness)
        if satisfies(nc, model):
            return witness, model
        maximal_junk = tuple((p, i) for p in places for i in range(_COPIES))
        return SolverWitness(nc.vars, sigma, maximal_junk, topo), None

    def descend(i: int) -> Optional[Tuple[SolverWitness, Optional[SetAssignment]]]:
        if i == len(classes):
            return leaf()
        for p in candidates[i]:
            meter.spend("searching placements")
            for u in classes[i]:
                sig[u] = p
            if not _has_cycle([u for g in classes[: i + 1] for u in g], sig):
                hit = descend(i + 1)
                if hit is not None:
                    return hit
            for u in classes[i]:
                del sig[u]
        return None

    return descend(0)


def solve(
    nc: NormalizedConjunction, budget: Optional[int] = DEFAULT_SOLVE_BUDGET
) -> SolveResult:
    """Decide a normalized conjunction; Sat carries a verified model.

    budget caps the total count of search steps (place-enumeration nodes,
    placement attempts, model builds) over all components; exceeding it
    raises ResourceLimitError.  None means unbounded.
    """
    if _has_membership_cycle(nc):
        return Unsat()
    meter = _Budget(budget)
    found = []
    for part in _components(nc):
        hit = _search(part, meter)
        if hit is None:
            return Unsat()
        found.append(hit)
    if len(found) == 1 and found[0][1] is not None:
        witness, model = found[0]
        return Sat(model, witness)
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
    return Sat(model, witness)


def implied_equalities(
    nc: NormalizedConjunction,
    pairs: Iterable[Tuple[str, str]],
    budget: Optional[int] = DEFAULT_SOLVE_BUDGET,
) -> Tuple[Tuple[str, str], ...]:
    """The pairs (x, y) whose equality holds in every model of nc.

    Each pair is tested by refuting nc together with "x != y"; the theory
    is convex, so pairwise tests capture every disjunction of equalities.
    """
    out: List[Tuple[str, str]] = []
    for x, y in pairs:
        probe = normalize(nc.literals() + [Not(Eq(Var(x), Var(y)))])
        if not solve(probe, budget=budget).is_sat:
            out.append((x, y))
    return tuple(out)
