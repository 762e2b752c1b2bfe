"""Ground-truth evaluation and brute-force bounded model search.

eval_atom / eval_formula interpret the set-theoretic fragment (including
the extension operators) over hereditarily finite assignments.  oracle_sat
searches every assignment of the free variables into the bounded universe,
so it decides any set formula up to the rank bound by construction.  It is
the reference the fast solver is tested against, and it is deliberately
simple: the only cleverness is scheduling each conjunct at the first depth
where all its variables are bound, which prunes the search without
changing what it visits.  Every search spends one step budget, charged per
expanded node, and raises ResourceLimitError when it runs out; there is no
refusal by the size of the assignment space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from .errors import (
    DEFAULT_BUDGET,
    Budget,
    InvariantViolation,
    UnboundVariableError,
    UnsupportedAtomError,
)
from .formulas import (
    And,
    AtomPred,
    Empty,
    Eq,
    ExtOp,
    Formula,
    In,
    Leq,
    Not,
    Or,
    SetOp,
    Subset,
    Term,
    Var,
    and_,
    conjuncts,
    free_vars,
    max_fresh_index,
    nnf,
)
from .hf import (
    HFSet,
    SetAssignment,
    big_inter,
    big_union,
    cross_product,
    enumerate_universe,
    hf,
    is_subset,
    power_set,
    set_diff,
    set_inter,
    set_union,
    unordered_cross,
)


class _BigInterUndefined(Exception):
    """Internal: (bigI t) was evaluated on the empty set."""


def eval_term(t: Term, m: Mapping[str, HFSet]) -> HFSet:
    """Value of t under m, any mapping of names to sets (a SetAssignment
    or a plain dict)."""
    if isinstance(t, Var):
        v = m.get(t.name)
        if v is None:
            raise UnboundVariableError(f"variable {t.name!r} is not assigned")
        return v
    if isinstance(t, Empty):
        return hf()
    if isinstance(t, SetOp):
        a = eval_term(t.left, m)
        b = eval_term(t.right, m)
        if t.op == "union":
            return set_union(a, b)
        if t.op == "inter":
            return set_inter(a, b)
        return set_diff(a, b)
    if isinstance(t, ExtOp):
        args = [eval_term(a, m) for a in t.args]
        if t.op == "single":
            return hf((args[0],))
        if t.op == "pow":
            return power_set(args[0])
        if t.op == "bigU":
            return big_union(args[0])
        if t.op == "bigI":
            if not args[0].children:
                raise _BigInterUndefined()
            return big_inter(args[0])
        if t.op == "cross":
            return cross_product(args[0], args[1])
        return unordered_cross(args[0], args[1])
    raise UnsupportedAtomError(f"not a set term: {t!r}")


def eval_atom(a, m: Mapping[str, HFSet]) -> bool:
    """Truth of a set-theoretic atom under m, any mapping of names to sets.

    An atom whose evaluation hits (bigI empty) counts as false: the big
    intersection is undefined there, and no defined value could make the
    atom hold.
    """
    try:
        if isinstance(a, In):
            return eval_term(a.left, m) in eval_term(a.right, m)
        if isinstance(a, Eq):
            return eval_term(a.left, m) == eval_term(a.right, m)
        if isinstance(a, Subset):
            return is_subset(eval_term(a.left, m), eval_term(a.right, m))
    except _BigInterUndefined:
        return False
    if isinstance(a, (Leq, AtomPred)):
        raise UnsupportedAtomError(f"not a set-theoretic atom: {a!r}")
    raise UnsupportedAtomError(f"not an atom: {a!r}")


def eval_formula(f: Formula, m: Mapping[str, HFSet]) -> bool:
    """Truth of f under m, any mapping of names to sets."""
    if isinstance(f, Not):
        return not eval_formula(f.body, m)
    if isinstance(f, And):
        return all(eval_formula(p, m) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula(p, m) for p in f.parts)
    return eval_atom(f, m)


@dataclass
class BoundedSat:
    model: SetAssignment

    @property
    def is_sat(self) -> bool:
        return True


@dataclass
class NoModelWithinBound:
    rank_bound: int

    @property
    def is_sat(self) -> bool:
        return False


@dataclass
class ImpliedWithinBound:
    rank_bound: int

    @property
    def implied(self) -> bool:
        return True


@dataclass
class Countermodel:
    model: SetAssignment

    @property
    def implied(self) -> bool:
        return False


def _schedule(f: Formula) -> Tuple[List[str], List[List[Formula]], List[Formula]]:
    """Pick a variable order and attach each conjunct to the first depth
    where all its variables are bound.  Greedy: prefer the variable that
    completes the most pending conjuncts, then the one touching the most of
    them, then first occurrence.  Deterministic throughout."""
    parts = conjuncts(nnf(f))
    order: List[str] = []
    todo = list(free_vars(f))
    # each conjunct's variables as a bitmask over todo's initial order
    bit = {v: 1 << i for i, v in enumerate(todo)}
    masks = [sum(bit[v] for v in free_vars(p)) for p in parts]
    ground = [parts[i] for i, m in enumerate(masks) if not m]
    pending = [i for i, m in enumerate(masks) if m]
    checks: List[List[Formula]] = []
    bound = 0
    while todo:
        best = None
        best_rank = None
        left = [masks[i] & ~bound for i in pending]  # what each has unbound
        for v in todo:
            b = bit[v]
            # completes: b is all that is left; touches: b is among it
            rank = (-left.count(b), -sum(1 for m in left if m & b))
            if best_rank is None or rank < best_rank:
                best, best_rank = v, rank
        todo.remove(best)
        bound |= bit[best]
        order.append(best)
        checks.append([parts[i] for i in pending if not masks[i] & ~bound])
        pending = [i for i in pending if masks[i] & ~bound]
    return order, checks, ground


def bounded_models(
    f: Formula, rank_bound: int, budget: Optional[int] = DEFAULT_BUDGET
) -> Iterator[SetAssignment]:
    """Yield every assignment of free_vars(f) into the rank-bounded universe
    that satisfies f, in a fixed order (variables scheduled greedily, values
    in canonical universe order).

    budget caps the assignments tried: each node the search expands is
    charged up front for every universe value it will try, and running out
    raises ResourceLimitError.  None means unbounded.
    """
    universe = enumerate_universe(rank_bound)
    width = len(universe)
    meter = Budget(budget)
    order, checks, ground = _schedule(f)
    partial: Dict[str, HFSet] = {}
    for g in ground:
        if not eval_formula(g, partial):
            return
    n = len(order)

    def descend(depth: int) -> Iterator[SetAssignment]:
        if depth == n:
            yield SetAssignment(partial)
            return
        meter.spend("searching bounded models", width)
        name = order[depth]
        for value in universe:
            partial[name] = value
            if all(eval_formula(c, partial) for c in checks[depth]):
                yield from descend(depth + 1)
        del partial[name]

    if n == 0:
        yield SetAssignment({})
        return
    yield from descend(0)


def oracle_sat(f: Formula, rank_bound: int, budget: Optional[int] = DEFAULT_BUDGET):
    """Exhaustive bounded satisfiability: BoundedSat with the first model in
    search order, or NoModelWithinBound.  A returned model is re-verified
    with eval_formula before it leaves this function.  budget is as for
    bounded_models."""
    for m in bounded_models(f, rank_bound, budget):
        if not eval_formula(f, m):
            raise InvariantViolation("bounded search produced a non-model")
        return BoundedSat(m)
    return NoModelWithinBound(rank_bound)


def oracle_implies(
    f: Formula, g: Formula, rank_bound: int, budget: Optional[int] = DEFAULT_BUDGET
):
    """Bounded implication: does every model of f within the bound satisfy g?

    The verdict is explicitly bounded; ImpliedWithinBound(k) says nothing
    about models of rank above k.
    """
    res = oracle_sat(and_(f, Not(g)), rank_bound, budget)
    if res.is_sat:
        return Countermodel(res.model)
    return ImpliedWithinBound(rank_bound)


def nonconvexity_schema(phi: Formula, xbar: str, k: int):
    """Pad phi with k+1 fresh members of xbar.

    Returns (Phi, pairs) where Phi adds membership probes _m(t+1) ..
    _m(t+k+1) of xbar to phi, t being the largest n of a name _mn in phi
    (0 when there is none), and pairs lists the C(k+1, 2) candidate
    equalities among the probe variables.  If xbar can hold at most k
    distinct elements, Phi forces the disjunction of the pairs without
    forcing any single one, which is exactly the shape a non-convex
    theory produces.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    top = max_fresh_index("_m", free_vars(phi))
    names = [f"_m{top + i}" for i in range(1, k + 2)]
    probes = [In(Var(nm), Var(xbar)) for nm in names]
    big = and_(*(conjuncts(phi) + probes))
    pairs = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
    return big, pairs
