"""Ground-truth evaluation and brute-force bounded model search.

eval_atom / eval_formula interpret the set-theoretic fragment (including
the extension operators) over hereditarily finite assignments.  oracle_sat
searches every assignment of the free variables into the bounded universe,
so it decides any set formula up to the rank bound by construction.  It is
the reference the fast solver is tested against, and it is deliberately
simple: the only cleverness is scheduling each conjunct at the first depth
where all its variables are bound, which prunes the search without
changing what it visits.  The conjuncts are split off the formula as it
stands (And, Not over Or, double negation), with no rebuild in negation
normal form, and the variable order is chosen greedily in one pass over
the pending conjuncts per depth.  Every search spends one step budget,
charged per expanded node, and raises ResourceLimitError when it runs
out; there is no refusal by the size of the assignment space.
first_countermodels answers a disjunction and each of its disjuncts in one
walk over one formula's models, on one meter.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

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
    Record,
    SetOp,
    Subset,
    Term,
    Var,
    and_,
    conjuncts,
    free_vars,
    fresh_names,
)
from .hf import (
    HFSet,
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


_SET_OPS = {"union": set_union, "inter": set_inter, "setminus": set_diff}
_EXT_OPS = {"single": lambda a: hf((a,)), "pow": power_set, "bigU": big_union,
            "bigI": big_inter, "cross": cross_product, "ucross": unordered_cross}


def eval_term(t: Term, m: Mapping[str, HFSet]) -> HFSet:
    """Value of t under m, any mapping of names to sets."""
    kind = type(t)
    if kind is Var:
        v = m.get(t.name)
        if v is None:
            raise UnboundVariableError(f"variable {t.name!r} is not assigned")
        return v
    if kind is SetOp:
        return _SET_OPS[t.op](eval_term(t.left, m), eval_term(t.right, m))
    if kind is Empty:
        return hf()
    if kind is ExtOp:
        args = [eval_term(a, m) for a in t.args]
        if t.op == "bigI" and not args[0].children:
            raise _BigInterUndefined()
        return _EXT_OPS[t.op](*args)
    raise UnsupportedAtomError(f"not a set term: {t!r}")


def eval_atom(a, m: Mapping[str, HFSet]) -> bool:
    """Truth of a set-theoretic atom under m, any mapping of names to sets.

    An atom whose evaluation hits (bigI empty) counts as false: the big
    intersection is undefined there, and no defined value could make the
    atom hold.
    """
    kind = type(a)
    try:
        if kind is In:
            return eval_term(a.left, m) in eval_term(a.right, m)
        if kind is Eq:
            return eval_term(a.left, m) == eval_term(a.right, m)
        if kind is Subset:
            return is_subset(eval_term(a.left, m), eval_term(a.right, m))
    except _BigInterUndefined:
        return False
    if kind is Leq or kind is AtomPred:
        raise UnsupportedAtomError(f"not a set-theoretic atom: {a!r}")
    raise UnsupportedAtomError(f"not an atom: {a!r}")


def eval_formula(f: Formula, m: Mapping[str, HFSet]) -> bool:
    """Truth of f under m, any mapping of names to sets."""
    kind = type(f)
    if kind is Not:
        return not eval_formula(f.body, m)
    if kind is And:
        return all(eval_formula(p, m) for p in f.parts)
    if kind is Or:
        return any(eval_formula(p, m) for p in f.parts)
    return eval_atom(f, m)


class BoundedResult(Record):
    """The first model within the rank bound, or None when there is none.

    Bounded implication is bounded satisfiability of f and not g, so one
    class answers both: a model is a countermodel, and none means implied.
    Either verdict says nothing about models above the rank bound searched.
    """

    __slots__ = ("model",)

    def __init__(self, model: Optional[Dict[str, HFSet]]) -> None:
        object.__setattr__(self, "model", model)

    @property
    def is_sat(self) -> bool:
        return self.model is not None

    @property
    def implied(self) -> bool:
        return self.model is None


def _split(f: Formula, out: List[Formula]) -> None:
    """Append the conjuncts of f to out: And is split, Not(Or(ps)) becomes
    Not(p) for each p, Not(Not(x)) becomes x, and any other formula is one
    conjunct as it stands.

    Each step keeps the truth of f under eval_formula, which takes Not,
    And and Or anywhere: the conjunction of the parts is f by De Morgan's
    law and double negation.  No step reorders leaves, so the variables of
    the conjuncts, read in order, are f's free variables in order of first
    occurrence, which the schedule needs.
    """
    if type(f) is And:
        for p in f.parts:
            _split(p, out)
    elif type(f) is Not and type(f.body) is Or:
        for p in f.body.parts:
            _split(Not(p), out)
    elif type(f) is Not and type(f.body) is Not:
        _split(f.body.body, out)
    else:
        out.append(f)


def _schedule(f: Formula) -> Tuple[List[str], List[List[Formula]], List[Formula]]:
    """Pick a variable order and attach each conjunct to the first depth
    where all its variables are bound.  Greedy: prefer the variable that
    completes the most pending conjuncts, then the one touching the most of
    them, then first occurrence.  Deterministic throughout.

    One integer scores each variable, completes * big + touches, big
    exceeding any touch count.  Touches never change while a variable is
    unbound, as no conjunct holding it can be complete, and a conjunct
    adds to completes when all but one of its variables are bound; so one
    pass over the pending conjuncts per depth both binds the chosen
    variable and keeps every score current.
    """
    parts: List[Formula] = []
    _split(f, parts)
    big = len(parts) + 1
    # each variable's bit, in order of first occurrence, which is the
    # order of free_vars(f) since the conjuncts keep f's leaf order
    bit: Dict[str, int] = {}
    score: Dict[int, int] = {}
    ground: List[Formula] = []
    pending = []  # (mask of the variables still unbound, conjunct)
    for p in parts:
        mask = 0
        for v in free_vars(p):
            b = bit.setdefault(v, 1 << len(bit))
            score[b] = score.get(b, 0) + 1
            mask |= b
        if not mask:
            ground.append(p)
            continue
        if not mask & (mask - 1):
            score[mask] += big
        pending.append((mask, p))
    names = list(bit)
    order: List[str] = []
    checks: List[List[Formula]] = []
    while score:  # the unbound variables, in order of first occurrence
        best = max(score, key=score.__getitem__)  # the first of the best
        del score[best]
        order.append(names[best.bit_length() - 1])
        here, rest = [], []
        for mask, p in pending:
            if mask & best:
                mask ^= best
                if not mask:
                    here.append(p)
                    continue
                if not mask & (mask - 1):
                    score[mask] += big
            rest.append((mask, p))
        checks.append(here)
        pending = rest
    return order, checks, ground


def bounded_models(
    f: Formula, rank_bound: int, budget: Union[int, Budget, None] = DEFAULT_BUDGET
) -> Iterator[Dict[str, HFSet]]:
    """Yield every assignment of free_vars(f) into the rank-bounded universe
    that satisfies f, in a fixed order (variables scheduled greedily, values
    in canonical universe order).

    budget caps the assignments tried: each node the search expands is
    charged up front for every universe value it will try, and running out
    raises ResourceLimitError.  None means unbounded.
    """
    universe = enumerate_universe(rank_bound)
    width = len(universe)
    meter = Budget.of(budget)
    order, checks, ground = _schedule(f)
    partial: Dict[str, HFSet] = {}
    for g in ground:
        if not eval_formula(g, partial):
            return
    n = len(order)
    if n == 0:
        yield {}
        return
    # Depth-first over the depths, without recursion: tried[d] counts the
    # values already tried at depth d, and each node is charged on entry.
    tried = [0] * n
    depth = 0
    meter.spend("searching bounded models", width)
    while depth >= 0:
        name, k = order[depth], tried[depth]
        if k == width:
            del partial[name]
            depth -= 1
            continue
        tried[depth] = k + 1
        partial[name] = universe[k]
        for c in checks[depth]:
            if not eval_formula(c, partial):
                break
        else:
            if depth + 1 == n:
                yield dict(partial)
            else:
                depth += 1
                tried[depth] = 0
                meter.spend("searching bounded models", width)


def oracle_sat(
    f: Formula, rank_bound: int, budget: Union[int, Budget, None] = DEFAULT_BUDGET
) -> BoundedResult:
    """Exhaustive bounded satisfiability: the first model in search order,
    or None.  A returned model is re-verified with eval_formula before it
    leaves this function.  budget is as for bounded_models."""
    for m in bounded_models(f, rank_bound, budget):
        if not eval_formula(f, m):
            raise InvariantViolation("bounded search produced a non-model")
        return BoundedResult(m)
    return BoundedResult(None)


def oracle_implies(
    f: Formula, g: Formula, rank_bound: int, budget: Union[int, Budget, None] = DEFAULT_BUDGET
) -> BoundedResult:
    """Bounded implication: does every model of f within the bound satisfy g?
    A countermodel is a model of f and not g."""
    return oracle_sat(and_(f, Not(g)), rank_bound, budget)


def first_countermodels(
    f: Formula,
    disjuncts: Sequence[Formula],
    rank_bound: int,
    budget: Union[int, Budget, None] = DEFAULT_BUDGET,
) -> Tuple[bool, List[Optional[Dict[str, HFSet]]]]:
    """One walk over f's models within the bound for a disjunction and its
    disjuncts, whose variables must all be f's.

    Returns (implied, counter): implied says whether every model of f
    satisfies some disjunct, and counter[i] is the first model of f, in
    bounded_models order, that falsifies disjuncts[i], or None when every
    model satisfies it.  The walk stops at the first model that falsifies
    every disjunct, which is then the countermodel of each one still open.
    So implied, and which counter[i] are None, are what oracle_implies
    answers for the disjunction and for each disjunct alone.  budget is as
    for bounded_models.
    """
    counter: List[Optional[Dict[str, HFSet]]] = [None] * len(disjuncts)
    for m in bounded_models(f, rank_bound, budget):
        falsified = [i for i, d in enumerate(disjuncts) if not eval_formula(d, m)]
        for i in falsified:
            if counter[i] is None:
                counter[i] = m
        if len(falsified) == len(disjuncts):
            return False, counter
    return True, counter


def nonconvexity_schema(phi: Formula, xbar: str, k: int):
    """Pad phi with k+1 fresh members of xbar.

    Returns (Phi, pairs) where Phi adds to phi membership probes of xbar,
    k+1 names that fresh_names mints past every _m name of phi, and pairs
    lists the C(k+1, 2) candidate equalities among the probe variables.
    If xbar can hold at most k distinct elements, Phi forces the
    disjunction of the pairs without forcing any single one, which is
    exactly the shape a non-convex theory produces.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    names = list(islice(fresh_names("_m", free_vars(phi)), k + 1))
    probes = [In(Var(nm), Var(xbar)) for nm in names]
    big = and_(*(conjuncts(phi) + probes))
    pairs = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
    return big, pairs
