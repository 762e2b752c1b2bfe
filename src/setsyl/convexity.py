"""Model surgery showing that implied equality disjunctions collapse.

Given two models of the same normalized conjunction, one making a designated
pair of variables equal and one separating them, `enlarge` rebuilds the
first model so that it separates the pair while still satisfying every
literal and every disequality it satisfied before.  It works in two phases:

- Boolean phase: a fresh element of rank higher than anything in the model
  is added to exactly the variables that contain a separator element in the
  second model, so the pair comes apart without disturbing the difference
  literals.
- Membership phase: the insertion may have invalidated literals "x in y"
  whose left side grew; growing sets are propagated upward along the
  original membership structure, wave by wave, until nothing changes.

Iterating `enlarge` drives `minimize_equalities`: starting from any model,
each step falsifies one more falsifiable equality while keeping the old
disequalities, so it bottoms out in a model that falsifies every equality
that is not outright implied.  That fixpoint is exactly what convexity
promises, and `convexity_fuzz` cross-checks the promise against the
brute-force oracle on random instances.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import InvariantViolation, PreconditionError
from .formulas import Eq, Not, Var, max_fresh_index, or_
from .hf import HFSet, SetAssignment, hf, nested_singleton, set_union
from .normalize import NormalizedConjunction, normalize
from .oracle import oracle_implies
from .sexpr import print_formula
from .solver import DEFAULT_SOLVE_BUDGET, Unsat, satisfies, solve


@dataclass(frozen=True)
class EnlargementTrace:
    """Full record of one enlargement run.

    waves[k] is the set of variables whose values grow at step k; the last
    wave is always empty (the stopping condition).  stages[k] is the
    assignment after step k, so stages has one entry fewer than waves and
    stages[stabilized_at] equals every later stage.
    """

    fresh_element: HFSet
    separator: HFSet
    direction: str
    waves: Tuple[frozenset, ...]
    stages: Tuple[SetAssignment, ...]
    stabilized_at: int


def pad_vars(
    nc: NormalizedConjunction, pairs: Iterable[Tuple[str, str]]
) -> NormalizedConjunction:
    """Ensure every paired variable occurs in the conjunction.

    A variable foreign to nc is given a harmless membership into a fresh
    set, which constrains nothing but brings it into the solver's domain.
    """
    missing: Dict[str, None] = {}
    names: List[str] = []
    for a, b in pairs:
        names.extend((a, b))
    for v in names:
        if v not in nc.vars:
            missing.setdefault(v)
    if not missing:
        return nc
    top = max_fresh_index("_g", list(nc.vars) + names)
    mems = list(nc.memberships)
    for v in missing:
        top += 1
        mems.append((v, f"_g{top}"))
    return NormalizedConjunction(mems, nc.differences)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise PreconditionError(what)


def enlarge(
    nc: NormalizedConjunction,
    base: SetAssignment,
    separating: SetAssignment,
    x: str,
    y: str,
) -> Tuple[SetAssignment, EnlargementTrace]:
    """Rebuild base so it separates x and y yet still satisfies nc.

    base must satisfy nc with base[x] = base[y]; separating must satisfy nc
    with separating[x] != separating[y].  The result keeps every membership
    and difference literal of nc, keeps every disequality base satisfied,
    and makes x != y.
    """
    names = nc.vars
    _require(x in names and y in names, f"pair ({x}, {y}) not covered by the conjunction")
    for a, label in ((base, "equal-pair"), (separating, "separating")):
        for v in names:
            _require(v in a, f"{label} assignment misses variable {v}")
    _require(satisfies(nc, base), "equal-pair assignment does not satisfy the conjunction")
    _require(base[x] == base[y], "equal-pair assignment must make the pair equal")
    _require(
        satisfies(nc, separating), "separating assignment does not satisfy the conjunction"
    )
    _require(separating[x] != separating[y], "separating assignment must split the pair")

    m = {v: base[v] for v in names}
    rank_m = max((v.rank for v in m.values()), default=0)
    fresh = nested_singleton(rank_m + 1)

    sym = sorted(
        set(separating[x].children) ^ set(separating[y].children),
        key=HFSet.key,
    )
    sep = sym[0]
    direction = x if sep in separating[x] else y

    wave0 = frozenset(u for u in names if sep in separating[u])
    stage0 = {
        u: (set_union(m[u], hf((fresh,))) if u in wave0 else m[u]) for u in names
    }
    waves: List[frozenset] = [wave0]
    stages: List[Dict[str, HFSet]] = [stage0]
    depth_cap = min(len(names) - 1, rank_m)

    n = 1
    while True:
        prev_wave = waves[-1]
        wave = frozenset(v for v in names if any(m[u] in m[v] for u in prev_wave))
        waves.append(wave)
        if not wave:
            break
        if n > depth_cap:
            raise InvariantViolation("membership phase exceeded its depth bound")
        prev = stages[-1]
        stage = {}
        for v in names:
            if v in wave:
                grown = [prev[u] for u in prev_wave if m[u] in m[v]]
                stage[v] = set_union(prev[v], hf(grown))
            else:
                stage[v] = prev[v]
        stages.append(stage)
        n += 1

    final = SetAssignment(stages[-1])
    trace = EnlargementTrace(
        fresh_element=fresh,
        separator=sep,
        direction=direction,
        waves=tuple(waves),
        stages=tuple(SetAssignment(s) for s in stages),
        stabilized_at=len(stages) - 1,
    )

    if not satisfies(nc, final):
        raise InvariantViolation("enlarged assignment lost a literal")
    if final[x] == final[y]:
        raise InvariantViolation("enlarged assignment failed to separate the pair")
    for u in names:
        for v in names:
            if base[u] != base[v] and final[u] == final[v]:
                raise InvariantViolation("enlargement merged previously distinct values")
    return final, trace


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    index: Optional[int]
    ok: bool
    detail: str = ""


def all_checks_pass(report: Sequence[InvariantCheck]) -> bool:
    return all(c.ok for c in report)


def check_trace_invariants(
    trace: EnlargementTrace, base: SetAssignment, nc: NormalizedConjunction
) -> Tuple[InvariantCheck, ...]:
    """Re-verify the structural laws of an enlargement trace.

    Failures are reported, not raised, so corrupted traces can be examined.
    One row is produced per law per stage index where the law is indexed.
    """
    names = nc.vars
    m = {v: base[v] for v in names}
    rank_m = max((v.rank for v in m.values()), default=0)
    fresh = trace.fresh_element
    stages = trace.stages
    waves = trace.waves
    out: List[InvariantCheck] = []

    def row(name: str, index: Optional[int], ok: bool, detail: str = "") -> None:
        out.append(InvariantCheck(name, index, ok, detail))

    row(
        "fresh_rank",
        None,
        fresh.rank > rank_m,
        f"rank {fresh.rank} vs assignment rank {rank_m}",
    )
    row(
        "stabilization_bound",
        None,
        trace.stabilized_at <= min(len(names) - 1, rank_m) + 1,
        f"stabilized at {trace.stabilized_at}",
    )

    for k, wave in enumerate(waves):
        if wave:
            ok = k <= min(len(names) - 1, rank_m)
            row("depth_bound", k, ok, f"wave of size {len(wave)}")

    for n, stage in enumerate(stages):
        prev = stages[n - 1] if n else None
        bad = ""
        for v in names:
            before = m[v] if prev is None else prev[v]
            if not set(before.children) <= set(stage[v].children):
                bad = v
                break
        row("monotone_growth", n, bad == "", bad and f"{bad} shrank")

        bad = ""
        for v in names:
            allowed = set(m[v].children) | {fresh}
            for k in range(n):
                allowed.update(stages[k][u] for u in waves[k] if m[u] in m[v])
            if not set(stage[v].children) <= allowed:
                bad = v
                break
        row("bounded_additions", n, bad == "", bad and f"{bad} gained a stray member")

        bad = ""
        for v in names:
            if v in waves[n]:
                if stage[v].rank != fresh.rank + n + 1:
                    bad = f"{v}: rank {stage[v].rank} != {fresh.rank + n + 1}"
                    break
            elif stage[v].rank > fresh.rank + n:
                bad = f"{v}: rank {stage[v].rank} > {fresh.rank + n}"
                break
        row("rank_step", n, bad == "", bad)

        bad = ""
        for v in names:
            if (fresh in stage[v]) != (fresh in stages[0][v]):
                bad = v
                break
        row("tag_stability", n, bad == "", bad and f"{bad} changed fresh membership")

        bad = ""
        for v in names:
            for q in stage[v].children:
                if q.rank < fresh.rank and q not in m[v]:
                    bad = v
                    break
            if bad:
                break
        row("low_rank_preservation", n, bad == "", bad and f"{bad} gained a low-rank member")

        bad = ""
        for u in names:
            for v in names:
                if m[u] != m[v] and stage[u] == stage[v]:
                    bad = f"{u}, {v}"
                    break
            if bad:
                break
        row("disequality_preservation", n, bad == "", bad and f"{bad} merged")

    for n in range(len(waves) - 1):
        bad = ""
        nxt = stages[min(n + 1, trace.stabilized_at)]
        cur = stages[min(n, trace.stabilized_at)]
        for u in sorted(waves[n]):
            for v in names:
                if m[u] in m[v]:
                    if v not in waves[n + 1]:
                        bad = f"{v} missed wave {n + 1}"
                        break
                    if cur[u] not in nxt[v]:
                        bad = f"{u} not propagated into {v}"
                        break
            if bad:
                break
        row("membership_propagation", n, bad == "", bad)

    return tuple(out)


@dataclass(frozen=True)
class Implied:
    pass


@dataclass(frozen=True)
class Falsifiable:
    countermodel: SetAssignment


@dataclass(frozen=True)
class EqualitySet:
    equalities: Tuple[Tuple[str, str], ...]
    classification: Tuple[Union[Implied, Falsifiable], ...]
    enlargements: int

    def implied_pairs(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            pair
            for pair, c in zip(self.equalities, self.classification)
            if isinstance(c, Implied)
        )


def minimize_equalities(
    nc: NormalizedConjunction,
    pairs: Sequence[Tuple[str, str]],
    budget: Optional[int] = DEFAULT_SOLVE_BUDGET,
):
    """Classify each equality pair and exhibit one simultaneous countermodel.

    Returns (assignment, EqualitySet) where the assignment falsifies every
    Falsifiable pair at once, or (Unsat(), EqualitySet) when the conjunction
    itself is unsatisfiable (then every pair is vacuously implied).  The
    descent performs at most len(pairs) enlargements: each one falsifies a
    designated equality for good, since enlargement preserves disequalities.
    """
    pairs = tuple((a, b) for a, b in pairs)
    _require(len(pairs) > 0, "equality set must be nonempty")
    padded = pad_vars(nc, pairs)

    start = solve(padded, budget=budget)
    if not start.is_sat:
        eqs = EqualitySet(pairs, tuple(Implied() for _ in pairs), 0)
        return Unsat(), eqs

    probes: Dict[Tuple[str, str], object] = {}

    def probe(pair: Tuple[str, str]):
        hit = probes.get(pair)
        if hit is None:
            lits = list(padded.literals())
            lits.append(Not(Eq(Var(pair[0]), Var(pair[1]))))
            hit = probes[pair] = solve(normalize(lits), budget=budget)
        return hit

    model = start.model
    steps = 0
    while True:
        for pair in pairs:
            a, b = pair
            if model[a] == model[b] and probe(pair).is_sat:
                separating = probe(pair).model.restrict(padded.vars)
                model, _ = enlarge(padded, model.restrict(padded.vars), separating, a, b)
                steps += 1
                if steps > len(pairs):
                    raise InvariantViolation("equality descent failed to terminate")
                break
        else:
            break

    classification = tuple(
        Implied() if not probe(pair).is_sat else Falsifiable(model) for pair in pairs
    )
    return model, EqualitySet(pairs, classification, steps)


_NAME_POOL = ("a", "b", "c", "d", "e", "f")


def random_normalized_conjunction(
    rng: random.Random, nvars: int, nlits: int
) -> NormalizedConjunction:
    """A random conjunction in normal form; duplicates collapse."""
    names = _NAME_POOL[:nvars]
    mems: List[Tuple[str, str]] = []
    diffs: List[Tuple[str, str, str]] = []
    for _ in range(nlits):
        if rng.random() < 0.5:
            mems.append((rng.choice(names), rng.choice(names)))
        else:
            diffs.append((rng.choice(names), rng.choice(names), rng.choice(names)))
    return NormalizedConjunction(mems, diffs)


@dataclass(frozen=True)
class FuzzViolation:
    iteration: int
    memberships: Tuple[Tuple[str, str], ...]
    differences: Tuple[Tuple[str, str, str], ...]
    pairs: Tuple[Tuple[str, str], ...]
    script: str


@dataclass(frozen=True)
class FuzzReport:
    vars: int
    lits: int
    iters: int
    seed: int
    rank_bound: int
    checked: int
    skipped: int
    implied_disjunctions: int
    violations: Tuple[FuzzViolation, ...]


def _reproducer(nc: NormalizedConjunction, pairs, seed: int, i: int, rank: int) -> str:
    lines = [
        "; equality-disjunction implied but no single equality implied",
        f"; stream {seed}/{i}, rank bound {rank}",
    ]
    lines.extend(f"(assert {print_formula(lit)})" for lit in nc.literals())
    lines.append("; disjunction: " + " or ".join(f"{a}={b}" for a, b in pairs))
    return "\n".join(lines) + "\n"


def convexity_fuzz(
    vars: int, lits: int, iters: int, seed: int, rank_bound: int
) -> FuzzReport:
    """Search for convexity counterexamples.

    For each random conjunction whose variable-equality disjunction is
    implied, some single equality must be implied too.  The bounded oracle
    prefilters candidates; `implied_disjunctions` counts implications that
    hold within the rank bound.  Because a disjunction can hold at every
    rank below the bound yet fail above it, a candidate is recorded only
    after an exact confirmation: no single equality is implied by the
    decision procedure, and the minimization fixpoint cannot produce a
    concrete model separating every pair at once.  A violation record
    carries a standalone reproducer script.  The report is a pure function
    of the arguments.
    """
    _require(vars >= 1, "fuzz variable count must be at least 1")
    _require(vars <= 4, "fuzz variable count capped at 4 by the oracle guard")
    _require(lits >= 0, "fuzz literal count must be nonnegative")
    _require(iters >= 0, "fuzz iteration count must be nonnegative")
    _require(rank_bound >= 1, "fuzz rank bound must be at least 1")
    _require(rank_bound <= 3, "fuzz rank bound capped at 3 by the oracle guard")
    checked = skipped = implied_count = 0
    violations: List[FuzzViolation] = []
    for i in range(iters):
        rng = random.Random(f"{seed}/{i}")
        nc = random_normalized_conjunction(rng, vars, lits)
        occurring = nc.vars
        if len(occurring) < 2:
            skipped += 1
            continue
        checked += 1
        pairs = tuple(
            (occurring[i1], occurring[i2])
            for i1 in range(len(occurring))
            for i2 in range(i1 + 1, len(occurring))
        )
        f = nc.to_formula()
        disj = or_(*(Eq(Var(a), Var(b)) for a, b in pairs))
        if not oracle_implies(f, disj, rank_bound).implied:
            continue
        implied_count += 1
        if any(
            oracle_implies(f, Eq(Var(a), Var(b)), rank_bound).implied for a, b in pairs
        ):
            continue
        # No single equality holds within the rank bound, so each pair has a
        # genuine countermodel.  The disjunction premise is still suspect: it
        # may fail only above the bound.  Confirm exactly before recording.
        model, eqs = minimize_equalities(nc, pairs)
        if eqs.implied_pairs():
            continue
        if (
            not isinstance(model, Unsat)
            and satisfies(nc, model)
            and all(model[a] != model[b] for a, b in pairs)
        ):
            continue
        violations.append(
            FuzzViolation(
                iteration=i,
                memberships=nc.memberships,
                differences=nc.differences,
                pairs=pairs,
                script=_reproducer(nc, pairs, seed, i, rank_bound),
            )
        )
    return FuzzReport(
        vars=vars,
        lits=lits,
        iters=iters,
        seed=seed,
        rank_bound=rank_bound,
        checked=checked,
        skipped=skipped,
        implied_disjunctions=implied_count,
        violations=tuple(violations),
    )


def write_reproducers(report: FuzzReport, directory: str) -> List[str]:
    """Dump each violation's script to its own file; returns the paths."""
    paths = []
    for v in report.violations:
        path = os.path.join(directory, f"convexity-violation-{v.iteration}.sexpr")
        with open(path, "w") as fh:
            fh.write(v.script)
        paths.append(path)
    return paths
