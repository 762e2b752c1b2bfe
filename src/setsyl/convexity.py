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

`enlarge` drives `minimize_equalities`: starting from the solver's model,
it walks the pairs once, and each enlargement falsifies one more
falsifiable equality while keeping the old disequalities, so the walk ends
in a model that falsifies every equality that is not outright implied.
That model is exactly what convexity promises, and `convexity_fuzz`
cross-checks the promise against the brute-force oracle on random
instances.
"""

from __future__ import annotations

import os
import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import DEFAULT_BUDGET, Budget, InvariantViolation, PreconditionError
from .formulas import Eq, Record, Var, fresh_names
from .hf import HFSet, hf, nested_singleton, set_union
from .normalize import NormalizedConjunction
from .oracle import first_countermodels
from .sexpr import print_formula
from .solver import Unsat, _decide, satisfies


class EnlargementTrace(Record):
    """Full record of one enlargement run.

    waves[k] is the set of variables whose values grow at step k; the last
    wave is always empty (the stopping condition).  stages[k] is the
    assignment after step k, so stages has one entry fewer than waves and
    stages[stabilized_at] equals every later stage.
    """

    __slots__ = ("fresh_element", "separator", "direction", "waves", "stages", "stabilized_at")


def pad_vars(
    nc: NormalizedConjunction, pairs: Iterable[Tuple[str, str]]
) -> NormalizedConjunction:
    """Ensure every paired variable occurs in the conjunction.

    A variable foreign to nc is given a harmless membership into a fresh
    set, which constrains nothing but brings it into the solver's domain.
    nc's literals, its disequalities included, are kept.
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
    mems = list(nc.memberships)
    mems.extend(zip(missing, fresh_names("_g", list(nc.vars) + names)))
    return NormalizedConjunction(mems, nc.differences, nc.disequalities)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise PreconditionError(what)


def enlarge(
    nc: NormalizedConjunction,
    base: Mapping[str, HFSet],
    separating: Mapping[str, HFSet],
    x: str,
    y: str,
) -> Tuple[Dict[str, HFSet], EnlargementTrace]:
    """Rebuild base so it separates x and y yet still satisfies nc.

    base must satisfy nc with base[x] = base[y]; separating must satisfy nc
    with separating[x] != separating[y].  The result keeps every membership
    and difference literal of nc, keeps every disequality base satisfied,
    nc's own included, and makes x != y.
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

    sep = min(set(separating[x].children) ^ set(separating[y].children))
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

    final = stages[-1]
    trace = EnlargementTrace(
        fresh_element=fresh,
        separator=sep,
        direction=direction,
        waves=tuple(waves),
        stages=tuple(stages),
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


class InvariantCheck(Record):
    __slots__ = ("name", "index", "ok", "detail")

    def __init__(self, name: str, index: Optional[int], ok: bool, detail: str = "") -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)


def check_trace_invariants(
    trace: EnlargementTrace, base: Mapping[str, HFSet], nc: NormalizedConjunction
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


class Implied(Record):
    __slots__ = ()

    def __init__(self) -> None:
        pass


class Falsifiable(Record):
    __slots__ = ("countermodel",)

    def __init__(self, countermodel: Dict[str, HFSet]) -> None:
        object.__setattr__(self, "countermodel", countermodel)


class EqualitySet(Record):
    __slots__ = ("equalities", "classification", "enlargements")

    def __init__(
        self,
        equalities: Tuple[Tuple[str, str], ...],
        classification: Tuple[Union[Implied, Falsifiable], ...],
        enlargements: int,
    ) -> None:
        object.__setattr__(self, "equalities", equalities)
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "enlargements", enlargements)

    def implied_pairs(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            pair
            for pair, c in zip(self.equalities, self.classification)
            if isinstance(c, Implied)
        )


def minimize_equalities(
    nc: NormalizedConjunction,
    pairs: Sequence[Tuple[str, str]],
    budget: Union[int, Budget, None] = DEFAULT_BUDGET,
):
    """Classify each equality pair and exhibit one simultaneous countermodel.

    Returns (assignment, EqualitySet) where the assignment falsifies every
    Falsifiable pair at once, or (Unsat(), EqualitySet) when the conjunction
    itself is unsatisfiable (then every pair is vacuously implied).

    The conjunction is decided once, and the pairs are walked once, in
    order, a repeated pair once.  A pair the current model separates needs
    nothing.  Any other asks the decision for a separating model: one split
    query and, when the pair has a split place, one build (the `solver`
    module docstring).  With none the pair is implied; else the model is
    enlarged along it.  Enlargement never merges two distinct values and
    keeps satisfying the conjunction, so a pair separated once stays
    separated, and an implied pair stays equal in every later model: one
    pass settles every pair, with at most one enlargement each, and walking
    the pairs again would find nothing to do.  budget is one meter for the
    decision and every probe.
    """
    pairs = tuple((a, b) for a, b in pairs)
    _require(len(pairs) > 0, "equality set must be nonempty")
    padded = pad_vars(nc, pairs)

    decision = _decide(padded, budget)
    if not decision.result.is_sat:
        eqs = EqualitySet(pairs, tuple(Implied() for _ in pairs), 0)
        return Unsat(), eqs

    model = decision.result.model
    steps = 0
    for a, b in dict.fromkeys(pairs):
        if model[a] == model[b]:
            separating = decision.separating(a, b)
            if separating is not None:
                model, _ = enlarge(padded, model, separating, a, b)
                steps += 1

    # A pair the model equates was found implied; a pair it separates is
    # falsified by the model itself, which satisfies padded.
    classification = tuple(
        Implied() if model[a] == model[b] else Falsifiable(model) for a, b in pairs
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


class FuzzViolation(Record):
    __slots__ = ("iteration", "memberships", "differences", "pairs", "script")


class FuzzReport(Record):
    __slots__ = (
        "vars", "lits", "iters", "seed", "rank_bound", "checked", "skipped",
        "implied_disjunctions", "violations",
    )


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
    implied, some single equality must be implied too.  Each checked
    iteration makes one `first_countermodels` walk over the conjunction's
    models within the rank bound, which answers the disjunction and every
    single equality at once; `implied_disjunctions` counts implications
    that hold within the bound.
    Because a disjunction can hold at every rank below the bound yet fail
    above it, a candidate is recorded only after an exact confirmation: no
    single equality is implied by the decision procedure, and minimization
    cannot produce a concrete model separating every pair at once.  The
    walk and the confirmation spend one meter of DEFAULT_BUDGET steps per
    iteration.  A violation record carries a standalone reproducer script.
    The report is a pure function of the arguments.
    """
    _require(vars >= 1, "fuzz variable count must be at least 1")
    _require(vars <= 4, "fuzz variable count capped at 4 to keep the oracle searches small")
    _require(lits >= 0, "fuzz literal count must be nonnegative")
    _require(iters >= 0, "fuzz iteration count must be nonnegative")
    _require(rank_bound >= 1, "fuzz rank bound must be at least 1")
    _require(rank_bound <= 3, "fuzz rank bound capped at 3 to keep the oracle searches small")
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
        meter = Budget(DEFAULT_BUDGET)  # the walk and the confirmation
        implied, counter = first_countermodels(
            nc.to_formula(), [Eq(Var(a), Var(b)) for a, b in pairs], rank_bound, meter
        )
        if not implied:
            continue
        implied_count += 1
        if None in counter:
            continue
        # No single equality holds within the rank bound, so each pair has a
        # genuine countermodel.  The disjunction premise is still suspect: it
        # may fail only above the bound.  Confirm exactly before recording.
        model, eqs = minimize_equalities(nc, pairs, meter)
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
