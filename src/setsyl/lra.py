"""Linear rational arithmetic over exact fractions.

Constraints are affine rows "expr <= 0", "expr < 0", "expr = 0" plus
disequalities "expr != 0".  Satisfiability is decided by Fourier-Motzkin
elimination; because the rationals are dense and the row polyhedron is
convex, a conjunction with disequalities is satisfiable exactly when the
rows are satisfiable and no disequality's underlying equality is entailed.
Everything is computed in fractions.Fraction; no floating point enters.

Three reductions keep the work small on the systems the combination
produces, where every propagated pair and purifier definition is an
equality:

- equality rows are solved once per state by Gaussian substitution, so
  elimination only ever sees inequalities over the unsolved variables;
- each elimination stage keeps one row per direction, the tightest, after
  scaling rows so their first coefficient has magnitude 1;
- implied-equality probes run only for pairs that one sample point of the
  rows leaves equal, since a point that separates a pair refutes it.

The theory is stably infinite (any satisfiable constraint set has solutions
in the infinite rationals), which is what the equality-propagating
combination requires of its participants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InvariantViolation, NonlinearTermError, UnsupportedAtomError
from .formulas import (
    ArithOp,
    Eq,
    Formula,
    Leq,
    Not,
    RationalConst,
    Term,
    Var,
    is_literal,
    literal_atom,
)

_ZERO = Fraction(0)

# rel meanings: expr le 0, expr lt 0, expr eq 0.
LE, LT, EQ = "le", "lt", "eq"


@dataclass(frozen=True)
class Row:
    coeffs: Tuple[Tuple[str, Fraction], ...]
    const: Fraction
    rel: str

    def as_dict(self) -> Dict[str, Fraction]:
        return dict(self.coeffs)


def _linear(t: Term) -> Tuple[Dict[str, Fraction], Fraction]:
    if isinstance(t, Var):
        return {t.name: Fraction(1)}, _ZERO
    if isinstance(t, RationalConst):
        return {}, t.value
    if isinstance(t, ArithOp):
        if t.op == "plus":
            ca, ka = _linear(t.args[0])
            cb, kb = _linear(t.args[1])
            for v, c in cb.items():
                ca[v] = ca.get(v, _ZERO) + c
            return {v: c for v, c in ca.items() if c != 0}, ka + kb
        ca, ka = _linear(t.args[0])
        return {v: -c for v, c in ca.items()}, -ka
    raise NonlinearTermError(f"not an affine rational term: {t!r}")


def _freeze(coeffs: Dict[str, Fraction], const: Fraction, rel: str) -> Row:
    items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
    return Row(items, const, rel)


def _diff(a: Term, b: Term) -> Tuple[Dict[str, Fraction], Fraction]:
    ca, ka = _linear(a)
    cb, kb = _linear(b)
    for v, c in cb.items():
        ca[v] = ca.get(v, _ZERO) - c
    return ca, ka - kb


@dataclass(frozen=True)
class LraState:
    """An affine constraint system: rows plus excluded hyperplanes."""

    rows: Tuple[Row, ...]
    disequalities: Tuple[Row, ...]

    @classmethod
    def from_literals(cls, literals: Iterable[Formula]) -> "LraState":
        rows: List[Row] = []
        diseqs: List[Row] = []
        for lit in literals:
            if not is_literal(lit):
                raise UnsupportedAtomError(f"arithmetic expects literals, got {lit!r}")
            atom, sign = literal_atom(lit)
            if isinstance(atom, Leq):
                if sign:
                    c, k = _diff(atom.left, atom.right)
                    rows.append(_freeze(c, k, LE))
                else:
                    c, k = _diff(atom.right, atom.left)
                    rows.append(_freeze(c, k, LT))
            elif isinstance(atom, Eq):
                c, k = _diff(atom.left, atom.right)
                if sign:
                    rows.append(_freeze(c, k, EQ))
                else:
                    diseqs.append(_freeze(c, k, EQ))
            else:
                raise UnsupportedAtomError(f"not an arithmetic atom: {atom!r}")
        return cls(tuple(rows), tuple(diseqs))

    def vars(self) -> Tuple[str, ...]:
        acc: Dict[str, None] = {}
        for row in self.rows + self.disequalities:
            for v, _ in row.coeffs:
                acc.setdefault(v)
        return tuple(acc)

    @cached_property
    def _system(self) -> "_System":
        return _System(self)


# An inequality "sum c*x + k rel 0" with rel LE or LT.
Ineq = Tuple[Dict[str, Fraction], Fraction, str]
# A row's direction: its scaled coefficients, sorted by name.
RowKey = Tuple[Tuple[str, Fraction], ...]


def _tighten(best: Dict[RowKey, Ineq], ineqs: Iterable[Ineq]) -> bool:
    """Add rows to best, keeping the tightest per direction; False on a ground contradiction.

    Each row is divided by the magnitude of its first coefficient in name
    order, a positive factor, so its solution set is unchanged.  Rows with
    the same scaled coefficients c then bound c.x from above by their
    constants' negations; the row with the larger constant (strict on a
    tie) implies every other, so dropping those keeps the solution set and
    every bound that back-substitution reads.  A ground row holds or fails
    outright.
    """
    for c, k, rel in ineqs:
        if not c:
            if k > 0 or (rel == LT and k == 0):
                return False
            continue
        lead = abs(c[min(c)])
        if lead != 1:
            c = {v: a / lead for v, a in c.items()}
            k = k / lead
        key = tuple(sorted(c.items()))
        old = best.get(key)
        if old is None or k > old[1] or (k == old[1] and rel == LT):
            best[key] = (c, k, rel)
    return True


def _eliminate(ineqs: Iterable[Ineq], order: Sequence[str]) -> Optional[List[List[Ineq]]]:
    """Run elimination; None means a ground contradiction was found.

    Returns the list of constraint systems per stage (stage i is the system
    before eliminating order[i]), for back-substitution.  The input and
    every combined row pass through `_tighten`; rows without the
    eliminated variable stay as they are, already tightened.
    """
    cur: Dict[RowKey, Ineq] = {}
    if not _tighten(cur, ineqs):
        return None
    stages = []
    for v in order:
        stages.append(list(cur.values()))
        ups = []
        downs = []
        for key, (c, k, rel) in cur.items():
            a = c.get(v)
            if a:
                (ups if a > 0 else downs).append((key, c, k, rel, a))
        for row in ups + downs:
            del cur[row[0]]
        combined = []
        for _, cu, ku, relu, au in ups:
            for _, cd, kd, reld, ad in downs:
                # au*x <= -(cu'+ku) and ad*x >= ... combine scaled by 1/au, -1/ad
                c = {}
                for name in set(cu) | set(cd):
                    val = cu.get(name, _ZERO) / au - cd.get(name, _ZERO) / ad
                    if val != 0 and name != v:
                        c[name] = val
                k = ku / au - kd / ad
                rel = LT if LT in (relu, reld) else LE
                combined.append((c, k, rel))
        if not _tighten(cur, combined):
            return None
    stages.append(list(cur.values()))
    return stages


def _back_substitute(stages: List[List[Ineq]], order: Sequence[str]) -> Dict[str, Fraction]:
    """A solution of the first stage, read back in reverse elimination order.

    Each variable takes the midpoint of its residual interval, or a point
    one unit inside a single bound.  A closed point interval is never
    strict here, since elimination would have turned strict touching bounds
    into a ground contradiction.
    """
    val: Dict[str, Fraction] = {}
    for idx in range(len(order) - 1, -1, -1):
        v = order[idx]
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for c, k, rel in stages[idx]:
            a = c.get(v)
            if not a:
                continue
            rest = k
            for name, coef in c.items():
                if name != v:
                    rest += coef * val[name]
            bound = -rest / a
            if a > 0:
                if hi is None or bound < hi:
                    hi = bound
            else:
                if lo is None or bound > lo:
                    lo = bound
        if lo is None and hi is None:
            val[v] = _ZERO
        elif lo is None:
            val[v] = hi - 1
        elif hi is None:
            val[v] = lo + 1
        else:
            val[v] = (lo + hi) / 2
    return val


def _sample_ineqs(ineqs: List[Ineq], order: Sequence[str]) -> Optional[Dict[str, Fraction]]:
    """A solution of an inequality system, or None when there is none."""
    stages = _eliminate(ineqs, order)
    return None if stages is None else _back_substitute(stages, order)


# A solved equality "v = sum c*x + k", as (v, c, k).
Definition = Tuple[str, Dict[str, Fraction], Fraction]


def _substitute(
    c: Dict[str, Fraction], k: Fraction, defs: Sequence[Definition]
) -> Tuple[Dict[str, Fraction], Fraction]:
    """Rewrite "sum c*x + k" over the unsolved variables.

    Definition i never mentions the variables of definitions before it, so
    applying them in order removes every solved variable for good.
    """
    for v, dc, dk in defs:
        a = c.get(v)
        if a is None:
            continue
        c = dict(c)
        del c[v]
        for name, b in dc.items():
            val = c.get(name, _ZERO) + a * b
            if val:
                c[name] = val
            else:
                c.pop(name, None)
        k = k + a * dk
    return c, k


class _System:
    """A state's rows after Gaussian substitution and elimination, built once.

    Every equality row, with the definitions before it substituted, is
    solved for its least-named variable; the inequality rows, and any
    disequality or separation target, are rewritten over the remaining
    variables.  Each solution of the rewritten inequalities extends to
    exactly one solution of the original rows by evaluating the definitions
    in reverse order, and each solution of the original rows restricts to
    one of the rewritten inequalities, so satisfiability, entailment of a
    target and sampling can all be decided on the smaller system.  An
    equality that becomes ground and nonzero makes the rows infeasible.
    """

    def __init__(self, state: "LraState"):
        self.defs: List[Definition] = []
        feasible = True
        for r in state.rows:
            if r.rel != EQ:
                continue
            c, k = _substitute(r.as_dict(), r.const, self.defs)
            if not c:
                feasible = feasible and k == 0
                continue
            v = min(c)
            a = c.pop(v)
            self.defs.append((v, {n: -b / a for n, b in c.items()}, -k / a))
        solved = {v for v, _, _ in self.defs}
        self.order = tuple(v for v in state.vars() if v not in solved)
        ineqs = [
            _substitute(r.as_dict(), r.const, self.defs) + (r.rel,)
            for r in state.rows
            if r.rel != EQ
        ]
        self.stages = _eliminate(ineqs, self.order) if feasible else None

    def rewrite(self, target: Row) -> Tuple[Dict[str, Fraction], Fraction]:
        return _substitute(target.as_dict(), target.const, self.defs)

    def entails_zero(self, target: Row) -> bool:
        """True when every solution of the rows puts the target at zero."""
        if self.stages is None:
            return True
        c, k = self.rewrite(target)
        if not c:
            return k == 0
        base = self.stages[0]
        pos = base + [({v: -a for v, a in c.items()}, -k, LT)]
        neg = base + [(c, k, LT)]
        return _eliminate(pos, self.order) is None and _eliminate(neg, self.order) is None

    def extend(self, val: Dict[str, Fraction]) -> Dict[str, Fraction]:
        """Complete a solution of the rewritten rows with the solved variables."""
        full = dict(val)
        for v, dc, dk in reversed(self.defs):
            full[v] = dk + sum(b * full[n] for n, b in dc.items())
        return full

    @cached_property
    def point(self) -> Dict[str, Fraction]:
        """One solution of the rows, ignoring disequalities; needs stages."""
        return self.extend(_back_substitute(self.stages, self.order))


def lra_check(state: LraState) -> bool:
    """True when the rows and disequalities have a common rational solution."""
    system = state._system
    if system.stages is None:
        return False
    return not any(system.entails_zero(d) for d in state.disequalities)


def lra_implied(state: LraState, shared: Sequence[str]) -> Tuple[Tuple[str, str], ...]:
    """Pairs of shared variables forced equal by the rows.

    A pair is implied exactly when both strict separations are infeasible.
    Only pairs equal at one sample point of the rows are probed: the point
    satisfies the rows, so a pair it separates is not implied.  When the
    rows are infeasible every pair is implied.  Only variables that
    actually occur are considered; the result carries one orientation per
    pair and no reflexive entries.
    """
    names = set(state.vars())
    present = [v for v in shared if v in names]
    system = state._system
    point = system.point if system.stages is not None else None
    out: List[Tuple[str, str]] = []
    for i in range(len(present)):
        for j in range(i + 1, len(present)):
            x, y = present[i], present[j]
            if point is not None and point[x] != point[y]:
                continue
            target = _freeze({x: Fraction(1), y: Fraction(-1)}, _ZERO, EQ)
            if system.entails_zero(target):
                out.append((x, y))
    return tuple(out)


def _value(c: Dict[str, Fraction], k: Fraction, val: Dict[str, Fraction]) -> Fraction:
    return k + sum(a * val[v] for v, a in c.items())


def lra_sample(state: LraState) -> Dict[str, Fraction]:
    """One exact solution of the system, rows first, then hyperplane repair.

    The rows are sampled over the unsolved variables, and the solved ones
    are computed from their definitions afterwards, in reverse order.  A
    rows-only solution may land on an excluded hyperplane.  Each hit is
    repaired by walking toward a feasible point strictly off that
    hyperplane: every already-cleared hyperplane excludes at most one point
    of the segment, so a short deterministic scan of step sizes finds a
    point clearing all of them at once.  Convexity keeps every row
    satisfied along the way.  The result is verified against the original
    rows and disequalities before returning.
    """
    system = state._system
    if system.stages is None:
        raise InvariantViolation("sampling an unsatisfiable arithmetic system")
    order = system.order
    val = _back_substitute(system.stages, order)

    cleared: List[Tuple[Dict[str, Fraction], Fraction]] = []
    for d in state.disequalities:
        c, k = system.rewrite(d)
        if _value(c, k, val) != 0:
            cleared.append((c, k))
            continue
        target: Optional[Dict[str, Fraction]] = None
        for sign in (1, -1):
            strict = ({v: sign * a for v, a in c.items()}, sign * k, LT)
            target = _sample_ineqs(system.stages[0] + [strict], order)
            if target is not None:
                break
        if target is None:
            raise InvariantViolation("sampling an unsatisfiable arithmetic system")
        cleared.append((c, k))
        for step in range(1, len(cleared) + 2):
            t = Fraction(1, step)
            cand = {v: val[v] + t * (target[v] - val[v]) for v in order}
            if all(_value(cc, kk, cand) != 0 for cc, kk in cleared):
                val = cand
                break
        else:
            raise InvariantViolation("hyperplane repair ran out of step sizes")

    val = system.extend(val)
    for r in state.rows:
        total = _value(r.as_dict(), r.const, val)
        if total > 0 or (total == 0 and r.rel == LT) or (total < 0 and r.rel == EQ):
            raise InvariantViolation("arithmetic sample violates a row")
    for d in state.disequalities:
        if _value(d.as_dict(), d.const, val) == 0:
            raise InvariantViolation("arithmetic sample hits an excluded hyperplane")
    return val
