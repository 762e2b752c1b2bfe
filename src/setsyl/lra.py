"""Linear rational arithmetic on integer rows.

Constraints are affine rows "expr <= 0", "expr < 0", "expr = 0" plus
disequalities "expr != 0".  Satisfiability is decided by Fourier-Motzkin
elimination; because the rationals are dense and the row polyhedron is
convex, a conjunction with disequalities is satisfiable exactly when the
rows are satisfiable and no disequality's underlying equality is entailed.

Every row that elimination or substitution sees has integer coefficients
and an integer constant: a row read from a literal is multiplied by its
constant's denominator, and rows are combined with integer multipliers.
Only the sample point is rational; it is computed in fractions.Fraction,
and no floating point enters.  Scaling a row by a positive number leaves
its solution set unchanged, and each row held here is a positive multiple
of the row that elimination over fractions holds when it scales every row
to a first coefficient of magnitude 1 (the reference kept in the tests).
So the two keep the same rows, as the same tightest row per direction, in
the same order; they charge the same steps; and each bound -rest/a that
back-substitution reads, hence the sample point, the repair walk and every
fragment, is the same rational.

`LraTheory` is the combination's arithmetic plugin.  Each
`assert_literals` call turns its literals into rows and disequalities,
replacing the previous ones, and decides them; `implied_equalities`
(the classes of variables the rows force equal) and `model_fragment`
answer over the same rows.

Three reductions keep the work small on the systems the combination
produces, where every propagated pair and purifier definition is an
equality:

- equality rows are solved once per assertion by Gaussian substitution, so
  elimination only ever sees inequalities over the unsolved variables;
- each elimination stage keeps one row per direction, the tightest, where
  a direction is a coefficient vector divided by its gcd;
- implied equalities are grouped as the set solver groups them: a
  variable is probed only against the one class head that its value at
  one sample point, and each separating point a probe kept, leave
  possible, since a solution that separates two variables refutes their
  equality: fewer probes than variables.

The theory is stably infinite (any satisfiable constraint set has solutions
in the infinite rationals), which is what the equality-propagating
combination requires of its participants.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    DEFAULT_BUDGET,
    Budget,
    InvariantViolation,
    NonlinearTermError,
    UnsupportedAtomError,
)
from .formulas import (
    ArithOp,
    Eq,
    Formula,
    Leq,
    RationalConst,
    Term,
    Var,
    is_literal,
    literal_atom,
)
from .normalize import _group

_ZERO = Fraction(0)

# rel meanings: expr le 0, expr lt 0, expr eq 0.
LE, LT, EQ = "le", "lt", "eq"

# A row "sum c*x + k rel 0", as (c, k, rel), in integers.  Elimination
# sees only LE and LT.
Row = Tuple[Dict[str, int], int, str]
# A row's direction: its coefficients divided by their gcd, sorted by name.
RowKey = Tuple[Tuple[str, int], ...]


def _linear(t: Term) -> Tuple[Dict[str, int], Fraction]:
    if isinstance(t, Var):
        return {t.name: 1}, _ZERO
    if isinstance(t, RationalConst):
        return {}, t.value
    if isinstance(t, ArithOp):
        if t.op == "plus":
            ca, ka = _linear(t.args[0])
            cb, kb = _linear(t.args[1])
            for v, c in cb.items():
                ca[v] = ca.get(v, 0) + c
            return {v: c for v, c in ca.items() if c != 0}, ka + kb
        ca, ka = _linear(t.args[0])
        return {v: -c for v, c in ca.items()}, -ka
    raise NonlinearTermError(f"not an affine rational term: {t!r}")


def _row(coeffs: Dict[str, int], const: Fraction, rel: str) -> Row:
    """The row with coeffs' nonzero coefficients, in name order, times the
    denominator of const."""
    d = const.denominator
    return {v: coeffs[v] * d for v in sorted(coeffs) if coeffs[v]}, const.numerator, rel


def _diff(a: Term, b: Term) -> Tuple[Dict[str, int], Fraction]:
    ca, ka = _linear(a)
    cb, kb = _linear(b)
    for v, c in cb.items():
        ca[v] = ca.get(v, 0) - c
    return ca, ka - kb


def _tighten(best: Dict[RowKey, Row], ineqs: Iterable[Row]) -> bool:
    """Add rows to best, keeping the tightest per direction; False on a ground contradiction.

    Rows are positive multiples of one another exactly when their
    coefficients divided by the coefficients' gcd agree, which makes the
    key.  Each row is divided by the gcd of its coefficients and constant, a
    positive factor, so its solution set is unchanged.  Rows of one
    direction c bound c.x from above by their constants' negations, each
    divided by the row's first coefficient in name order, so constants
    are compared by cross-multiplying with those coefficients' magnitudes;
    the row with the larger constant (strict on a tie) implies every other,
    so dropping those keeps the solution set and every bound that
    back-substitution reads.  A ground row holds or fails outright.
    """
    for c, k, rel in ineqs:
        if not c:
            if k > 0 or (rel == LT and k == 0):
                return False
            continue
        g = gcd(*c.values())
        key = tuple(sorted((v, a // g) for v, a in c.items()))
        h = gcd(g, k)
        if h != 1:
            c = {v: a // h for v, a in c.items()}
            k //= h
        old = best.get(key)
        if old is None:
            best[key] = (c, k, rel)
            continue
        first = key[0][0]
        new, kept = k * abs(old[0][first]), old[1] * abs(c[first])
        if new > kept or (new == kept and rel == LT):
            best[key] = (c, k, rel)
    return True


def _eliminate(
    ineqs: Iterable[Row], order: Sequence[str], meter: Budget
) -> Optional[List[List[Row]]]:
    """Run elimination; None means a ground contradiction was found.

    Returns the list of constraint systems per stage (stage i is the system
    before eliminating order[i]), for back-substitution.  The input and
    every combined row pass through `_tighten`; rows without the
    eliminated variable stay as they are, already tightened.  Each stage
    charges meter one step per row it combines, before combining them.
    An up row (coefficient au > 0 on the variable) and a down row (ad < 0)
    combine with the least positive integer multipliers that cancel it.
    """
    cur: Dict[RowKey, Row] = {}
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
        meter.spend("eliminating arithmetic variables", len(ups) * len(downs))
        combined = []
        for _, cu, ku, relu, au in ups:
            for _, cd, kd, reld, ad in downs:
                m = gcd(au, ad)
                fu, fd = -ad // m, au // m
                c = {name: fu * a for name, a in cu.items() if name != v}
                for name, a in cd.items():
                    if name != v:
                        val = c.get(name, 0) + fd * a
                        if val:
                            c[name] = val
                        else:
                            del c[name]
                k = fu * ku + fd * kd
                rel = LT if LT in (relu, reld) else LE
                combined.append((c, k, rel))
        if not _tighten(cur, combined):
            return None
    stages.append(list(cur.values()))
    return stages


def _back_substitute(stages: List[List[Row]], order: Sequence[str]) -> Dict[str, Fraction]:
    """A solution of the first stage, read back in reverse elimination order.

    Each variable takes the midpoint of its residual interval, or a point
    one unit inside a single bound.  A closed point interval is never
    strict here, since elimination would have turned strict touching bounds
    into a ground contradiction.  Rows are integer, so each bound starts
    from a Fraction: int / int would be a float.
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
            rest = Fraction(k)
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


# A solved equality "a*v + sum c*x + k = 0", as (v, a, c, k), in integers.
Definition = Tuple[str, int, Dict[str, int], int]


def _substitute(c: Dict[str, int], k: int, defs: Sequence[Definition]) -> Tuple[Dict[str, int], int]:
    """Rewrite "sum c*x + k", up to a positive factor, over the unsolved variables.

    A row with coefficient b on a solved variable v becomes |a|*row minus
    sign(a)*b times v's definition, both divided by gcd(a, b), which
    cancels v.  Definition i never mentions the variables of definitions
    before it, so applying them in order removes every solved variable for
    good.
    """
    for v, a, dc, dk in defs:
        b = c.get(v)
        if b is None:
            continue
        m = gcd(a, b)
        fr, fd = abs(a) // m, (-b if a > 0 else b) // m
        c = {name: fr * x for name, x in c.items() if name != v}
        for name, x in dc.items():
            val = c.get(name, 0) + fd * x
            if val:
                c[name] = val
            else:
                del c[name]
        k = fr * k + fd * dk
    return c, k


def _value(c: Dict[str, int], k: int, val: Dict[str, Fraction]) -> Fraction:
    return k + sum(a * val[v] for v, a in c.items())


class LraTheory:
    """The arithmetic plugin: rows and excluded hyperplanes, replaced by
    each `assert_literals`, which also reduces the rows once.

    Every equality row, with the definitions before it substituted, is
    solved for its least-named variable, giving `defs`, kept as integer
    rows; the inequality rows, and any disequality or separation target, are
    rewritten over the remaining variables, `order`, and `stages` is the
    elimination of the rewritten inequalities, or None when the rows are
    infeasible.  Each solution of the rewritten inequalities extends to
    exactly one solution of the original rows by evaluating the definitions
    in reverse order, and each solution of the original rows restricts to
    one of the rewritten inequalities, so satisfiability, entailment of a
    target and sampling can all be decided on the smaller system.  An
    equality that becomes ground and nonzero makes the rows infeasible.  A
    fresh theory holds the empty system.  Elimination and entailment probes
    spend steps from budget, one meter for every assertion.  The sample of
    the rewritten inequalities is computed at most once per assertion and
    shared by `implied_equalities` and `model_fragment`; `_separation`
    gives every other point.
    """

    name = "lra"
    is_convex = True

    def __init__(self, budget: Union[int, Budget, None] = DEFAULT_BUDGET) -> None:
        self._budget = Budget.of(budget)
        self.assert_literals(())

    def assert_literals(self, literals: Iterable[Formula]) -> bool:
        """Replace the system by the literals' rows; True when the rows and
        disequalities have a common rational solution."""
        rows: List[Row] = []
        diseqs: List[Row] = []
        for lit in literals:
            if not is_literal(lit):
                raise UnsupportedAtomError(f"arithmetic expects literals, got {lit!r}")
            atom, sign = literal_atom(lit)
            if isinstance(atom, Leq):
                if sign:
                    c, k = _diff(atom.left, atom.right)
                    rows.append(_row(c, k, LE))
                else:
                    c, k = _diff(atom.right, atom.left)
                    rows.append(_row(c, k, LT))
            elif isinstance(atom, Eq):
                c, k = _diff(atom.left, atom.right)
                if sign:
                    rows.append(_row(c, k, EQ))
                else:
                    diseqs.append(_row(c, k, EQ))
            else:
                raise UnsupportedAtomError(f"not an arithmetic atom: {atom!r}")
        self.rows = tuple(rows)
        self.disequalities = tuple(diseqs)
        self.defs: List[Definition] = []
        feasible = True
        for c, k, rel in rows:
            if rel != EQ:
                continue
            # c may still be the row's own dict, so it is read, never changed
            c, k = _substitute(c, k, self.defs)
            if not c:
                feasible = feasible and k == 0
                continue
            v = min(c)
            self.defs.append((v, c[v], {n: b for n, b in c.items() if n != v}, k))
        solved = {v for v, _, _, _ in self.defs}
        self.order = tuple(v for v in self.vars() if v not in solved)
        ineqs = [_substitute(c, k, self.defs) + (rel,) for c, k, rel in rows if rel != EQ]
        self.stages = _eliminate(ineqs, self.order, self._budget) if feasible else None
        self._sample: Optional[Dict[str, Fraction]] = None
        return self.stages is not None and not any(self.entails_zero(d) for d in diseqs)

    def vars(self) -> Tuple[str, ...]:
        acc: Dict[str, None] = {}
        for c, _, _ in self.rows + self.disequalities:
            for v in c:
                acc.setdefault(v)
        return tuple(acc)

    def entails_zero(self, target: Row) -> bool:
        """True when every solution of the rows puts the target at zero.
        Each probe is one step of budget, and its eliminations more."""
        if self.stages is None:
            return True
        self._budget.spend("probing arithmetic equalities")
        c, k = _substitute(target[0], target[1], self.defs)
        return k == 0 if not c else self._separation(c, k) is None

    def _separation(self, c: Dict[str, int], k: int) -> Optional[List[List[Row]]]:
        """The elimination of the rewritten rows plus "c.x + k < 0", or else
        "c.x + k > 0", over the unsolved variables; None when the rows put
        c.x + k at zero.  The rows must be feasible."""
        for sign in (1, -1):
            strict = ({v: sign * a for v, a in c.items()}, sign * k, LT)
            stages = _eliminate(self.stages[0] + [strict], self.order, self._budget)
            if stages is not None:
                return stages
        return None

    def _split(self, h: str, v: str) -> Optional[frozenset]:
        """None when the rows force h = v, else the variables that share v's
        value at one solution of the rows off h = v.  A probe is one step,
        as in `entails_zero`; a ground h - v is implied, since `_group`
        compares only variables of one sample value."""
        if self.stages is None:
            return None
        self._budget.spend("probing arithmetic equalities")
        c, k = _substitute({h: 1, v: -1}, 0, self.defs)
        stages = self._separation(c, k) if c else None
        if stages is None:
            return None
        point = self.extend(_back_substitute(stages, self.order))
        return frozenset(n for n, x in point.items() if x == point[v])

    def _point(self) -> Dict[str, Fraction]:
        """The sample point of the rewritten inequalities; the rows must be feasible."""
        if self._sample is None:
            self._sample = _back_substitute(self.stages, self.order)
        return self._sample

    def extend(self, val: Dict[str, Fraction]) -> Dict[str, Fraction]:
        """Complete a solution of the rewritten rows with the solved variables."""
        full = dict(val)
        for v, a, dc, dk in reversed(self.defs):
            full[v] = -sum((b * full[n] for n, b in dc.items()), Fraction(dk)) / a
        return full

    def implied_equalities(self, shared: Sequence[str]) -> List[List[str]]:
        """The shared variables forced equal by the rows, as classes of two
        or more: members in shared order, classes by first member.

        A pair is implied exactly when both strict separations are
        infeasible.  `_group` groups the variables by their value at the
        sample point and at `_split`'s points, all solutions of the rows,
        which give every implied pair one value: fewer probes than
        variables.  When the rows are infeasible every variable's value is
        None, every probe says implied, and all variables form one class.
        Only variables that actually occur are considered.
        """
        point = dict.fromkeys(self.vars()) if self.stages is None else self.extend(self._point())
        names = [v for v in dict.fromkeys(shared) if v in point]
        return [c for c in _group(names, self._split, point.__getitem__) if len(c) > 1]

    def model_fragment(self) -> Dict[str, Fraction]:
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
        if self.stages is None:
            raise InvariantViolation("sampling an unsatisfiable arithmetic system")
        order = self.order
        val = self._point()

        cleared: List[Tuple[Dict[str, int], int]] = []
        for d in self.disequalities:
            c, k = _substitute(d[0], d[1], self.defs)
            if _value(c, k, val) != 0:
                cleared.append((c, k))
                continue
            stages = self._separation(c, k)
            if stages is None:
                raise InvariantViolation("sampling an unsatisfiable arithmetic system")
            target = _back_substitute(stages, order)
            cleared.append((c, k))
            for step in range(1, len(cleared) + 2):
                t = Fraction(1, step)
                cand = {v: val[v] + t * (target[v] - val[v]) for v in order}
                if all(_value(cc, kk, cand) != 0 for cc, kk in cleared):
                    val = cand
                    break
            else:
                raise InvariantViolation("hyperplane repair ran out of step sizes")

        val = self.extend(val)
        for c, k, rel in self.rows:
            total = _value(c, k, val)
            if total > 0 or (total == 0 and rel == LT) or (total < 0 and rel == EQ):
                raise InvariantViolation("arithmetic sample violates a row")
        for c, k, _ in self.disequalities:
            if _value(c, k, val) == 0:
                raise InvariantViolation("arithmetic sample hits an excluded hyperplane")
        return val
