"""Exact rational arithmetic over weak inequalities and disequalities."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl.combine import MlsTheory, propagate, purify
from setsyl.errors import Budget, InvariantViolation, NonlinearTermError, UnsupportedAtomError
from setsyl.formulas import (
    ArithOp,
    Eq,
    In,
    Leq,
    Not,
    Or,
    RationalConst,
    SetOp,
    Var,
    literal_atom,
)
from setsyl.lists import ListTheory
from setsyl.lra import LE, LT, EQ, LraTheory
from setsyl.normalize import _group
from test_combine import _mixed_draw
from test_solver import in_classes

x, y, z = Var("x"), Var("y"), Var("z")


def rc(v) -> RationalConst:
    return RationalConst(Fraction(v))


def plus(a, b) -> ArithOp:
    return ArithOp("plus", (a, b))


def neg(a) -> ArithOp:
    return ArithOp("neg", (a,))


def state(*lits) -> LraTheory:
    t = LraTheory()
    t.assert_literals(lits)
    return t


def check(*lits) -> bool:
    return LraTheory().assert_literals(lits)


# ------------------------------------------------------------ construction


def test_rows_from_literals():
    s = state(Leq(x, y), Not(Leq(y, z)), Eq(x, z), Not(Eq(x, y)))
    assert [rel for _, _, rel in s.rows] == [LE, LT, EQ]
    assert len(s.disequalities) == 1
    # x <= y becomes x - y <= 0
    assert s.rows[0] == ({"x": Fraction(1), "y": Fraction(-1)}, 0, LE)
    # not (y <= z) becomes z - y < 0, coefficients in name order
    assert list(s.rows[1][0].items()) == [("y", Fraction(-1)), ("z", Fraction(1))]


def test_vars_order_is_deterministic():
    # row order, names sorted within each row
    s = state(Leq(y, x), Eq(z, y))
    assert s.vars() == ("x", "y", "z")
    s2 = state(Eq(z, y), Leq(y, x))
    assert s2.vars() == ("y", "z", "x")


def test_non_arithmetic_atoms_rejected():
    with pytest.raises(UnsupportedAtomError):
        state(In(x, y))
    with pytest.raises(UnsupportedAtomError):
        state(Or((Leq(x, y), Leq(y, x))))


def test_set_terms_inside_arithmetic_rejected():
    with pytest.raises(NonlinearTermError):
        state(Leq(SetOp("union", x, y), z))


# ----------------------------------------------------------------- checks


def test_empty_state_is_satisfiable():
    assert check() is True


def test_mutual_bounds_satisfiable():
    assert check(Leq(x, y), Leq(y, x)) is True


def test_offset_cycle_unsatisfiable():
    assert check(Leq(plus(x, rc(1)), y), Leq(y, x)) is False


def test_strict_self_bound_unsatisfiable():
    assert check(Not(Leq(x, x))) is False


def test_strict_chain_satisfiable():
    assert check(Not(Leq(y, x)), Not(Leq(z, y))) is True


def test_ground_constants():
    assert check(Leq(rc(0), rc(0))) is True
    assert check(Leq(rc(1), rc(0))) is False
    assert check(Leq(rc("1/3"), rc("1/2"))) is True


def test_fractional_offset_contradiction():
    assert check(Leq(plus(x, rc("1/2")), y), Eq(x, y)) is False


def test_entailed_disequality_unsatisfiable():
    assert check(Eq(x, y), Eq(y, z), Not(Eq(x, z))) is False
    assert check(Leq(x, y), Leq(y, x), Not(Eq(x, y))) is False


def test_free_disequality_satisfiable():
    assert check(Eq(x, y), Not(Eq(x, z))) is True
    assert check(Leq(x, y), Not(Eq(x, y))) is True


def test_negation_makes_weak_bound_strict():
    # x < y and y < x cannot hold together even without an offset
    assert check(Not(Leq(y, x)), Not(Leq(x, y))) is False


def test_neg_operator():
    # x <= -x and -x <= x force x = 0, contradicting x != 0
    assert check(Leq(x, neg(x)), Leq(neg(x), x), Not(Eq(x, rc(0)))) is False


# ---------------------------------------------------------------- implied


def test_implied_pair_from_mutual_bounds():
    s = state(Leq(x, y), Leq(y, x))
    assert s.implied_equalities(["x", "y"]) == [["x", "y"]]


def test_implied_pair_by_transitivity():
    s = state(Eq(x, y), Eq(y, z))
    assert s.implied_equalities(["x", "z"]) == [["x", "z"]]


def test_no_implied_pair_from_one_sided_bound():
    assert state(Leq(x, y)).implied_equalities(["x", "y"]) == []


def test_implied_ignores_absent_shared_vars():
    s = state(Leq(x, y), Leq(y, x))
    assert s.implied_equalities(["x", "q"]) == []
    assert s.implied_equalities(["q", "x", "y"]) == [["x", "y"]]


def test_implied_ignores_disequalities():
    # implication is judged on the rows alone; the system stays convex
    s = state(Leq(x, y), Leq(y, x), Not(Eq(x, z)))
    assert s.implied_equalities(["x", "y"]) == [["x", "y"]]


def test_infeasible_rows_imply_one_class():
    s = state(Leq(plus(x, rc(1)), y), Leq(y, x), Leq(z, x))
    assert s.implied_equalities(["z", "q", "y", "x"]) == [["z", "y", "x"]]


PROBES = "probing arithmetic equalities"


class _LayerMeter(Budget):
    """An unlimited meter that counts the steps charged to each layer."""

    __slots__ = ("steps",)

    def __init__(self) -> None:
        super().__init__(None)
        self.steps: Counter = Counter()

    def spend(self, layer: str, steps: int = 1) -> None:
        self.steps[layer] += steps
        super().spend(layer, steps)


def _probes(names, *lits):
    """implied_equalities' classes over names, and the probes it charged."""
    meter = _LayerMeter()
    s = LraTheory(meter)
    s.assert_literals(lits)
    before = meter.steps[PROBES]
    classes = s.implied_equalities(names)
    return classes, meter.steps[PROBES] - before


def test_classes_probe_each_variable_against_heads_only():
    # x0 <= x1 <= ... <= x11 <= x0 makes all twelve one class; each
    # variable after the first is probed once, against the head.
    names = [f"x{i}" for i in range(12)]
    cycle = [Leq(Var(a), Var(b)) for a, b in zip(names, names[1:] + names[:1])]
    assert _probes(names, *cycle) == ([names], 11)


def test_unrelated_variables_take_fewer_probes_than_variables():
    # 0 <= xi alone implies no pair, and puts every xi at 1 at the sample
    # point.  Probing each variable against every class head of its value
    # took 40 * 39 / 2 = 780 probes; a failed probe keeps the point that
    # separated its pair, so no head matches the variable again.
    names = [f"x{i}" for i in range(40)]
    classes, probes = _probes(names, *(Leq(rc(0), Var(v)) for v in names))
    assert classes == []
    assert probes <= len(names) - 1


# ----------------------------------------------------------------- sample


def _holds(s: LraTheory, val):
    for coeffs, const, rel in s.rows:
        total = const + sum(c * val[v] for v, c in coeffs.items())
        if rel == LE:
            assert total <= 0
        elif rel == LT:
            assert total < 0
        else:
            assert total == 0
    for coeffs, const, _ in s.disequalities:
        assert const + sum(c * val[v] for v, c in coeffs.items()) != 0


def test_sample_empty_state():
    assert state().model_fragment() == {}


def test_fresh_theories_answer_before_any_assertion():
    for theory in (LraTheory(), ListTheory()):
        assert theory.implied_equalities(["x", "y"]) == []
        assert theory.model_fragment() == {}


def test_sample_satisfies_equalities():
    s = state(Eq(x, y), Leq(rc(3), x))
    val = s.model_fragment()
    assert val["x"] == val["y"] >= 3
    _holds(s, val)


def test_sample_respects_strictness():
    s = state(Not(Leq(y, x)))
    val = s.model_fragment()
    assert val["x"] < val["y"]


def test_sample_dodges_forbidden_midpoints():
    s = state(
        Leq(rc(0), x),
        Leq(x, rc(1)),
        Not(Eq(x, rc("1/2"))),
        Not(Eq(x, rc("3/4"))),
    )
    val = s.model_fragment()
    assert 0 <= val["x"] <= 1
    assert val["x"] not in (Fraction(1, 2), Fraction(3, 4))
    _holds(s, val)


def test_sample_escapes_pinned_forbidden_point():
    # an equality pins x = y, and a free choice for z could land exactly on
    # the excluded hyperplane x = z; the repair walk must move off it
    s = state(Eq(x, y), Not(Eq(x, z)))
    val = s.model_fragment()
    assert val["x"] == val["y"]
    assert val["x"] != val["z"]


def test_sample_repairs_many_hyperplanes():
    s = state(
        Eq(x, y),
        Not(Eq(x, z)),
        Not(Eq(y, z)),
        Not(Eq(plus(x, neg(z)), rc(1))),
        Not(Eq(plus(x, z), rc(0))),
        Not(Eq(x, rc(0))),
    )
    _holds(s, s.model_fragment())


def test_sample_on_unsatisfiable_rows_raises():
    with pytest.raises(InvariantViolation):
        state(Leq(plus(x, rc(1)), y), Leq(y, x)).model_fragment()


def test_sample_values_are_exact_fractions():
    val = state(Leq(rc("1/3"), x), Leq(x, rc("1/3"))).model_fragment()
    assert val["x"] == Fraction(1, 3)
    assert isinstance(val["x"], Fraction)


# ------------------------------------------------------------- properties


_terms = st.sampled_from(
    [x, y, z, rc(0), rc(1), rc("1/2"), plus(x, rc(1)), plus(y, neg(z)), neg(x)]
)
_lits = st.one_of(
    st.tuples(st.just("le"), _terms, _terms),
    st.tuples(st.just("lt"), _terms, _terms),
    st.tuples(st.just("eq"), _terms, _terms),
    st.tuples(st.just("ne"), _terms, _terms),
)


def _literals(picks, split_eq=False):
    lits = []
    for kind, a, b in picks:
        if kind == "le":
            lits.append(Leq(a, b))
        elif kind == "lt":
            lits.append(Not(Leq(b, a)))
        elif kind == "eq":
            lits.extend((Leq(a, b), Leq(b, a)) if split_eq else (Eq(a, b),))
        else:
            lits.append(Not(Eq(a, b)))
    return lits


@settings(max_examples=200, deadline=None)
@given(st.lists(_lits, min_size=0, max_size=5))
def test_check_and_sample_agree(picks):
    s = LraTheory()
    if s.assert_literals(_literals(picks)):
        _holds(s, s.model_fragment())
    else:
        with pytest.raises(InvariantViolation):
            s.model_fragment()


@settings(max_examples=200, deadline=None)
@given(st.lists(_lits, min_size=0, max_size=5))
def test_equalities_written_as_two_inequalities_change_nothing(picks):
    # Equality rows are substituted away, their two halves are eliminated.
    whole, split = LraTheory(), LraTheory()
    assert whole.assert_literals(_literals(picks)) == split.assert_literals(
        _literals(picks, split_eq=True)
    )
    assert whole.implied_equalities(["x", "y", "z"]) == split.implied_equalities(["x", "y", "z"])


@settings(max_examples=200, deadline=None)
@given(st.lists(_lits, min_size=0, max_size=5))
def test_implied_matches_probing_every_pair(picks):
    # implied_equalities skips the pairs its sample point separates; probing
    # both strict separations of every pair must find nothing more.
    s = state(*_literals(picks))
    rows = _literals([p for p in picks if p[0] != "ne"])
    present = [v for v in ("x", "y", "z") if v in s.vars()]
    pairs = list(combinations(present, 2))
    expect = tuple(
        (a, b)
        for a, b in pairs
        if not LraTheory().assert_literals(rows + [Not(Leq(Var(b), Var(a)))])
        and not LraTheory().assert_literals(rows + [Not(Leq(Var(a), Var(b)))])
    )
    assert in_classes(s.implied_equalities(["x", "y", "z"]), pairs) == expect


def test_dominated_rows_leave_check_and_sample_alone():
    tight = state(Leq(rc(0), x), Leq(x, rc(1)), Leq(y, x))
    loose_literals = (
        Leq(rc(0), x),
        Leq(x, rc(1)),
        Leq(y, x),
        Leq(x, rc(2)),
        Leq(plus(x, x), rc(2)),
        Leq(plus(y, rc(-5)), x),
        Leq(x, rc(1)),
    )
    loose = LraTheory()
    assert loose.assert_literals(loose_literals) is True
    assert loose.model_fragment() == tight.model_fragment()


def test_substituted_equalities_reach_the_sample():
    # Each equality is solved for its least name, x and then y; both come
    # back from their definitions after the inequalities are sampled.
    # The rows alone sample x = 3, which puts y on the excluded value 8.
    s = state(Eq(z, plus(x, rc(1))), Eq(y, plus(z, z)), Leq(rc(2), x), Not(Eq(y, rc(8))))
    val = s.model_fragment()
    assert set(val) == {"x", "y", "z"}
    assert val["y"] != 8
    assert val["z"] == val["x"] + 1 and val["y"] == 2 * val["z"]
    _holds(s, val)


def test_ground_equality_after_substitution():
    assert check(Eq(x, y), Eq(y, plus(x, rc(1)))) is False
    assert check(Eq(x, y), Eq(y, x), Not(Leq(y, z))) is True


# -------------------------------------------------------------- reference
#
# Fourier-Motzkin over fractions.Fraction, as the plugin decided before its
# rows became integer: every row is scaled to a first coefficient of
# magnitude 1, combined rows are divided by their coefficients on the
# eliminated variable, and a definition is solved for its variable.  The
# plugin's integer rows are positive multiples of these rows, so verdicts,
# implied classes, samples and steps charged must all agree.

_ZERO = Fraction(0)


def _reference_linear(t):
    if isinstance(t, Var):
        return {t.name: Fraction(1)}, _ZERO
    if isinstance(t, RationalConst):
        return {}, t.value
    if t.op == "plus":
        ca, ka = _reference_linear(t.args[0])
        cb, kb = _reference_linear(t.args[1])
        for v, c in cb.items():
            ca[v] = ca.get(v, _ZERO) + c
        return {v: c for v, c in ca.items() if c != 0}, ka + kb
    ca, ka = _reference_linear(t.args[0])
    return {v: -c for v, c in ca.items()}, -ka


def _reference_row(a, b, rel):
    """The row of a - b, with its nonzero coefficients in name order."""
    ca, ka = _reference_linear(a)
    cb, kb = _reference_linear(b)
    for v, c in cb.items():
        ca[v] = ca.get(v, _ZERO) - c
    return {v: ca[v] for v in sorted(ca) if ca[v]}, ka - kb, rel


def _reference_tighten(best, ineqs):
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


def _reference_eliminate(ineqs, order, meter):
    cur = {}
    if not _reference_tighten(cur, ineqs):
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
                c = {}
                for name in set(cu) | set(cd):
                    val = cu.get(name, _ZERO) / au - cd.get(name, _ZERO) / ad
                    if val != 0 and name != v:
                        c[name] = val
                k = ku / au - kd / ad
                rel = LT if LT in (relu, reld) else LE
                combined.append((c, k, rel))
        if not _reference_tighten(cur, combined):
            return None
    stages.append(list(cur.values()))
    return stages


def _reference_back_substitute(stages, order):
    val = {}
    for idx in range(len(order) - 1, -1, -1):
        v = order[idx]
        lo = hi = None
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


def _reference_value(c, k, val):
    return k + sum(a * val[v] for v, a in c.items())


def _reference_substitute(c, k, defs):
    """defs are solved equalities "v = sum dc*x + dk", as (v, dc, dk)."""
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


class _ReferenceLra:
    """LraTheory's assert / implied / sample, on the reference functions."""

    def __init__(self, meter: Budget) -> None:
        self._budget = meter

    def assert_literals(self, literals) -> bool:
        rows, diseqs = [], []
        for lit in literals:
            atom, sign = literal_atom(lit)
            if isinstance(atom, Leq):
                a, b = (atom.left, atom.right) if sign else (atom.right, atom.left)
                rows.append(_reference_row(a, b, LE if sign else LT))
            else:
                (rows if sign else diseqs).append(_reference_row(atom.left, atom.right, EQ))
        self.rows, self.disequalities = rows, diseqs
        self.defs = []
        feasible = True
        for c, k, rel in rows:
            if rel != EQ:
                continue
            c, k = _reference_substitute(c, k, self.defs)
            if not c:
                feasible = feasible and k == 0
                continue
            v = min(c)
            a = c[v]
            self.defs.append((v, {n: -b / a for n, b in c.items() if n != v}, -k / a))
        solved = {v for v, _, _ in self.defs}
        self.order = tuple(v for v in self.vars() if v not in solved)
        ineqs = [_reference_substitute(c, k, self.defs) + (rel,) for c, k, rel in rows if rel != EQ]
        self.stages = _reference_eliminate(ineqs, self.order, self._budget) if feasible else None
        return self.stages is not None and not any(self.entails_zero(d) for d in diseqs)

    def vars(self):
        return tuple(dict.fromkeys(v for c, _, _ in self.rows + self.disequalities for v in c))

    def entails_zero(self, target) -> bool:
        if self.stages is None:
            return True
        self._budget.spend("probing arithmetic equalities")
        c, k = _reference_substitute(target[0], target[1], self.defs)
        return k == 0 if not c else self._separation(c, k) is None

    def _separation(self, c, k):
        for sign in (1, -1):
            strict = ({v: sign * a for v, a in c.items()}, sign * k, LT)
            stages = _reference_eliminate(self.stages[0] + [strict], self.order, self._budget)
            if stages is not None:
                return stages
        return None

    def _split(self, h, v):
        if self.stages is None:
            return None
        self._budget.spend("probing arithmetic equalities")
        c, k = _reference_substitute({h: Fraction(1), v: Fraction(-1)}, _ZERO, self.defs)
        stages = self._separation(c, k) if c else None
        if stages is None:
            return None
        point = self.extend(_reference_back_substitute(stages, self.order))
        return frozenset(n for n, x in point.items() if x == point[v])

    def extend(self, val):
        full = dict(val)
        for v, dc, dk in reversed(self.defs):
            full[v] = dk + sum(b * full[n] for n, b in dc.items())
        return full

    def implied_equalities(self, shared) -> List[List[str]]:
        if self.stages is None:
            point = dict.fromkeys(self.vars())
        else:
            point = self.extend(_reference_back_substitute(self.stages, self.order))
        names = [v for v in dict.fromkeys(shared) if v in point]
        return [c for c in _group(names, self._split, point.__getitem__) if len(c) > 1]

    def model_fragment(self) -> Dict[str, Fraction]:
        if self.stages is None:
            raise InvariantViolation("sampling an unsatisfiable arithmetic system")
        order = self.order
        val = _reference_back_substitute(self.stages, order)
        cleared = []
        for d in self.disequalities:
            c, k = _reference_substitute(d[0], d[1], self.defs)
            if _reference_value(c, k, val) != 0:
                cleared.append((c, k))
                continue
            stages = self._separation(c, k)
            if stages is None:
                raise InvariantViolation("sampling an unsatisfiable arithmetic system")
            target = _reference_back_substitute(stages, order)
            cleared.append((c, k))
            for step in range(1, len(cleared) + 2):
                t = Fraction(1, step)
                cand = {v: val[v] + t * (target[v] - val[v]) for v in order}
                if all(_reference_value(cc, kk, cand) != 0 for cc, kk in cleared):
                    val = cand
                    break
            else:
                raise InvariantViolation("hyperplane repair ran out of step sizes")
        return self.extend(val)


_NAMES = ["a", "b", "c", "d", "e"]


def _random_system(rng):
    """Up to seven literals of all four relations over up to five names,
    with rational constants and coefficients up to about 3."""
    names = [Var(n) for n in _NAMES[: rng.randint(1, 5)]]

    def term():
        t = None
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.25:
                u = rc(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            else:
                u = rng.choice(names)
            if rng.random() < 0.3:
                u = neg(u)
            t = u if t is None else plus(t, u)
        return t

    lits = []
    for _ in range(rng.randint(0, 7)):
        a, b = term(), term()
        kind = rng.choice(("le", "lt", "eq", "eq", "ne"))
        if kind == "le":
            lits.append(Leq(a, b))
        elif kind == "lt":
            lits.append(Not(Leq(b, a)))
        elif kind == "eq":
            lits.append(Eq(a, b))
        else:
            lits.append(Not(Eq(a, b)))
    return lits


def _answers(theory, meter, lits):
    """Each call's answer, with the steps left on the meter after it."""
    out = [(theory.assert_literals(lits), meter.left)]
    out.append((theory.implied_equalities(_NAMES), meter.left))
    try:
        frag = theory.model_fragment()
    except InvariantViolation:
        frag = None
    else:
        assert all(type(v) is Fraction for v in frag.values())
    out.append((frag, meter.left))
    return out


def test_integer_rows_match_the_fraction_reference():
    rng = random.Random(29)
    verdicts = set()
    for _ in range(2500):
        lits = _random_system(rng)
        meter, ref_meter = Budget(10**9), Budget(10**9)
        got = _answers(LraTheory(meter), meter, lits)
        want = _answers(_ReferenceLra(ref_meter), ref_meter, lits)
        assert got == want, lits
        verdicts.add(got[0][0])
    assert verdicts == {True, False}


# ------------------------------------------------------- by-value grouping


def _by_value_classes(theory: LraTheory, shared) -> List[List[str]]:
    """implied_equalities as it grouped before it called `_group`: the
    variables by value at the sample point, each probed with entails_zero
    against every class head of its value until one is implied, which
    costs k(k - 1)/2 probes for k unrelated variables of one value."""
    if theory.stages is None:
        point = dict.fromkeys(theory.vars())
    else:
        point = theory.extend(theory._point())
    by_value: Dict[Optional[Fraction], List[List[str]]] = {}
    classes = []
    for v in (v for v in shared if v in point):
        group = by_value.setdefault(point[v], [])
        for c in group:
            if theory.entails_zero(({c[0]: 1, v: -1}, 0, EQ)):
                c.append(v)
                break
        else:
            group.append([v])
            classes.append(group[-1])
    return [c for c in classes if len(c) > 1]


@pytest.mark.parametrize("seed, draws", [(29, 2500), (7, 20000)])
def test_grouping_matches_the_by_value_loop(seed, draws):
    rng = random.Random(seed)
    merged = 0
    for _ in range(draws):
        lits = _random_system(rng)
        s = state(*lits)
        classes = s.implied_equalities(_NAMES)
        assert classes == _by_value_classes(s, _NAMES), lits
        merged += s.stages is not None and classes != []
    assert merged >= draws // 30


def test_grouping_matches_the_by_value_loop_through_propagate():
    answers = []

    class Checked(LraTheory):
        def implied_equalities(self, shared):
            classes = super().implied_equalities(shared)
            assert classes == _by_value_classes(self, shared)
            answers.append(classes)
            return classes

    rng = random.Random(16)
    for _ in range(300):
        problem = purify(_mixed_draw(rng, rng.randrange(3, 7)))
        propagate(problem, [MlsTheory(), Checked(), ListTheory()])
    assert sum(classes != [] for classes in answers) >= 30
