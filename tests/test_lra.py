"""Exact rational arithmetic over weak inequalities and disequalities."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl.errors import InvariantViolation, NonlinearTermError, UnsupportedAtomError
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
)
from setsyl.lra import LE, LT, EQ, LraState, lra_check, lra_implied, lra_sample

x, y, z = Var("x"), Var("y"), Var("z")


def rc(v) -> RationalConst:
    return RationalConst(Fraction(v))


def plus(a, b) -> ArithOp:
    return ArithOp("plus", (a, b))


def neg(a) -> ArithOp:
    return ArithOp("neg", (a,))


def state(*lits) -> LraState:
    return LraState.from_literals(lits)


# ------------------------------------------------------------ construction


def test_rows_from_literals():
    s = state(Leq(x, y), Not(Leq(y, z)), Eq(x, z), Not(Eq(x, y)))
    assert [r.rel for r in s.rows] == [LE, LT, EQ]
    assert len(s.disequalities) == 1
    # x <= y becomes x - y <= 0
    assert s.rows[0].as_dict() == {"x": Fraction(1), "y": Fraction(-1)}
    assert s.rows[0].const == 0
    # not (y <= z) becomes z - y < 0
    assert s.rows[1].as_dict() == {"z": Fraction(1), "y": Fraction(-1)}


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
    assert lra_check(state()) is True


def test_mutual_bounds_satisfiable():
    assert lra_check(state(Leq(x, y), Leq(y, x))) is True


def test_offset_cycle_unsatisfiable():
    assert lra_check(state(Leq(plus(x, rc(1)), y), Leq(y, x))) is False


def test_strict_self_bound_unsatisfiable():
    assert lra_check(state(Not(Leq(x, x)))) is False


def test_strict_chain_satisfiable():
    assert lra_check(state(Not(Leq(y, x)), Not(Leq(z, y)))) is True


def test_ground_constants():
    assert lra_check(state(Leq(rc(0), rc(0)))) is True
    assert lra_check(state(Leq(rc(1), rc(0)))) is False
    assert lra_check(state(Leq(rc("1/3"), rc("1/2")))) is True


def test_fractional_offset_contradiction():
    assert lra_check(state(Leq(plus(x, rc("1/2")), y), Eq(x, y))) is False


def test_entailed_disequality_unsatisfiable():
    assert lra_check(state(Eq(x, y), Eq(y, z), Not(Eq(x, z)))) is False
    assert lra_check(state(Leq(x, y), Leq(y, x), Not(Eq(x, y)))) is False


def test_free_disequality_satisfiable():
    assert lra_check(state(Eq(x, y), Not(Eq(x, z)))) is True
    assert lra_check(state(Leq(x, y), Not(Eq(x, y)))) is True


def test_negation_makes_weak_bound_strict():
    # x < y and y < x cannot hold together even without an offset
    assert lra_check(state(Not(Leq(y, x)), Not(Leq(x, y)))) is False


def test_neg_operator():
    # x <= -x and -x <= x force x = 0, contradicting x != 0
    s = state(Leq(x, neg(x)), Leq(neg(x), x), Not(Eq(x, rc(0))))
    assert lra_check(s) is False


# ---------------------------------------------------------------- implied


def test_implied_pair_from_mutual_bounds():
    s = state(Leq(x, y), Leq(y, x))
    assert lra_implied(s, ["x", "y"]) == (("x", "y"),)


def test_implied_pair_by_transitivity():
    s = state(Eq(x, y), Eq(y, z))
    assert lra_implied(s, ["x", "z"]) == (("x", "z"),)


def test_no_implied_pair_from_one_sided_bound():
    assert lra_implied(state(Leq(x, y)), ["x", "y"]) == ()


def test_implied_ignores_absent_shared_vars():
    s = state(Leq(x, y), Leq(y, x))
    assert lra_implied(s, ["x", "q"]) == ()
    assert lra_implied(s, ["q", "x", "y"]) == (("x", "y"),)


def test_implied_ignores_disequalities():
    # implication is judged on the rows alone; the system stays convex
    s = state(Leq(x, y), Leq(y, x), Not(Eq(x, z)))
    assert lra_implied(s, ["x", "y"]) == (("x", "y"),)


# ----------------------------------------------------------------- sample


def _holds(s: LraState, val):
    for row in s.rows:
        total = row.const + sum(c * val[v] for v, c in row.coeffs)
        if row.rel == LE:
            assert total <= 0
        elif row.rel == LT:
            assert total < 0
        else:
            assert total == 0
    for d in s.disequalities:
        assert d.const + sum(c * val[v] for v, c in d.coeffs) != 0


def test_sample_empty_state():
    assert lra_sample(state()) == {}


def test_sample_satisfies_equalities():
    s = state(Eq(x, y), Leq(rc(3), x))
    val = lra_sample(s)
    assert val["x"] == val["y"] >= 3
    _holds(s, val)


def test_sample_respects_strictness():
    s = state(Not(Leq(y, x)))
    val = lra_sample(s)
    assert val["x"] < val["y"]


def test_sample_dodges_forbidden_midpoints():
    s = state(
        Leq(rc(0), x),
        Leq(x, rc(1)),
        Not(Eq(x, rc("1/2"))),
        Not(Eq(x, rc("3/4"))),
    )
    val = lra_sample(s)
    assert 0 <= val["x"] <= 1
    assert val["x"] not in (Fraction(1, 2), Fraction(3, 4))
    _holds(s, val)


def test_sample_escapes_pinned_forbidden_point():
    # an equality pins x = y, and a free choice for z could land exactly on
    # the excluded hyperplane x = z; the repair walk must move off it
    s = state(Eq(x, y), Not(Eq(x, z)))
    val = lra_sample(s)
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
    _holds(s, lra_sample(s))


def test_sample_on_unsatisfiable_rows_raises():
    with pytest.raises(InvariantViolation):
        lra_sample(state(Leq(plus(x, rc(1)), y), Leq(y, x)))


def test_sample_values_are_exact_fractions():
    val = lra_sample(state(Leq(rc("1/3"), x), Leq(x, rc("1/3"))))
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
    s = LraState.from_literals(_literals(picks))
    if lra_check(s):
        _holds(s, lra_sample(s))
    else:
        with pytest.raises(InvariantViolation):
            lra_sample(s)


@settings(max_examples=200, deadline=None)
@given(st.lists(_lits, min_size=0, max_size=5))
def test_equalities_written_as_two_inequalities_change_nothing(picks):
    # Equality rows are substituted away, their two halves are eliminated.
    whole = LraState.from_literals(_literals(picks))
    split = LraState.from_literals(_literals(picks, split_eq=True))
    assert lra_check(whole) == lra_check(split)
    assert lra_implied(whole, ["x", "y", "z"]) == lra_implied(split, ["x", "y", "z"])


@settings(max_examples=200, deadline=None)
@given(st.lists(_lits, min_size=0, max_size=5))
def test_implied_matches_probing_every_pair(picks):
    # lra_implied skips the pairs its sample point separates; probing
    # both strict separations of every pair must find nothing more.
    s = LraState.from_literals(_literals(picks))
    rows = _literals([p for p in picks if p[0] != "ne"])
    present = [v for v in ("x", "y", "z") if v in s.vars()]
    expect = tuple(
        (a, b)
        for a, b in combinations(present, 2)
        if not lra_check(LraState.from_literals(rows + [Not(Leq(Var(b), Var(a)))]))
        and not lra_check(LraState.from_literals(rows + [Not(Leq(Var(a), Var(b)))]))
    )
    assert lra_implied(s, ["x", "y", "z"]) == expect


def test_dominated_rows_leave_check_and_sample_alone():
    tight = state(Leq(rc(0), x), Leq(x, rc(1)), Leq(y, x))
    loose = state(
        Leq(rc(0), x),
        Leq(x, rc(1)),
        Leq(y, x),
        Leq(x, rc(2)),
        Leq(plus(x, x), rc(2)),
        Leq(plus(y, rc(-5)), x),
        Leq(x, rc(1)),
    )
    assert lra_check(loose) is True
    assert lra_sample(loose) == lra_sample(tight)


def test_substituted_equalities_reach_the_sample():
    # Each equality is solved for its least name, x and then y; both come
    # back from their definitions after the inequalities are sampled.
    # The rows alone sample x = 3, which puts y on the excluded value 8.
    s = state(Eq(z, plus(x, rc(1))), Eq(y, plus(z, z)), Leq(rc(2), x), Not(Eq(y, rc(8))))
    val = lra_sample(s)
    assert set(val) == {"x", "y", "z"}
    assert val["y"] != 8
    assert val["z"] == val["x"] + 1 and val["y"] == 2 * val["z"]
    _holds(s, val)


def test_ground_equality_after_substitution():
    assert lra_check(state(Eq(x, y), Eq(y, plus(x, rc(1))))) is False
    assert lra_check(state(Eq(x, y), Eq(y, x), Not(Leq(y, z)))) is True
