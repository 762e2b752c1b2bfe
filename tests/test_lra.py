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
from setsyl.lists import ListTheory
from setsyl.lra import LE, LT, EQ, LraTheory
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


def test_classes_probe_each_variable_against_heads_only(monkeypatch):
    # x0 <= x1 <= ... <= x11 <= x0 makes all twelve one class; each
    # variable after the first is probed once, against the head.
    names = [f"x{i}" for i in range(12)]
    s = state(*(Leq(Var(a), Var(b)) for a, b in zip(names, names[1:] + names[:1])))
    probes = []
    entails_zero = LraTheory.entails_zero

    def counting(theory, target):
        probes.append(target)
        return entails_zero(theory, target)

    monkeypatch.setattr(LraTheory, "entails_zero", counting)
    assert s.implied_equalities(names) == [names]
    assert len(probes) <= 11


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
