"""Reduction to the two-literal normal form and its witness plans."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl.errors import MixedAtomError, UnsupportedAtomError
from setsyl.formulas import (
    EMPTY,
    ArithOp,
    AtomPred,
    Eq,
    ExtOp,
    In,
    Leq,
    ListOp,
    Not,
    Or,
    RationalConst,
    SetOp,
    Subset,
    Var,
    and_,
    free_vars,
    or_,
)
from setsyl.hf import SetAssignment, hf
from setsyl.normalize import (
    NormalizedConjunction,
    apply_plan,
    dnf_split,
    normalize,
    normalize_with_plan,
    split_disjuncts,
)
from setsyl.oracle import bounded_models, eval_formula, oracle_sat
from setsyl.solver import solve

x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")


def lits_of(nc):
    return set(nc.memberships), set(nc.differences)


# the nine rewrite shapes ------------------------------------------------------

def test_membership_passes_through():
    nc = normalize([In(x, y)])
    assert nc.memberships == (("x", "y"),)
    assert nc.differences == ()


def test_difference_passes_through():
    nc = normalize([Eq(x, SetOp("setminus", y, z))])
    assert nc.differences == (("x", "y", "z"),)


def test_equals_empty():
    nc = normalize([Eq(x, EMPTY)])
    assert nc.differences == (("x", "x", "x"),)
    assert nc.memberships == ()


def test_not_equals_empty_adds_inhabitant():
    nc = normalize([Not(Eq(x, EMPTY))])
    assert nc.memberships == (("_g1", "x"),)
    assert nc.differences == ()


def test_non_membership():
    nc = normalize([Not(In(x, y))])
    mems, diffs = lits_of(nc)
    assert ("x", "_g1") in mems
    assert ("_g1", "_g1", "y") in diffs


def test_plain_equality():
    nc = normalize([Eq(x, y)])
    mems, diffs = lits_of(nc)
    assert diffs == {("x", "y", "_g1"), ("_g1", "_g1", "_g1")}
    assert mems == set()


def test_intersection():
    nc = normalize([Eq(x, SetOp("inter", y, z))])
    _, diffs = lits_of(nc)
    assert diffs == {("_g1", "y", "z"), ("x", "y", "_g1")}


def test_union():
    nc = normalize([Eq(x, SetOp("union", y, z))])
    _, diffs = lits_of(nc)
    assert diffs == {
        ("_g1", "x", "y"),
        ("_g1", "z", "y"),
        ("_g2", "y", "x"),
        ("_g2", "_g2", "_g2"),
    }


def test_subset_golden():
    nc = normalize([Subset(x, y)])
    assert nc.differences == (("_g1", "y", "x"), ("x", "y", "_g1"))
    assert nc.memberships == ()
    assert nc.vars == ("_g1", "y", "x") or set(nc.vars) == {"x", "y", "_g1"}


def test_negated_subset_plan_shape():
    nc, plan = normalize_with_plan([Not(Subset(x, y))])
    assert len(nc.vars) == 11
    assert len(nc.memberships) + len(nc.differences) == 11
    assert [step[1] for step in plan] == [
        "term",
        "union",
        "inter",
        "symdiff_min",
        "diff",
        "diff",
        "diff",
        "singleton",
        "diff",
    ]


def test_nested_terms_flatten_definitions_first():
    nc = normalize([In(SetOp("union", x, y), z)])
    mems, diffs = lits_of(nc)
    # _g1 = x union y is defined via the union rewrite, then _g1 in z
    assert ("_g1", "z") in mems
    assert len(diffs) == 4


# bookkeeping ------------------------------------------------------------------

def test_duplicates_collapse():
    nc = normalize([In(x, y), In(x, y), Subset(x, y), Subset(x, y)])
    assert nc.memberships == (("x", "y"),)
    assert len(nc.differences) == 2


def test_vars_first_occurrence_order_and_size():
    nc = normalize([In(x, y), Eq(z, SetOp("setminus", w, y))])
    assert nc.vars == ("x", "y", "z", "w")
    assert (len(nc.vars), len(nc.memberships) + len(nc.differences)) == (4, 2)


def test_fresh_names_avoid_taken_ones():
    nc = normalize([Subset(Var("_g3"), y)])
    assert "_g4" in nc.vars
    assert "_g3" in nc.vars


def test_literals_round_trip_through_formula():
    nc = normalize([In(x, y), Eq(z, SetOp("setminus", x, y))])
    again = normalize(nc.literals())
    assert again == nc
    assert free_vars(nc.to_formula()) == list(nc.vars)


def test_equality_and_hash():
    a = normalize([In(x, y)])
    b = normalize([In(x, y)])
    assert a == b and hash(a) == hash(b)


# disjunction splitting ----------------------------------------------------------

def test_dnf_split_products():
    f = and_(or_(In(x, y), In(y, x)), or_(In(x, z), In(z, x)))
    branches = list(dnf_split(f))
    assert branches == [
        [In(x, y), In(x, z)],
        [In(x, y), In(z, x)],
        [In(y, x), In(x, z)],
        [In(y, x), In(z, x)],
    ]


def test_dnf_split_rejects_extension_atoms():
    with pytest.raises(UnsupportedAtomError):
        dnf_split(Eq(x, ExtOp("pow", (y,))))


def test_split_disjuncts_is_theory_agnostic():
    f = or_(Eq(x, ExtOp("pow", (y,))), In(x, y))
    assert len(list(split_disjuncts(f))) == 2


def test_split_is_lazy():
    # 2^40 conjunctions in all; the first comes without building the rest.
    pairs = [(Var(f"a{i}"), Var(f"b{i}")) for i in range(40)]
    f = and_(*(or_(In(a, b), In(b, a)) for a, b in pairs))
    assert next(split_disjuncts(f)) == [In(a, b) for a, b in pairs]


_OUTSIDE = "atom outside the conjunctive set fragment"


@pytest.mark.parametrize(
    "lit, error, message",
    [
        (Leq(x, y), UnsupportedAtomError, f"{_OUTSIDE} (lra)"),
        (Not(Leq(x, y)), UnsupportedAtomError, f"{_OUTSIDE} (lra)"),
        (AtomPred(x), UnsupportedAtomError, f"{_OUTSIDE} (list)"),
        (Eq(x, ExtOp("single", (y,))), UnsupportedAtomError, f"{_OUTSIDE} (mls-ext)"),
        (
            Eq(x, SetOp("union", ListOp("cons", (y, z)), y)),
            MixedAtomError,
            "atom mixes list and set operators",
        ),
        (Eq(x, RationalConst(Fraction(1, 2))), UnsupportedAtomError, f"{_OUTSIDE} (lra)"),
        (In(ArithOp("plus", (x, y)), z), MixedAtomError, "atom mixes lra and set operators"),
        (Eq(x, ListOp("car", (y,))), UnsupportedAtomError, f"{_OUTSIDE} (list)"),
    ],
)
def test_normalize_names_the_theory_of_an_atom_outside_the_fragment(lit, error, message):
    # normalize classifies only the atoms it cannot flatten; the error is
    # the one classify_atom gives, after a set literal that normalizes.
    atom = lit.body if isinstance(lit, Not) else lit
    with pytest.raises(error) as caught:
        normalize([In(y, z), lit])
    assert type(caught.value) is error
    assert str(caught.value) == f"{message}: {atom!r}"


def test_normalize_formula_splits():
    ncs = [normalize(lits) for lits in dnf_split(or_(In(x, y), In(y, x)))]
    assert len(ncs) == 2


# witness plans ------------------------------------------------------------------

def test_apply_plan_extends_model():
    f = Not(Subset(x, y))
    nc, plan = normalize_with_plan([f])
    base = SetAssignment({"x": hf([hf()]), "y": hf()})
    assert eval_formula(f, base)
    full = apply_plan(plan, base)
    assert eval_formula(nc.to_formula(), full)
    assert full["x"] is base["x"] and full["y"] is base["y"]


def test_apply_plan_may_raise_rank():
    # a model of rank 1 can need rank 2 fresh values after rewriting
    f = Not(Eq(x, y))
    nc, plan = normalize_with_plan([f])
    base = SetAssignment({"x": hf(), "y": hf([hf()])})
    full = apply_plan(plan, base)
    assert eval_formula(nc.to_formula(), full)


ATOM_BUILDERS = [
    lambda a, b, c: In(a, b),
    lambda a, b, c: Eq(a, b),
    lambda a, b, c: Subset(a, b),
    lambda a, b, c: Eq(a, EMPTY),
    lambda a, b, c: Eq(a, SetOp("union", b, c)),
    lambda a, b, c: Eq(a, SetOp("inter", b, c)),
    lambda a, b, c: Eq(a, SetOp("setminus", b, c)),
    lambda a, b, c: Eq(a, SetOp("union", SetOp("inter", a, b), c)),
    lambda a, b, c: In(SetOp("setminus", a, b), c),
]


def _op_nodes(t):
    if isinstance(t, SetOp):
        return 1 + _op_nodes(t.left) + _op_nodes(t.right)
    return 0


def _atom_op_nodes(a):
    if isinstance(a, In) or isinstance(a, Eq) or isinstance(a, Subset):
        return _op_nodes(a.left) + _op_nodes(a.right)
    return 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, len(ATOM_BUILDERS) - 1), st.booleans(),
                  st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        min_size=1,
        max_size=4,
    )
)
def test_fresh_variable_growth_bound(picks):
    """Each literal introduces at most 10 fresh variables after flattening
    (the worst case is a negated union equality), plus at most three per
    operator node that had to be flattened out."""
    names = ["x", "y", "z"]
    lits = []
    allowance = 0
    for idx, neg, i, j, k in picks:
        atom = ATOM_BUILDERS[idx](Var(names[i]), Var(names[j]), Var(names[k]))
        # an equality keeps its top right-hand operator in place; everything
        # else is renamed apart before the rewrite rules run
        top_ops = 1 if isinstance(atom, Eq) and isinstance(atom.right, SetOp) else 0
        flatten_ops = _atom_op_nodes(atom) - top_ops
        allowance += 10 + 3 * flatten_ops
        lits.append(Not(atom) if neg else atom)
    nc = normalize(lits)
    base = {n for lit in lits for n in free_vars(lit)}
    fresh = [v for v in nc.vars if v not in base]
    assert len(fresh) <= allowance


def test_fresh_variable_worst_cases_pinned():
    x, y, z = Var("x"), Var("y"), Var("z")
    costs = {}
    for label, lit in [
        ("not-subset", Not(Subset(x, y))),
        ("not-eq-union", Not(Eq(x, SetOp("union", y, z)))),
        ("not-eq-inter", Not(Eq(x, SetOp("inter", y, z)))),
        ("not-eq-setminus", Not(Eq(x, SetOp("setminus", y, z)))),
        ("not-eq-var", Not(Eq(x, y))),
    ]:
        nc = normalize([lit])
        base = set(free_vars(lit))
        costs[label] = len([v for v in nc.vars if v not in base])
    assert costs == {
        "not-subset": 9,
        "not-eq-union": 10,
        "not-eq-inter": 9,
        "not-eq-setminus": 8,
        "not-eq-var": 7,
    }


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, len(ATOM_BUILDERS) - 1),
    st.booleans(),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_single_literal_equisatisfiable_with_plan(idx, neg, i, j, k):
    names = ["x", "y", "z"]
    atom = ATOM_BUILDERS[idx](Var(names[i]), Var(names[j]), Var(names[k]))
    lit = Not(atom) if neg else atom
    nc, plan = normalize_with_plan([lit])
    res = oracle_sat(lit, 2)
    if res.is_sat:
        # the plan turns any model of the input into a model of the output
        full = apply_plan(plan, res.model)
        assert eval_formula(nc.to_formula(), full)
        assert solve(nc).is_sat
    else:
        # the normal form has too many variables to brute force, so let the
        # decision procedure judge it; it must not invent models
        assert not oracle_sat(lit, 3).is_sat
        assert not solve(nc).is_sat
