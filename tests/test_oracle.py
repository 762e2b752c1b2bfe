"""Rank-bounded exhaustive model search and formula evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl.errors import ResourceLimitError, UnboundVariableError
from setsyl.formulas import (
    EMPTY,
    Eq,
    ExtOp,
    In,
    Not,
    SetOp,
    Subset,
    Var,
    and_,
    or_,
)
from setsyl.hf import SetAssignment, enumerate_universe, hf, is_subset
from setsyl.oracle import (
    BoundedSat,
    bounded_models,
    eval_formula,
    eval_term,
    nonconvexity_schema,
    oracle_implies,
    oracle_sat,
)

x, y, z = Var("x"), Var("y"), Var("z")
E = hf()
S1 = hf([E])


def test_eval_term_core_operators():
    m = SetAssignment({"x": S1, "y": hf([E, S1])})
    assert eval_term(SetOp("union", x, y), m) is hf([E, S1])
    assert eval_term(SetOp("inter", x, y), m) is S1
    assert eval_term(SetOp("setminus", y, x), m) is hf([S1])
    assert eval_term(EMPTY, m) is E


def test_eval_term_extension_operators():
    m = SetAssignment({"x": S1, "y": hf([E, S1])})
    assert eval_term(ExtOp("single", (x,)), m) is hf([S1])
    assert eval_term(ExtOp("pow", (x,)), m) is hf([E, S1])
    assert eval_term(ExtOp("bigU", (y,)), m) is S1
    assert len(eval_term(ExtOp("cross", (y, y)), m)) == 4
    assert len(eval_term(ExtOp("ucross", (y, y)), m)) == 3


def test_eval_unbound_variable_raises():
    with pytest.raises(UnboundVariableError):
        eval_formula(In(x, y), SetAssignment({"x": E}))


def test_oracle_sat_finds_model_and_reverifies():
    f = and_(In(x, y), Subset(y, z))
    res = oracle_sat(f, 3)
    assert res.is_sat
    assert eval_formula(f, res.model)
    assert res.model["x"] in res.model["y"]


def test_oracle_sat_reports_unsat_within_bound():
    res = oracle_sat(and_(In(x, y), Eq(y, EMPTY)), 3)
    assert not res.is_sat
    assert res.rank_bound == 3


def test_membership_cycle_has_no_hf_model():
    f = and_(In(x, y), In(y, x))
    assert not oracle_sat(f, 3).is_sat


def test_bounded_models_exhaustive_count():
    # x subset y over rank 2: pairs with x below y in the 4-set universe
    u = enumerate_universe(2)
    expected = sum(1 for a in u for b in u if is_subset(a, b))
    got = list(bounded_models(Subset(x, y), 2))
    assert len(got) == expected
    assert len(set((m["x"], m["y"]) for m in got)) == expected


def test_bounded_models_deterministic_order():
    a = [m.to_strings() for m in bounded_models(Subset(x, y), 2)]
    b = [m.to_strings() for m in bounded_models(Subset(x, y), 2)]
    assert a == b


def test_pruned_search_over_a_huge_space_finds_a_model():
    # 16^16 assignments, but scheduling prunes each membership at once.
    f = and_(*[In(Var(f"v{i}"), Var(f"w{i}")) for i in range(8)])
    res = oracle_sat(f, 3)
    assert isinstance(res, BoundedSat)
    assert eval_formula(f, res.model)


def test_oracle_budget_exhaustion_names_layer_and_count():
    # Each expanded node is charged for all 16 values of the rank-3 universe.
    f = and_(In(x, y), In(y, z), Not(Eq(x, z)))
    with pytest.raises(ResourceLimitError) as caught:
        list(bounded_models(f, 3, budget=40))
    err = caught.value
    assert (err.layer, err.count, err.limit) == ("searching bounded models", 48, 40)
    assert str(err) == (
        "budget of 40 steps exhausted while searching bounded models (48 steps reached)"
    )
    with pytest.raises(ResourceLimitError):
        oracle_implies(f, Eq(x, y), 3, 40)


def test_oracle_implies_positive_and_negative():
    imp = oracle_implies(Eq(x, SetOp("inter", y, y)), Eq(x, y), 3)
    assert imp.implied
    cex = oracle_implies(Subset(x, y), Eq(x, y), 3)
    assert not cex.implied
    assert eval_formula(Subset(x, y), cex.model)
    assert not eval_formula(Eq(x, y), cex.model)


def test_nonconvexity_schema_shape():
    phi = Eq(x, ExtOp("pow", (y,)))
    big, pairs = nonconvexity_schema(phi, "x", 2)
    names = {n for p in pairs for n in p}
    assert len(pairs) == 3
    assert names == {"_m1", "_m2", "_m3"}
    assert oracle_sat(big, 3).is_sat is True
    # fresh names count on past the largest _m index phi already uses
    _, pairs = nonconvexity_schema(Eq(x, ExtOp("pow", (Var("_m2"),))), "x", 2)
    assert {n for p in pairs for n in p} == {"_m3", "_m4", "_m5"}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_subset_matches_evaluated_definition(i, j):
    u = enumerate_universe(2)
    m = SetAssignment({"x": u[i], "y": u[j]})
    lhs = eval_formula(Subset(x, y), m)
    rhs = all(c in u[j] for c in u[i])
    assert lhs == rhs
