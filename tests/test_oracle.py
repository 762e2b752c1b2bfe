"""Rank-bounded exhaustive model search and formula evaluation."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl.errors import ResourceLimitError, UnboundVariableError, UnsupportedAtomError
from setsyl.formulas import (
    EMPTY,
    And,
    ArithOp,
    AtomPred,
    Eq,
    ExtOp,
    In,
    Leq,
    Not,
    Or,
    SetOp,
    Subset,
    Var,
    and_,
    conjuncts,
    free_vars,
    is_atom,
    or_,
)
from setsyl.hf import enumerate_universe, hf, is_subset, to_strings
from setsyl.oracle import (
    bounded_models,
    eval_formula,
    eval_term,
    nonconvexity_schema,
    oracle_implies,
    oracle_sat,
)
from test_hf import _reference_key

x, y, z = Var("x"), Var("y"), Var("z")
E = hf()
S1 = hf([E])


def test_eval_term_core_operators():
    m = {"x": S1, "y": hf([E, S1])}
    assert eval_term(SetOp("union", x, y), m) is hf([E, S1])
    assert eval_term(SetOp("inter", x, y), m) is S1
    assert eval_term(SetOp("setminus", y, x), m) is hf([S1])
    assert eval_term(EMPTY, m) is E


def test_eval_term_extension_operators():
    m = {"x": S1, "y": hf([E, S1])}
    assert eval_term(ExtOp("single", (x,)), m) is hf([S1])
    assert eval_term(ExtOp("pow", (x,)), m) is hf([E, S1])
    assert eval_term(ExtOp("bigU", (y,)), m) is S1
    assert len(eval_term(ExtOp("cross", (y, y)), m)) == 4
    assert len(eval_term(ExtOp("ucross", (y, y)), m)) == 3


def test_eval_unbound_variable_raises():
    with pytest.raises(UnboundVariableError):
        eval_formula(In(x, y), {"x": E})
    with pytest.raises(UnboundVariableError):
        eval_term(SetOp("union", x, ExtOp("pow", (z,))), {"x": E})
    with pytest.raises(UnboundVariableError):
        eval_formula(Not(Or((Eq(x, EMPTY), Subset(z, x)))), {"x": S1})


def test_eval_refuses_what_is_not_a_set_atom():
    m = {"x": E, "y": S1}
    for atom in (Leq(x, y), AtomPred(x), Not(Leq(x, y))):
        with pytest.raises(UnsupportedAtomError, match="not a set-theoretic atom"):
            eval_formula(atom, m)
    for other in (x, EMPTY, SetOp("union", x, y)):
        with pytest.raises(UnsupportedAtomError, match="not an atom"):
            eval_formula(other, m)
    with pytest.raises(UnsupportedAtomError, match="not a set term"):
        eval_formula(Eq(x, ArithOp("neg", (y,))), m)


def test_big_intersection_of_the_empty_set_makes_its_atom_false():
    big_x = ExtOp("bigI", (x,))
    for y_value in (E, S1):
        m = {"x": E, "y": y_value}
        assert not eval_formula(Eq(big_x, y), m)
        assert eval_formula(Not(Eq(big_x, y)), m)
    assert eval_formula(Eq(big_x, EMPTY), {"x": S1})


def test_oracle_sat_finds_model_and_reverifies():
    f = and_(In(x, y), Subset(y, z))
    res = oracle_sat(f, 3)
    assert res.is_sat
    assert eval_formula(f, res.model)
    assert res.model["x"] in res.model["y"]


def test_oracle_sat_reports_unsat_within_bound():
    res = oracle_sat(and_(In(x, y), Eq(y, EMPTY)), 3)
    assert not res.is_sat


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
    a = [to_strings(m) for m in bounded_models(Subset(x, y), 2)]
    b = [to_strings(m) for m in bounded_models(Subset(x, y), 2)]
    assert a == b


def test_pruned_search_over_a_huge_space_finds_a_model():
    # 16^16 assignments, but scheduling prunes each membership at once.
    f = and_(*[In(Var(f"v{i}"), Var(f"w{i}")) for i in range(8)])
    res = oracle_sat(f, 3)
    assert res.is_sat
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


def _random_term(rng, names, depth):
    r = rng.random()
    if depth == 0 or r < 0.45:
        return EMPTY if r < 0.03 else Var(rng.choice(names))
    if r < 0.75:
        op = rng.choice(("union", "inter", "setminus"))
        return SetOp(op, _random_term(rng, names, depth - 1), _random_term(rng, names, depth - 1))
    # bigI of a variable can meet the empty set, which makes its atom false
    op = rng.choice(("single", "pow", "bigU", "bigI"))
    return ExtOp(op, (_random_term(rng, names, depth - 1),))


def _random_formula(rng, names, depth):
    r = rng.random()
    if depth == 0 or r < 0.35:
        atom = rng.choice((In, Eq, Subset))
        return atom(_random_term(rng, names, 2), _random_term(rng, names, 2))
    if r < 0.6:
        return Not(_random_formula(rng, names, depth - 1))
    parts = tuple(_random_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3)))
    return rng.choice((And, Or))(parts)


def nnf(f):
    """Reference: negation normal form, negations directly on atoms, as the
    formulas module once built it for the disjunction split."""
    if is_atom(f):
        return f
    if isinstance(f, Not):
        body = f.body
        if is_atom(body):
            return f
        if isinstance(body, Not):
            return nnf(body.body)
        if isinstance(body, And):
            return Or(tuple(nnf(Not(p)) for p in body.parts))
        if isinstance(body, Or):
            return And(tuple(nnf(Not(p)) for p in body.parts))
        raise TypeError(f"not a formula: {body!r}")
    if isinstance(f, And):
        return And(tuple(nnf(p) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(nnf(p) for p in f.parts))
    raise TypeError(f"not a formula: {f!r}")


def _reference_schedule(f):
    """Reference: the schedule as first written, over conjuncts(nnf(f)),
    scoring every candidate afresh at each depth by (completes, touches),
    ties to the first occurrence."""
    parts = conjuncts(nnf(f))
    todo = list(free_vars(f))
    bit = {v: 1 << i for i, v in enumerate(todo)}
    masks = [sum(bit[v] for v in free_vars(p)) for p in parts]
    ground = [p for p, m in zip(parts, masks) if not m]
    pending = [i for i, m in enumerate(masks) if m]
    order, checks, bound = [], [], 0
    while todo:
        left = [masks[i] & ~bound for i in pending]
        best = min(todo, key=lambda v: (-left.count(bit[v]), -sum(1 for m in left if m & bit[v])))
        todo.remove(best)
        bound |= bit[best]
        order.append(best)
        checks.append([parts[i] for i in pending if not masks[i] & ~bound])
        pending = [i for i in pending if masks[i] & ~bound]
    return order, checks, ground


def _reference_search(f, universe):
    """The models of f under the reference schedule, in search order, and
    the number of nodes the search expands."""
    order, checks, ground = _reference_schedule(f)
    models, nodes, partial = [], 0, {}
    if not all(eval_formula(g, {}) for g in ground):
        return models, nodes

    def descend(depth):
        nonlocal nodes
        if depth == len(order):
            models.append(tuple(partial[v] for v in sorted(partial)))
            return
        nodes += 1
        for value in universe:
            partial[order[depth]] = value
            if all(eval_formula(c, partial) for c in checks[depth]):
                descend(depth + 1)
        del partial[order[depth]]

    descend(0)
    return models, nodes


def test_bounded_models_match_generate_and_test_and_the_reference_schedule():
    rng = random.Random(1503)
    universe = enumerate_universe(2)
    nonempty = 0
    for _ in range(300):
        names = ["x", "y", "z", "w"][: rng.randint(2, 4)]
        parts = [_random_formula(rng, names, 3) for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.3:  # a double negation over a conjunction
            parts.append(Not(Not(And(tuple(parts[:2])))))
        f = And(tuple(parts))
        fv = sorted(free_vars(f))
        admitted = [vals for vals in product(universe, repeat=len(fv))
                    if eval_formula(f, dict(zip(fv, vals)))]
        got = [tuple(m[v] for v in fv) for m in bounded_models(f, 2)]
        assert sorted(got, key=lambda t: [_reference_key(u) for u in t]) == admitted
        models, nodes = _reference_search(f, universe)
        assert got == models
        # the same nodes are expanded: the budget runs out exactly on the last
        steps = nodes * len(universe)
        assert len(list(bounded_models(f, 2, budget=steps))) == len(got)
        if nodes:
            with pytest.raises(ResourceLimitError) as caught:
                list(bounded_models(f, 2, budget=steps - 1))
            assert caught.value.count == steps
        nonempty += bool(got)
    assert 30 < nonempty < 270


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
    m = {"x": u[i], "y": u[j]}
    lhs = eval_formula(Subset(x, y), m)
    rhs = all(c in u[j] for c in u[i])
    assert lhs == rhs
