"""The place/placement/junk decision procedure for normalized conjunctions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl.convexity import minimize_equalities, random_normalized_conjunction
from setsyl.errors import ResourceLimitError
from setsyl.formulas import Eq, In, Not, SetOp, Subset, Var
from setsyl.normalize import NormalizedConjunction, normalize
from setsyl.oracle import eval_formula, oracle_sat
from setsyl.solver import (
    Place,
    Sat,
    SolverWitness,
    Unsat,
    build_model,
    enumerate_places,
    implied_equalities,
    satisfies,
    solve,
)

x, y, z = Var("x"), Var("y"), Var("z")


# ---------------------------------------------------------------- places


def test_places_of_single_difference():
    nc = normalize([Eq(x, SetOp("setminus", y, z))])
    places = enumerate_places(nc)
    assert [p.sorted_trues() for p in places] == [
        (),
        ("z",),
        ("y", "z"),
        ("x", "y"),
    ]


def test_all_false_place_always_exists():
    nc = normalize([In(x, y), Eq(y, SetOp("setminus", z, x))])
    places = enumerate_places(nc)
    assert Place(frozenset()) in places


def test_places_of_empty_conjunction():
    places = enumerate_places(NormalizedConjunction())
    assert places == [Place(frozenset())]


def test_places_without_differences_are_all_valuations():
    nc = normalize([In(x, y)])
    places = enumerate_places(nc)
    assert len(places) == 4
    assert len(set(places)) == 4


def test_place_holds_and_repr():
    p = Place(frozenset({"b", "a"}))
    assert p.holds("a") and not p.holds("c")
    assert repr(p) == "Place({a, b})"


def test_enumerate_places_budget_trips():
    nc = normalize([In(x, y), In(y, z)])
    with pytest.raises(ResourceLimitError):
        enumerate_places(nc, budget=2)


# ----------------------------------------------------------------- solve


def test_single_membership_model_pinned():
    nc = normalize([In(x, y)])
    res = solve(nc)
    assert isinstance(res, Sat)
    assert res.model.to_strings() == {"x": "{}", "y": "{{}}"}
    assert satisfies(nc, res.model)


def test_witness_fields_describe_the_model():
    nc = normalize([In(x, y)])
    res = solve(nc)
    w = res.witness
    assert w.vars == ("x", "y")
    assert dict(w.sigma)["x"].holds("y")
    assert w.topo == ("x",)
    rebuilt = build_model(w)
    assert rebuilt == res.model


def test_membership_cycle_unsat():
    assert not solve(normalize([In(x, y), In(y, x)])).is_sat
    assert not solve(normalize([In(x, x)])).is_sat


def test_longer_membership_cycle_unsat():
    assert not solve(normalize([In(x, y), In(y, z), In(z, x)])).is_sat


def test_disequality_with_self_unsat():
    assert not solve(normalize([Not(Eq(x, x))])).is_sat


def test_member_of_empty_unsat():
    # x = x minus x forces x empty, so nothing can be placed inside it
    nc = NormalizedConjunction(memberships=[("y", "x")], differences=[("x", "x", "x")])
    assert not solve(nc).is_sat


def test_extensionality_is_respected():
    # y and z have the same members, so x in y but not x in z is impossible
    phi = [
        Eq(y, SetOp("setminus", z, SetOp("setminus", z, z))),
        In(x, y),
        Not(In(x, z)),
    ]
    assert not solve(normalize(phi)).is_sat


def test_subset_pair_sat_and_verified():
    nc = normalize([Subset(x, y), In(z, x)])
    res = solve(nc)
    assert res.is_sat
    assert satisfies(nc, res.model)
    assert eval_formula(nc.to_formula(), res.model)


def test_solve_is_deterministic():
    nc = normalize([Subset(x, y), In(z, x), Not(Eq(x, y))])
    a = solve(nc)
    b = solve(nc)
    assert a.model.to_strings() == b.model.to_strings()
    assert a.witness == b.witness


def test_junk_separates_otherwise_equal_sets():
    # x in y and x in z alone must not force y = z in the found model
    nc = normalize([In(x, y), In(x, z), Not(Eq(y, z))])
    res = solve(nc)
    assert res.is_sat
    assert res.model["y"] is not res.model["z"]


def test_junk_tags_share_one_rank_whatever_their_count():
    a = Place(frozenset({"a"}))
    ranks = set()
    for count in (2, 2000):
        w = SolverWitness(
            vars=("a", "b", "c"),
            sigma=(),
            junk=tuple((a, i) for i in range(count)),
            topo=(),
        )
        tags = build_model(w)["a"].children
        assert len(tags) == count
        ranks |= {t.rank for t in tags}
    assert len(ranks) == 1
    assert ranks.pop() > len(w.vars) + 3


def test_solve_budget_trips():
    nc = normalize([Subset(x, y), Subset(y, z), Not(Eq(x, z))])
    with pytest.raises(ResourceLimitError):
        solve(nc, budget=3)


def test_solve_unbounded_budget():
    assert solve(normalize([In(x, y)]), budget=None).is_sat


def test_satisfies_rejects_tampered_model():
    nc = normalize([In(x, y)])
    res = solve(nc)
    bad = res.model.extended("x", res.model["y"])
    assert not satisfies(nc, bad)


def test_sat_unsat_flags():
    assert Sat.is_sat.fget is not None
    assert solve(normalize([In(x, y)])).is_sat is True
    assert Unsat().is_sat is False


# ------------------------------------------------ cycles and components


def test_hidden_membership_cycle_is_refuted_before_any_place():
    # 12 variables, one component; places alone would cost thousands of steps
    nc = NormalizedConjunction(
        memberships=[("a", "b"), ("p", "q"), ("b", "c"), ("r", "s"), ("c", "a")],
        differences=[("q", "a", "r"), ("s", "t", "u"), ("u", "v", "w"), ("w", "k", "c")],
    )
    assert len(nc.vars) >= 10
    assert solve(nc, budget=1) == Unsat()


def test_twelve_independent_memberships_are_sat():
    nc = NormalizedConjunction([(f"x{i}", f"y{i}") for i in range(12)])
    res = solve(nc)
    assert res.is_sat
    assert satisfies(nc, res.model)
    assert eval_formula(nc.to_formula(), res.model)
    assert build_model(res.witness) == res.model
    assert res.witness.vars == nc.vars
    assert res.witness.topo == tuple(f"x{i}" for i in range(12))


def test_components_share_one_budget():
    parts = [NormalizedConjunction([(f"x{i}", f"y{i}")]) for i in range(6)]
    whole = NormalizedConjunction([m for p in parts for m in p.memberships])
    for part in parts:
        assert solve(part, budget=20).is_sat
    with pytest.raises(ResourceLimitError):
        solve(whole, budget=20)


def test_enumerate_places_lists_each_component_in_turn():
    nc = NormalizedConjunction([("x", "y"), ("a", "b")])
    places = enumerate_places(nc)
    assert [p.sorted_trues() for p in places] == [
        (), ("y",), ("x",), ("x", "y"), (), ("b",), ("a",), ("a", "b")
    ]


def _renamed(nc, name):
    return NormalizedConjunction(
        [tuple(map(name, m)) for m in nc.memberships],
        [tuple(map(name, d)) for d in nc.differences],
    )


def _joined(parts):
    return NormalizedConjunction(
        [m for p in parts for m in p.memberships],
        [d for p in parts for d in p.differences],
    )


# (variable count, literal count, seed) of each part, drawn the way
# random_normalized_conjunction draws fuzz conjunctions
_part_specs = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32)),
    min_size=2,
    max_size=3,
)


@settings(max_examples=120, deadline=None)
@given(_part_specs, st.randoms(use_true_random=False))
def test_disjoint_parts_solve_as_their_conjunction(specs, rnd):
    parts = [
        _renamed(
            random_normalized_conjunction(random.Random(seed), nvars, nlits),
            lambda v, i=i: f"{v}{i}",
        )
        for i, (nvars, nlits, seed) in enumerate(specs)
    ]
    whole = _joined(parts)
    res = solve(whole)
    assert res.is_sat == all(solve(p).is_sat for p in parts)
    if len(whole.vars) <= 4:
        assert oracle_sat(whole.to_formula(), 2).is_sat <= res.is_sat
    if res.is_sat:
        assert satisfies(whole, res.model)
        assert eval_formula(whole.to_formula(), res.model)
        assert build_model(res.witness) == res.model

    # metamorphic: permuted literals and renamed variables keep the verdict
    mems, diffs = list(whole.memberships), list(whole.differences)
    rnd.shuffle(mems)
    rnd.shuffle(diffs)
    fresh = [f"v{k}" for k in range(len(whole.vars))]
    rnd.shuffle(fresh)
    rename = dict(zip(whole.vars, fresh))
    moved = _renamed(NormalizedConjunction(mems, diffs), rename.__getitem__)
    again = solve(moved)
    assert again.is_sat == res.is_sat
    if again.is_sat:
        assert satisfies(moved, again.model)


# ------------------------------------------------------ implied equalities


def test_implied_equalities_from_mutual_subset():
    nc = normalize([Subset(x, y), Subset(y, x)])
    assert implied_equalities(nc, [("x", "y")]) == (("x", "y"),)


def test_implied_equalities_negative():
    nc = normalize([Subset(x, y)])
    assert implied_equalities(nc, [("x", "y")]) == ()


def test_implied_equalities_mixed_pairs():
    phi = [
        Eq(x, SetOp("setminus", y, z)),
        Eq(z, SetOp("setminus", z, z)),
    ]
    nc = normalize(phi)
    # z is empty, so x = y minus z = y; but z = x only if y is empty too
    got = implied_equalities(nc, [("x", "y"), ("x", "z")])
    assert got == (("x", "y"),)


def test_implied_equalities_budget_passthrough():
    nc = normalize([Subset(x, y), Subset(y, x)])
    with pytest.raises(ResourceLimitError):
        implied_equalities(nc, [("x", "y")], budget=2)


def _probe_implied(nc, pairs):
    """Reference: the pairs (a, b) for which nc together with a != b is unsat."""
    return tuple(
        (a, b)
        for a, b in pairs
        if not solve(normalize(nc.literals() + [Not(Eq(Var(a), Var(b)))])).is_sat
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 4), st.integers(0, 6))
def test_signature_rule_matches_probes_and_minimization(seed, nvars, nlits):
    nc = random_normalized_conjunction(random.Random(seed), nvars, nlits)
    # every pair over nc's variables and one it does not mention, x = x included
    names = list(nc.vars) + ["z"]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]
    implied = implied_equalities(nc, pairs)
    assert implied == _probe_implied(nc, pairs)
    assert minimize_equalities(nc, pairs)[1].implied_pairs() == implied

    res = solve(nc)
    if res.is_sat:
        # The maximal-junk build of the found placement is a model that
        # separates exactly the pairs that are not implied.
        w = res.witness
        junk = tuple((p, i) for p in enumerate_places(nc) for i in range(2))
        full = build_model(SolverWitness(w.vars, w.sigma, junk, w.topo))
        assert satisfies(nc, full)
        mentioned = [(a, b) for a, b in pairs if "z" not in (a, b)]
        assert tuple((a, b) for a, b in mentioned if full[a] == full[b]) == tuple(
            pair for pair in implied if "z" not in pair
        )


# ------------------------------------------------------- random agreement


_atoms = st.tuples(
    st.sampled_from(["mem", "diff"]),
    st.sampled_from(["x", "y", "z"]),
    st.sampled_from(["x", "y", "z"]),
    st.sampled_from(["x", "y", "z"]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_atoms, min_size=1, max_size=4))
def test_random_conjunctions_agree_with_oracle(picks):
    mems = [(a, b) for kind, a, b, _ in picks if kind == "mem"]
    diffs = [(a, b, c) for kind, a, b, c in picks if kind == "diff"]
    nc = NormalizedConjunction(memberships=mems, differences=diffs)
    res = solve(nc)
    if res.is_sat:
        assert satisfies(nc, res.model)
        assert eval_formula(nc.to_formula(), res.model)
    else:
        # exhaustion claims no model at any rank; spot check the small ranks
        assert not oracle_sat(nc.to_formula(), 2).is_sat
