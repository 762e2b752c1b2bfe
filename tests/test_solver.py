"""The place/placement/junk decision procedure for normalized conjunctions."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl import solver
from setsyl.convexity import minimize_equalities, pad_vars, random_normalized_conjunction
from setsyl.errors import DEFAULT_BUDGET, Budget, ResourceLimitError
from setsyl.formulas import EMPTY, Eq, In, Not, SetOp, Subset, Var, and_
from setsyl.hf import hf, to_strings
from setsyl.normalize import NormalizedConjunction, normalize, split_disjuncts
from setsyl.oracle import eval_formula, oracle_sat
from setsyl.sexpr import parse_script
from setsyl.solver import (
    _FORCES,
    Sat,
    SolverWitness,
    Unsat,
    _components,
    _decide,
    _Decision,
    _Engine,
    _group,
    _search,
    _junk_tags,
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
    assert [tuple(sorted(p)) for p in places] == [
        (),
        ("z",),
        ("y", "z"),
        ("x", "y"),
    ]


def test_all_false_place_always_exists():
    nc = normalize([In(x, y), Eq(y, SetOp("setminus", z, x))])
    places = enumerate_places(nc)
    assert frozenset() in places


def test_places_of_empty_conjunction():
    places = enumerate_places(NormalizedConjunction())
    assert places == [frozenset()]


def test_places_without_differences_are_all_valuations():
    nc = normalize([In(x, y)])
    places = enumerate_places(nc)
    assert len(places) == 4
    assert len(set(places)) == 4


def test_enumerate_places_budget_trips():
    nc = normalize([In(x, y), In(y, z)])
    with pytest.raises(ResourceLimitError) as caught:
        enumerate_places(nc, budget=2)
    err = caught.value
    assert (err.layer, err.count, err.limit) == ("enumerating places", 3, 2)
    assert "enumerating places" in str(err) and "3 steps" in str(err)


def test_difference_rules_force_what_every_completion_agrees_on():
    # For each of the 27 partial valuations of (x, y, z), coded 0 (False),
    # 1 (True) or 2 (unset), the entry at 9x + 3y + z is None exactly when
    # no completion satisfies x <-> y & ~z, and otherwise forces exactly
    # the unset slots on which all completions agree.
    assert len(_FORCES) == 27
    for known in product((0, 1, 2), repeat=3):
        entry = _FORCES[9 * known[0] + 3 * known[1] + known[2]]
        fits = [
            v
            for v in product((0, 1), repeat=3)
            if v[0] == (v[1] and not v[2])
            and all(k == 2 or k == b for k, b in zip(known, v))
        ]
        if not fits:
            assert entry is None
            continue
        agreed = {
            (s, fits[0][s])
            for s in range(3)
            if known[s] == 2 and all(f[s] == fits[0][s] for f in fits)
        }
        assert entry is not None and len(entry) == len(agreed)
        assert set(entry) == agreed


def _hand_written_rules():
    """Reference: the unit rules of x <-> y & ~z as first written, five
    rules, each entry's forced pairs in the order the rules name them."""
    table = []
    for known in product((0, 1, 2), repeat=3):
        x, y, z = known
        need = []
        if y == 0 or z == 1:
            need.append((0, 0))
        if y == 1 and z == 0:
            need.append((0, 1))
        if x == 1:
            need += [(1, 1), (2, 0)]
        if x == 0 and y == 1:
            need.append((2, 1))
        if x == 0 and z == 0:
            need.append((1, 0))
        if any(known[s] != 2 and known[s] != c for s, c in need):
            table.append(None)
        else:
            table.append(tuple(dict.fromkeys((s, c) for s, c in need if known[s] == 2)))
    return tuple(table)


def test_derived_difference_rules_equal_the_hand_written_ones():
    # entry for entry, and each entry's pairs in the same order, so the
    # engine sets the same slots in the same order as before
    assert _FORCES == _hand_written_rules()
    assert sum(entry is None for entry in _FORCES) == 6


def _enumerate_places_by_testing(nc, budget):
    """Reference: branch on every variable in vars order, False first, and
    check each difference once its last variable is set."""
    order = nc.vars
    pos = {v: i for i, v in enumerate(order)}
    by_last = [[] for _ in order]
    for d in nc.differences:
        by_last[max(pos[v] for v in d)].append(d)
    out = []
    val = {}

    def rec(i):
        budget.spend("enumerating places")
        if i == len(order):
            out.append(frozenset(v for v in order if val[v]))
            return
        for b in (False, True):
            val[order[i]] = b
            if all(val[x] == (val[y] and not val[z]) for x, y, z in by_last[i]):
                rec(i + 1)
        del val[order[i]]

    rec(0)
    return out


def _assert_places_match_generate_and_test(nc):
    for part in _components(nc):
        new, old = Budget(10**9), Budget(10**9)
        assert list(_Engine(part, new).places()) == _enumerate_places_by_testing(part, old)
        assert new.left >= old.left  # no more nodes visited


_names = st.sampled_from(["x", "y", "z", "w", "v"])
_terms = st.recursive(
    st.one_of(_names.map(Var), st.just(EMPTY)),
    lambda t: st.builds(SetOp, st.sampled_from(["union", "inter", "setminus"]), t, t),
    max_leaves=3,
)
_script_literals = st.tuples(
    st.sampled_from([In, Eq, Subset]), st.booleans(), _terms, _terms
).map(lambda a: Not(a[0](a[2], a[3])) if a[1] else a[0](a[2], a[3]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7), st.integers(0, 10))
def test_places_match_generate_and_test_on_random_conjunctions(seed, nvars, nlits):
    _assert_places_match_generate_and_test(
        random_normalized_conjunction(random.Random(seed), nvars, nlits)
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(_script_literals, min_size=1, max_size=4))
def test_places_match_generate_and_test_on_normalized_scripts(lits):
    _assert_places_match_generate_and_test(normalize(lits))


# ----------------------------------------------------------------- solve


def test_single_membership_model_pinned():
    nc = normalize([In(x, y)])
    res = solve(nc)
    assert isinstance(res, Sat)
    assert to_strings(res.model) == {"x": "{}", "y": "{{}}"}
    assert satisfies(nc, res.model)


def test_witness_fields_describe_the_model():
    nc = normalize([In(x, y)])
    res = solve(nc)
    w = res.witness
    assert w.vars == ("x", "y")
    assert "y" in dict(w.sigma)["x"]
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
    assert to_strings(a.model) == to_strings(b.model)
    assert a.witness == b.witness


def test_junk_separates_otherwise_equal_sets():
    # x in y and x in z alone must not force y = z in the found model
    nc = normalize([In(x, y), In(x, z), Not(Eq(y, z))])
    res = solve(nc)
    assert res.is_sat
    assert res.model["y"] is not res.model["z"]


def test_junk_tags_share_one_rank_whatever_their_count():
    a = frozenset({"a"})
    ranks = set()
    for count in (2, 2000):
        w = SolverWitness(
            vars=("a", "b", "c"),
            sigma=(),
            junk=(a,) * count,
            topo=(),
        )
        tags = build_model(w)["a"].children
        assert len(tags) == count
        ranks |= {t.rank for t in tags}
    assert len(ranks) == 1
    assert ranks.pop() > len(w.vars) + 3


def _build_model_naively(w):
    """Reference: each variable's value, from a scan of all of topo and junk."""
    sig = dict(w.sigma)
    tags = _junk_tags(len(w.vars), len(w.junk))
    vals = {}
    placed = set(w.topo)
    for v in list(w.topo) + [v for v in w.vars if v not in placed]:
        members = [vals[u] for u in w.topo if v in sig[u]]
        members += [t for t, p in zip(tags, w.junk) if v in p]
        vals[v] = hf(members)
    return vals


def test_build_model_matches_naive_build_on_two_thousand_components():
    # x_i in y_i, each i its own component; x_i != z_i on a few of them,
    # z_i a free component of its own, needs junk (the junk-free build
    # makes both empty), so the witness carries both element values and
    # tags.
    lits = [In(Var(f"x{i}"), Var(f"y{i}")) for i in range(2000)]
    lits += [Not(Eq(Var(f"x{i}"), Var(f"z{i}"))) for i in range(0, 2000, 500)]
    nc = normalize(lits)
    res = solve(nc)
    assert res.is_sat and len(res.witness.junk) == 4
    assert len(_components(nc)) == 2004
    built = build_model(res.witness)
    assert built == res.model
    naive = _build_model_naively(res.witness)
    assert built == naive and list(built) == list(naive)


def test_solve_budget_trips():
    nc = normalize([Subset(x, y), Subset(y, z), Not(Eq(x, z))])
    with pytest.raises(ResourceLimitError):
        solve(nc, budget=3)


def test_solve_unbounded_budget():
    assert solve(normalize([In(x, y)]), budget=None).is_sat


def test_satisfies_rejects_tampered_model():
    nc = normalize([In(x, y)])
    res = solve(nc)
    bad = {**res.model, "x": res.model["y"]}
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


def test_twelve_independent_memberships_are_sat(monkeypatch):
    nc = NormalizedConjunction([(f"x{i}", f"y{i}") for i in range(12)])
    builds = []
    build = solver.build_model
    monkeypatch.setattr(solver, "build_model", lambda w: builds.append(w) or build(w))
    res = solve(nc)
    monkeypatch.undo()
    # the twelve components share one junk-free build, which verifies
    assert len(builds) == 1
    assert res.is_sat
    assert satisfies(nc, res.model)
    assert eval_formula(nc.to_formula(), res.model)
    assert build_model(res.witness) == res.model
    assert res.witness.vars == nc.vars
    assert res.witness.topo == tuple(f"x{i}" for i in range(12))


def test_components_share_one_budget():
    # each part alone spends 2 steps (one peel node and the build), the
    # whole 7 (six peel nodes and one build)
    parts = [NormalizedConjunction([(f"x{i}", f"y{i}")]) for i in range(6)]
    whole = NormalizedConjunction([m for p in parts for m in p.memberships])
    for part in parts:
        assert solve(part, budget=6).is_sat
    with pytest.raises(ResourceLimitError):
        solve(whole, budget=6)


def test_components_are_nc_restricted_to_their_names():
    # Random conjunctions with up to two disequalities, over their own names
    # and a name "v" of no other literal.  A connected conjunction whose
    # disequalities name no other variable is one component.
    rng = random.Random("components")
    connected = 0
    for _ in range(600):
        base = random_normalized_conjunction(rng, rng.randint(1, 5), rng.randint(1, 7))
        names = base.vars + ("v",)
        pairs = [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 2))]
        nc = NormalizedConjunction(base.memberships, base.differences, pairs)
        comps = _components(nc)
        assert sorted(v for c in comps for v in c.vars) == sorted(nc.vars)
        firsts = [nc.vars.index(c.vars[0]) for c in comps]
        assert firsts == sorted(firsts)
        for c in comps:
            mine = set(c.vars)
            assert c.disequalities == ()
            assert c.memberships == tuple(m for m in nc.memberships if set(m) <= mine)
            assert c.differences == tuple(d for d in nc.differences if set(d) <= mine)
            assert c.vars == tuple(v for v in nc.vars if v in mine)
        if nc.disequalities and len(comps) == 1 and "v" not in nc.vars:
            connected += 1
    assert connected > 50


def test_enumerate_places_lists_each_component_in_turn():
    nc = NormalizedConjunction([("x", "y"), ("a", "b")])
    places = enumerate_places(nc)
    assert [tuple(sorted(p)) for p in places] == [
        (), ("y",), ("x",), ("x", "y"), (), ("b",), ("a",), ("a", "b")
    ]


def _renamed(nc, name):
    return NormalizedConjunction(
        [tuple(map(name, m)) for m in nc.memberships],
        [tuple(map(name, d)) for d in nc.differences],
        [tuple(map(name, q)) for q in nc.disequalities],
    )


def _joined(parts):
    return NormalizedConjunction(
        [m for p in parts for m in p.memberships],
        [d for p in parts for d in p.differences],
        [q for p in parts for q in p.disequalities],
    )


# (variable count, literal count, seed) of each part, drawn the way
# random_normalized_conjunction draws fuzz conjunctions
_part_specs = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32)),
    min_size=2,
    max_size=3,
)


def _renamed_draws(specs):
    """One random_normalized_conjunction draw per spec, part i's names
    suffixed with i."""
    return [
        _renamed(
            random_normalized_conjunction(random.Random(seed), nvars, nlits),
            lambda v, i=i: f"{v}{i}",
        )
        for i, (nvars, nlits, seed) in enumerate(specs)
    ]


@settings(max_examples=120, deadline=None)
@given(_part_specs, st.randoms(use_true_random=False))
def test_disjoint_parts_solve_as_their_conjunction(specs, rnd):
    parts = _renamed_draws(specs)
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


def in_classes(classes, pairs):
    """The pairs, in their order, that an implied_equalities answer makes
    equal: a name with itself, or two names of one class.

    Also checks the answer's shape against the order in which the names
    first occur in pairs: every class has two or more names, no name is in
    two classes, and members and classes (by first member) come in that
    order.
    """
    order = {v: i for i, v in enumerate(dict.fromkeys(v for pair in pairs for v in pair))}
    flat = [v for c in classes for v in c]
    assert all(len(c) > 1 for c in classes) and len(set(flat)) == len(flat)
    assert all(c == sorted(c, key=order.__getitem__) for c in classes)
    assert [c[0] for c in classes] == sorted((c[0] for c in classes), key=order.__getitem__)
    head = {v: c[0] for c in classes for v in c}
    return tuple((a, b) for a, b in pairs if head.get(a, a) == head.get(b, b))


def _implied(nc, pairs, budget=DEFAULT_BUDGET):
    """The pairs implied_equalities over the pairs' names makes equal."""
    names = [v for pair in pairs for v in pair]
    return in_classes(implied_equalities(nc, names, budget), pairs)


def test_implied_equalities_from_mutual_subset():
    nc = normalize([Subset(x, y), Subset(y, x)])
    assert implied_equalities(nc, ["x", "y"]) == [["x", "y"]]


def test_implied_equalities_negative():
    nc = normalize([Subset(x, y)])
    assert implied_equalities(nc, ["x", "y"]) == []


def test_implied_equalities_of_an_unsat_conjunction_are_one_class():
    nc = normalize([In(x, y), In(y, x)])
    assert implied_equalities(nc, ["y", "q", "x", "y"]) == [["y", "q", "x"]]
    assert implied_equalities(nc, ["x"]) == []


def test_implied_equalities_mixed_pairs():
    phi = [
        Eq(x, SetOp("setminus", y, z)),
        Eq(z, SetOp("setminus", z, z)),
    ]
    nc = normalize(phi)
    # z is empty, so x = y minus z = y; but z = x only if y is empty too
    assert implied_equalities(nc, ["x", "y", "z"]) == [["x", "y"]]
    assert implied_equalities(nc, ["z", "y", "q", "x"]) == [["y", "x"]]


def test_implied_equalities_budget_passthrough():
    # the decision takes one step and the pair's split query a second, on
    # the same meter: a budget the decision alone fits runs out in the query
    nc = normalize([Subset(x, y)])
    assert solve(nc, budget=1).is_sat
    with pytest.raises(ResourceLimitError) as caught:
        implied_equalities(nc, ["x", "y"], budget=1)
    assert (caught.value.layer, caught.value.count) == ("enumerating places", 2)


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
    implied = _implied(nc, pairs)
    assert implied == _probe_implied(nc, pairs)
    assert minimize_equalities(nc, pairs)[1].implied_pairs() == implied

    res = solve(nc)
    if res.is_sat:
        # The maximal-junk build of the found placement is a model that
        # separates exactly the pairs that are not implied.
        w = res.witness
        junk = tuple(p for p in enumerate_places(nc) for _ in range(2))
        full = build_model(SolverWitness(w.vars, w.sigma, junk, w.topo))
        assert satisfies(nc, full)
        mentioned = [(a, b) for a, b in pairs if "z" not in (a, b)]
        assert tuple((a, b) for a, b in mentioned if full[a] == full[b]) == tuple(
            pair for pair in implied if "z" not in pair
        )


def _implied_by_signatures(nc, pairs):
    """Reference: the signature rule over the full listing.  A variable's
    signature is which places of enumerate_places(nc) hold it; a pair is
    implied iff nc is unsat, its sides are one name, or both are variables
    of nc with equal signatures."""
    if not solve(nc).is_sat:
        return tuple(pairs)
    places = enumerate_places(nc)
    signature = {v: tuple(v in p for p in places) for v in nc.vars}
    return tuple(
        (a, b)
        for a, b in pairs
        if a == b or (a in signature and signature.get(b) == signature[a])
    )


def _multi_component_draws(count):
    """Seeded conjunctions of one to three renamed random parts."""
    for seed in range(count):
        rng = random.Random(f"split/{seed}")
        specs = [
            (rng.randint(1, 3), rng.randint(1, 4), rng.getrandbits(32))
            for _ in range(rng.randint(1, 3))
        ]
        yield _joined(_renamed_draws(specs))


def test_split_queries_match_the_signature_rule():
    for nc in _multi_component_draws(400):
        # every pair over nc's variables and a name it does not mention, (v, v) included
        names = list(nc.vars) + ["q"]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]
        assert _implied(nc, pairs) == _implied_by_signatures(nc, pairs)


def test_separating_models_satisfy_and_split_their_pairs():
    rng = random.Random("separating")
    draws = list(_multi_component_draws(150)) + [_with_disequalities(s) for s in range(150)]
    for nc in draws:
        names = list(nc.vars)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]
        pairs = rng.sample(pairs, min(len(pairs), 12)) + [(names[0], "q")]
        padded = pad_vars(nc, pairs)
        decision = _decide(padded, None)
        if not decision.result.is_sat:
            continue
        implied = _implied(padded, pairs)
        for a, b in pairs:
            model = decision.separating(a, b)
            assert (model is None) == ((a, b) in implied)
            if model is not None:
                assert satisfies(padded, model) and model[a] != model[b]
                assert all(model[u] != model[w] for u, w in padded.disequalities)
                assert sorted(model) == sorted(padded.vars)


def test_minimized_models_keep_every_disequality():
    # minimize_equalities enlarges along separating models; each step keeps
    # the disequalities of the model before it, nc's own among them.
    rng = random.Random("minimized")
    minimized = 0
    for seed in range(300):
        nc = _with_disequalities(seed)
        pairs = list(combinations(nc.vars, 2))
        pairs = rng.sample(pairs, min(len(pairs), 10))
        model, eqs = minimize_equalities(nc, pairs)
        if not solve(nc).is_sat:
            assert isinstance(model, Unsat)
            continue
        assert satisfies(nc, model)
        assert all(model[a] != model[b] for a, b in nc.disequalities)
        assert eqs.implied_pairs() == _implied(nc, pairs)
        minimized += eqs.enlargements > 0
    assert minimized >= 30


def _steps(nc, budget=10**3):
    """solve's result on nc within budget, and the steps it spent."""
    meter = Budget(budget)
    return solve(nc, budget=meter), budget - meter.left


def _pairwise_distinct(names, lits=(), skip=0):
    """lits and "a != b" for every pair of names but the last skip pairs."""
    pairs = list(combinations([Var(v) for v in names], 2))
    return normalize(list(lits) + [Not(Eq(a, b)) for a, b in pairs[: len(pairs) - skip]])


def test_pairwise_disequalities_are_decided_by_split_queries():
    # Two subsets imply v0 = v1, so the six (ten) disequalities among
    # v0..v3 (v0..v4) are unsat.  With each x != y rewritten into seven
    # fresh variables the normal form had 48 variables, refuting it took
    # 195,184 steps, and five names did not finish.  Now no step at all:
    # propagation ties v0 and v1, which refutes nc before the peel.
    v = [Var(f"v{i}") for i in range(8)]
    for n in (4, 5):
        nc = _pairwise_distinct([f"v{i}" for i in range(n)], [Subset(v[0], v[1]), Subset(v[1], v[0])])
        assert len(nc.vars) == n + 2
        res, spent = _steps(nc)
        assert not res.is_sat and spent == 0
    # v0 <= v2, v1 = v3 | v4 and eight of the ten disequalities among
    # v0..v4 exhausted 10**6 steps; all 28 among eight free names 2 * 10**5
    subset_union = [Subset(v[0], v[2]), Eq(v[1], SetOp("union", v[3], v[4]))]
    for nc in (
        _pairwise_distinct([f"v{i}" for i in range(5)], subset_union, skip=2),
        _pairwise_distinct([f"v{i}" for i in range(8)]),
    ):
        res, spent = _steps(nc)
        assert res.is_sat and satisfies(nc, res.model)
        assert eval_formula(nc.to_formula(), res.model)


def test_implied_pairs_of_a_subset_cycle_need_no_search(monkeypatch):
    # x0 <= x1 <= ... <= x11 <= x0 makes every pair implied.  One class
    # holds all twelve; each comparison with its head is settled by
    # propagating the head both ways, so no query searches.
    names = [f"x{i}" for i in range(12)]
    nc = normalize([Subset(Var(a), Var(b)) for a, b in zip(names, names[1:] + names[:1])])
    decision = _decide(nc, None)
    searches = []
    for method in ("first", "places"):  # the engine's two searching queries

        def counting(engine, assume=(), query=getattr(_Engine, method)):
            searches.append(assume)
            return query(engine, assume)

        monkeypatch.setattr(_Engine, method, counting)
    assert decision.classes(names) == [names]
    assert searches == []


def test_implied_pairs_of_a_forty_membership_chain_are_decided_within_budget():
    # v0 in v1 in ... in v39 has 2**40 places; one split query per pair
    # needs none of them listed
    nc = NormalizedConjunction([(f"v{i}", f"v{i + 1}") for i in range(39)])
    assert implied_equalities(nc, nc.vars, budget=10**5) == []
    assert _implied(nc, [(v, v) for v in nc.vars], budget=10**5) == tuple((v, v) for v in nc.vars)


def test_a_self_disequality_is_refuted_before_any_peel():
    # The membership chain alone needs 37,843 steps; v0 != v0 refutes it
    # before the chain is peeled, spending none.
    chain = _chain(160)
    with pytest.raises(ResourceLimitError):
        solve(chain, budget=1)
    res, spent = _steps(NormalizedConjunction(chain.memberships, (), [("v0", "v0")]), budget=1)
    assert res == Unsat() and spent == 0


def test_tied_disequalities_are_refuted_before_any_peel():
    # a and b tied by two subsets, or both empty in two components: either
    # pair refutes the membership chain before it is peeled, spending no
    # step, where peeling first took the chain's 37,843 steps.
    chain = _chain(160).literals()
    a, b = Var("a"), Var("b")
    for lits in ([Subset(a, b), Subset(b, a)], [Eq(a, EMPTY), Eq(b, EMPTY)]):
        nc = normalize(chain + lits + [Not(Eq(a, b))])
        res, spent = _steps(nc, budget=1)
        assert res == Unsat() and spent == 0
    # the two empty sides lie in two components
    (ea,) = [part for part in _components(nc) if "a" in part.vars]
    assert "b" not in ea.vars


# ---------------------------------------------------------- targeted junk


def _has_cycle(succ):
    """Whether the edges from each key to the keys in its list close a cycle."""
    left = set(succ)
    while True:
        sinks = {u for u in left if not left.intersection(succ[u])}
        if not sinks:
            return bool(left)
        left -= sinks


def _listed_split(listings, of, a, b):
    """Reference: the split place of a and b from the components' full
    listings, as (component index, place), or None when a = b is implied.
    of maps each variable to its component's index."""
    i, j = of[a], of[b]
    if i == j:
        hits = [(i, p) for p in listings[i] if (a in p) != (b in p)]
    else:
        hits = [(i, p) for p in listings[i] if a in p] + [(j, p) for p in listings[j] if b in p]
    return hits[0] if hits else None


def _list_first_sat(nc):
    """Reference verdict: the placement search over each component's full
    listing.  The classes are the elements of equal signature.  Each class
    tries, in product order, the places that hold every set a member lies
    in, told apart only by the elements they hold, and every prefix whose
    containment edges close a cycle is cut off.  By convexity the
    disequalities then hold together iff each has a split place."""
    comps = _components(nc)
    listings = [enumerate_places(part) for part in comps]
    for part, places in zip(comps, listings):
        elems = list(dict.fromkeys(u for u, _ in part.memberships))
        classes = {}
        for u in elems:
            classes.setdefault(tuple(u in p for p in places), []).append(u)
        groups = list(classes.values())
        options = []
        for group in groups:
            need = {b for a, b in part.memberships if a in group}
            options.append(list(dict.fromkeys(
                frozenset(u for u in elems if u in p) for p in places if need <= p
            )))
        of = {u: i for i, group in enumerate(groups) for u in group}

        def fits(held):
            return not _has_cycle({i: {of[u] for u in h} for i, h in enumerate(held)})

        def first(held):
            if not fits(held):
                return False
            if len(held) == len(groups):
                return True
            return any(first(held + [h]) for h in options[len(held)])

        if not first([]):
            return False
    of = {v: k for k, part in enumerate(comps) for v in part.vars}
    return all(_listed_split(listings, of, a, b) is not None for a, b in nc.disequalities)


def _assert_admissible(nc, w):
    """w's placement is admissible: each element sits in a place of its
    component that holds every set it lies in, elements no place tells
    apart share their place, and topo lists the elements, each before the
    elements its place holds."""
    sig = dict(w.sigma)
    for part in _components(nc):
        places = enumerate_places(part)
        elems = list(dict.fromkeys(u for u, _ in part.memberships))
        assert all(sig[u] in places for u in elems)
        assert all(b in sig[a] for a, b in part.memberships)
        for u, v in combinations(elems, 2):
            if all((u in p) == (v in p) for p in places):
                assert sig[u] == sig[v]
    assert len(sig) == len(w.sigma) and sorted(w.topo) == sorted(sig)
    at = {u: i for i, u in enumerate(w.topo)}
    assert all(at[u] < at[v] for u in sig for v in sig if v in sig[u])


def _draw(seed, nvars, nlits):
    return random_normalized_conjunction(random.Random(seed), nvars, nlits)


def _with_disequalities(seed):
    """A small random conjunction and "a != b" for two or three pairs drawn
    from its variables and two unconstrained ones, normalized.  Each pair
    is a disequality or, spelled out, a member e of a union b outside
    a inter b; the fresh variables of that spelling often need junk."""
    rng = random.Random(seed)
    nc = random_normalized_conjunction(rng, rng.randint(1, 3), rng.randint(0, 2))
    pairs = list(combinations(nc.vars + ("v", "w"), 2))
    picked = rng.sample(pairs, min(len(pairs), rng.randint(2, 3)))
    lits = nc.literals()
    for i, (a, b) in enumerate(picked):
        if rng.random() < 0.5:
            lits.append(Not(Eq(Var(a), Var(b))))
        else:
            e, a, b = Var(f"e{i}"), Var(a), Var(b)
            lits += [In(e, SetOp("union", a, b)), Not(In(e, SetOp("inter", a, b)))]
    return normalize(lits)


_conjunctions = st.one_of(
    st.integers(0, 2**32).map(_with_disequalities),
    st.builds(_draw, st.integers(0, 2**32), st.integers(1, 4), st.integers(0, 6)),
    _part_specs.map(lambda specs: _joined(_renamed_draws(specs))),
)


@settings(max_examples=500, deadline=None)
@given(_conjunctions)
def test_targeted_junk_keeps_the_placement_and_separates_collisions(nc):
    res = solve(nc)
    assert res.is_sat == _list_first_sat(nc)
    if not res.is_sat:
        return
    w = res.witness
    _assert_admissible(nc, w)
    assert satisfies(nc, res.model) and build_model(w) == res.model

    free = build_model(SolverWitness(w.vars, w.sigma, (), w.topo))
    assert (not w.junk) == satisfies(nc, free)
    # junk places come once each, in place order
    places = enumerate_places(nc)
    index = [places.index(p) for p in w.junk]
    assert index == sorted(set(index))
    # each is the first place to hold exactly one side of a collision: two
    # elements of one component that the junk-free build gives one value
    # and sigma two places; or the split place of a disequality that build
    # does not keep apart
    comps = _components(nc)
    part = {v: i for i, c in enumerate(comps) for v in c.vars}
    sig = dict(w.sigma)
    apart = [
        next(p for p in places if (u in p) != (v in p))
        for u, v in combinations(sig, 2)
        if part[u] == part[v] and free[u] == free[v] and sig[u] != sig[v]
    ]
    listings = [enumerate_places(c) for c in comps]
    apart += [_listed_split(listings, part, a, b)[1] for a, b in nc.disequalities if free[a] == free[b]]
    assert set(w.junk) <= set(apart)


@settings(max_examples=300, deadline=None)
@given(_conjunctions)
def test_tied_pairs_have_no_split_place(nc):
    # A pair propagation ties in one component has no place holding
    # exactly one side; two names of two components whose sides each
    # contradict True have no place holding either.  Either way a = b in
    # every model, so a tied disequality refutes nc.
    parts = _components(nc)
    decision = _Decision(nc, Budget(None), [_Engine(part, Budget(None)) for part in parts])
    listings = [list(engine.places()) for engine in decision.engines]
    of = {v: k for k, part in enumerate(parts) for v in part.vars}
    for a in nc.vars:
        for b in nc.vars:
            if decision.tied(a, b):
                assert _listed_split(listings, of, a, b) is None


# ------------------------------------------------ queries to the engine


def _agree(place, assume):
    """Whether place gives each variable of assume its value there."""
    return all((v in place) == b for v, b in assume)


def _spent(query):
    """The places a query yields, and the steps it took."""
    meter = Budget(10**9)
    return list(query(meter)), 10**9 - meter.left


def _reference_component(part, sig, topo):
    """Reference: part's full listing, whether part's own junk-free build,
    of the placement sig and topo restricted to part, verifies, and the
    junk J of layer 3 for that build, from the listing: the class
    representatives' collisions in class order, and for each one no place
    taken so far tells apart, the first place that does."""
    places = enumerate_places(part)
    elems = list(dict.fromkeys(u for u, _ in part.memberships))
    topo = tuple(u for u in topo if u in sig and u in part.vars)
    free = build_model(SolverWitness(part.vars, tuple((u, sig[u]) for u in elems), (), topo))
    reps = {}  # signature -> the first element with it, in class order
    for u in elems:
        reps.setdefault(tuple(u in p for p in places), u)
    by_value = {}
    for u in reps.values():
        by_value.setdefault(free[u], []).append(u)
    seeds = []
    for group in by_value.values():
        for u, v in combinations(group, 2):
            if sig[u] != sig[v] and all((u in places[k]) == (v in places[k]) for k in seeds):
                seeds.append(next(k for k, p in enumerate(places) if (u in p) != (v in p)))
    return places, satisfies(part, free), tuple(places[k] for k in sorted(seeds))


def _reference_parts(nc, sigma, topo):
    """Reference: per component of nc, for the placement sigma and topo,
    the component, its listing, whether its own junk-free build verifies,
    its J, and the split places of the disequalities seeded in it: those
    of the pairs the merged junk-free build does not keep apart, from the
    listings.  None when such a pair has no split place."""
    sig = dict(sigma)
    parts = [(part, *_reference_component(part, sig, topo)) for part in _components(nc)]
    free = build_model(SolverWitness(nc.vars, sigma, (), topo))
    of = {v: k for k, (part, *_) in enumerate(parts) for v in part.vars}
    splits = [[] for _ in parts]
    for a, b in nc.disequalities:
        if free[a] == free[b]:
            hit = _listed_split([places for _, places, *_ in parts], of, a, b)
            if hit is None:
                return None
            if hit[1] not in splits[hit[0]]:
                splits[hit[0]].append(hit[1])
    return [(*part, tuple(seeds)) for part, seeds in zip(parts, splits)]


def _part_junk(part, *places):
    """Reference: a component's junk from _reference_parts, with places:
    J and the split places when any is seeded, else J when the component's
    build fails, else none."""
    _, listing, ok, collisions, splits = part
    if splits or places:
        return tuple(sorted({*collisions, *splits, *places}, key=listing.index))
    return () if ok else collisions


def _reference_junk(nc, w):
    """Reference: the junk of layer 3 for w's placement: each component's
    J when its own junk-free build fails or a disequality is seeded in it,
    with the split places seeded there."""
    return tuple(p for part in _reference_parts(nc, w.sigma, w.topo) for p in _part_junk(part))


def _decide_by_component(nc):
    """Reference: the decision built and verified component by component,
    k + 1 builds for k components.  Each component is peeled, and its own
    junk-free witness built and verified; the merged witness seeds the J
    of each component that fails or holds a disequality's split place,
    with those places, and is built and verified once more.  Returns the
    result and, per component, the entries of _reference_parts; the
    components are None when nc is unsat."""
    peels = []
    for part in _components(nc):
        peel = _search(_Engine(part, Budget(None)))
        if peel is None:
            return Unsat(), None
        peels.append((part, peel))
    sigma = tuple(s for _, (_, sg, _) in peels for s in sg)
    topo = tuple(u for _, (_, _, tp) in peels for u in tp)
    parts = _reference_parts(nc, sigma, topo)
    if parts is None:
        return Unsat(), None
    w = SolverWitness(nc.vars, sigma, tuple(p for part in parts for p in _part_junk(part)), topo)
    model = build_model(w)
    assert satisfies(nc, model)
    return Sat(model, w), parts


def _separating_by_component(w, parts, a, b):
    """Reference: the model separating a and b of the per-component
    decision w, parts, or None when a = b is implied.  The split place p
    comes from the full listings, and p's component seeds its J, its
    disequalities' split places and p, every other component keeping its
    junk in w."""
    of = {v: k for k, (part, *_) in enumerate(parts) for v in part.vars}
    hit = _listed_split([places for _, places, *_ in parts], of, a, b)
    if hit is None:
        return None
    k, p = hit
    junk = [_part_junk(part) for part in parts]
    junk[k] = _part_junk(parts[k], p)
    return build_model(SolverWitness(w.vars, w.sigma, tuple(q for seeds in junk for q in seeds), w.topo))


def _one_build_draws(count):
    """Seeded conjunctions of one to three renamed random parts, half of
    them with disequalities, whose junk-free build often fails."""
    for seed in range(count):
        rng = random.Random(f"one-build/{seed}")
        parts = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                parts.append(_with_disequalities(rng.getrandbits(32)))
            else:
                parts.append(random_normalized_conjunction(rng, rng.randint(1, 3), rng.randint(1, 3)))
        yield _joined([_renamed(part, lambda v, i=i: f"{v}{i}") for i, part in enumerate(parts)])


def _tie_refutes(nc):
    """Whether propagation alone ties the two sides of a disequality of nc:
    in one component, setting one side True and then False sets the other
    alike, a contradiction counting as either; in two, setting each side
    True meets a contradiction."""
    engine = {}
    for part in _components(nc):
        e = _Engine(part, Budget(None))
        engine.update(dict.fromkeys(part.vars, e))

    def contradicts(v, b):
        return engine[v]._start([(v, b)]) is None

    def forced(a, b, value):
        start = engine[a]._start([(a, value)])
        return start is None or start[0][engine[a].pos[b]] == value

    return any(
        forced(a, b, True) and forced(a, b, False)
        if engine[a] is engine[b]
        else contradicts(a, True) and contradicts(b, True)
        for a, b in nc.disequalities
    )


def test_one_build_decides_as_the_component_builds_did(monkeypatch):
    builds, checks = [], []
    build, verify = solver.build_model, solver.satisfies
    monkeypatch.setattr(solver, "build_model", lambda w: builds.append(w) or build(w))
    monkeypatch.setattr(
        solver,
        "satisfies",
        lambda nc, m: checks.extend(nc.memberships + nc.differences + nc.disequalities) or verify(nc, m),
    )
    rng = random.Random("one-build")
    failing = refuted = 0
    for nc in _one_build_draws(500):
        builds.clear()
        checks.clear()
        decision = _decide(nc, None)
        # one build, and a second only when some component needs junk or
        # a disequality is seeded; each literal is checked once per build,
        # a disequality the first build keeps apart by its two values
        # the junk-free build comes once every component is peeled, even
        # when a disequality then refutes nc; a disequality whose sides
        # propagation ties refutes nc before the peel, with no build
        tied = _tie_refutes(nc)
        peeled = not tied and all(_search(_Engine(part, Budget(None))) is not None for part in _components(nc))
        needs_junk = decision.result.is_sat and bool(
            decision.splits or not all(part.verified for part in decision.parts)
        )
        assert len(builds) == peeled + needs_junk
        lits = nc.memberships + nc.differences
        assert sorted(checks) == sorted(lits * peeled + (lits + nc.disequalities) * needs_junk)
        failing += needs_junk and len(decision.parts) > 1
        refuted += tied

        # the references call the unpatched build_model and satisfies
        expected, parts = _decide_by_component(nc)
        assert decision.result.is_sat == expected.is_sat
        if expected.is_sat:
            got = decision.result
            assert got.witness == expected.witness
            assert to_strings(got.model) == to_strings(expected.model)
            pairs = [(a, b) for i, a in enumerate(nc.vars) for b in nc.vars[i:]]
            assert in_classes(decision.classes(nc.vars), pairs) == _implied_by_signatures(nc, pairs)
            for a, b in rng.sample(pairs, min(len(pairs), 12)):
                want = _separating_by_component(got.witness, parts, a, b)
                assert decision.separating(a, b) == want
    assert failing >= 10 and refuted >= 5


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_conjunctions, st.lists(_script_literals, min_size=1, max_size=4).map(normalize)),
    st.randoms(use_true_random=False),
)
def test_queries_match_the_full_listing(nc, rnd):
    for part in _components(nc):
        engine = _Engine(part, Budget(None))
        places, cost = _spent(lambda m: _Engine(part, m).places())
        # place order is False before True over vars, which junk sorts by
        assert places == sorted(places, key=lambda p: [v in p for v in part.vars])

        picked = rnd.sample(part.vars, rnd.randint(0, len(part.vars)))
        assume = [(v, rnd.random() < 0.5) for v in picked]
        got, spent = _spent(lambda m: _Engine(part, m).places(assume))
        assert got == [p for p in places if _agree(p, assume)]
        assert spent <= cost
        # first is the search's first leaf, in its steps, or the closed form
        # of a component with no difference literal at the same cost
        first, first_cost = _spent(lambda m: [_Engine(part, m).first(assume)])
        assert first == [next(iter(got), None)]
        assert first_cost == _spent(lambda m: [next(_Engine(part, m).places(assume), None)])[1]

        signature = {v: tuple(v in p for p in places) for v in part.vars}
        elems = list(dict.fromkeys(u for u, _ in part.memberships))
        for names, key in ((elems, None), (part.vars, lambda v: sum(signature[v]) % 2)):
            by_signature = {}
            for u in names:
                by_signature.setdefault(signature[u], []).append(u)
            classes = list(by_signature.values())
            assert _group(names, lambda h, u: next(engine.splits(h, u), None), key) == classes
            assert _group(names, engine.split, key) == classes

        for u, w in combinations(part.vars, 2):
            firsts = [
                next((p for p in places if a in p and b not in p), None)
                for a, b in ((u, w), (w, u))
            ]
            assert list(engine.splits(u, w)) == [p for p in firsts if p is not None]
            assert engine.split(u, w) == next((p for p in places if (u in p) != (w in p)), None)

    res = solve(nc)
    assert res.is_sat == _list_first_sat(nc)
    if res.is_sat:
        _assert_admissible(nc, res.witness)
        assert res.witness.junk == _reference_junk(nc, res.witness)


def test_member_of_a_set_built_from_itself_is_refuted_at_once():
    # e in (e minus a) puts e inside itself.  The normal form has 48 places
    # in one component; every place holding the targets of e's class also
    # holds e, so that class has no candidate and no placement is tried.
    script = parse_script(
        "(assert (not (= b a)))"
        "(assert (not (in d b)))"
        "(assert (not (subset (inter b b) c)))"
        "(assert (in c (setminus b a)))"
        "(assert (in e (setminus e a)))"
    )
    nc = normalize(list(script.asserts))
    assert len(enumerate_places(nc)) == 48
    assert solve(nc, budget=10_000) == Unsat()


def test_membership_chain_of_twenty_four_is_sat():
    # v0 in v1 in ... in v23 has 2**24 places; the queries need a few thousand steps
    nc = NormalizedConjunction([(f"v{i}", f"v{i + 1}") for i in range(23)])
    res = solve(nc, budget=20_000)
    assert res.is_sat
    assert satisfies(nc, res.model)
    assert eval_formula(nc.to_formula(), res.model)


def _star(k):
    """x_i in y_i and d_i = y_i minus y_(i+1): k classes in one component,
    whose junk-free build gives every x_i the value {}."""
    return NormalizedConjunction(
        [(f"x{i}", f"y{i}") for i in range(k)],
        [(f"d{i}", f"y{i}", f"y{i + 1}") for i in range(k - 1)],
    )


@pytest.mark.parametrize("k", [8, 24])
def test_split_queries_on_the_star_are_linear(k, monkeypatch):
    # The k elements form k classes; each grouping comparison that finds a
    # place keeps it, so later elements are compared with one head at most.
    calls = []
    splits = _Engine.splits

    def counting(engine, u, w):
        calls.append((u, w))
        return splits(engine, u, w)

    monkeypatch.setattr(_Engine, "splits", counting)
    classes, _, _ = _search(_Engine(_star(k), Budget(None)))
    grouping = len(calls)
    assert len(classes) == k and grouping < k
    # The decision groups the same way, then finds the junk: all k(k - 1)/2
    # pairs of representatives collide, and the place chosen for each of
    # x0's collisions already tells the later pairs apart.
    calls.clear()
    nc = _star(k)
    decision = _decide(nc, None)
    (part,) = decision.parts
    assert not part.verified
    assert len(part.collisions()) == k - 1
    assert len(calls) == grouping + k - 1
    monkeypatch.undo()

    compared, named = [], []
    group = solver._group

    def counting_group(names, split, key=None):
        named.extend(names)
        return group(names, lambda h, v: compared.append((h, v)) or split(h, v), key)

    monkeypatch.setattr(solver, "_group", counting_group)
    assert decision.classes(nc.vars) == []
    assert len(named) == len(nc.vars) and len(compared) < len(named)
    # only pairs the decision's model leaves equal are compared
    model = decision.result.model
    assert all(model[h] is model[v] for h, v in compared)
    monkeypatch.undo()
    res = solve(nc)
    assert res.witness.junk == part.collisions() and satisfies(nc, res.model)


def _chain(n):
    """v0 in v1 in ... in v(n-1): n - 1 classes in one component, with no
    difference literal."""
    return NormalizedConjunction([(f"v{i}", f"v{i + 1}") for i in range(n - 1)])


def _reference_search(engine):
    """Reference: the peel as each query restated every unpeeled element,
    one full propagation per class query (layer 2 (ii)).  Every query is
    the search's first leaf, so a component with no difference literal is
    searched too, not answered in closed form."""

    def first(assume):
        return next(engine.places(assume), None)

    nc = engine.nc
    elems = list(dict.fromkeys(x for x, _ in nc.memberships))
    # a place holding h is not empty, so not false
    classes = _group(elems, lambda h, u: first([(h, True), (u, False)]) or first([(u, True), (h, False)]))
    of = {u: k for k, group in enumerate(classes) for u in group}
    targets = [[] for _ in classes]
    for x, y in nc.memberships:
        targets[of[x]].append((y, True))
    sig = {}
    left = list(range(len(classes)))
    peeled = []
    while left:
        unpeeled = [(u, False) for k in left for u in classes[k]]
        for k in left:
            p = first(targets[k] + unpeeled)
            if p is not None:
                break
        else:
            return None
        for u in classes[k]:
            sig[u] = p
        left.remove(k)
        peeled.append(k)
    topo = tuple(u for k in reversed(peeled) for u in classes[k])
    return classes, tuple((u, sig[u]) for u in elems), topo


def _peel_draws(count):
    """Seeded conjunctions over 2 to 14 variables: memberships in either
    direction, so cycles and unsat peels are common, and a few differences;
    few literals over many names often fall into several components."""
    for seed in range(count):
        rng = random.Random(f"peel/{seed}")
        names = [f"v{i}" for i in range(rng.randint(2, 14))]
        n = len(names)
        mems = [tuple(rng.sample(names, 2)) for _ in range(rng.randint(1, n))]
        diffs = [tuple(rng.choice(names) for _ in range(3)) for _ in range(rng.randint(0, n // 2))]
        yield NormalizedConjunction(mems, diffs)


def test_one_base_per_round_peels_as_the_restated_queries_did():
    draws = list(_peel_draws(400)) + list(_one_build_draws(100))
    draws += [_chain(n) for n in range(2, 13)] + [_star(k) for k in range(2, 9)]
    outcomes = {True: 0, False: 0}
    several = 0
    for nc in draws:
        several += len(_components(nc)) > 1
        # each component on its own, and the whole under one engine
        for part in _components(nc) + [nc]:
            got, spent = _spent(lambda m: [_search(_Engine(part, m))])
            want, cost = _spent(lambda m: [_reference_search(_Engine(part, m))])
            assert got == want and spent == cost
            outcomes[got[0] is not None] += 1
    assert min(outcomes.values()) >= 100 and several >= 100


def test_components_are_their_reference_construction():
    draws = list(_peel_draws(300)) + list(_multi_component_draws(200))
    for nc in draws:
        parts = _components(nc)
        for part in parts:
            ref = NormalizedConjunction(part.memberships, part.differences)
            assert part.memberships == ref.memberships and part.differences == ref.differences
            assert part.vars == ref.vars
            # each part keeps nc's order of its literals and of its variables
            mems, diffs = set(part.memberships), set(part.differences)
            assert part.memberships == tuple(m for m in nc.memberships if m in mems)
            assert part.differences == tuple(d for d in nc.differences if d in diffs)
            assert part.vars == tuple(v for v in nc.vars if v in set(part.vars))
        assert sum(len(p.memberships) for p in parts) == len(nc.memberships)
        assert sum(len(p.differences) for p in parts) == len(nc.differences)
        assert sum(len(p.vars) for p in parts) == len(nc.vars)
        assert set(nc.vars) == {v for p in parts for v in p.vars}


def test_chain_is_peeled_without_search(monkeypatch):
    # The chain has no difference literal, so it is peeled in closed form:
    # no variable is assigned and no search descends, yet the steps are
    # those the search spent.  (Restating every unpeeled element in each
    # class query once made the search's set-up cubic: 13,701, 97,801 and
    # 733,201 _assign calls at n = 40, 80 and 160.)
    calls = []
    for name in ("_assign", "_descend"):
        method = getattr(_Engine, name)

        def counting(engine, *args, name=name, method=method):
            calls.append(name)
            return method(engine, *args)

        monkeypatch.setattr(_Engine, name, counting)
    for n, steps in ((40, 2263), (80, 9323), (160, 37843)):
        res, spent = _steps(_chain(n), budget=10**6)
        assert res.is_sat and spent == steps
    assert calls == []


def _free_draws(count):
    """NormalizedConjunction() and seeded conjunctions with no difference
    literal: memberships over 0 to 20 variables, half of the draws acyclic
    (vi in vj only for i < j), and up to two disequalities, whose names
    may occur in no membership."""
    yield NormalizedConjunction()
    for seed in range(count):
        rng = random.Random(f"free/{seed}")
        n = rng.randint(0, 20)
        acyclic = rng.random() < 0.5
        mems = []
        for _ in range(rng.randint(0, n) if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            mems.append((f"v{min(i, j)}", f"v{max(i, j)}") if acyclic else (f"v{i}", f"v{j}"))
        names = [f"v{i}" for i in range(n)] + ["w0", "w1"]
        pairs = [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 2))]
        yield NormalizedConjunction(mems, (), pairs)


def _exhaustion(query, budget):
    """The (layer, count, limit) of the exhaustion query meets on a meter of
    budget steps, or None when it finishes."""
    try:
        query(Budget(budget))
    except ResourceLimitError as e:
        return e.layer, e.count, e.limit
    return None


def _same_run(query, reference):
    """Assert that query and reference give equal answers in equal steps,
    and run out alike on every smaller budget; the two answers."""
    (got,), spent = _spent(lambda m: [query(m)])
    (want,), cost = _spent(lambda m: [reference(m)])
    assert got == want and spent == cost
    for budget in range(cost):
        # the search charges one node at a time: the node past the limit raises
        assert _exhaustion(query, budget) == _exhaustion(reference, budget) == (
            "enumerating places", budget + 1, budget
        )
    return got, want


def test_free_components_are_answered_as_the_search_answers():
    # A component with no difference literal answers first and the peel in
    # closed form (layer 1, Free components; layer 2 (iv)): the same places,
    # iterating in the same order, in the same steps, and the same
    # exhaustion on every smaller budget as the search's first leaves.
    rng = random.Random("free")
    outcomes = {"contradiction": 0, "place": 0, "sat": 0, "unsat": 0}
    for nc in _free_draws(300):
        for part in _components(nc) + [nc]:
            for _ in range(3):
                # assumptions with repeats, and sometimes a contradiction
                draws = rng.randint(0, 4) if part.vars else 0
                assume = [(rng.choice(part.vars), rng.random() < 0.5) for _ in range(draws)]
                if assume and rng.random() < 0.25:
                    v, b = rng.choice(assume)
                    assume.insert(rng.randint(0, len(assume)), (v, not b))
                got, want = _same_run(
                    lambda m: _Engine(part, m).first(assume),
                    lambda m: next(_Engine(part, m).places(assume), None),
                )
                assert got is None or list(got) == list(want)
                outcomes["place" if got is not None else "contradiction"] += 1
            got, want = _same_run(
                lambda m: _search(_Engine(part, m)), lambda m: _reference_search(_Engine(part, m))
            )
            if got is not None:
                assert [list(p) for _, p in got[1]] == [list(p) for _, p in want[1]]
            outcomes["sat" if got is not None else "unsat"] += 1
    assert min(outcomes.values()) >= 50
    # the empty conjunction: one component of no variable, peeled in no
    # step, and its junk-free build
    assert _steps(NormalizedConjunction()) == (solve(NormalizedConjunction()), 1)


def test_free_components_decide_as_the_search_decides(monkeypatch):
    # The decision on conjunctions with no difference literal, with its
    # classes and separating models, equals the one whose every query is
    # the search's first leaf, step for step.
    draws = list(_free_draws(300))

    def decisions():
        out = []
        for nc in draws:
            meter = Budget(10**9)
            decision = _decide(nc, meter)
            got = [decision.result, 10**9 - meter.left]
            if decision.result.is_sat:
                got += [[list(p) for _, p in decision.result.witness.sigma]]
                got += [[list(p) for p in decision.result.witness.junk], decision.classes(nc.vars)]
                for a, b in combinations(nc.vars[:5], 2):
                    model = decision.separating(a, b)
                    got.append(None if model is None else to_strings(model))
            out.append((got, 10**9 - meter.left))
        return out

    closed = decisions()
    monkeypatch.setattr(_Engine, "first", lambda engine, assume: next(engine.places(assume), None))
    monkeypatch.setattr(solver, "_search", _reference_search)
    assert closed == decisions()
    assert sum(got[0].is_sat for got, _ in closed) >= 100


def _acyclic_draw(rng, n):
    """n variables, n/2 to n memberships "vi in vj" with i < j, and n/4 to
    n/2 differences over three distinct variables: no membership cycle
    refutes the draw before the placement is decided."""
    names = [f"v{i}" for i in range(n)]
    mems = [
        tuple(names[i] for i in sorted(rng.sample(range(n), 2)))
        for _ in range(rng.randint(n // 2, n))
    ]
    diffs = [tuple(rng.sample(names, 3)) for _ in range(rng.randint(n // 4, n // 2))]
    return NormalizedConjunction(mems, diffs)


@pytest.mark.parametrize("n", [4, 6, 8] + list(range(10, 25)))
def test_acyclic_draws_are_decided_within_budget(n):
    # A backtracking search over the product of the classes' candidate
    # places runs out of 10**5 steps on some of these draws, sat ones too.
    for d in range(14):
        nc = _acyclic_draw(random.Random(f"acyclic/{n}/{d}"), n)
        res = solve(nc, budget=10**5)
        if res.is_sat:
            assert satisfies(nc, res.model)
        if n <= 8:
            assert res.is_sat == _list_first_sat(nc)


# ------------------------------------------------------------ metamorphic


def _spelled_out(nc, rng):
    """A script for nc outside the normal form: each literal in one of a
    few equivalent spellings."""
    forms = []
    for x, y in nc.memberships:
        m = f"(in {x} {y})"
        forms.append(rng.choice([m, f"(not (not {m}))", f"(or {m} {m})"]))
    for x, y, z in nc.differences:
        d = f"(setminus {y} {z})"
        forms.append(
            rng.choice([f"(= {x} {d})", f"(= {d} {x})", f"(and (subset {x} {d}) (subset {d} {x}))"])
        )
    return "".join(f"(assert {f})\n" for f in forms)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 6))
def test_verdict_survives_redundant_and_unnormalized_input(seed, nvars, nlits):
    rng = random.Random(seed)
    nc = random_normalized_conjunction(rng, nvars, nlits)
    original = nc.to_formula()
    verdict = solve(nc).is_sat

    def agrees(results, script):
        """The verdict of a script from its branches' results."""
        for res in results:
            if res.is_sat:
                assert eval_formula(script, res.model)
                assert eval_formula(original, res.model)
                return verdict
        return not verdict

    lits = nc.literals()
    # duplicated literals
    doubled = lits + rng.sample(lits, rng.randint(1, len(lits)))
    assert agrees([solve(normalize(doubled))], and_(*doubled))
    # a literal the others imply
    implied = [Subset(Var(v), Var(v)) for v in nc.vars]
    for x, y in nc.memberships:
        implied += [In(Var(x), Var(y)), Not(In(Var(y), Var(x))), Not(Eq(Var(y), EMPTY))]
    implied += [Subset(Var(x), Var(y)) for x, y, _ in nc.differences]
    more = lits + [rng.choice(implied)]
    assert agrees([solve(normalize(more))], and_(*more))
    # the same conjunction written out of normal form, through parse, DNF
    # split and normalize
    f = and_(*parse_script(_spelled_out(nc, rng)).asserts)
    assert agrees((solve(normalize(branch)) for branch in split_disjuncts(f)), f)


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
