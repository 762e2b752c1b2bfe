"""Enlargement surgery, equality minimization, and the convexity fuzzer."""

import random

import pytest

import setsyl.convexity as convexity
from setsyl.convexity import (
    EqualitySet,
    Falsifiable,
    FuzzReport,
    FuzzViolation,
    Implied,
    check_trace_invariants,
    convexity_fuzz,
    enlarge,
    minimize_equalities,
    pad_vars,
    random_normalized_conjunction,
    write_reproducers,
)
from setsyl.errors import Budget, PreconditionError
from setsyl.formulas import Eq, In, Not, SetOp, Subset, Var, or_
from setsyl.oracle import bounded_models, eval_formula, first_countermodels, oracle_implies
from setsyl.hf import braces, hf, parse_braces, to_strings
from setsyl.normalize import NormalizedConjunction, normalize
from setsyl import solver
from setsyl.solver import Unsat, _decide, satisfies, solve
from test_solver import _implied, _with_disequalities

x, y, z = Var("x"), Var("y"), Var("z")


def _assignment(**kw):
    return {k: parse_braces(v) for k, v in kw.items()}


def _worked_example():
    lits = [
        In(Var("ybar"), Var("w")),
        In(Var("w"), Var("v")),
        In(Var("z"), Var("v")),
        Eq(Var("x"), SetOp("setminus", Var("ybar"), Var("z"))),
        Eq(Var("x"), SetOp("setminus", Var("xbar"), Var("w"))),
    ]
    nc = normalize(lits)
    base = _assignment(
        x="{}", xbar="{{}}", ybar="{{}}",
        z="{{},{{}}}", w="{{},{{}}}", v="{{{},{{}}}}",
    )
    separating = _assignment(
        x="{}", xbar="{{{}}}", ybar="{{}}",
        z="{{}}", w="{{{}}}", v="{{{}},{{{}}}}",
    )
    return nc, base, separating


# ------------------------------------------------------------ enlargement


def test_worked_example_trace_pinned():
    nc, base, separating = _worked_example()
    final, trace = enlarge(nc, base, separating, "xbar", "ybar")

    assert braces(trace.fresh_element) == "{{{{{}}}}}"
    assert braces(trace.separator) == "{}"
    assert trace.direction == "ybar"
    assert [tuple(sorted(w)) for w in trace.waves] == [
        ("ybar", "z"),
        ("v", "w", "z"),
        ("v",),
        (),
    ]
    assert trace.stabilized_at == 2
    assert len(trace.stages) == 3

    s = "{{{{{}}}}}"
    stage1 = to_strings(trace.stages[1])
    assert stage1["z"] == "{{},{{}},%s,{{},%s}}" % (s, s)
    assert stage1["w"] == "{{},{{}},{{},%s}}" % s
    strings = to_strings(final)
    assert strings["ybar"] == "{{},%s}" % s
    assert strings["xbar"] == "{{}}"
    assert len(final["v"].children) == 4
    assert final == trace.stages[-1]


def test_worked_example_separates_and_satisfies():
    nc, base, separating = _worked_example()
    final, _ = enlarge(nc, base, separating, "xbar", "ybar")
    assert satisfies(nc, final)
    assert final["xbar"] != final["ybar"]
    # disequalities of the starting model survive
    names = nc.vars
    for u in names:
        for v in names:
            if base[u] != base[v]:
                assert final[u] != final[v]


def test_worked_example_invariant_report():
    nc, base, separating = _worked_example()
    _, trace = enlarge(nc, base, separating, "xbar", "ybar")
    rows = check_trace_invariants(trace, base, nc)
    assert len(rows) == 26
    assert all(r.ok for r in rows)
    assert {r.name for r in rows} == {
        "fresh_rank",
        "stabilization_bound",
        "depth_bound",
        "monotone_growth",
        "bounded_additions",
        "rank_step",
        "tag_stability",
        "low_rank_preservation",
        "disequality_preservation",
        "membership_propagation",
    }


def test_tampered_trace_is_caught():
    nc, base, separating = _worked_example()
    _, trace = enlarge(nc, base, separating, "xbar", "ybar")
    last = dict(trace.stages[-1])
    last["z"] = hf([])  # z forgets everything it gained
    bad = trace.replace(stages=trace.stages[:-1] + (last,))
    rows = check_trace_invariants(bad, base, nc)
    assert not all(r.ok for r in rows)
    broken = {r.name for r in rows if not r.ok}
    assert "monotone_growth" in broken


def test_enlarge_minimal_difference_case():
    nc = NormalizedConjunction(differences=[("x", "y", "z")])
    base = _assignment(x="{}", y="{}", z="{}")
    separating = _assignment(x="{{}}", y="{{}}", z="{}")
    final, trace = enlarge(nc, base, separating, "y", "z")
    assert satisfies(nc, final)
    assert final["y"] != final["z"]
    assert trace.waves[-1] == frozenset()


def test_enlarge_preconditions():
    nc, base, separating = _worked_example()
    with pytest.raises(PreconditionError):
        enlarge(nc, base, separating, "xbar", "nope")
    with pytest.raises(PreconditionError):
        enlarge(nc, base, separating, "x", "z")  # base does not equate the pair
    with pytest.raises(PreconditionError):
        enlarge(nc, base, base, "xbar", "ybar")  # second model must split
    with pytest.raises(PreconditionError):
        enlarge(nc, separating, separating, "xbar", "ybar")  # first must equate
    broken = {k: v for k, v in base.items() if k != "v"}
    with pytest.raises(PreconditionError):
        enlarge(nc, broken, separating, "xbar", "ybar")
    tampered = {**base, "w": hf([])}
    with pytest.raises(PreconditionError):
        enlarge(nc, tampered, separating, "xbar", "ybar")


# --------------------------------------------------------------- pad_vars


def test_pad_vars_no_op_when_covered():
    nc = normalize([Subset(x, y)])
    assert pad_vars(nc, [("x", "y")]) is nc


def test_pad_vars_adds_harmless_membership():
    nc = normalize([Subset(x, y)])  # already uses _g1
    padded = pad_vars(nc, [("x", "q")])
    assert ("q", "_g2") in padded.memberships
    assert padded.differences == nc.differences
    assert solve(padded).is_sat


# --------------------------------------------------- minimize_equalities


def test_minimize_implied_pair():
    nc = normalize([Subset(x, y), Subset(y, x)])
    model, eqs = minimize_equalities(nc, [("x", "y")])
    assert eqs.classification == (Implied(),)
    assert eqs.implied_pairs() == (("x", "y"),)
    assert model["x"] == model["y"]


def test_minimize_falsifiable_pair():
    nc = normalize([Subset(x, y)])
    model, eqs = minimize_equalities(nc, [("x", "y")])
    assert isinstance(eqs.classification[0], Falsifiable)
    assert model["x"] != model["y"]
    assert eqs.enlargements <= 1
    assert satisfies(nc, {v: model[v] for v in nc.vars})


def test_minimize_mixed_pairs_all_falsified_at_once():
    phi = normalize([Subset(x, y), Subset(y, z)])
    pairs = [("x", "y"), ("y", "z"), ("x", "z")]
    model, eqs = minimize_equalities(phi, pairs)
    for pair, c in zip(eqs.equalities, eqs.classification):
        a, b = pair
        if isinstance(c, Falsifiable):
            assert model[a] != model[b]
        else:
            assert model[a] == model[b]
    # none of these chains force an equality
    assert eqs.implied_pairs() == ()
    assert eqs.enlargements <= len(pairs)


def test_minimize_agrees_with_implied_equalities():
    cases = [
        ([Subset(x, y), Subset(y, x)], [("x", "y")]),
        ([Subset(x, y)], [("x", "y")]),
        ([Eq(x, SetOp("setminus", y, z)), Eq(z, SetOp("setminus", z, z))],
         [("x", "y"), ("x", "z"), ("y", "z")]),
    ]
    for lits, pairs in cases:
        nc = normalize(lits)
        padded = pad_vars(nc, pairs)
        _, eqs = minimize_equalities(nc, pairs)
        assert eqs.implied_pairs() == _implied(padded, pairs)


def test_minimize_classifies_separated_pairs_without_probing(monkeypatch):
    from setsyl import solver

    phi = normalize([Subset(x, y), Subset(y, z)])
    pairs = [("x", "y"), ("y", "z"), ("x", "z")]
    # every pair falsifiable, by a direct probe of each
    for a, b in pairs:
        assert solve(normalize(phi.literals() + [Not(Eq(Var(a), Var(b)))])).is_sat
    builds = []
    separating = solver._Decision.separating

    def counting(decision, a, b):
        model = separating(decision, a, b)
        if model is not None:
            builds.append((a, b))
        return model

    monkeypatch.setattr(solver._Decision, "separating", counting)
    model, eqs = minimize_equalities(phi, pairs)
    assert eqs.classification == tuple(Falsifiable(model) for _ in pairs)
    assert all(model[a] != model[b] for a, b in pairs)
    # one separating build per enlargement, not one per pair
    assert len(builds) == eqs.enlargements < len(pairs)


def _minimize_by_restarts(nc, pairs, budget):
    """Reference: minimize_equalities as it rescanned the pairs from the
    first after every enlargement, each pair's separating model asked once
    and kept, and a scan longer than the pairs an error."""
    pairs = tuple(pairs)
    padded = pad_vars(nc, pairs)
    decision = _decide(padded, budget)
    if not decision.result.is_sat:
        return Unsat(), EqualitySet(pairs, tuple(Implied() for _ in pairs), 0)
    probes = {}

    def probe(pair):
        if pair not in probes:
            probes[pair] = decision.separating(*pair)
        return probes[pair]

    model = decision.result.model
    steps = 0
    while True:
        for pair in pairs:
            a, b = pair
            if model[a] == model[b] and probe(pair) is not None:
                model, _ = enlarge(padded, model, probe(pair), a, b)
                steps += 1
                assert steps <= len(pairs)
                break
        else:
            break
    classification = tuple(
        Implied() if model[a] == model[b] else Falsifiable(model) for a, b in pairs
    )
    return model, EqualitySet(pairs, classification, steps)


def _minimize_draws(count):
    """Seeded conjunctions, a third with disequalities, each with a sample
    of pairs over its names, some repeated, and over a foreign name q in
    every fourth draw.  First a pinned one: b = c is implied, though
    propagation does not tie b and c, so its split query spends a step,
    and the pair is asked twice."""
    yield NormalizedConjunction([], [("b", "d", "a"), ("a", "c", "d"), ("d", "a", "d")]), [("b", "c")] * 2
    for seed in range(count):
        rng = random.Random(f"minimize/{seed}")
        if seed % 3 == 0:
            nc = _with_disequalities(rng.getrandbits(32))
        else:
            nc = random_normalized_conjunction(rng, rng.randint(1, 4), rng.randint(0, 6))
        names = list(nc.vars) + ["q"] * (seed % 4 == 0)
        pairs = [(a, b) for a in names for b in names if a < b]
        if not pairs:
            continue
        picked = [rng.choice(pairs) for _ in range(rng.randint(1, 8))]
        yield nc, picked


def test_one_pass_minimizes_as_the_restarts_did(monkeypatch):
    builds = []
    build = solver.build_model
    monkeypatch.setattr(solver, "build_model", lambda w: builds.append(w) or build(w))
    draws = enlarged = diseqs = foreign = 0
    for nc, pairs in _minimize_draws(1500):
        got = []
        for minimize in (minimize_equalities, _minimize_by_restarts):
            builds.clear()
            meter = Budget(10**6)
            model, eqs = minimize(nc, pairs, meter)
            strings = None if isinstance(model, Unsat) else to_strings(model)
            got.append((strings, eqs.classification, eqs.enlargements, len(builds), meter.left))
        assert got[0] == got[1], (nc, pairs)
        draws += 1
        enlarged += got[0][2]
        diseqs += bool(nc.disequalities)
        foreign += any("q" in pair for pair in pairs)
    assert draws >= 1000 and enlarged >= 300 and diseqs >= 300 and foreign >= 200


def test_minimize_foreign_variable_is_padded():
    nc = normalize([Subset(x, y)])
    model, eqs = minimize_equalities(nc, [("x", "q")])
    assert isinstance(eqs.classification[0], Falsifiable)
    assert model["x"] != model["q"]


def test_minimize_unsat_conjunction():
    nc = normalize([In(x, y), In(y, x)])
    res, eqs = minimize_equalities(nc, [("x", "y")])
    assert isinstance(res, Unsat)
    assert eqs.classification == (Implied(),)
    assert eqs.enlargements == 0


def test_minimize_rejects_empty_pairs():
    with pytest.raises(PreconditionError):
        minimize_equalities(normalize([Subset(x, y)]), [])


# ------------------------------------------------------------------ fuzz


def test_random_conjunction_is_seed_deterministic():
    a = random_normalized_conjunction(random.Random("s/1"), 3, 4)
    b = random_normalized_conjunction(random.Random("s/1"), 3, 4)
    assert a == b
    names = set()
    for m in a.memberships:
        names.update(m)
    for d in a.differences:
        names.update(d)
    assert names <= {"a", "b", "c"}
    assert len(a.memberships) + len(a.differences) <= 4


def test_bounded_implied_matches_oracle_implies():
    # One walk answers the disjunction and each equality as oracle_implies
    # does, and each countermodel is the first model that falsifies it.
    refuted = 0
    for rank in (2, 3):
        rng = random.Random(f"bounded-implied/{rank}")
        draws = 0
        while draws < 300:
            nc = random_normalized_conjunction(rng, 4, 5)
            if len(nc.vars) < 2:
                continue
            draws += 1
            pairs = [(a, b) for i, a in enumerate(nc.vars) for b in nc.vars[i + 1 :]]
            f = nc.to_formula()
            eqs = [Eq(Var(a), Var(b)) for a, b in pairs]
            implied, counter = first_countermodels(f, eqs, rank)
            assert implied == oracle_implies(f, or_(*eqs), rank).implied, nc
            models = list(bounded_models(f, rank))
            for eq, m in zip(eqs, counter):
                assert (m is None) == oracle_implies(f, eq, rank).implied, (nc, eq)
                assert m == next((m2 for m2 in models if not eval_formula(eq, m2)), None), (nc, eq)
            refuted += not implied
    assert refuted >= 10


def test_fuzz_run_is_deterministic_and_clean(monkeypatch):
    walks = []
    walk = convexity.first_countermodels

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(convexity, "first_countermodels", counted)
    r1 = convexity_fuzz(vars=3, lits=3, iters=40, seed=7, rank_bound=2)
    assert len(walks) == r1.checked
    r2 = convexity_fuzz(vars=3, lits=3, iters=40, seed=7, rank_bound=2)
    assert r1 == r2
    assert r1.checked + r1.skipped == 40
    assert r1.violations == ()
    assert r1.implied_disjunctions >= 1


def test_rank_bounded_disjunction_artifact_is_dismissed():
    # Every rank <= 3 model of this conjunction equates some variable pair,
    # yet a rank 4 model separates all of them, so no equality disjunct is
    # implied.  The fuzzer must confirm candidates exactly and stay quiet.
    nc = NormalizedConjunction(
        memberships=[("d", "a"), ("c", "a")],
        differences=[("a", "a", "c"), ("a", "a", "b"), ("d", "b", "c")],
    )
    pairs = [(a, b) for i, a in enumerate(nc.vars) for b in nc.vars[i + 1 :]]
    eqs = [Eq(Var(a), Var(b)) for a, b in pairs]
    assert oracle_implies(nc.to_formula(), or_(*eqs), 3).implied
    implied, counter = first_countermodels(nc.to_formula(), eqs, 3)
    assert implied and all(m is not None for m in counter)
    model, eqs = minimize_equalities(nc, pairs)
    assert eqs.implied_pairs() == ()
    assert not isinstance(model, Unsat)
    assert satisfies(nc, model)
    assert all(model[a] != model[b] for a, b in pairs)
    assert max(model[v].rank for v in nc.vars) > 3
    report = convexity_fuzz(vars=4, lits=5, iters=1128, seed=2026, rank_bound=3)
    assert report.violations == ()


def test_fuzz_guards():
    with pytest.raises(PreconditionError):
        convexity_fuzz(vars=5, lits=3, iters=1, seed=0, rank_bound=2)
    with pytest.raises(PreconditionError):
        convexity_fuzz(vars=3, lits=3, iters=1, seed=0, rank_bound=4)
    for bad in (
        dict(vars=0, lits=3, iters=1, rank_bound=2),
        dict(vars=3, lits=-1, iters=1, rank_bound=2),
        dict(vars=3, lits=3, iters=-5, rank_bound=2),
        dict(vars=3, lits=3, iters=1, rank_bound=0),
    ):
        with pytest.raises(PreconditionError):
            convexity_fuzz(seed=0, **bad)


def test_write_reproducers(tmp_path):
    nc = NormalizedConjunction(memberships=[("a", "b")])
    violation = FuzzViolation(
        iteration=17,
        memberships=nc.memberships,
        differences=nc.differences,
        pairs=(("a", "b"),),
        script="; fake reproducer\n(assert (in a b))\n",
    )
    report = FuzzReport(
        vars=2, lits=1, iters=20, seed=3, rank_bound=2,
        checked=19, skipped=1, implied_disjunctions=2,
        violations=(violation,),
    )
    paths = write_reproducers(report, str(tmp_path))
    assert [p.rsplit("/", 1)[1] for p in paths] == ["convexity-violation-17.sexpr"]
    with open(paths[0]) as fh:
        assert fh.read() == violation.script
