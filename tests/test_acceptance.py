"""End-to-end gate: one test and one printed verdict line per shipped guarantee.

Each test exercises a whole pipeline (CLI replay, fuzzing, exhaustive
solver/oracle cross-checks, theory combination) rather than a single unit.
Time ceilings are asserted where a guarantee includes one.
"""

import io
import json
import math
import os
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from itertools import combinations, permutations, product

from setsyl import cli
from setsyl.combine import solve_combined
from setsyl.convexity import (
    Falsifiable,
    Implied,
    check_trace_invariants,
    convexity_fuzz,
    enlarge,
    minimize_equalities,
    pad_vars,
    random_normalized_conjunction,
)
from setsyl.formulas import EMPTY, Eq, In, Leq, ListOp, Not, SetOp, Subset, Var
from setsyl.normalize import NormalizedConjunction
from setsyl.oracle import bounded_models, eval_formula, oracle_sat
from setsyl.solver import Unsat, satisfies, solve
from test_normalize import _apply_plan, _normalize_with_plan
from test_solver import _implied

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "enlargement.syl"
)


@contextmanager
def verdict(num, label):
    """Print exactly one pass/fail line for the enclosed block."""
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# -- 1: the worked enlargement replays bit-exactly and fast ------------------

S = "{{{{{}}}}}"  # the fresh element minted for the fixture's xbar=ybar run

EXPECTED_RESULT = {
    "x": "{}",
    "xbar": "{{}}",
    "ybar": "{{},%s}" % S,
    "z": "{{},{{}},%s,{{},%s}}" % (S, S),
    "w": "{{},{{}},{{},%s}}" % S,
    "v": "{{{},{{}}},{{},{{}},%s},{{},{{}},{{},%s}},{{},{{}},%s,{{},%s}}}"
    % (S, S, S, S),
}

EXPECTED_STAGES = [
    {
        "x": "{}",
        "xbar": "{{}}",
        "ybar": "{{},%s}" % S,
        "z": "{{},{{}},%s}" % S,
        "w": "{{},{{}}}",
        "v": "{{{},{{}}}}",
    },
    {
        "x": "{}",
        "xbar": "{{}}",
        "ybar": "{{},%s}" % S,
        "z": "{{},{{}},%s,{{},%s}}" % (S, S),
        "w": "{{},{{}},{{},%s}}" % S,
        "v": "{{{},{{}}},{{},{{}},%s}}" % S,
    },
    EXPECTED_RESULT,
]


def test_criterion_1_fixture_replay_is_bit_exact_and_subsecond():
    with verdict(1, "fixture enlargement replay"):
        t0 = time.perf_counter()
        code, out, err = run_cli("witness", FIXTURE, "--eq", "xbar=ybar", "--json")
        elapsed = time.perf_counter() - t0
        assert code == 0
        obj = json.loads(out)
        assert obj["pair"] == ["xbar", "ybar"]
        assert obj["direction"] == "ybar"
        assert obj["fresh_element"] == S
        assert obj["separator"] == "{}"
        assert obj["stabilized_at"] == 2
        assert obj["waves"] == [["ybar", "z"], ["v", "w", "z"], ["v"], []]
        assert obj["result"] == EXPECTED_RESULT
        assert obj["stages"] == EXPECTED_STAGES
        assert obj["all_pass"] is True
        assert len(obj["checks"]) == 26
        assert all(c["ok"] for c in obj["checks"])
        code2, out2, _ = run_cli("witness", FIXTURE, "--eq", "xbar=ybar", "--json")
        assert (code2, out2) == (code, out)
        assert elapsed < 1.0


# -- 2: a thousand randomized enlargements keep every invariant --------------


def _model_pairs(nc, rank):
    """For each variable pair, one model equating it and one separating it."""
    pairs = list(combinations(nc.vars, 2))
    eq, neq = {}, {}
    for m in bounded_models(nc.to_formula(), rank, budget=10**7):
        for p in pairs:
            a, b = p
            if m[a] is m[b]:
                eq.setdefault(p, m)
            else:
                neq.setdefault(p, m)
        if len(eq) == len(pairs) and len(neq) == len(pairs):
            break
    return [(p, eq[p], neq[p]) for p in pairs if p in eq and p in neq]


def test_criterion_2_thousand_seeded_enlargements_pass_all_checks():
    with verdict(2, "1000 randomized enlargements"):
        t0 = time.perf_counter()
        runs = failures = instance = 0
        while runs < 1000:
            rng = random.Random(f"acc2/{instance}")
            instance += 1
            nvars = rng.randint(2, 5)
            nlits = rng.randint(1, 5)
            rank = 3 if nvars <= 3 else 2
            nc = random_normalized_conjunction(rng, nvars, nlits)
            if len(nc.vars) < 2:
                continue
            for (a, b), base, sep in _model_pairs(nc, rank):
                final, trace = enlarge(nc, base, sep, a, b)
                ok = all(r.ok for r in check_trace_invariants(trace, base, nc))
                ok = ok and satisfies(nc, final)
                ok = ok and final[a] != final[b]
                for u, v in combinations(nc.vars, 2):
                    if base[u] != base[v]:
                        ok = ok and final[u] != final[v]
                if not ok:
                    failures += 1
                runs += 1
                if runs >= 1000:
                    break
        elapsed = time.perf_counter() - t0
        assert runs == 1000
        assert failures == 0
        assert elapsed < 60.0


# -- 3: ten thousand fuzz iterations never catch a convexity violation -------


def test_criterion_3_ten_thousand_fuzz_iterations_find_no_violation():
    with verdict(3, "10000 convexity fuzz iterations"):
        t0 = time.perf_counter()
        report = convexity_fuzz(vars=4, lits=5, iters=10000, seed=2026, rank_bound=3)
        elapsed = time.perf_counter() - t0
        assert report.iters == 10000
        assert report.checked + report.skipped == 10000
        assert report.violations == ()
        assert elapsed < 600.0


# -- 4: solver agrees with the brute-force oracle on an exhaustive corpus ----


def _renaming_representatives():
    """All conjunctions of up to 4 atoms over 3 variables, deduped by renaming."""
    names = ("a", "b", "c")
    atoms = [("m", i, j) for i in names for j in names]
    atoms += [("d", i, j, k) for i in names for j in names for k in names]

    def canon(lits):
        best = None
        for perm in permutations(names):
            ren = dict(zip(names, perm))
            key = tuple(
                sorted(tuple([lit[0]] + [ren[n] for n in lit[1:]]) for lit in lits)
            )
            if best is None or key < best:
                best = key
        return best

    reps = {}
    for size in range(1, 5):
        for combo in combinations(atoms, size):
            reps.setdefault(canon(combo), combo)
    return list(reps.values())


def test_criterion_4_solver_matches_oracle_on_exhaustive_corpus():
    with verdict(4, "exhaustive solver vs oracle"):
        corpus = _renaming_representatives()
        assert len(corpus) == 11226
        disagreements = bad_models = 0
        for combo in corpus:
            mems = tuple((l[1], l[2]) for l in combo if l[0] == "m")
            diffs = tuple((l[1], l[2], l[3]) for l in combo if l[0] == "d")
            nc = NormalizedConjunction(mems, diffs)
            res = solve(nc)
            if res.is_sat != oracle_sat(nc.to_formula(), 3).is_sat:
                disagreements += 1
                continue
            if res.is_sat:
                if not satisfies(nc, res.model):
                    bad_models += 1
                elif not eval_formula(nc.to_formula(), res.model):
                    bad_models += 1
        assert disagreements == 0
        assert bad_models == 0


def test_criterion_4_disequality_draws_match_the_oracle():
    # The corpus above has no disequality, which solve decides by convexity
    # (one split query per pair the junk-free build leaves equal).  Here
    # 3,000 seeded conjunctions of 2-3 variables, each with 0-3 memberships
    # or differences and 1-3 disequality pairs, meet the oracle at rank 3.
    # solve may not say unsat where the oracle finds a model, and every Sat
    # model must satisfy the conjunction; a Sat the oracle misses is allowed
    # only when the model needs a set of rank above 3.  The tallies are
    # pinned: a change to any of them is a change of verdict.
    with verdict(4, "disequalities vs oracle"):
        rng = random.Random("disequalities/oracle")
        sat = unsat = beyond = 0
        for _ in range(3000):
            names = ("a", "b", "c")[: rng.randint(2, 3)]
            pick = lambda: rng.choice(names)  # noqa: E731
            mems, diffs = [], []
            for _ in range(rng.randint(0, 3)):
                if rng.random() < 0.5:
                    mems.append((pick(), pick()))
                else:
                    diffs.append((pick(), pick(), pick()))
            diseqs = [(pick(), pick()) for _ in range(rng.randint(1, 3))]
            nc = NormalizedConjunction(mems, diffs, diseqs)
            f = nc.to_formula()
            res = solve(nc)
            found = oracle_sat(f, 3).is_sat
            if not res.is_sat:
                assert not found, nc
                unsat += 1
                continue
            assert satisfies(nc, res.model) and eval_formula(f, res.model), nc
            sat += 1
            if not found:
                assert max(res.model[v].rank for v in nc.vars) > 3, nc
                beyond += 1
        print(f"disequality draws: {sat} sat, {unsat} unsat, {beyond} sat beyond rank 3")
        assert (sat, unsat, beyond) == (686, 2314, 0)


# -- 5: every extension demo exhibits its nonconvex disjunction --------------


def test_criterion_5_nonconvex_demos_pass_for_all_extensions():
    with verdict(5, "nonconvex extension demos"):
        for theory in ("mlss", "mlsp", "mlsu", "mlsx", "mlsox"):
            code, out, err = run_cli("nonconvex-demo", "--theory", theory, "--json")
            assert code == 0, (theory, err)
            obj = json.loads(out)
            assert obj["theory"] == theory
            assert obj["passed"] is True
            assert obj["disjunction_implied"] is True
            assert len(obj["cases"]) >= 2
            if obj["k"] is not None:
                assert len(obj["cases"]) == math.comb(obj["k"] + 1, 2)
            assert all(case["refuted"] for case in obj["cases"])
            if theory == "mlsp":
                assert obj["pinned_padding"] is True
            else:
                assert obj["pinned_padding"] is None


# -- 6: minimization classifies pairs exactly as the solver implies ----------


def test_criterion_6_minimization_matches_implied_equalities():
    with verdict(6, "500 equality minimizations"):
        checked = instance = 0
        while checked < 500:
            rng = random.Random(f"acc6/{instance}")
            instance += 1
            nc = random_normalized_conjunction(
                rng, rng.randint(2, 4), rng.randint(1, 4)
            )
            if len(nc.vars) < 2:
                continue
            pairs = list(combinations(nc.vars, 2))
            res, eqs = minimize_equalities(nc, pairs)
            padded = pad_vars(nc, pairs)
            assert eqs.implied_pairs() == _implied(padded, pairs)
            assert eqs.enlargements <= len(pairs)
            if isinstance(res, Unsat):
                assert all(isinstance(c, Implied) for c in eqs.classification)
            else:
                assert satisfies(padded, res)
                for pair, cls in zip(eqs.equalities, eqs.classification):
                    if isinstance(cls, Falsifiable):
                        assert res[pair[0]] != res[pair[1]]
                    else:
                        assert res[pair[0]] == res[pair[1]]
            checked += 1
        assert checked == 500


# -- 7: theory combination is order-independent and round-bounded ------------


def test_criterion_7_combination_suite_under_all_plugin_orders():
    with verdict(7, "combination plugin permutations"):
        x, y = Var("x"), Var("y")
        u, v, w = Var("u"), Var("v"), Var("w")
        sets_deny = [Subset(x, y), Subset(y, x), Not(Leq(y, x))]
        lists_deny = [
            Eq(u, ListOp("car", (ListOp("cons", (v, w)),))),
            Not(Leq(u, v)),
        ]
        no_shared = [
            In(Var("s1"), Var("s2")),
            Leq(Var("n1"), Var("n2")),
            Eq(Var("l1"), ListOp("cons", (Var("l2"), Var("l3")))),
        ]
        for order in permutations(("mls", "lra", "list")):
            res = solve_combined(sets_deny, order)
            assert not res.is_sat
            assert ("x", "y") in res.propagated
            assert res.culprit == "lra"
            assert res.rounds <= max(len(res.problem.shared) - 1, 0)

            res = solve_combined(lists_deny, order)
            assert not res.is_sat
            assert ("u", "v") in res.propagated
            assert res.culprit == "lra"
            assert res.rounds <= max(len(res.problem.shared) - 1, 0)

            res = solve_combined(no_shared, order)
            assert res.is_sat
            assert res.problem.shared == ()
            assert res.propagated == ()
            assert res.rounds == 0


# -- 8: normalization preserves the oracle's verdict on every literal --------

TRIPLE_ATOMS = [
    lambda a, b, c: In(a, b),
    lambda a, b, c: Eq(a, b),
    lambda a, b, c: Subset(a, b),
    lambda a, b, c: Eq(a, EMPTY),
    lambda a, b, c: Eq(a, SetOp("union", b, c)),
    lambda a, b, c: Eq(a, SetOp("inter", b, c)),
    lambda a, b, c: Eq(a, SetOp("setminus", b, c)),
    lambda a, b, c: In(SetOp("union", a, b), c),
    lambda a, b, c: Subset(SetOp("inter", a, b), SetOp("setminus", a, c)),
]


def test_criterion_8_normalizer_preserves_verdicts_exhaustively():
    with verdict(8, "normalizer equisatisfiability"):
        cases = mismatches = 0
        seen = set()
        for build, names, neg in product(
            TRIPLE_ATOMS, product("xyz", repeat=3), (False, True)
        ):
            atom = build(*(Var(n) for n in names))
            lit = Not(atom) if neg else atom
            if lit in seen:
                continue
            seen.add(lit)
            cases += 1
            nc, plan = _normalize_with_plan([lit])
            res = oracle_sat(lit, 3)
            if res.is_sat != solve(nc).is_sat:
                mismatches += 1
                continue
            if res.is_sat:
                full = _apply_plan(plan, res.model)
                if not eval_formula(nc.to_formula(), full):
                    mismatches += 1
        assert cases == 330
        assert mismatches == 0
