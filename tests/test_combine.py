"""Purification and equality propagation across the three theories."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl.combine import (
    CombinedSat,
    CombinedUnsat,
    ListTheory,
    LraTheory,
    MlsTheory,
    TheoryProblem,
    propagate,
    purify,
    solve_combined,
)
from setsyl.convexity import random_normalized_conjunction
from setsyl.errors import (
    InvariantViolation,
    NonConvexPluginError,
    UnsupportedAtomError,
)
from setsyl.formulas import (
    LIST,
    LRA,
    MLS,
    SHARED,
    ArithOp,
    AtomPred,
    Eq,
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
    classify_atom,
    literal_atom,
)
from setsyl.normalize import normalize
from setsyl.sexpr import parse_script
from setsyl.solver import implied_equalities, solve

x, y, z, u, v, w = Var("x"), Var("y"), Var("z"), Var("u"), Var("v"), Var("w")


def cons(a, b):
    return ListOp("cons", (a, b))


def car(t):
    return ListOp("car", (t,))


def cdr(t):
    return ListOp("cdr", (t,))


def rc(q):
    return RationalConst(Fraction(q))


# ----------------------------------------------------------------- purify


def test_purify_flattens_same_theory_nesting():
    p = purify([Eq(x, car(cons(y, Var("l"))))])
    assert p.lists == (
        Eq(Var("_p1"), cons(y, Var("l"))),
        Eq(x, car(Var("_p1"))),
    )
    assert p.mls == () and p.lra == ()
    assert p.fresh_defs == (Eq(Var("_p1"), cons(y, Var("l"))),)
    assert p.shared == ()


def test_purify_leaves_flat_literals_alone():
    lits = [In(x, y), Leq(u, v), Not(AtomPred(w))]
    p = purify(lits)
    assert p.mls == (In(x, y),)
    assert p.lra == (Leq(u, v),)
    assert p.lists == (Not(AtomPred(w)),)
    assert p.fresh_defs == ()
    assert p.shared == ()


def test_purify_cross_theory_equality_names_left_side():
    p = purify([Eq(SetOp("union", x, y), cons(u, v))])
    assert p.mls == (Eq(Var("_p1"), SetOp("union", x, y)),)
    assert p.lists == (Eq(Var("_p1"), cons(u, v)),)
    assert p.shared == ("_p1",)


def test_purify_memoizes_repeated_subterms():
    p = purify([Eq(x, car(cons(y, z))), Eq(u, cdr(cons(y, z)))])
    assert len(p.fresh_defs) == 1
    assert p.lists == (
        Eq(Var("_p1"), cons(y, z)),
        Eq(x, car(Var("_p1"))),
        Eq(u, cdr(Var("_p1"))),
    )


def test_purify_avoids_taken_fresh_names():
    p = purify([Eq(Var("_p3"), car(cons(y, z)))])
    assert p.fresh_defs == (Eq(Var("_p4"), cons(y, z)),)


def test_purify_shared_variables_in_first_occurrence_order():
    p = purify([Leq(u, x), In(x, y), AtomPred(u)])
    assert p.shared == ("x", "u")


def test_purify_partitions_are_pure():
    lits = [
        Eq(x, SetOp("union", SetOp("inter", x, y), z)),
        Leq(ArithOp("plus", (u, rc(1))), v),
        Eq(w, cons(u, cdr(w))),
        Eq(x, u),
        Not(Eq(y, v)),
    ]
    p = purify(lits)
    for part, home in ((p.mls, MLS), (p.lra, LRA), (p.lists, LIST)):
        for lit in part:
            atom, _ = literal_atom(lit)
            assert classify_atom(atom) in (home, SHARED)


def test_purify_variable_equality_goes_to_both_mentioning_partitions():
    p = purify([In(x, y), Leq(x, y), Eq(x, y)])
    assert Eq(x, y) in p.mls
    assert Eq(x, y) in p.lra
    assert p.lists == ()


def test_purify_variable_equality_goes_to_first_mentioning_partition():
    p = purify([Leq(x, z), Eq(x, y)])
    assert p.lra == (Leq(x, z), Eq(x, y))
    assert p.mls == ()


def test_purify_orphan_equality_falls_back_to_sets():
    p = purify([Leq(z, z), Eq(x, y)])
    assert Eq(x, y) in p.mls
    assert Eq(x, y) not in p.lra


def test_purify_negated_variable_equality_routes_the_negation():
    p = purify([In(x, z), Not(Eq(x, y))])
    assert Not(Eq(x, y)) in p.mls


def test_purify_rejects_non_literals():
    with pytest.raises(UnsupportedAtomError):
        purify([Or((In(x, y), In(y, x)))])


def test_purified_sets_stay_equisatisfiable():
    lit = Eq(x, SetOp("union", SetOp("inter", x, y), z))
    p = purify([lit])
    direct = solve(normalize([lit]))
    via = propagate(p, [MlsTheory()])
    assert direct.is_sat == via.is_sat is True

    bad = [In(x, y), In(y, x)]
    assert propagate(purify(bad), [MlsTheory()]).is_sat is False
    assert solve(normalize(bad)).is_sat is False


# ---------------------------------------------------------------- plugins


def test_mls_plugin_roundtrip():
    p = MlsTheory()
    assert p.assert_literals([Subset(x, y), Subset(y, x)]) is True
    assert p.implied_equalities(["x", "y"]) == (("x", "y"),)
    frag = p.model_fragment()
    assert set(frag) == {"x", "y"}
    assert frag["x"].startswith("{")
    assert p.assert_literals([In(x, y), In(y, x)]) is False


def test_lra_plugin_roundtrip():
    p = LraTheory()
    assert p.assert_literals([Leq(x, y), Leq(y, x)]) is True
    assert p.implied_equalities(["x", "y"]) == (("x", "y"),)
    frag = p.model_fragment()
    assert frag["x"] == frag["y"]
    assert isinstance(frag["x"], Fraction)
    assert p.assert_literals([Leq(ArithOp("plus", (x, rc(1))), y), Leq(y, x)]) is False


def test_list_plugin_roundtrip():
    p = ListTheory()
    assert p.assert_literals([Eq(x, car(cons(y, z)))]) is True
    assert p.implied_equalities(["x", "y"]) == (("x", "y"),)
    assert p.model_fragment()["x"] == "x"
    assert p.assert_literals([AtomPred(cons(x, y))]) is False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 6))
def test_mls_implied_matches_probing_every_pair(seed, nlits):
    # The plugin skips the pairs its verified model separates; probing
    # every pair must find nothing more.
    lits = random_normalized_conjunction(random.Random(seed), 4, nlits).literals()
    nc = normalize(lits)
    names = ["a", "b", "c", "d"]
    present = [v for v in names if v in nc.vars]
    plugin = MlsTheory()
    plugin.assert_literals(lits)
    assert plugin.implied_equalities(names) == implied_equalities(
        nc, tuple(combinations(present, 2))
    )


def test_plugin_metadata():
    for cls, name in ((MlsTheory, "mls"), (LraTheory, "lra"), (ListTheory, "list")):
        plugin = cls()
        assert plugin.name == name
        assert plugin.is_convex is True


# -------------------------------------------------------------- propagate


def _sets_force_pair_arith_denies():
    return [Subset(x, y), Subset(y, x), Not(Leq(y, x))]


def _lists_force_pair_arith_denies():
    return [Eq(u, car(cons(v, w))), Not(Leq(u, v))]


def test_sets_to_arith_propagation_unsat():
    res = solve_combined(_sets_force_pair_arith_denies())
    assert isinstance(res, CombinedUnsat)
    assert res.culprit == "lra"
    assert ("x", "y") in res.propagated
    assert res.rounds == 1


def test_lists_to_arith_propagation_unsat():
    res = solve_combined(_lists_force_pair_arith_denies())
    assert isinstance(res, CombinedUnsat)
    assert res.culprit == "lra"
    assert res.propagated == (("u", "v"),)


def test_disjoint_theories_sat():
    res = solve_combined([In(x, y), Leq(u, v), AtomPred(w)])
    assert isinstance(res, CombinedSat)
    assert res.propagated == ()
    assert res.rounds == 0
    assert set(res.fragments) == {"mls", "lra", "list"}
    assert set(res.fragments["mls"]) == {"x", "y"}
    assert set(res.fragments["lra"]) == {"u", "v"}
    assert set(res.fragments["list"]) == {"w"}


def test_verdicts_stable_under_plugin_permutations():
    suites = [
        (_sets_force_pair_arith_denies(), False),
        (_lists_force_pair_arith_denies(), False),
        ([In(x, y), Leq(u, v), AtomPred(w)], True),
    ]
    for lits, expect_sat in suites:
        for order in permutations(("mls", "lra", "list")):
            res = solve_combined(lits, plugin_names=order)
            assert res.is_sat is expect_sat, (lits, order)


def test_rounds_within_pair_bound():
    lits = _sets_force_pair_arith_denies() + [Eq(z, car(cons(u, w)))]
    res = solve_combined(lits)
    n = len(res.problem.shared)
    assert res.rounds <= n * (n - 1) // 2 + 1


def test_chained_propagation_through_two_theories():
    # sets force x = y; arithmetic then forces y = z; lists finally object
    lits = [
        Subset(x, y),
        Subset(y, x),
        Leq(y, z),
        Leq(z, x),
        Eq(x, cons(u, v)),
        AtomPred(z),
    ]
    res = solve_combined(lits)
    assert isinstance(res, CombinedUnsat)
    assert res.culprit == "list"
    assert res.rounds >= 1


def _chain_script(n):
    lines = []
    for i in range(n - 1):
        lines.append(f"(assert (subset x{i} x{i + 1}))")
        lines.append(f"(assert (<= x{i} x{i + 1}))")
    lines.append(f"(assert (subset x{n - 1} x0))")
    lines.append(f"(assert (not (= (car x0) (car x{n - 1}))))")
    return "\n".join(lines)


def test_chain_of_eight_propagates_every_pair():
    # Sets force x0 = ... = x7; arithmetic then holds all 28 pairs as
    # equalities, which once made elimination blow up.
    res = solve_combined(parse_script(_chain_script(8)).asserts)
    assert isinstance(res, CombinedUnsat)
    assert res.culprit == "list"
    names = [f"x{i}" for i in range(8)]
    assert sorted(res.propagated) == list(combinations(names, 2))


def test_deeply_nested_sum_is_sat():
    # Purification names each of the 24 nested sums with an equality row.
    t = "(+ a b)"
    for _ in range(24):
        t = f"(+ {t} b)"
    res = solve_combined(parse_script(f"(assert (<= c {t}))").asserts)
    assert res.is_sat
    vals = res.fragments["lra"]
    assert vals["c"] <= vals["a"] + 25 * vals["b"]


def test_propagate_requires_covering_plugins():
    with pytest.raises(UnsupportedAtomError):
        propagate(purify([In(x, y)]), [LraTheory()])


def test_propagate_rejects_nonconvex_plugin():
    class Fake:
        name = "fake"
        is_convex = False

        def assert_literals(self, literals):
            return True

        def implied_equalities(self, shared):
            return ()

        def model_fragment(self):
            return {}

    with pytest.raises(NonConvexPluginError):
        propagate(purify([]), [Fake()])


def test_solve_combined_rejects_unknown_plugin():
    with pytest.raises(UnsupportedAtomError):
        solve_combined([In(x, y)], plugin_names=["mls", "bogus"])


def test_empty_assertions_are_satisfiable():
    res = solve_combined([])
    assert res.is_sat
    assert res.fragments == {"mls": {}, "lra": {}, "list": {}}


# ------------------------------------------------------------ disjunction


def test_disjunction_picks_the_satisfiable_branch():
    res = solve_combined([Or((Not(Eq(x, x)), In(x, y)))])
    assert res.is_sat
    assert set(res.fragments["mls"]) == {"x", "y"}


def test_disjunction_with_all_branches_refuted():
    res = solve_combined(
        [Or((Not(Eq(x, x)), and_(In(x, y), In(y, x))))]
    )
    assert isinstance(res, CombinedUnsat)
    assert res.culprit == "mls"


def test_disjunction_distributes_over_conjunction():
    res = solve_combined([In(x, y), Or((In(y, x), Leq(u, v)))])
    assert res.is_sat
    assert set(res.fragments["lra"]) == {"u", "v"}
