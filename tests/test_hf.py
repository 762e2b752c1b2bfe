"""Hereditarily finite sets: canonical interning, operations, universe."""

import random
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl.errors import InvariantViolation, ParseError
from setsyl.formulas import Eq, In, Not, Subset, Var
from setsyl.hf import (
    MAX_BRACE_DEPTH,
    HFSet,
    big_inter,
    big_union,
    braces,
    cross_product,
    enumerate_universe,
    hf,
    is_subset,
    kuratowski_pair,
    nested_singleton,
    parse_braces,
    power_set,
    set_diff,
    set_inter,
    set_union,
    unordered_cross,
)
from setsyl.normalize import normalize
from setsyl.solver import solve

E = hf()
S1 = hf([E])          # {0}
S2 = hf([E, S1])      # {0, {0}}


def universe3():
    return enumerate_universe(3)


@cache
def _reference_key(s):
    """The canonical order as a nested sort key: rank, then cardinality,
    then the children's keys in order.  It recurses once per rank, so it
    serves only as a reference for sets of small rank."""
    return (s.rank, len(s), tuple(_reference_key(c) for c in s))


def _tower(bottom, depth):
    for _ in range(depth):
        bottom = hf((bottom,))
    return bottom


def _nodes(values):
    """Every set reachable from values by membership, each once."""
    seen, todo = set(), list(values)
    while todo:
        s = todo.pop()
        if s not in seen:
            seen.add(s)
            todo.extend(s)
    return seen


# canonical identity ---------------------------------------------------------

def test_interning_gives_identity_equality():
    a = hf([hf(), hf([hf()])])
    b = hf([hf([hf()]), hf()])  # same children, different build order
    assert a is b
    assert hf([E, E]) is hf([E])  # duplicates collapse


def test_rank():
    assert E.rank == 0
    assert S1.rank == 1
    assert nested_singleton(4).rank == 4
    assert S2.rank == 2


def test_braces_round_trip():
    for s in universe3():
        assert parse_braces(braces(s)) is s
    assert braces(E) == "{}"
    assert parse_braces(" { { } , {} } ") is S1


def test_parse_braces_rejects_garbage():
    for bad in ("", "{", "{}}", "{},{}", "x", "{,}", "{{},}", "{{}{}}"):
        with pytest.raises(ValueError):
            parse_braces(bad)


def test_deep_sets_print_and_parse_within_the_depth_limit():
    deep = nested_singleton(5000)
    assert braces(deep) == "{" * 5001 + "}" * 5001
    assert parse_braces(braces(nested_singleton(MAX_BRACE_DEPTH - 1))).rank == MAX_BRACE_DEPTH - 1
    with pytest.raises(ParseError):
        parse_braces(braces(deep))


# operations -----------------------------------------------------------------

def test_boolean_operations_small_cases():
    assert set_union(S1, S2) is S2
    assert set_inter(S1, S2) is S1
    assert set_diff(S2, S1) is hf([S1])
    assert set_diff(S1, S1) is E
    assert is_subset(S1, S2) and not is_subset(S2, S1)


def test_power_set_and_big_ops():
    assert power_set(E) is S1
    assert len(power_set(S2)) == 4
    assert big_union(hf([S1, hf([S1])])) is hf([E, S1])
    assert big_inter(hf([S2, S1])) is S1
    assert big_union(E) is E


def test_kuratowski_and_products():
    p = kuratowski_pair(E, S1)
    assert p is hf([hf([E]), hf([E, S1])])
    assert kuratowski_pair(E, E) is hf([hf([E])])
    prod = cross_product(S1, S1)
    assert len(prod) == 1
    assert len(cross_product(S2, S2)) == 4
    assert len(unordered_cross(S2, S2)) == 3  # {a,b} pairs collapse


def test_enumerate_universe_sizes():
    assert len(enumerate_universe(0)) == 1
    assert len(enumerate_universe(1)) == 2
    assert len(enumerate_universe(2)) == 4
    assert len(enumerate_universe(3)) == 16
    ranks = [s.rank for s in universe3()]
    assert all(r <= 3 for r in ranks)
    assert len(set(universe3())) == 16


def test_universe_enumeration_is_canonical_and_sorted():
    for rank in (3, 4):
        u = enumerate_universe(rank)
        assert list(u) == sorted(u, key=_reference_key)


def _assert_order_matches_the_reference(values):
    for a, b in product(values, repeat=2):
        assert (a < b) == (_reference_key(a) < _reference_key(b))
    for s in _nodes(values):
        assert list(s) == sorted(s, key=_reference_key)


def test_order_matches_the_nested_key_on_the_rank_three_universe():
    _assert_order_matches_the_reference(universe3())


def test_order_matches_the_nested_key_on_solver_models():
    rng = random.Random(1717)
    names = [Var(c) for c in "abcdef"]
    values = set()
    for _ in range(40):
        lits = []
        for _ in range(rng.randint(2, 6)):
            a, b = rng.sample(names, 2)
            lits.append(rng.choice([In(a, b), Subset(a, b), Not(Eq(a, b))]))
        res = solve(normalize(lits))
        if res.is_sat:
            values.update(v for _, v in res.model.items())
    assert max(v.rank for v in values) > 16  # junk tags are among them
    _assert_order_matches_the_reference(sorted(values, key=_reference_key))


@pytest.mark.parametrize("depth", [500, 5000])
def test_sets_that_differ_only_at_the_bottom_compare_at_any_depth(depth):
    b1, b2 = parse_braces("{{{{}}}}"), parse_braces("{{{},{{}}}}")
    assert (b1.rank, len(b1)) == (b2.rank, len(b2)) and b1 < b2
    s1, s2 = _tower(b1, depth), _tower(b2, depth)
    assert hf([s2, s1]).children == (s1, s2)
    assert (s1 < s2, s2 < s1) == (True, False)


def test_two_objects_with_the_same_members_are_an_invariant_violation():
    with pytest.raises(InvariantViolation):
        HFSet(S1.children) < S1  # bypasses hf(), so it is not interned


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15))
def test_operation_laws_within_universe(i, j):
    u = universe3()
    a, b = u[i], u[j]
    assert set_union(a, b) is set_union(b, a)
    assert set_inter(a, b) is set_inter(b, a)
    assert set_diff(a, b) is set_inter(a, set_diff(a, b))
    assert is_subset(set_inter(a, b), a)
    assert is_subset(a, set_union(a, b))
    # difference definition, element by element
    d = set_diff(a, b)
    for c in u:
        assert (c in d) == ((c in a) and (c not in b))
