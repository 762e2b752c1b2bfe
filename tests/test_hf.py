"""Hereditarily finite sets: canonical interning, operations, universe."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl.errors import ParseError
from setsyl.hf import (
    MAX_BRACE_DEPTH,
    HFSet,
    SetAssignment,
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

E = hf()
S1 = hf([E])          # {0}
S2 = hf([E, S1])      # {0, {0}}


def universe3():
    return enumerate_universe(3)


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
    u = universe3()
    assert list(u) == sorted(u, key=lambda s: s.key())


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


# assignments ----------------------------------------------------------------

def test_set_assignment_copies_and_restricts():
    src = {"x": E, "y": S2}
    m = SetAssignment(src)
    src["x"] = S1  # mutating the source must not leak in
    assert m["x"] is E
    assert m.rank() == 2
    r = m.restrict(["y"])
    assert "x" not in r and r["y"] is S2
    e = m.extended("z", S1)
    assert e["z"] is S1 and "z" not in m


def test_set_assignment_equality_and_strings():
    a = SetAssignment({"x": E})
    b = SetAssignment({"x": hf()})
    assert a == b
    assert a.to_strings() == {"x": "{}"}
