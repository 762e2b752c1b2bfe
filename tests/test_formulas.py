"""Formula construction, classification, and normal-form helpers."""

from fractions import Fraction

import pytest

from setsyl.errors import MixedAtomError
from setsyl.formulas import (
    EMPTY,
    And,
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
    classify_atom,
    conjuncts,
    free_vars,
    implies,
    is_atom,
    is_literal,
    literal_atom,
    max_fresh_index,
    nnf,
    or_,
    term_vars,
)

x, y, z = Var("x"), Var("y"), Var("z")


def test_operator_arity_is_validated():
    with pytest.raises(ValueError):
        SetOp("bogus", x, y)
    with pytest.raises(ValueError):
        ExtOp("pow", (x, y))
    with pytest.raises(ValueError):
        ArithOp("plus", (x,))
    with pytest.raises(ValueError):
        ListOp("car", (x, y))


def test_terms_are_hashable_values():
    assert SetOp("union", x, y) == SetOp("union", x, y)
    assert len({SetOp("union", x, y), SetOp("union", x, y)}) == 1
    assert Var("x") == x


def test_and_or_sugar():
    f = and_(In(x, y), and_(In(y, z), In(x, z)))
    assert isinstance(f, And) and len(f.parts) == 2
    assert conjuncts(f) == [In(x, y), In(y, z), In(x, z)]
    g = or_(In(x, y))
    assert g == In(x, y)
    assert isinstance(implies(In(x, y), In(y, z)), Or)


def test_conjuncts_flattens_nested_and():
    f = and_(In(x, y), and_(Eq(x, y), In(y, z)))
    assert conjuncts(f) == [In(x, y), Eq(x, y), In(y, z)]
    assert conjuncts(In(x, y)) == [In(x, y)]


def test_nnf_pushes_negations_to_atoms():
    f = Not(And((In(x, y), Or((Eq(x, y), In(y, z))))))
    g = nnf(f)

    def no_negated_compound(h):
        if isinstance(h, Not):
            assert is_atom(h.body)
        elif isinstance(h, (And, Or)):
            for p in h.parts:
                no_negated_compound(p)

    no_negated_compound(g)
    assert nnf(Not(Not(In(x, y)))) == In(x, y)


def test_free_vars_first_occurrence_order():
    f = and_(In(y, x), Eq(z, SetOp("union", x, y)))
    assert free_vars(f) == ["y", "x", "z"]
    assert term_vars(SetOp("inter", z, x)) == ["z", "x"]
    assert free_vars(Eq(EMPTY, EMPTY)) == []


def test_max_fresh_index_reads_only_prefix_and_ascii_digits():
    assert max_fresh_index("_g", []) == 0
    assert max_fresh_index("_g", ["_g3", "x", "_g12", "_p40", "_g", "_g2a"]) == 12
    assert max_fresh_index("_g", ["_g007", "a_g9", "_g\u0661"]) == 7
    assert max_fresh_index("_p", ["_p0"]) == 0


def test_classify_atom_tags():
    assert classify_atom(In(x, y)) == "mls"
    assert classify_atom(Eq(x, SetOp("setminus", y, z))) == "mls"
    assert classify_atom(Subset(x, y)) == "mls"
    assert classify_atom(Eq(x, ExtOp("pow", (y,)))) == "mls-ext"
    assert classify_atom(Leq(x, y)) == "lra"
    assert classify_atom(Eq(x, ArithOp("plus", (y, RationalConst(Fraction(1)))))) == "lra"
    assert classify_atom(AtomPred(x)) == "list"
    assert classify_atom(Eq(x, ListOp("car", (y,)))) == "list"
    assert classify_atom(Eq(x, y)) == "shared"


def test_classify_atom_rejects_mixed_signatures():
    with pytest.raises(MixedAtomError):
        classify_atom(Eq(SetOp("union", x, y), ArithOp("neg", (z,))))
    with pytest.raises(MixedAtomError):
        classify_atom(Leq(x, SetOp("union", y, z)))


def test_literal_shape_helpers():
    assert is_literal(In(x, y))
    assert is_literal(Not(In(x, y)))
    assert not is_literal(Not(Not(In(x, y))))
    assert not is_literal(and_(In(x, y), In(y, z)))
    assert literal_atom(Not(Eq(x, y))) == (Eq(x, y), False)
    assert literal_atom(Eq(x, y)) == (Eq(x, y), True)
