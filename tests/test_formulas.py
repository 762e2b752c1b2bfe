"""Formula construction, classification, and normal-form helpers."""

import copy
import pickle
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
    fresh_names,
    is_literal,
    literal_atom,
    max_fresh_index,
    or_,
)

x, y, z = Var("x"), Var("y"), Var("z")


def test_operator_arity_is_validated():
    with pytest.raises(ValueError, match="^unknown set operator 'bogus'$"):
        SetOp("bogus", x, y)
    with pytest.raises(ValueError, match="^pow expects 1 argument$"):
        ExtOp("pow", (x, y))
    with pytest.raises(ValueError, match="^plus expects 2 arguments$"):
        ArithOp("plus", (x,))
    with pytest.raises(ValueError, match="^car expects 1 argument$"):
        ListOp("car", (x, y))
    with pytest.raises(ValueError, match="^unknown extension operator 'car'$"):
        ExtOp("car", (x,))
    with pytest.raises(ValueError, match="^unknown arithmetic operator '\\+'$"):
        ArithOp("+", (x, y))
    with pytest.raises(ValueError, match="^unknown list operator 'pow'$"):
        ListOp("pow", (x,))


def test_terms_are_hashable_values():
    assert SetOp("union", x, y) == SetOp("union", x, y)
    assert len({SetOp("union", x, y), SetOp("union", x, y)}) == 1
    assert Var("x") == x


def test_records_are_equal_by_class_and_fields():
    assert In(x, y) != Subset(x, y)
    assert ExtOp("single", (x,)) != ListOp("car", (x,))
    assert ExtOp("pow", (x,)) != ArithOp("neg", (x,))
    assert In(x, y) != In(y, x)
    assert hash(In(Var("x"), Var("y"))) == hash(In(x, y))
    assert hash(Not(In(x, y))) == hash(Not(In(Var("x"), y)))
    assert EMPTY == type(EMPTY)() and hash(EMPTY) == hash(type(EMPTY)())


def test_record_fields_cannot_be_assigned_or_deleted():
    atom = In(x, y)
    with pytest.raises(AttributeError, match="^cannot assign to field 'left'$"):
        atom.left = z
    with pytest.raises(AttributeError, match="^cannot delete field 'right'$"):
        del atom.right
    with pytest.raises(AttributeError):
        x.other = 1
    assert atom == In(x, y)


def test_record_repr_is_the_dataclass_repr():
    # CI's diagnose step pins this line for `(assert (in x (pow y)))`
    assert repr(In(x, ExtOp("pow", (y,)))) == (
        "In(left=Var(name='x'), right=ExtOp(op='pow', args=(Var(name='y'),)))"
    )
    assert repr(And((Leq(RationalConst(Fraction(1, 2)), x), Not(Eq(EMPTY, y))))) == (
        "And(parts=(Leq(left=RationalConst(value=Fraction(1, 2)), right=Var(name='x')),"
        " Not(body=Eq(left=Empty(), right=Var(name='y')))))"
    )


def test_records_pickle_and_copy_as_equal_records():
    f = Or((
        In(x, ExtOp("pow", (y,))),
        Not(Eq(SetOp("union", x, z), EMPTY)),
        AtomPred(ListOp("car", (x,))),
    ))
    for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert twin == f and hash(twin) == hash(f) and repr(twin) == repr(f)
    assert pickle.loads(pickle.dumps(EMPTY)) == EMPTY


def test_record_replace_and_asdict():
    atom = In(x, y)
    assert atom.replace(right=z) == In(x, z) and atom == In(x, y)
    with pytest.raises(TypeError):
        atom.replace(middle=z)
    with pytest.raises(ValueError, match="^unknown set operator 'bogus'$"):
        SetOp("union", x, y).replace(op="bogus")
    assert Not(atom).asdict() == {"body": {"left": {"name": "x"}, "right": {"name": "y"}}}
    assert And((atom,)).asdict() == {"parts": ({"left": {"name": "x"}, "right": {"name": "y"}},)}


def test_junctions_need_a_part():
    with pytest.raises(ValueError, match="^And needs at least one part$"):
        And(())
    with pytest.raises(ValueError, match="^Or needs at least one part$"):
        Or(())


def test_and_or_sugar():
    f = and_(In(x, y), and_(In(y, z), In(x, z)))
    assert isinstance(f, And) and len(f.parts) == 2
    assert conjuncts(f) == [In(x, y), In(y, z), In(x, z)]
    g = or_(In(x, y))
    assert g == In(x, y)


def test_conjuncts_flattens_nested_and():
    f = and_(In(x, y), and_(Eq(x, y), In(y, z)))
    assert conjuncts(f) == [In(x, y), Eq(x, y), In(y, z)]
    assert conjuncts(In(x, y)) == [In(x, y)]


def test_free_vars_first_occurrence_order():
    f = and_(In(y, x), Eq(z, SetOp("union", x, y)))
    assert free_vars(f) == ["y", "x", "z"]
    assert free_vars(Subset(SetOp("inter", z, x), EMPTY)) == ["z", "x"]
    assert free_vars(Eq(EMPTY, EMPTY)) == []


def test_max_fresh_index_reads_only_prefix_and_ascii_digits():
    assert max_fresh_index("_g", []) == 0
    assert max_fresh_index("_g", ["_g3", "x", "_g12", "_p40", "_g", "_g2a"]) == 12
    assert max_fresh_index("_g", ["_g007", "a_g9", "_g\u0661"]) == 7
    assert max_fresh_index("_p", ["_p0"]) == 0
    # fresh_names counts on past the largest taken index, read when called
    taken = ["_g3", "x", "_g12", "_g2a", "_g\u0661"]
    names = fresh_names("_g", taken)
    taken.append("_g40")
    assert [next(names) for _ in range(3)] == ["_g13", "_g14", "_g15"]
    assert next(fresh_names("_m", [])) == "_m1"


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


def test_classify_atom_names_every_family_of_a_three_way_mix():
    # cons is a list operator, 1 an arithmetic constant, empty a set term
    atom = Eq(x, ListOp("cons", (RationalConst(Fraction(1)), EMPTY)))
    with pytest.raises(MixedAtomError, match=r"^atom mixes list, lra and set operators: "):
        classify_atom(atom)
    with pytest.raises(MixedAtomError, match=r"^atom mixes lra and set operators: "):
        classify_atom(Leq(x, SetOp("union", y, z)))


def test_literal_shape_helpers():
    assert is_literal(In(x, y))
    assert is_literal(Not(In(x, y)))
    assert not is_literal(Not(Not(In(x, y))))
    assert not is_literal(and_(In(x, y), In(y, z)))
    assert literal_atom(Not(Eq(x, y))) == (Eq(x, y), False)
    assert literal_atom(Eq(x, y)) == (Eq(x, y), True)
