"""Congruence closure for cons/car/cdr terms and the atom predicate, through the plugin API."""

import random

import pytest

from setsyl.errors import UnsupportedAtomError
from setsyl.formulas import AtomPred, Eq, In, ListOp, Not, Or, Var

from setsyl.lists import ListTheory

x, y, z, l = Var("x"), Var("y"), Var("z"), Var("l")


def cons(a, b):
    return ListOp("cons", (a, b))


def car(t):
    return ListOp("car", (t,))


def cdr(t):
    return ListOp("cdr", (t,))


def state(*lits) -> ListTheory:
    t = ListTheory()
    t.assert_literals(lits)
    return t


def check(*lits) -> bool:
    return ListTheory().assert_literals(lits)


# ------------------------------------------------------------- acceptance


def test_empty_state_satisfiable():
    assert check() is True


def test_projection_out_of_cons():
    # x = car(cons(y, l)) collapses x into y's class
    s = ListTheory()
    assert s.assert_literals([Eq(x, car(cons(y, l)))]) is True
    assert s.implied_equalities(["x", "y", "l"]) == [["x", "y"]]


def test_cdr_projection():
    s = state(Eq(x, cdr(cons(y, l))))
    assert s.implied_equalities(["x", "y", "l"]) == [["x", "l"]]


def test_projection_through_equality():
    # z = cons(y, l) and x = car(z): car sees a cons in z's class
    s = state(Eq(z, cons(y, l)), Eq(x, car(z)))
    assert s.implied_equalities(["x", "y", "z", "l"]) == [["x", "y"]]


def test_atom_of_cons_unsat():
    s = ListTheory()
    assert s.assert_literals([AtomPred(cons(x, y))]) is False
    assert s.unsat_reason == "an atom's class contains a cons cell"


def test_atom_spreads_through_class():
    assert check(Eq(z, cons(x, y)), AtomPred(z)) is False


def test_atom_alone_satisfiable():
    assert check(AtomPred(x)) is True


def test_not_atom_materializes_projections():
    # not atom(x) makes x a cell, so car(x) and cdr(x) determine it
    assert check(Not(AtomPred(x)), Eq(y, car(x)), Eq(z, cdr(x)), Eq(x, cons(y, z))) is True


def test_not_atom_then_atom_unsat():
    assert check(Not(AtomPred(x)), AtomPred(x)) is False


def test_cons_injectivity():
    s = state(Eq(cons(x, y), cons(z, l)))
    assert s.implied_equalities(["x", "y", "z", "l"]) == [["x", "z"], ["y", "l"]]


def test_injectivity_refutes_disequality():
    s = ListTheory()
    assert s.assert_literals([Eq(cons(x, y), cons(z, l)), Not(Eq(x, z))]) is False
    assert s.unsat_reason == "both sides of a disequality collapsed"


def test_congruence_of_equal_arguments():
    # x = y forces cons(x, z) = cons(y, z)
    assert check(Eq(x, y), Not(Eq(cons(x, z), cons(y, z)))) is False


def test_car_congruence():
    assert check(Eq(x, y), Not(Eq(car(x), car(y)))) is False


def test_no_acyclicity_requirement():
    # rational trees: a list may be its own tail
    assert check(Eq(x, cons(y, x))) is True


def test_self_referential_chain_satisfiable():
    assert check(Eq(x, cons(y, z)), Eq(z, cons(y, x))) is True


def test_plain_disequality_satisfiable():
    assert check(Not(Eq(x, y))) is True


def test_disequality_with_self_unsat():
    assert check(Not(Eq(x, x))) is False


# ----------------------------------------------------------------- errors


def test_rejects_foreign_atoms():
    with pytest.raises(UnsupportedAtomError):
        state(In(x, y))
    with pytest.raises(UnsupportedAtomError):
        state(Or((Eq(x, y), Eq(y, z))))


def test_rejects_non_list_terms():
    from setsyl.formulas import SetOp

    with pytest.raises(UnsupportedAtomError):
        state(Eq(x, SetOp("union", y, z)))


# ---------------------------------------------------------------- queries


def test_same_class_unknown_variable():
    s = state(Eq(x, y))
    assert s.implied_equalities(["x", "q"]) == []


def test_representatives_pick_least_variable():
    # the fragment maps each variable to its class's representative
    frag = state(Eq(z, y), Eq(y, x)).model_fragment()
    assert frag == {"x": "x", "y": "x", "z": "x"}
    # in the order the graph interned them, which is free_vars order
    assert list(frag) == ["z", "y", "x"]


def test_representatives_print_pure_terms():
    frag = state(Eq(x, cons(y, z))).model_fragment()
    # the cons node is no variable; y and z are alone in their classes
    assert frag == {"x": "x", "y": "y", "z": "z"}


def test_implied_pairs_orientation_and_order():
    s = state(Eq(x, y), Eq(z, l))
    assert s.implied_equalities(["x", "y", "z", "l"]) == [["x", "y"], ["z", "l"]]
    assert s.implied_equalities(["l", "z"]) == [["l", "z"]]
    assert s.implied_equalities(["z", "x", "l", "y"]) == [["z", "l"], ["x", "y"]]


def test_implied_via_projection():
    s = state(Eq(x, car(cons(y, l))))
    assert s.implied_equalities(["x", "y", "l"]) == [["x", "y"]]


def test_implied_ignores_unknown_names():
    s = state(Eq(x, y))
    assert s.implied_equalities(["x", "q", "y"]) == [["x", "y"]]


# ------------------------------------------------------ reference closure


class _ThreePassListTheory(ListTheory):
    """Reference: the closure as first written, three passes a round:
    congruence by signature, then injectivity and projection around one
    cons node per class."""

    def _close(self) -> None:
        changed = True
        while changed:
            changed = False
            n = len(self.parent)
            sig = {}
            for i in range(n):
                if self.node_op[i] is None:
                    continue
                s = (self.node_op[i],) + tuple(self.find(a) for a in self.node_args[i])
                j = sig.get(s)
                if j is None:
                    sig[s] = i
                elif self._union(i, j):
                    changed = True
            cons_of = {}
            for i in range(n):
                if self.node_op[i] != "cons":
                    continue
                r = self.find(i)
                other = cons_of.get(r)
                if other is None:
                    cons_of[r] = i
                else:
                    for a, b in zip(self.node_args[i], self.node_args[other]):
                        if self._union(a, b):
                            changed = True
            for i in range(n):
                if self.node_op[i] in ("car", "cdr"):
                    cell = cons_of.get(self.find(self.node_args[i][0]))
                    if cell is not None:
                        pick = 0 if self.node_op[i] == "car" else 1
                        if self._union(i, self.node_args[cell][pick]):
                            changed = True
        self._judge()


_LIST_NAMES = ("a", "b", "c")


def _random_list_term(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return Var(rng.choice(_LIST_NAMES))
    roll = rng.random()
    if roll < 0.4:
        return cons(_random_list_term(rng, depth - 1), _random_list_term(rng, depth - 1))
    return (car if roll < 0.7 else cdr)(_random_list_term(rng, depth - 1))


def _random_list_literal(rng):
    if rng.random() < 0.2:
        atom = AtomPred(_random_list_term(rng, 2))
    else:
        atom = Eq(_random_list_term(rng, 3), _random_list_term(rng, 3))
    return Not(atom) if rng.random() < 0.4 else atom


def test_one_signature_table_closes_as_the_three_passes_did():
    rng = random.Random(3502)
    sat = 0
    reasons = set()
    for _ in range(20000):
        lits = [_random_list_literal(rng) for _ in range(rng.randint(1, 8))]
        got, want = ListTheory(), _ThreePassListTheory()
        assert got.assert_literals(lits) == want.assert_literals(lits), lits
        assert got.unsat_reason == want.unsat_reason, lits
        # the same classes, each rooted at its least node
        assert [got.find(i) for i in range(len(got.parent))] == [
            want.find(i) for i in range(len(want.parent))
        ], lits
        assert got.implied_equalities(_LIST_NAMES) == want.implied_equalities(_LIST_NAMES)
        assert list(got.model_fragment().items()) == list(want.model_fragment().items())
        sat += got.unsat_reason is None
        reasons.add(got.unsat_reason)
    assert 5000 < sat < 15000 and len(reasons) == 3
