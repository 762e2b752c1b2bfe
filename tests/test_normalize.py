"""Reduction to the normal form of memberships, differences and
disequalities.

normalize builds the normal form alone.  Equisatisfiability is checked
constructively with the reference normalizer below, which also returns a
witness plan: how to extend a model of the input to the fresh names.
Each test that replays a plan first checks that the reference's normal
form equals normalize's, so the plan belongs to exactly that form."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setsyl.errors import InvariantViolation, MixedAtomError, ResourceLimitError, UnsupportedAtomError
from setsyl.formulas import (
    EMPTY,
    MLS,
    SHARED,
    And,
    ArithOp,
    AtomPred,
    Empty,
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
    atoms,
    classify_atom,
    free_vars,
    is_literal,
    literal_atom,
    max_fresh_index,
    or_,
)
from setsyl.hf import hf, set_diff
from setsyl.normalize import (
    NormalizedConjunction,
    _check_mls_atom,
    _is_set_atom,
    dnf_split,
    normalize,
    split_disjuncts,
)
from setsyl.oracle import bounded_models, eval_formula, eval_term, oracle_sat
from setsyl.solver import solve
from test_oracle import nnf

x, y, z, w = Var("x"), Var("y"), Var("z"), Var("w")


def lits_of(nc):
    return set(nc.memberships), set(nc.differences)


def _normalize_with_plan(lits):
    """normalize's normal form of lits, with the reference normalizer's
    witness plan, checked to belong to exactly that form."""
    nc = normalize(lits)
    ref, plan = _reference_normalize(lits)
    assert ref == nc, lits
    return nc, plan


# the rewrite shapes -----------------------------------------------------------

def test_membership_passes_through():
    nc = normalize([In(x, y)])
    assert nc.memberships == (("x", "y"),)
    assert nc.differences == ()


def test_difference_passes_through():
    nc = normalize([Eq(x, SetOp("setminus", y, z))])
    assert nc.differences == (("x", "y", "z"),)


def test_equals_empty():
    nc = normalize([Eq(x, EMPTY)])
    assert nc.differences == (("x", "x", "x"),)
    assert nc.memberships == ()


def test_not_equals_empty_adds_inhabitant():
    nc = normalize([Not(Eq(x, EMPTY))])
    assert nc.memberships == (("_g1", "x"),)
    assert nc.differences == ()


def test_non_membership():
    nc = normalize([Not(In(x, y))])
    mems, diffs = lits_of(nc)
    assert ("x", "_g1") in mems
    assert ("_g1", "_g1", "y") in diffs


def test_disequality_is_kept():
    nc, plan = _normalize_with_plan([Not(Eq(x, y))])
    assert nc.disequalities == (("x", "y"),)
    assert (nc.memberships, nc.differences, plan, nc.vars) == ((), (), (), ("x", "y"))


def test_disequality_with_a_compound_side_names_it_once():
    nc, plan = _normalize_with_plan([Not(Eq(x, SetOp("union", y, z)))])
    assert nc.disequalities == (("x", "_g1"),)
    assert nc.differences == (("_g2", "_g1", "y"), ("_g2", "z", "y"), ("_g3", "y", "_g1"), ("_g3", "_g3", "_g3"))
    assert [step[:2] for step in plan] == [("_g1", "term"), ("_g2", "diff"), ("_g3", "diff")]


def test_disequality_round_trips_through_literals():
    nc = normalize([In(x, y), Not(Eq(y, z)), Not(Eq(x, y))])
    assert nc.vars == ("x", "y", "z")
    assert nc.literals()[1:] == [Not(Eq(y, z)), Not(Eq(x, y))]
    assert normalize(nc.literals()) == nc
    assert nc != normalize([In(x, y)]) and "y != z" in repr(nc)


def test_plain_equality():
    nc = normalize([Eq(x, y)])
    mems, diffs = lits_of(nc)
    assert diffs == {("x", "y", "_g1"), ("_g1", "_g1", "_g1")}
    assert mems == set()


def test_intersection():
    nc = normalize([Eq(x, SetOp("inter", y, z))])
    _, diffs = lits_of(nc)
    assert diffs == {("_g1", "y", "z"), ("x", "y", "_g1")}


def test_union():
    nc = normalize([Eq(x, SetOp("union", y, z))])
    _, diffs = lits_of(nc)
    assert diffs == {
        ("_g1", "x", "y"),
        ("_g1", "z", "y"),
        ("_g2", "y", "x"),
        ("_g2", "_g2", "_g2"),
    }


def test_subset_golden():
    nc = normalize([Subset(x, y)])
    assert nc.differences == (("_g1", "y", "x"), ("x", "y", "_g1"))
    assert nc.memberships == ()
    assert nc.vars == ("_g1", "y", "x") or set(nc.vars) == {"x", "y", "_g1"}


def test_negated_subset_plan_shape():
    # x not subset y: x != _g1 with _g1 = y inter x, named once
    nc, plan = _normalize_with_plan([Not(Subset(x, y))])
    assert nc.vars == ("_g2", "y", "x", "_g1")
    assert nc.differences == (("_g2", "y", "x"), ("_g1", "y", "_g2"))
    assert nc.disequalities == (("x", "_g1"),)
    assert [step[1] for step in plan] == ["term", "diff"]


def test_nested_terms_flatten_definitions_first():
    nc = normalize([In(SetOp("union", x, y), z)])
    mems, diffs = lits_of(nc)
    # _g1 = x union y is defined via the union rewrite, then _g1 in z
    assert ("_g1", "z") in mems
    assert len(diffs) == 4


# bookkeeping ------------------------------------------------------------------

def test_duplicates_collapse():
    nc = normalize([In(x, y), In(x, y), Subset(x, y), Subset(x, y)])
    assert nc.memberships == (("x", "y"),)
    assert len(nc.differences) == 2


def test_vars_first_occurrence_order_and_size():
    nc = normalize([In(x, y), Eq(z, SetOp("setminus", w, y))])
    assert nc.vars == ("x", "y", "z", "w")
    assert (len(nc.vars), len(nc.memberships) + len(nc.differences)) == (4, 2)


def test_fresh_names_avoid_taken_ones():
    nc = normalize([Subset(Var("_g3"), y)])
    assert "_g4" in nc.vars
    assert "_g3" in nc.vars


def test_literals_round_trip_through_formula():
    nc = normalize([In(x, y), Eq(z, SetOp("setminus", x, y))])
    again = normalize(nc.literals())
    assert again == nc
    assert free_vars(nc.to_formula()) == list(nc.vars)


def test_equality_and_hash():
    a = normalize([In(x, y)])
    b = normalize([In(x, y)])
    assert a == b and hash(a) == hash(b)


# disjunction splitting ----------------------------------------------------------

def test_dnf_split_products():
    f = and_(or_(In(x, y), In(y, x)), or_(In(x, z), In(z, x)))
    branches = list(dnf_split(f))
    assert branches == [
        [In(x, y), In(x, z)],
        [In(x, y), In(z, x)],
        [In(y, x), In(x, z)],
        [In(y, x), In(z, x)],
    ]


def test_dnf_split_rejects_extension_atoms():
    with pytest.raises(UnsupportedAtomError):
        dnf_split(Eq(x, ExtOp("pow", (y,))))


def test_split_disjuncts_is_theory_agnostic():
    f = or_(Eq(x, ExtOp("pow", (y,))), In(x, y))
    assert len(list(split_disjuncts(f))) == 2


def test_split_disjuncts_applies_de_morgan_and_double_negation():
    a, b, c = In(x, y), Eq(x, y), In(y, z)
    # not (a and (b or c)) is (not a) or (not b and not c)
    assert list(split_disjuncts(Not(And((a, Or((b, c))))))) == [[Not(a)], [Not(b), Not(c)]]
    # not (a or b) is one conjunction; not (a and b) is two disjuncts
    assert list(split_disjuncts(Not(Or((a, b))))) == [[Not(a), Not(b)]]
    assert list(split_disjuncts(Not(And((a, b))))) == [[Not(a)], [Not(b)]]
    assert list(split_disjuncts(Not(Not(a)))) == [[a]]
    assert list(split_disjuncts(Not(Not(Not(a))))) == [[Not(a)]]
    # a literal met twice, once through a double negation, is kept once
    assert list(split_disjuncts(And((a, Not(Not(a)), Not(b))))) == [[a, Not(b)]]


def _reference_disjuncts(h):
    """Reference: the split as first written, a walk over nnf(f)."""
    if is_literal(h):
        yield [h]
    elif isinstance(h, Or):
        for p in h.parts:
            yield from _reference_disjuncts(p)
    else:
        for picked in product(*(list(_reference_disjuncts(p)) for p in h.parts)):
            yield list(dict.fromkeys(lit for ls in picked for lit in ls))


_SMALL_ATOMS = (In(x, y), In(y, x), Eq(x, y), Subset(x, z), AtomPred(x), Leq(y, z))


def _random_nested(rng, depth):
    """A formula over a few atoms, so that literals repeat, with every
    connective at every depth; half the negations use up no depth, so
    negations stack."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_SMALL_ATOMS)
    roll = rng.random()
    if roll < 0.3:
        return Not(_random_nested(rng, depth - (rng.random() < 0.5)))
    parts = tuple(_random_nested(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    return And(parts) if roll < 0.65 else Or(parts)


def test_split_disjuncts_matches_the_nnf_walk():
    rng = random.Random(3501)
    many = negated = 0
    for _ in range(10000):
        f = _random_nested(rng, 4)
        got = list(split_disjuncts(f))
        assert got == list(_reference_disjuncts(nnf(f))), f
        many += len(got) > 1
        negated += any(type(lit) is Not for branch in got for lit in branch)
    assert 3000 < many < 9000 and 3000 < negated < 9000


def test_split_is_lazy():
    # 2^40 conjunctions in all; the first comes without building the rest.
    pairs = [(Var(f"a{i}"), Var(f"b{i}")) for i in range(40)]
    f = and_(*(or_(In(a, b), In(b, a)) for a, b in pairs))
    assert next(split_disjuncts(f)) == [In(a, b) for a, b in pairs]


_OUTSIDE = "atom outside the conjunctive set fragment"


@pytest.mark.parametrize(
    "lit, error, message",
    [
        (Leq(x, y), UnsupportedAtomError, f"{_OUTSIDE} (lra)"),
        (Not(Leq(x, y)), UnsupportedAtomError, f"{_OUTSIDE} (lra)"),
        (AtomPred(x), UnsupportedAtomError, f"{_OUTSIDE} (list)"),
        (Eq(x, ExtOp("single", (y,))), UnsupportedAtomError, f"{_OUTSIDE} (mls-ext)"),
        (
            Eq(x, SetOp("union", ListOp("cons", (y, z)), y)),
            MixedAtomError,
            "atom mixes list and set operators",
        ),
        (Eq(x, RationalConst(Fraction(1, 2))), UnsupportedAtomError, f"{_OUTSIDE} (lra)"),
        (In(ArithOp("plus", (x, y)), z), MixedAtomError, "atom mixes lra and set operators"),
        (Eq(x, ListOp("car", (y,))), UnsupportedAtomError, f"{_OUTSIDE} (list)"),
    ],
)
def test_normalize_names_the_theory_of_an_atom_outside_the_fragment(lit, error, message):
    # normalize classifies only the atoms it cannot flatten; the error is
    # the one classify_atom gives, after a set literal that normalizes.
    atom = lit.body if isinstance(lit, Not) else lit
    with pytest.raises(error) as caught:
        normalize([In(y, z), lit])
    assert type(caught.value) is error
    assert str(caught.value) == f"{message}: {atom!r}"


def test_normalize_formula_splits():
    ncs = [normalize(lits) for lits in dnf_split(or_(In(x, y), In(y, x)))]
    assert len(ncs) == 2


# witness plans ------------------------------------------------------------------

def test_apply_plan_extends_model():
    f = Not(Subset(x, y))
    nc, plan = _normalize_with_plan([f])
    base = {"x": hf([hf()]), "y": hf()}
    assert eval_formula(f, base)
    full = _apply_plan(plan, base)
    assert eval_formula(nc.to_formula(), full)
    assert full["x"] is base["x"] and full["y"] is base["y"]


def test_apply_plan_may_raise_rank():
    # a model of rank 1 can need rank 2 fresh values after rewriting
    f = Not(In(x, y))
    nc, plan = _normalize_with_plan([f])
    base = {"x": hf([hf()]), "y": hf()}
    full = _apply_plan(plan, base)
    assert eval_formula(nc.to_formula(), full)
    assert max(v.rank for v in full.values()) == 2


ATOM_BUILDERS = [
    lambda a, b, c: In(a, b),
    lambda a, b, c: Eq(a, b),
    lambda a, b, c: Subset(a, b),
    lambda a, b, c: Eq(a, EMPTY),
    lambda a, b, c: Eq(a, SetOp("union", b, c)),
    lambda a, b, c: Eq(a, SetOp("inter", b, c)),
    lambda a, b, c: Eq(a, SetOp("setminus", b, c)),
    lambda a, b, c: Eq(a, SetOp("union", SetOp("inter", a, b), c)),
    lambda a, b, c: In(SetOp("setminus", a, b), c),
]


def _op_nodes(t):
    if isinstance(t, SetOp):
        return 1 + _op_nodes(t.left) + _op_nodes(t.right)
    return 0


def _atom_op_nodes(a):
    if isinstance(a, In) or isinstance(a, Eq) or isinstance(a, Subset):
        return _op_nodes(a.left) + _op_nodes(a.right)
    return 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, len(ATOM_BUILDERS) - 1), st.booleans(),
                  st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        min_size=1,
        max_size=4,
    )
)
def test_fresh_variable_growth_bound(picks):
    """Each literal introduces at most 3 fresh variables after flattening
    (the worst case is a negated union equality), plus at most three per
    operator node that had to be flattened out."""
    names = ["x", "y", "z"]
    lits = []
    allowance = 0
    for idx, neg, i, j, k in picks:
        atom = ATOM_BUILDERS[idx](Var(names[i]), Var(names[j]), Var(names[k]))
        # an equality keeps its top right-hand operator in place; everything
        # else is renamed apart before the rewrite rules run
        top_ops = 1 if isinstance(atom, Eq) and isinstance(atom.right, SetOp) else 0
        flatten_ops = _atom_op_nodes(atom) - top_ops
        allowance += 3 + 3 * flatten_ops
        lits.append(Not(atom) if neg else atom)
    nc = normalize(lits)
    base = {n for lit in lits for n in free_vars(lit)}
    fresh = [v for v in nc.vars if v not in base]
    assert len(fresh) <= allowance


def test_fresh_variable_worst_cases_pinned():
    x, y, z = Var("x"), Var("y"), Var("z")
    costs = {}
    for label, lit in [
        ("not-subset", Not(Subset(x, y))),
        ("not-eq-union", Not(Eq(x, SetOp("union", y, z)))),
        ("not-eq-inter", Not(Eq(x, SetOp("inter", y, z)))),
        ("not-eq-setminus", Not(Eq(x, SetOp("setminus", y, z)))),
        ("not-eq-var", Not(Eq(x, y))),
    ]:
        nc = normalize([lit])
        base = set(free_vars(lit))
        costs[label] = len([v for v in nc.vars if v not in base])
    assert costs == {
        "not-subset": 2,
        "not-eq-union": 3,
        "not-eq-inter": 2,
        "not-eq-setminus": 1,
        "not-eq-var": 0,
    }


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, len(ATOM_BUILDERS) - 1),
    st.booleans(),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_single_literal_equisatisfiable_with_plan(idx, neg, i, j, k):
    names = ["x", "y", "z"]
    atom = ATOM_BUILDERS[idx](Var(names[i]), Var(names[j]), Var(names[k]))
    lit = Not(atom) if neg else atom
    nc, plan = _normalize_with_plan([lit])
    res = oracle_sat(lit, 2)
    if res.is_sat:
        # the plan turns any model of the input into a model of the output
        full = _apply_plan(plan, res.model)
        assert eval_formula(nc.to_formula(), full)
        assert solve(nc).is_sat
    else:
        # the normal form has too many variables to brute force, so let the
        # decision procedure judge it; it must not invent models
        assert not oracle_sat(lit, 3).is_sat
        assert not solve(nc).is_sat


# the reference normalizer ------------------------------------------------------

class _ReferenceNormalizer:
    """Reference: the normalizer as first written, which rebuilds every
    flattened literal as an In, Subset or Eq over Vars and has dispatch take
    it apart again, rule by rule.

    With native, x != y is kept as a disequality, as normalize keeps it.
    Without, it takes the first rule: some fresh v lies in x union y and
    not in x inter y, with fresh names for the union and the intersection,
    so the normal form has memberships and differences only."""

    def __init__(self, taken, native=True):
        self.counter = max_fresh_index("_g", taken)
        self.native = native
        self.mems, self.diffs, self.diseqs, self.plan = [], [], [], []

    def fresh(self, kind, *payload):
        self.counter += 1
        name = f"_g{self.counter}"
        self.plan.append((name, kind) + payload)
        return name

    def term_to_var(self, t):
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Empty):
            g = self.fresh("term", EMPTY)
            self.dispatch(True, Eq(Var(g), EMPTY))
            return g
        if isinstance(t, SetOp):
            lv = self.term_to_var(t.left)
            rv = self.term_to_var(t.right)
            flat = SetOp(t.op, Var(lv), Var(rv))
            g = self.fresh("term", flat)
            self.dispatch(True, Eq(Var(g), flat))
            return g
        raise UnsupportedAtomError(f"not a set term: {t!r}")

    def flat_rhs(self, t):
        if isinstance(t, (Var, Empty)):
            return t
        if isinstance(t, SetOp):
            return SetOp(t.op, Var(self.term_to_var(t.left)), Var(self.term_to_var(t.right)))
        raise UnsupportedAtomError(f"not a set term: {t!r}")

    def process(self, lit):
        if not is_literal(lit):
            raise UnsupportedAtomError(f"normalize expects literals, got {lit!r}")
        atom, sign = literal_atom(lit)
        try:
            if isinstance(atom, In):
                flat = In(Var(self.term_to_var(atom.left)), Var(self.term_to_var(atom.right)))
            elif isinstance(atom, Subset):
                flat = Subset(Var(self.term_to_var(atom.left)), Var(self.term_to_var(atom.right)))
            elif isinstance(atom, Eq):
                s, t = atom.left, atom.right
                if not isinstance(s, Var) and isinstance(t, Var):
                    s, t = t, s
                if not isinstance(s, Var):
                    s = Var(self.term_to_var(s))
                flat = Eq(s, self.flat_rhs(t))
            else:
                raise UnsupportedAtomError(f"atom outside the set fragment: {atom!r}")
        except UnsupportedAtomError:
            _check_mls_atom(atom)
            raise
        self.dispatch(sign, flat)

    def dispatch(self, sign, atom):
        if isinstance(atom, In):
            x, y = atom.left.name, atom.right.name
            if sign:
                self.mems.append((x, y))
            else:
                w = self.fresh("singleton", x)
                self.dispatch(True, In(Var(x), Var(w)))
                self.dispatch(True, Eq(Var(w), SetOp("setminus", Var(w), Var(y))))
            return
        if isinstance(atom, Subset):
            x, y = atom.left, atom.right
            self.dispatch(sign, Eq(x, SetOp("inter", y, x)))
            return
        x, rhs = atom.left.name, atom.right
        if sign:
            if isinstance(rhs, Empty):
                self.diffs.append((x, x, x))
            elif isinstance(rhs, Var):
                e = self.fresh("term", EMPTY)
                self.diffs += [(x, rhs.name, e), (e, e, e)]
            elif rhs.op == "setminus":
                self.diffs.append((x, rhs.left.name, rhs.right.name))
            elif rhs.op == "inter":
                y, z = rhs.left.name, rhs.right.name
                w = self.fresh("diff", y, z)
                self.diffs += [(w, y, z), (x, y, w)]
            else:
                y, z = rhs.left.name, rhs.right.name
                w = self.fresh("diff", x, y)
                e = self.fresh("diff", y, x)
                self.diffs += [(w, x, y), (w, z, y), (e, y, x), (e, e, e)]
        elif isinstance(rhs, Empty):
            w = self.fresh("min_member", x)
            self.dispatch(True, In(Var(w), Var(x)))
        elif isinstance(rhs, Var) and self.native:
            self.diseqs.append((x, rhs.name))
        elif isinstance(rhs, Var):
            y = rhs.name
            w = self.fresh("union", x, y)
            z = self.fresh("inter", x, y)
            v = self.fresh("symdiff_min", x, y)
            self.dispatch(True, Eq(Var(w), SetOp("union", Var(x), Var(y))))
            self.dispatch(True, Eq(Var(z), SetOp("inter", Var(x), Var(y))))
            self.dispatch(True, In(Var(v), Var(w)))
            self.dispatch(False, In(Var(v), Var(z)))
        else:
            w = self.fresh("term", rhs)
            self.dispatch(False, Eq(Var(x), Var(w)))
            self.dispatch(True, Eq(Var(w), rhs))


def _reference_normalize(literals, native=True):
    literals = list(dict.fromkeys(literals))
    n = _ReferenceNormalizer((v for lit in literals for v in free_vars(lit)), native)
    for lit in literals:
        n.process(lit)
    return NormalizedConjunction(n.mems, n.diffs, n.diseqs), tuple(n.plan)


def _apply_plan(plan, base):
    """Extend a model of the literals a plan came from to their fresh
    names: each step computes a witness value from the assignment built
    so far.  Only the reference's native plans are replayed; the opcodes
    of its native=False rule (union, inter, symdiff_min) are not."""
    cur = dict(base)
    for entry in plan:
        name, kind = entry[0], entry[1]
        if kind == "term":
            val = eval_term(entry[2], cur)
        elif kind == "min_member":
            src = cur[entry[2]]
            if not src.children:
                raise InvariantViolation(f"witness plan needs a member of empty {entry[2]}")
            val = src.children[0]
        elif kind == "singleton":
            val = hf((cur[entry[2]],))
        elif kind == "diff":
            val = set_diff(cur[entry[2]], cur[entry[3]])
        else:
            raise InvariantViolation(f"unknown plan opcode {kind!r}")
        cur[name] = val
    return cur


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


# Random terms of one signature, or of several when mixed: "set" draws
# empty and union/inter/setminus, "ext" the extension operators, "lra"
# plus/neg and rational constants, "list" cons/car/cdr.  Variables are
# the leaves of every signature; _g1 and _g3 collide with fresh names.
_NAMES = ("x", "y", "z", "_g1", "_g3")
_FAMILIES = ("set", "ext", "lra", "list")


def _random_term(rng, depth, families):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(_NAMES))
    family = rng.choice(families)
    if family == "set":
        if rng.random() < 0.2:
            return EMPTY
        op = rng.choice(("union", "inter", "setminus"))
        return SetOp(op, _random_term(rng, depth - 1, families),
                     _random_term(rng, depth - 1, families))
    if family == "ext":
        op = rng.choice(("single", "pow", "bigU", "bigI", "cross", "ucross"))
        arity = 2 if op in ("cross", "ucross") else 1
        return ExtOp(op, tuple(_random_term(rng, depth - 1, families) for _ in range(arity)))
    if family == "lra":
        if rng.random() < 0.3:
            return RationalConst(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        op = rng.choice(("plus", "neg"))
        arity = 2 if op == "plus" else 1
        return ArithOp(op, tuple(_random_term(rng, depth - 1, families) for _ in range(arity)))
    op = rng.choice(("cons", "car", "cdr"))
    arity = 2 if op == "cons" else 1
    return ListOp(op, tuple(_random_term(rng, depth - 1, families) for _ in range(arity)))


def _random_atom(rng, set_share):
    """An atom over set terms with probability set_share; otherwise any
    atom kind over terms of one to three random signatures."""
    if rng.random() < set_share:
        kind, families = rng.choice((In, Subset, Eq)), ("set",)
    else:
        kind = rng.choice((In, Subset, Eq, Leq, AtomPred))
        families = tuple(rng.sample(_FAMILIES, rng.randint(1, 3)))
    depth = rng.randint(0, 3)
    if kind is AtomPred:
        return AtomPred(_random_term(rng, depth, families))
    return kind(_random_term(rng, depth, families), _random_term(rng, depth, families))


def _random_literal(rng):
    roll = rng.random()
    if roll < 0.01:
        return And((In(x, y), In(y, z)))  # not a literal
    if roll < 0.02:
        return Not(Not(In(x, y)))  # not a literal either
    atom = _random_atom(rng, 0.8)
    return Not(atom) if rng.random() < 0.4 else atom


def test_normalize_matches_the_reference_normalizer():
    rng = random.Random(2026)
    raised = 0
    for _ in range(6000):
        lits = [_random_literal(rng) for _ in range(rng.randint(0, 5))]
        want = _outcome(_reference_normalize, lits)
        got = _outcome(normalize, lits)
        if isinstance(want[0], type):
            raised += 1
            assert got == want, lits
        else:
            want_nc, _ = want
            assert got.memberships == want_nc.memberships, lits
            assert got.differences == want_nc.differences, lits
            assert got.disequalities == want_nc.disequalities, lits
    assert 1000 < raised < 5000  # both outcomes are drawn often


def _classified_set(a):
    try:
        return classify_atom(a) in (MLS, SHARED)
    except MixedAtomError:
        return False


def test_set_atom_walk_holds_exactly_where_classify_atom_says_mls_or_shared():
    rng = random.Random(26)
    passed = 0
    for _ in range(20000):
        a = _random_atom(rng, 0.3)
        assert _is_set_atom(a) == _classified_set(a), a
        passed += _is_set_atom(a)
    assert 5000 < passed < 15000


def _check_every_atom(f):
    """Reference: dnf_split's check as first written, classify_atom on
    every atom in order of occurrence."""
    for a in atoms(f):
        _check_mls_atom(a)
    return "ok"


def _split(f):
    dnf_split(f)
    return "ok"


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _random_atom(rng, 0.9)
    roll = rng.random()
    if roll < 0.2:
        return Not(_random_formula(rng, depth - 1))
    parts = tuple(_random_formula(rng, depth - 1) for _ in range(rng.randint(1, 3)))
    return And(parts) if roll < 0.6 else Or(parts)


def test_dnf_split_raises_the_error_of_the_first_bad_atom():
    rng = random.Random(2603)
    raised = 0
    for _ in range(3000):
        f = _random_formula(rng, 3)
        want = _outcome(_check_every_atom, f)
        got = _outcome(_split, f)
        assert got == want, f
        raised += want != "ok"
    assert 300 < raised < 2700


def test_disequalities_decide_as_the_first_rule_did():
    # The old rule spelled x != y with seven fresh variables; deciding the
    # disequality natively must give the same verdict wherever the old
    # normal form is decided, and every model must satisfy the literals.
    rng = random.Random(3101)
    compared = sat = native = 0
    for _ in range(1500):
        lits = []
        for _ in range(rng.randint(1, 4)):
            atom = _random_atom(rng, 1.0)
            lits.append(Not(atom) if rng.random() < 0.5 else atom)
        old, _ = _reference_normalize(lits, native=False)
        try:
            want = solve(old, budget=10**4).is_sat
        except ResourceLimitError:
            continue
        nc = normalize(lits)
        got = solve(nc, budget=10**4)
        assert got.is_sat == want, lits
        native += bool(nc.disequalities)
        if got.is_sat:
            assert eval_formula(and_(*lits), got.model), lits
            sat += 1
        compared += 1
    assert compared > 1300 and 300 < sat < compared - 300 and native > 600
