"""The four workloads: seeded inputs with known answers, operations, checks.

Every input is made from the run's seed by `random.Random`, one stream per
(workload, seed, round, slot).  A workload's input list is whole rounds of
a fixed slot list, so every seed gives the same mix of families and sizes;
the seed picks variable names, planted values and random literals.

Each satisfiable input comes with a planted model, each unsatisfiable one
with a constructed contradiction, and every output of the program is
checked against those with the evaluator in `model.py`.  A check that
fails raises `CheckFailed`, which fails the run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from setsyl.convexity import Falsifiable, Implied
from setsyl.normalize import NormalizedConjunction
from setsyl.solver import Unsat

from model import (
    EMPTY,
    EMPTY_TERM,
    from_hf,
    holds,
    holds_normalized,
    parse_braces,
    separated_pairs,
    script_text,
    universe,
    variables,
)


class CheckFailed(Exception):
    """The program returned a wrong verdict, a non-model or a bad class."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


SET_OPS = ("union", "inter", "setminus")
U2 = universe(2)  # the 4 sets of rank <= 2
U3 = universe(3)  # the 16 sets of rank <= 3


def _names(rng: random.Random, prefix: str, n: int) -> list:
    """n distinct variable names in ascending order.

    The seed picks the names but not their order: the solvers break ties
    by name order, and one family's cost should not swing with it.
    """
    return [f"{prefix}{i:02d}" for i in sorted(rng.sample(range(100), n))]


def _plant_sets(rng: random.Random, names) -> dict:
    # Half the values have rank <= 2, so they can be members of the others.
    return {v: rng.choice(U2) if rng.random() < 0.5 else rng.choice(U3) for v in names}


def _set_term(rng: random.Random, names, compound: bool):
    if compound:
        return (rng.choice(SET_OPS), rng.choice(names), rng.choice(names))
    return rng.choice(names)


class _NoAtom(Exception):
    """The planted values admit no atom of the wanted kind; plant again."""


def _set_atom(rng, names, plant, pred: str, truth: bool, compound: int):
    """A random atom with the given truth under plant and compound sides."""
    for _ in range(500):
        sides = [True] * compound + [False] * (2 - compound)
        rng.shuffle(sides)
        a = (pred, _set_term(rng, names, sides[0]), _set_term(rng, names, sides[1]))
        if a[1] != a[2] and holds(a, plant) == truth:
            return a
    raise _NoAtom()


def _literal(rng, names, plant, spec: str, want: bool = True):
    """A literal from a spec such as "subset-1": predicate, sign, and how
    many sides are compound terms; the literal's truth under plant is want."""
    pred, sign, compound = spec[:-2], spec[-2] == "+", int(spec[-1])
    atom = _set_atom(rng, names, plant, pred, sign == want, compound)
    return atom if sign else ("not", atom)


# -- mls-scripts -------------------------------------------------------------
#
# Raw scripts taken through parse_script -> dnf_split -> normalize -> solve.
# Each negated literal and each compound term adds variables to the normal
# form, and the place count, hence model-building work, grows with them.
# Every slot fixes the shape of its literals, so every seed gets the same
# mix of cheap and costly scripts and the costly ones stay bounded.


def _planted_script(rng, nvars: int, template):
    """Literals true in a planted model; ("or", a, b) makes a true and b
    false, in random order, so dnf_split yields a dead branch too."""
    while True:
        names = _names(rng, "v", nvars)
        plant = _plant_sets(rng, names)
        try:
            asserts = []
            for spec in template:
                if isinstance(spec, tuple):
                    pair = [_literal(rng, names, plant, spec[1]),
                            _literal(rng, names, plant, spec[2], want=False)]
                    rng.shuffle(pair)
                    asserts.append(("or", *pair))
                else:
                    asserts.append(_literal(rng, names, plant, spec))
            return names, plant, asserts
        except _NoAtom:
            continue


def _gadget(rng, names, kind: str):
    """Literals that no assignment satisfies, over some of names."""
    x, y, z = rng.sample(names, 3)
    if kind == "cycle":  # x in y in x, hidden in compound terms
        return [("in", x, ("inter", y, y)), ("in", y, ("union", x, z)), ("subset", z, ("inter", x, z))]
    if kind == "minus-self":  # a member of y minus y
        return [("in", x, ("setminus", y, y))]
    if kind == "subset":  # x in y, y subset z, x not in z
        return [("in", x, y), ("subset", y, ("union", z, z)), ("not", ("in", x, z))]
    if kind == "union":  # x = y union z, but z not inside x
        return [("=", x, ("union", y, z)), ("not", ("subset", ("inter", z, z), x))]
    raise ValueError(kind)


# (family, scripts per operation, template, contradiction or None).  Cheap
# families group several scripts into one operation, so that operations
# last a millisecond or more.  Sorted by cost, the slots form three blocks:
# cheap (4 slots), middle (2) and costly (4), so p50 falls in the middle of
# the middle block and p90 inside the costly one, not on a block's edge.
SCRIPT_SLOTS = (
    ("sat-pos", 6, ("in+1", "subset+1", "=+1", "subset+0"), None),
    ("sat-pos", 6, ("in+1", "subset+1", "=+1", "subset+0"), None),
    ("sat-neg1", 3, ("in+1", "subset+1", "=+0", "in-0"), None),
    ("sat-or", 3, ("in+1", "subset+0", ("or", "=+1", "in+0")), None),
    ("unsat-cycle", 2, ("subset+1", "in-0"), "cycle"),
    ("unsat-cycle", 2, ("subset+1", "in-0"), "cycle"),
    ("unsat-minus-self", 2, ("in+1", "=+1", "subset-1"), "minus-self"),
    ("unsat-subset", 2, ("in+1", "=-0"), "subset"),
    ("unsat-union-or", 2, ("subset+1", "in-0", ("or", "in+1", "subset+0")), "union"),
    ("sat-neg2-eq", 1, ("in+1", "subset+1", "=-1", "in-0"), None),
    ("sat-neg2-eq", 1, ("in+1", "subset+1", "=-1", "in-0"), None),
    ("sat-neg2-subset", 1, ("in+1", "subset+1", "subset-1", "in-0"), None),
)


def make_mls_scripts(rng_for, rounds: int):
    out, seen = [], set()
    for r in range(rounds):
        for s, (family, batch, template, gadget) in enumerate(SCRIPT_SLOTS):
            items = []
            for b in range(batch):
                attempt = 0
                while True:
                    rng = rng_for(r, s, b, attempt)
                    names, plant, asserts = _planted_script(rng, 4, template)
                    contradiction = _gadget(rng, names, gadget) if gadget else []
                    if gadget:
                        asserts += contradiction
                        rng.shuffle(asserts)
                    text = script_text(asserts)
                    attempt += 1
                    if text not in seen:
                        seen.add(text)
                        break
                items.append({"text": text, "asserts": asserts, "names": names, "plant": plant,
                              "contradiction": contradiction, "sat": gadget is None})
            out.append({"family": family, "items": items})
    return out


def run_mls_scripts(op, api):
    results = []
    for item in op["items"]:
        script = api.parse_script(item["text"])
        found = None
        for branch in api.dnf_split(api.and_(*script.asserts)):
            nc = api.normalize(branch)
            res = api.solve(nc)
            if res.is_sat:
                found = res
                break
        results.append(found)
    return results


def check_mls_scripts(op, results):
    for item, res in zip(op["items"], results):
        _require((res is not None) == item["sat"], f"wrong verdict on {op['family']}")
        if res is not None:
            memo: dict = {}
            m = {v: from_hf(res.model[v], memo) for v in item["names"] if v in res.model}
            for v in item["names"]:  # a variable no branch literal names is free
                m.setdefault(v, EMPTY)
            for f in item["asserts"]:
                _require(holds(f, m), f"model falsifies {f!r}")


# -- mls-search --------------------------------------------------------------
#
# Normalized conjunctions handed to solve directly, so place enumeration and
# placement search do the work and normalization and model building almost
# none.


def _independent(rng, k: int):
    """k memberships x_i in y_i over 2k distinct variables; x_i = {}, y_i = {{}}."""
    names = _names(rng, "m", 2 * k)
    mems = [(names[2 * i], names[2 * i + 1]) for i in range(k)]
    plant = {}
    for x, y in mems:
        plant[x], plant[y] = EMPTY, frozenset((EMPTY,))
    return {"mems": mems, "diffs": [], "plant": plant}


def _planted_memberships(rng, nvars: int, nmems: int, ndiffs: int):
    """Memberships and differences that hold in a planted model."""
    names = _names(rng, "p", nvars)
    while True:
        plant = {v: rng.choice(U2) if rng.random() < 0.6 else rng.choice(U3) for v in names}
        pairs = [(x, y) for x in names for y in names if plant[x] in plant[y]]
        triples = [(x, y, z) for x in names for y in names for z in names
                   if plant[x] == plant[y] - plant[z] and len({x, y, z}) > 1]
        if len(pairs) >= nmems and len(triples) >= ndiffs:
            break
    mems = rng.sample(pairs, nmems)
    diffs = rng.sample(triples, ndiffs)
    return {"mems": mems, "diffs": diffs,
            "plant": {v: plant[v] for lit in mems + diffs for v in lit}}


def _hidden_cycle(rng, nvars: int, length: int, nmems: int, ndiffs: int):
    """A membership cycle among other memberships and differences."""
    names = _names(rng, "c", nvars)
    ring = rng.sample(names, length)
    mems = [(ring[i], ring[(i + 1) % length]) for i in range(length)]
    while len(mems) < length + nmems:
        x, y = rng.sample(names, 2)
        if (x, y) not in mems:
            mems.append((x, y))
    diffs = [tuple(rng.sample(names, 3)) for _ in range(ndiffs)]
    rng.shuffle(mems)
    return {"mems": mems, "diffs": diffs, "ring": ring}


MAKERS = {"independent": _independent, "planted": _planted_memberships, "cycle": _hidden_cycle}

# (family, satisfiable, maker, maker arguments).  Sorted by cost: four
# cheap slots, independent-5 four times, independent-6 twice; p50 falls
# inside the independent-5 block and p90 in the middle of independent-6.
SEARCH_SLOTS = (
    ("planted", True, "planted", (7, 9, 2)),
    ("cycle-2", False, "cycle", (6, 2, 2, 1)),
    ("cycle-3", False, "cycle", (6, 3, 2, 1)),
    ("independent-4", True, "independent", (4,)),
    ("independent-5", True, "independent", (5,)),
    ("independent-5", True, "independent", (5,)),
    ("independent-5", True, "independent", (5,)),
    ("independent-5", True, "independent", (5,)),
    ("independent-6", True, "independent", (6,)),
    ("independent-6", True, "independent", (6,)),
)


def make_mls_search(rng_for, rounds: int):
    out, seen = [], set()
    for r in range(rounds):
        for s, (family, sat, maker, spec) in enumerate(SEARCH_SLOTS):
            attempt = 0
            while True:
                op = MAKERS[maker](rng_for(r, s, attempt), *spec)
                key = (tuple(op["mems"]), tuple(op["diffs"]))
                attempt += 1
                if key not in seen:
                    seen.add(key)
                    break
            op.update(family=family, sat=sat, nc=NormalizedConjunction(op["mems"], op["diffs"]))
            out.append(op)
    return out


def run_mls_search(op, api):
    return api.solve(op["nc"])


def check_mls_search(op, res):
    _require(res.is_sat == op["sat"], f"wrong verdict on {op['family']}")
    if res.is_sat:
        memo: dict = {}
        m = {v: from_hf(res.model[v], memo) for v in op["nc"].vars}
        _require(holds_normalized(op["mems"], op["diffs"], m), "model falsifies a literal")


# -- combine -----------------------------------------------------------------
#
# Mixed scripts through solve_combined.  Chain(n) is unsatisfiable: the set
# literals force x0 = ... = x(n-1), which contradicts car x0 != car x(n-1).
# The planted family has one model per theory over shared variables that
# agree on which shared variables are equal.


def _chain(rng, n: int):
    xs = _names(rng, "x", n)
    asserts = []
    for i in range(n - 1):
        asserts.append(("subset", xs[i], xs[i + 1]))
        asserts.append(("<=", xs[i], xs[i + 1]))
    asserts.append(("subset", xs[n - 1], xs[0]))
    asserts.append(("not", ("=", ("car", xs[0]), ("car", xs[n - 1]))))
    return asserts


def _rational(rng) -> Fraction:
    return Fraction(rng.randrange(-6, 7), rng.choice((1, 2)))


def _planted_mixed(rng, nshared: int):
    while True:
        try:
            return _try_planted_mixed(rng, nshared)
        except _NoAtom:
            continue


def _try_planted_mixed(rng, nshared: int):
    """Set, arithmetic and list literals true in a planted mixed model.

    Shared variables fall into classes; members of one class are equal in
    every theory and members of different classes differ in every theory.
    One theory's literals force each class's equalities, so propagation
    has pairs to find.
    """
    shared = _names(rng, "s", nshared)
    sets_only = _names(rng, "a", 1)
    nums_only = _names(rng, "r", 2)
    lists_only = _names(rng, "l", 2)
    cls = [rng.randrange(max(2, nshared - 1)) for _ in shared]
    k = max(cls) + 1
    set_vals = rng.sample(U3, k)
    num_vals = rng.sample(range(-8, 9), k)
    atoms = [f"A{i}" for i in range(k)]
    S = {v: set_vals[c] for v, c in zip(shared, cls)}
    S.update({v: rng.choice(U3) for v in sets_only})
    Q = {v: Fraction(num_vals[c]) for v, c in zip(shared, cls)}
    Q.update({v: _rational(rng) for v in nums_only})
    L = {v: atoms[c] for v, c in zip(shared, cls)}
    t0 = ("cons", rng.choice(atoms), rng.choice(atoms))
    L[lists_only[0]] = t0
    L[lists_only[1]] = ("cons", t0, rng.choice(atoms))
    plant = {"mls": S, "lra": Q, "list": L}

    lits = {"mls": [], "lra": [], "list": []}
    # Force each class's equalities in one theory.
    for c in range(k):
        members = [v for v, cc in zip(shared, cls) if cc == c]
        for u, w in zip(members, members[1:]):
            theory = rng.choice(("mls", "lra", "list"))
            if theory == "mls":
                lits["mls"] += [("subset", u, w), ("subset", w, u)]
            elif theory == "lra":
                lits["lra"] += [("<=", u, w), ("<=", w, ("+", u, Fraction(0)))]
            else:
                cell = rng.choice(lists_only)
                lits["list"] += [("=", ("cons", u, ("cdr", cell)), ("cons", w, ("cdr", cell)))]
    set_names = shared + sets_only
    # No "=" atoms: one between two bare variables would be routed by
    # purify to whichever partition mentions its variables.
    lits["mls"] += [_set_atom(rng, set_names, S, rng.choice(("in", "subset")), True, 0)
                    for _ in range(3)]
    num_names = shared + nums_only
    while len(lits["lra"]) < 4:
        a, b, c = (rng.choice(num_names) for _ in range(3))
        atom = ("<=", ("+", a, b), ("+", c, _rational(rng)))
        lits["lra"].append(atom if holds(atom, Q) else ("<=", ("+", c, _rational(rng)), ("+", a, b)))
        if not holds(lits["lra"][-1], Q):
            lits["lra"].pop()
    l0, l1 = lists_only
    lits["list"] += [("=", l1, ("cons", l0, ("cdr", l1))), ("not", ("atom", l0)), ("atom", shared[0])]
    for v in rng.sample(shared, 2):
        atom = ("=", ("car", l0), v)
        lits["list"].append(atom if holds(atom, L) else ("not", atom))
    return plant, lits


# Sorted by cost: chain-2, chain-3, chain-4 and planted-3 (40%), planted-4
# (40%), chain-5 (20%); p50 falls inside planted-4 and p90 in the middle of
# chain-5.
COMBINE_SLOTS = (
    ("chain-2", False, 2),
    ("chain-3", False, 3),
    ("chain-4", False, 4),
    ("chain-4", False, 4),
    ("chain-4", False, 4),
    ("planted-3", True, 3),
    ("planted-4", True, 4),
    ("planted-4", True, 4),
    ("chain-5", False, 5),
    ("chain-5", False, 5),
)


def make_combine(rng_for, rounds: int):
    out, seen = [], set()
    for r in range(rounds):
        for s, (family, sat, n) in enumerate(COMBINE_SLOTS):
            attempt = 0
            while True:
                rng = rng_for(r, s, attempt)
                attempt += 1
                if sat:
                    plant, lits = _planted_mixed(rng, n)
                    asserts = lits["mls"] + lits["lra"] + lits["list"]
                    rng.shuffle(asserts)
                    op = {"plant": plant, "lits": lits}
                else:
                    asserts = _chain(rng, n)
                    op = {"chain": [f[1] for f in asserts if f[0] == "subset"]}
                text = script_text(asserts)
                if text not in seen:
                    seen.add(text)
                    break
            op.update(family=family, sat=sat, literals=asserts, text=text)
            out.append(op)
    return out


def run_combine(op, api):
    script = api.parse_script(op["text"])
    return api.solve_combined(script.asserts)


def check_combine(op, res):
    _require(res.is_sat == op["sat"], f"wrong verdict on {op['family']}")
    if not res.is_sat:
        return
    plant = op["plant"]
    for a, b in res.propagated:
        # A propagated equality is implied, so it holds in the planted model.
        for theory in ("mls", "lra", "list"):
            if a in plant[theory] and b in plant[theory]:
                _require(plant[theory][a] == plant[theory][b], f"propagated {a} = {b} is not implied")
    frag = res.fragments
    sets = {v: parse_braces(s) for v, s in frag["mls"].items()}
    for f in op["lits"]["mls"]:
        _require(holds(f, sets), f"set fragment falsifies {f!r}")
    # A variable whose coefficients cancel in every row is absent from the
    # sample; the literals hold for any value of it.
    nums = {v: Fraction(0) for f in op["lits"]["lra"] for v in variables(f, {})}
    nums.update(frag["lra"])
    for f in op["lits"]["lra"]:
        _require(holds(f, nums), f"arithmetic fragment falsifies {f!r}")


# -- convexity ---------------------------------------------------------------
#
# One operation: oracle_implies on the disjunction of all pair equalities and
# on each single equality, then minimize_equalities over all pairs.  The
# checks are properties the method must have, so no stored answer is used.
#
# The cost of an operation depends mostly on what the conjunction admits:
# about 1 ms without a model, 3 ms when some pair is equal in every model,
# 4-60 ms when one model can tell every pair apart, growing with the number
# of memberships.  Unfiltered draws mix these in proportions that swing from
# seed to seed, so each slot fixes the kind, found by the benchmark's own
# search over sets of rank <= 3, and the numbers of memberships and
# differences.

CONVEXITY_RANK = 2
CONVEXITY_NAMES = ("a", "b", "c", "d")
CONVEXITY_SLOTS = (  # (kind, memberships, differences)
    ("none", 1, 3), ("none", 1, 4), ("none", 2, 2), ("none", 2, 3), ("none", 2, 4),
    ("none", 1, 3), ("none", 1, 4), ("none", 2, 2), ("none", 2, 3), ("none", 2, 4),
    ("none", 1, 4), ("some", 0, 3), ("some", 0, 3), ("all", 0, 3), ("all", 0, 3),
    ("all", 0, 3), ("all", 0, 3), ("all", 0, 3), ("all", 0, 3), ("all", 1, 2),
)


def _convexity_kind(separated, pairs) -> str:
    """none: no model of rank <= 3; all: such models tell every pair
    apart; some: they leave some pair equal."""
    if separated is None:
        return "none"
    return "all" if len(separated) == len(pairs) else "some"


def _conjunction(rng, nmem: int, ndiff: int) -> NormalizedConjunction:
    """Literals drawn as random_normalized_conjunction draws them, with the
    numbers of memberships and differences fixed."""
    kinds = [2] * nmem + [3] * ndiff
    rng.shuffle(kinds)
    lits = [tuple(rng.choice(CONVEXITY_NAMES) for _ in range(k)) for k in kinds]
    return NormalizedConjunction([t for t in lits if len(t) == 2],
                                 [t for t in lits if len(t) == 3])


def make_convexity(rng_for, rounds: int):
    out = []
    seen = set()
    for r in range(rounds):
        for s, (kind, nmem, ndiff) in enumerate(CONVEXITY_SLOTS):
            attempt = 0
            while True:
                nc = _conjunction(rng_for(r, s, attempt), nmem, ndiff)
                key = (nc.memberships, nc.differences)
                attempt += 1
                if (len(nc.vars) < len(CONVEXITY_NAMES) or key in seen
                        or (len(nc.memberships), len(nc.differences)) != (nmem, ndiff)):
                    continue
                pairs = tuple(combinations(nc.vars, 2))
                # Sets of rank <= 2 are enough to find most "all" instances,
                # and that search is 16 times smaller.
                separated = separated_pairs(nc.memberships, nc.differences, nc.vars,
                                            U2 if kind == "all" else U3)
                if _convexity_kind(separated, pairs) == kind:
                    seen.add(key)
                    break
            out.append({"family": f"{kind}-m{nmem}d{ndiff}", "nc": nc, "pairs": pairs,
                        "separated": separated})
    return out


def run_convexity(op, api):
    nc, pairs = op["nc"], op["pairs"]
    f = nc.to_formula()
    disj = api.or_(*(api.Eq(api.Var(a), api.Var(b)) for a, b in pairs))
    whole = api.oracle_implies(f, disj, CONVEXITY_RANK)
    singles = [api.oracle_implies(f, api.Eq(api.Var(a), api.Var(b)), CONVEXITY_RANK) for a, b in pairs]
    model, eqs = api.minimize_equalities(nc, pairs)
    return whole, singles, model, eqs


def check_convexity(op, out):
    nc, pairs = op["nc"], op["pairs"]
    whole, singles, model, eqs = out
    memo: dict = {}

    def own(assignment):
        return {v: from_hf(assignment[v], memo) for v in nc.vars}

    def sat(m):
        return holds_normalized(nc.memberships, nc.differences, m)

    if not whole.implied:
        m = own(whole.model)
        _require(sat(m) and all(m[a] != m[b] for a, b in pairs), "bad disjunction countermodel")
    for (a, b), r in zip(pairs, singles):
        if not r.implied:
            m = own(r.model)
            _require(sat(m) and m[a] != m[b], f"bad countermodel for {a} = {b}")
    _require(tuple(eqs.equalities) == pairs, "minimization answered other pairs")
    separated = op["separated"]
    for (a, b), c in zip(pairs, eqs.classification):
        if separated is not None and (a, b) in separated:
            _require(isinstance(c, Falsifiable), f"{a} = {b} implied, but a known model separates it")
    if isinstance(model, Unsat):
        _require(separated is None, "unsat, but the conjunction has a known model")
        _require(all(isinstance(c, Implied) for c in eqs.classification), "unsat but a pair falsifiable")
        _require(all(r.implied for r in singles), "unsat but the oracle has a model")
        return
    m = own(model)
    _require(sat(m), "minimization model falsifies a literal")
    for (a, b), c, r in zip(pairs, eqs.classification, singles):
        if isinstance(c, Implied):
            _require(m[a] == m[b], f"implied {a} = {b} separated")
            _require(r.implied, f"implied {a} = {b} has an oracle countermodel")
        else:
            _require(isinstance(c, Falsifiable), "unknown classification")
            _require(m[a] != m[b], f"falsifiable {a} = {b} not separated")
    if not eqs.implied_pairs():
        # Convexity: with no single equality implied, one model separates all.
        _require(all(m[a] != m[b] for a, b in pairs), "no model separates every pair")
