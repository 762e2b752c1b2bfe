"""Theory of cons cells with projections and an atom predicate.

Satisfiability of conjunctions of literals over cons/car/cdr, equalities,
disequalities, and atom(t) is decided by congruence closure over the term
graph, extended with three structural rules:

  * projection: car(t) collapses with a whenever t's class contains some
    cons(a, b), and cdr(t) with b;
  * constructor injectivity: two cons nodes in one class merge their
    arguments pairwise;
  * non-atoms are constructed: asserting not atom(x) introduces
    cons(car(x), cdr(x)) = x.

The first two are congruence too, once a cons(a, b) of class r also signs
a as ("car", r) and b as ("cdr", r): the closure is one signature table,
in which a key that two classes share merges them, whether it is
congruence, projection or injectivity.

A class may not be marked atom and contain a cons node.  There is no
acyclicity rule: x = cons(a, x) is satisfiable (the models are rational
trees).  The theory is stably infinite, and conjunctions of literals are
convex, so propagating single equalities is complete for combination.

`ListTheory` is the combination's list plugin.  Each `assert_literals` call
rebuilds the graph from its literals alone and closes it;
`implied_equalities` groups the shared variables by the congruence class
of their nodes, which is the partition the combination asks for, and
`model_fragment` names each variable's class by its least member.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import UnsupportedAtomError
from .formulas import (
    AtomPred,
    Eq,
    Formula,
    ListOp,
    Term,
    Var,
    is_literal,
    literal_atom,
)

_Key = Tuple


def _term_key(t: Term) -> _Key:
    if isinstance(t, Var):
        return ("var", t.name)
    if isinstance(t, ListOp):
        return (t.op,) + tuple(_term_key(a) for a in t.args)
    raise UnsupportedAtomError(f"not a list term: {t!r}")


class ListTheory:
    """The cons-cell plugin: term graph plus union-find, closed under one
    signature table by each `assert_literals`, which replaces every earlier
    node, atom and disequality.

    Nodes are interned subterms; `find` maps a node to its class
    representative (the earliest-created member).  `atom_ids` holds the
    nodes asserted to be atoms.  `unsat_reason` is None exactly when the
    asserted literals are jointly satisfiable.
    """

    name = "list"
    is_convex = True

    def __init__(self) -> None:
        self.assert_literals(())

    def assert_literals(self, literals: Iterable[Formula]) -> bool:
        """Replace the graph by the literals'; True when they have a common model."""
        self.key_to_id: Dict[_Key, int] = {}
        self.node_op: List[Optional[str]] = []
        self.node_args: List[Tuple[int, ...]] = []
        self.parent: List[int] = []
        self.atom_ids: List[int] = []
        self.diseqs: List[Tuple[int, int]] = []
        for lit in literals:
            self._add(lit)
        self._close()
        return self.unsat_reason is None

    # union-find ---------------------------------------------------------

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def _union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True

    # term graph ---------------------------------------------------------

    def _intern(self, t: Term) -> int:
        key = _term_key(t)
        if key in self.key_to_id:
            return self.key_to_id[key]
        if isinstance(t, ListOp):
            idx = self._node(t.op, tuple(self._intern(a) for a in t.args))
        else:
            idx = self._node(None, ())
        self.key_to_id[key] = idx
        return idx

    def _node(self, op: Optional[str], args: Tuple[int, ...]) -> int:
        idx = len(self.parent)
        self.node_op.append(op)
        self.node_args.append(args)
        self.parent.append(idx)
        return idx

    # assertions ---------------------------------------------------------

    def _add(self, lit: Formula) -> None:
        if not is_literal(lit):
            raise UnsupportedAtomError(f"list theory expects literals, got {lit!r}")
        atom, sign = literal_atom(lit)
        if isinstance(atom, Eq):
            a, b = self._intern(atom.left), self._intern(atom.right)
            if sign:
                self._union(a, b)
            else:
                self.diseqs.append((a, b))
        elif isinstance(atom, AtomPred):
            t = self._intern(atom.arg)
            if sign:
                self.atom_ids.append(t)
            else:
                # not atom(t): t must be a cell, so give it projections
                car = self._node("car", (t,))
                cdr = self._node("cdr", (t,))
                cell = self._node("cons", (car, cdr))
                self._union(cell, t)
        else:
            raise UnsupportedAtomError(f"not a list atom: {atom!r}")

    # closure ------------------------------------------------------------

    def _close(self) -> None:
        """Merge to the least fixpoint of one signature table.

        Each round scans the nodes once, into a fresh table.  A node enters
        (op, its argument classes) -> node, and a cons(a, b) of class r also
        enters ("car", r) -> a and ("cdr", r) -> b.  Two entries under one
        key merge: two nodes are congruence, a car or cdr node and a cons
        are projection, and two cons nodes of one class are injectivity.
        A round that merges nothing leaves no two classes under one key, so
        every rule holds, and every merge is one the rules force.
        """
        find, union, args_of = self.find, self._union, self.node_args
        changed = True
        while changed:
            changed = False
            sig: Dict[Tuple, int] = {}
            for i, op in enumerate(self.node_op):
                if op is None:
                    continue
                args = args_of[i]
                changed |= union(i, sig.setdefault((op, *map(find, args)), i))
                if op == "cons":
                    r = find(i)
                    for proj, a in zip(("car", "cdr"), args):
                        changed |= union(a, sig.setdefault((proj, r), a))
        self._judge()

    def _judge(self) -> None:
        cons_classes = {
            self.find(i) for i in range(len(self.parent)) if self.node_op[i] == "cons"
        }
        for t in self.atom_ids:
            if self.find(t) in cons_classes:
                self.unsat_reason = "an atom's class contains a cons cell"
                return
        for a, b in self.diseqs:
            if self.find(a) == self.find(b):
                self.unsat_reason = "both sides of a disequality collapsed"
                return
        self.unsat_reason = None

    # queries ------------------------------------------------------------

    def implied_equalities(self, shared: Sequence[str]) -> List[List[str]]:
        """The shared variables of the graph grouped by congruence class:
        classes of two or more, members in shared order, classes by first
        member."""
        classes: Dict[int, List[str]] = {}
        for v in shared:
            i = self.key_to_id.get(("var", v))
            if i is not None:
                classes.setdefault(self.find(i), []).append(v)
        return [c for c in classes.values() if len(c) > 1]

    def model_fragment(self) -> Dict[str, str]:
        """Each variable, in the order the graph interned it, mapped to the
        least variable of its class; its own node is always a member."""
        cls = {k[1]: self.find(i) for k, i in self.key_to_id.items() if k[0] == "var"}
        least: Dict[int, str] = {}
        for name, r in cls.items():
            if r not in least or name < least[r]:
                least[r] = name
        return {name: least[r] for name, r in cls.items()}
