"""The benchmark's own syntax, values and evaluator.

Inputs are built here as plain tuples and rendered to script text, so the
program under test sees only text or its own normalized conjunctions.
Answers are checked here too, without the program's evaluator:

- hereditarily finite sets are nested frozensets (a solver model is read
  off `HFSet.children` iteratively, so model depth never hits the Python
  recursion limit);
- rationals are `Fraction`s;
- cons trees are `("cons", car, cdr)` tuples over atom strings.

Terms: a variable name (str), `EMPTY_TERM`, a `Fraction`, or a tuple
`(op, arg, ...)` with op in union/inter/setminus, +, -, cons/car/cdr.
Atoms: `(pred, arg, ...)` with pred in in/subset/=/<=/atom.  A literal is
an atom or `("not", atom)`; an assertion is a literal or `("or", lit, ...)`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

EMPTY = frozenset()
EMPTY_TERM = "empty"


def universe(rank: int) -> list:
    """All hereditarily finite sets of rank <= rank (rank <= 3)."""
    level = [EMPTY]
    for _ in range(rank):
        subsets = [EMPTY]
        for c in level:
            subsets += [s | {c} for s in subsets]
        level = subsets
    return level


def from_hf(root, memo: dict) -> frozenset:
    """Copy a program HFSet into nested frozensets, without recursion.

    memo maps id(HFSet) to its copy; the program interns HFSet nodes, so
    the copy shares structure the same way.
    """
    stack = [root]
    while stack:
        s = stack[-1]
        if id(s) in memo:
            stack.pop()
            continue
        pending = [c for c in s.children if id(c) not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[id(s)] = frozenset(memo[id(c)] for c in s.children)
        stack.pop()
    return memo[id(root)]


def parse_braces(text: str) -> frozenset:
    """Read brace notation ("{{},{{}}}") into nested frozensets."""
    stack: list = []
    out = None
    for ch in text:
        if ch == "{":
            stack.append([])
        elif ch == "}":
            done = frozenset(stack.pop())
            if stack:
                stack[-1].append(done)
            else:
                out = done
        elif ch not in ", ":
            raise ValueError(f"unexpected {ch!r} in set {text[:40]!r}")
    if out is None or stack:
        raise ValueError(f"unbalanced set {text[:40]!r}")
    return out


# -- evaluation -------------------------------------------------------------


def eval_term(t, m: dict):
    if isinstance(t, str):
        return EMPTY if t == EMPTY_TERM else m[t]
    if isinstance(t, Fraction):
        return t
    op = t[0]
    args = [eval_term(a, m) for a in t[1:]]
    if op == "union":
        return args[0] | args[1]
    if op == "inter":
        return args[0] & args[1]
    if op == "setminus":
        return args[0] - args[1]
    if op == "+":
        return args[0] + args[1]
    if op == "-":
        return -args[0]
    if op == "cons":
        return ("cons", args[0], args[1])
    if op in ("car", "cdr"):
        cell = args[0]
        if not (isinstance(cell, tuple) and cell[0] == "cons"):
            raise ValueError(f"{op} of a non-cell in {t!r}")
        return cell[1] if op == "car" else cell[2]
    raise ValueError(f"unknown operator {op!r}")


def holds(f, m: dict) -> bool:
    """Truth of an assertion (literal or disjunction of literals) under m."""
    head = f[0]
    if head == "not":
        return not holds(f[1], m)
    if head == "or":
        return any(holds(g, m) for g in f[1:])
    args = [eval_term(a, m) for a in f[1:]]
    if head == "in":
        return args[0] in args[1]
    if head == "subset":
        return args[0] <= args[1]
    if head == "=":
        return args[0] == args[1]
    if head == "<=":
        return args[0] <= args[1]
    if head == "atom":
        return not (isinstance(args[0], tuple) and args[0][0] == "cons")
    raise ValueError(f"unknown predicate {head!r}")


def holds_normalized(memberships, differences, m: dict) -> bool:
    """Truth of a normal-form conjunction: x in y, and x = y minus z."""
    return all(m[x] in m[y] for x, y in memberships) and all(
        m[x] == m[y] - m[z] for x, y, z in differences
    )


@lru_cache(maxsize=None)
def _tables(values: tuple):
    """a in b, and the index of a minus b, by the indices of a and b."""
    idx = {v: i for i, v in enumerate(values)}
    return ([[a in b for b in values] for a in values],
            [[idx[a - b] for b in values] for a in values])


def separated_pairs(memberships, differences, names, values):
    """Search models of a normal-form conjunction among values.

    Returns None when no assignment of values to names satisfies it, and
    otherwise the pairs of names that some such model tells apart.  values
    must be closed under set difference, as `universe(r)` is.  The search
    assigns names in order and tests a literal once its last name has a
    value; it stops as soon as every pair is told apart.
    """
    n = len(names)
    member, minus = _tables(tuple(values))
    pos = {v: i for i, v in enumerate(names)}
    tests: list = [[] for _ in range(n)]
    for x, y in memberships:
        tests[max(pos[x], pos[y])].append((pos[x], pos[y], None))
    for x, y, z in differences:
        tests[max(pos[x], pos[y], pos[z])].append((pos[x], pos[y], pos[z]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    a = [0] * n
    seen: set = set()
    found = False

    def search(k: int) -> bool:  # True once every pair is told apart
        nonlocal found
        if k == n:
            found = True
            seen.update(p for p in pairs if a[p[0]] != a[p[1]])
            return len(seen) == len(pairs)
        for v in range(len(values)):
            a[k] = v
            if all(member[a[x]][a[y]] if z is None else a[x] == minus[a[y]][a[z]]
                   for x, y, z in tests[k]) and search(k + 1):
                return True
        return False

    search(0)
    return {(names[i], names[j]) for i, j in seen} if found else None


# -- rendering --------------------------------------------------------------


def render(t) -> str:
    if isinstance(t, str):
        return t
    if isinstance(t, Fraction):
        return str(t)
    return "(" + " ".join(render(a) for a in t) + ")"


def script_text(asserts) -> str:
    return "".join(f"(assert {render(f)})\n" for f in asserts)


def variables(f, acc: dict) -> dict:
    """Variable names of a term or formula in first-occurrence order."""
    if isinstance(f, str):
        if f != EMPTY_TERM:
            acc.setdefault(f)
    elif isinstance(f, tuple):
        for a in f[1:]:
            variables(a, acc)
    return acc
