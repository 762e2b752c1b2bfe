"""Hereditarily finite set values.

HFSet is a canonical immutable value: children are deduplicated and kept
in a fixed total order (rank, then cardinality, then lexicographic on the
child sequence).  Every instance is interned by hf(), so one value is one
object, and interning alone gives equality and hashing: both are the
object's identity.  The order compares two sets by walking down one path
of first differing children, never recursing, so sets of any rank compare.
No output depends on the iteration order of a Python set of HF values,
which follows their addresses: every such set is sorted before it is
iterated, or used only for membership.  The set-algebra helpers memoize
on node identity.  Values print in braces notation, "{}" being the empty
set.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from .errors import BoundTooLargeError, InvariantViolation, ParseError

MAX_RANK_BOUND = 4
MAX_BRACE_DEPTH = 256

_UNIVERSE_SIZES = {0: 1, 1: 2, 2: 4, 3: 16, 4: 65536}


class HFSet:
    __slots__ = ("children", "rank", "_members")

    _intern: Dict[Tuple["HFSet", ...], "HFSet"] = {}

    def __new__(cls, children: Tuple["HFSet", ...]):
        # Private constructor; callers go through hf() which canonicalizes.
        self = object.__new__(cls)
        self.children = children
        self.rank = 0 if not children else 1 + max(c.rank for c in children)
        self._members = frozenset(children)
        return self

    def __contains__(self, item: "HFSet") -> bool:
        return item in self._members

    def __iter__(self) -> Iterator["HFSet"]:
        return iter(self.children)

    def __len__(self) -> int:
        return len(self.children)

    def __lt__(self, other: "HFSet") -> bool:
        """The canonical order: rank, then cardinality, then the first
        differing pair of children decides.  Equal cardinalities leave no
        prefix case, and interning makes the first children that are not
        the same object the first that differ."""
        a, b = self, other
        while a is not b:
            if a.rank != b.rank:
                return a.rank < b.rank
            if len(a.children) != len(b.children):
                return len(a.children) < len(b.children)
            for x, y in zip(a.children, b.children):
                if x is not y:
                    a, b = x, y
                    break
            else:
                raise InvariantViolation("two HF set objects have the same members")
        return False

    def __repr__(self) -> str:
        return braces(self)


def hf(children: Iterable[HFSet] = ()) -> HFSet:
    """The canonical HFSet with the given members (idempotent on duplicates)."""
    tup = tuple(sorted(set(children)))
    cached = HFSet._intern.get(tup)
    if cached is None:
        cached = HFSet._intern.setdefault(tup, HFSet(tup))
    return cached


EMPTY_SET = hf()


def nested_singleton(depth: int) -> HFSet:
    """{{...{}...}} nested depth times; its rank equals depth."""
    s = EMPTY_SET
    for _ in range(depth):
        s = hf((s,))
    return s


def braces(s: HFSet) -> str:
    """s in braces notation; iterative, so a set of any rank prints."""
    out: List[str] = []
    todo: List[object] = [s]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
            continue
        out.append("{")
        todo.append("}")
        for i in range(len(t.children) - 1, -1, -1):
            todo.append(t.children[i])
            if i:
                todo.append(",")
    return "".join(out)


def parse_braces(text: str) -> HFSet:
    """Inverse of braces(); whitespace is ignored, duplicates collapse.

    Malformed text raises ValueError.  Nesting deeper than MAX_BRACE_DEPTH
    raises ParseError.  The bound is on the input, like the script reader's
    MAX_NESTING, and not on the values: sets of any rank build, compare
    and print.  A literal comes from a script option or the command line,
    and one nested that deep is refused up front as a usage error.
    """
    s = "".join(text.split())
    open_sets: List[List[HFSet]] = []
    out = None
    for pos, c in enumerate(s):
        if out is not None:
            raise ValueError(f"trailing characters after set in {text!r}")
        prev = s[pos - 1] if pos else ","
        if c == "{" and prev in "{,":
            if len(open_sets) == MAX_BRACE_DEPTH:
                raise ParseError(f"set nested deeper than {MAX_BRACE_DEPTH} levels", 1, pos + 1)
            open_sets.append([])
        elif c == "}" and prev in "{}":
            done = hf(open_sets.pop())
            if open_sets:
                open_sets[-1].append(done)
            else:
                out = done
        elif c == "," and prev == "}":
            continue
        elif prev == "}":
            raise ValueError(f"expected ',' or '}}' at offset {pos} in {text!r}")
        else:
            raise ValueError(f"expected '{{' at offset {pos} in {text!r}")
    if out is None:
        raise ValueError(f"unterminated set in {text!r}")
    return out


_union_cache: Dict[Tuple[HFSet, HFSet], HFSet] = {}
_inter_cache: Dict[Tuple[HFSet, HFSet], HFSet] = {}
_diff_cache: Dict[Tuple[HFSet, HFSet], HFSet] = {}
_pow_cache: Dict[HFSet, HFSet] = {}


def set_union(a: HFSet, b: HFSet) -> HFSet:
    r = _union_cache.get((a, b))
    if r is None:
        r = _union_cache[(a, b)] = hf(a.children + b.children)
    return r


def set_inter(a: HFSet, b: HFSet) -> HFSet:
    r = _inter_cache.get((a, b))
    if r is None:
        r = _inter_cache[(a, b)] = hf(c for c in a.children if c in b)
    return r


def set_diff(a: HFSet, b: HFSet) -> HFSet:
    r = _diff_cache.get((a, b))
    if r is None:
        r = _diff_cache[(a, b)] = hf(c for c in a.children if c not in b)
    return r


def is_subset(a: HFSet, b: HFSet) -> bool:
    return all(c in b for c in a.children)


def power_set(a: HFSet) -> HFSet:
    r = _pow_cache.get(a)
    if r is not None:
        return r
    subsets = [EMPTY_SET]
    for c in a.children:
        subsets += [hf(s.children + (c,)) for s in subsets]
    r = _pow_cache[a] = hf(subsets)
    return r


def big_union(a: HFSet) -> HFSet:
    out: List[HFSet] = []
    for c in a.children:
        out.extend(c.children)
    return hf(out)


def big_inter(a: HFSet) -> HFSet:
    """Intersection of the members; undefined (ValueError) on the empty set."""
    if not a.children:
        raise ValueError("big_inter of empty set is undefined")
    result = set(a.children[0].children)
    for c in a.children[1:]:
        result &= c._members
    return hf(result)


def kuratowski_pair(a: HFSet, b: HFSet) -> HFSet:
    return hf((hf((a,)), hf((a, b))))


def cross_product(a: HFSet, b: HFSet) -> HFSet:
    return hf(kuratowski_pair(x, y) for x in a.children for y in b.children)


def unordered_cross(a: HFSet, b: HFSet) -> HFSet:
    return hf(hf((x, y)) for x in a.children for y in b.children)


_universe_cache: Dict[int, Tuple[HFSet, ...]] = {}


def enumerate_universe(rank_bound: int) -> Tuple[HFSet, ...]:
    """All HFSets of rank <= rank_bound, in canonical order.

    Sizes grow as 1, 2, 4, 16, 65536 for bounds 0 through 4; larger bounds
    are refused with BoundTooLargeError.
    """
    if rank_bound < 0:
        raise BoundTooLargeError(f"rank bound must be nonnegative, got {rank_bound}")
    if rank_bound > MAX_RANK_BOUND:
        raise BoundTooLargeError(
            f"rank bound {rank_bound} exceeds the supported maximum {MAX_RANK_BOUND}"
        )
    cached = _universe_cache.get(rank_bound)
    if cached is not None:
        return cached
    level: List[HFSet] = [EMPTY_SET]
    for _ in range(rank_bound):
        # rank <= r+1 exactly means: every member has rank <= r, so the next
        # level is the full powerset of the current one, which lists each
        # set once.  The level is in canonical order, so a set's children,
        # in canonical order too, compare as their positions in it.
        at = {c: i for i, c in enumerate(level)}
        nxt = [EMPTY_SET]
        for c in level:
            nxt += [hf(s.children + (c,)) for s in nxt]
        level = sorted(nxt, key=lambda s: (s.rank, len(s.children), [at[c] for c in s.children]))
    out = tuple(level)
    assert len(out) == _UNIVERSE_SIZES[rank_bound]
    _universe_cache[rank_bound] = out
    return out


def to_strings(m: Mapping[str, HFSet]) -> Dict[str, str]:
    """A model, a mapping of names to sets, as braces strings in name order."""
    return {k: braces(v) for k, v in sorted(m.items())}
