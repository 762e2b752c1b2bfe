"""Command-line entry point for batch solving, fuzzing, and demos.

Verdicts and reports go to stdout, diagnostics to stderr.  Exit codes:
0 a verdict or report was produced (also when the reader of stdout closes
it early); 2 parse or usage error; 3 a resource limit was hit; 4 an
internal invariant was violated or any other exception escaped, reported
as one line.  Every command is deterministic given its input file, flags,
and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, List, Optional, Sequence

from .combine import THEORIES, solve_combined
from .convexity import (
    check_trace_invariants,
    convexity_fuzz,
    enlarge,
    pad_vars,
    write_reproducers,
)
from .errors import (
    DEFAULT_BUDGET,
    BoundTooLargeError,
    Budget,
    InvariantViolation,
    ResourceLimitError,
    SetsylError,
    UnsupportedAtomError,
)
from .formulas import (
    EMPTY,
    LIST,
    LRA,
    MLS_EXT,
    Eq,
    Not,
    Var,
    and_,
    atoms,
    classify_atom,
    conjuncts,
    free_vars,
    is_literal,
)
from .hf import MAX_RANK_BOUND, HFSet, braces, hf, parse_braces, to_strings
from .normalize import dnf_split, first_sat, normalize, split_disjuncts
from .oracle import bounded_models, first_countermodels, nonconvexity_schema, oracle_sat
from .sexpr import parse_formula, parse_script, print_formula
from .solver import solve

_EQ_FLAG = re.compile(r"([A-Za-z_'][A-Za-z0-9_']*)=([A-Za-z_'][A-Za-z0-9_']*)\Z")


class UsageError(ValueError):
    pass


def _read_script(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_script(fh.read())


def _check_rank(rank: int) -> int:
    if rank < 1 or rank > MAX_RANK_BOUND:
        raise BoundTooLargeError(
            f"rank bound must be between 1 and {MAX_RANK_BOUND}, got {rank}"
        )
    return rank


def _check_budget(budget: Optional[int]) -> Optional[int]:
    if budget is not None and budget <= 0:
        raise UsageError("budget must be positive")
    return budget


def _emit(doc: dict, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# solve ------------------------------------------------------------------


def _fragment_json(frags) -> dict:
    out = {}
    for theory, frag in frags.items():
        out[theory] = {k: str(v) for k, v in sorted(frag.items())}
    return out


def cmd_solve(args) -> int:
    script = _read_script(args.file)
    budget = _check_budget(args.budget)
    asserts = list(script.asserts)
    tags = {classify_atom(a) for f in asserts for a in atoms(f)}
    if MLS_EXT in tags:
        raise UnsupportedAtomError(
            "extension operators are outside the decision procedure; "
            "use the oracle command"
        )
    plugins = None
    if args.plugins is not None:
        plugins = tuple(p.strip() for p in args.plugins.split(",") if p.strip())
        if not plugins:
            raise UsageError("empty plugin list")
    combined = plugins is not None or bool(tags & {LRA, LIST})
    meter = Budget(budget)  # one meter for every disjunct and round

    if combined:
        res = solve_combined(asserts, plugins or THEORIES, budget=meter)
        doc = {
            "command": "solve",
            "engine": "combined",
            "verdict": "sat" if res.is_sat else "unsat",
            "propagated": [list(p) for p in res.propagated],
            "rounds": res.rounds,
            "fragments": _fragment_json(res.fragments) if res.is_sat else None,
            "culprit": res.culprit,
        }
        lines = [doc["verdict"]]
        for a, b in res.propagated:
            lines.append(f"propagated: {a} = {b}")
        if res.is_sat:
            for theory in sorted(res.fragments):
                for k, v in sorted(res.fragments[theory].items()):
                    lines.append(f"{theory}: {k} = {v}")
        else:
            lines.append(f"culprit: {res.culprit}")
        _emit(doc, args.json, lines)
        return 0

    # tags are within {MLS, SHARED} here, which is all dnf_split would check
    sat_res = first_sat(
        split_disjuncts(and_(*asserts)) if asserts else [[]],
        lambda branch: solve(normalize(branch), budget=meter),
    )
    if not sat_res.is_sat:
        _emit(
            {"command": "solve", "engine": "mls", "verdict": "unsat",
             "model": None, "witness": None},
            args.json,
            ["unsat"],
        )
        return 0

    model = to_strings({v: sat_res.model[v] for v in free_vars(*asserts) if v in sat_res.model})
    doc = {
        "command": "solve",
        "engine": "mls",
        "verdict": "sat",
        "model": model,
        "witness": None,
    }
    lines = ["sat"]
    for k, v in model.items():
        lines.append(f"{k} = {v}")
    if args.witness:
        w = sat_res.witness
        doc["witness"] = {
            "vars": list(w.vars),
            "sigma": [[name, sorted(place)] for name, place in w.sigma],
            "junk": [sorted(place) for place in w.junk],
            "topo": list(w.topo),
            "full_model": to_strings(sat_res.model),
        }
        lines.append(f"witness: topo = {', '.join(w.topo) or '(none)'}")
        for name, place in w.sigma:
            lines.append(f"witness: {name} sits at place {{{', '.join(sorted(place))}}}")
    _emit(doc, args.json, lines)
    return 0


# normalize ----------------------------------------------------------------


def cmd_normalize(args) -> int:
    script = _read_script(args.file)
    meter = Budget(_check_budget(args.budget))
    asserts = script.asserts

    def branches():
        return dnf_split(and_(*asserts)) if asserts else [[]]

    # A first walk spends the budget and keeps no branch, so a run that
    # exhausts it prints nothing; the second normalizes each branch as it
    # is printed.
    count = 0
    for _ in branches():
        meter.spend("normalizing disjuncts")
        count += 1
    ncs = map(normalize, branches())
    if args.json:
        # the bytes of json.dumps(doc, indent=2, sort_keys=True) for
        # {"command": "normalize", "disjuncts": [...]}, one disjunct at a time
        write = sys.stdout.write
        write('{\n  "command": "normalize",\n  "disjuncts": [')
        for i, nc in enumerate(ncs):
            disjunct = {
                "vars": list(nc.vars),
                "memberships": [list(m) for m in nc.memberships],
                "differences": [list(d) for d in nc.differences],
                "disequalities": [list(q) for q in nc.disequalities],
            }
            text = json.dumps(disjunct, indent=2, sort_keys=True)
            write((",\n    " if i else "\n    ") + text.replace("\n", "\n    "))
        write("\n  ]\n}\n" if count else "]\n}\n")
        return 0
    for i, nc in enumerate(ncs):
        if count > 1:
            print(f"; disjunct {i}")
        for lit in nc.literals():
            print(f"(assert {print_formula(lit)})")
    return 0


# oracle -------------------------------------------------------------------


def cmd_oracle(args) -> int:
    script = _read_script(args.file)
    rank = _check_rank(args.rank)
    # with no assert, the oracle searches a true formula over no variable
    f = and_(*script.asserts) if script.asserts else Eq(EMPTY, EMPTY)
    res = oracle_sat(f, rank)
    if res.is_sat:
        doc = {
            "command": "oracle",
            "rank_bound": rank,
            "verdict": "sat",
            "model": to_strings(res.model),
        }
        lines = [f"sat within rank {rank}"]
        for k, v in doc["model"].items():
            lines.append(f"{k} = {v}")
    else:
        doc = {"command": "oracle", "rank_bound": rank, "verdict": "unsat", "model": None}
        lines = [f"no model within rank {rank}"]
    _emit(doc, args.json, lines)
    return 0


# witness ------------------------------------------------------------------


def _split_entries(text: str) -> List[str]:
    """Split on commas outside braces: x={},y={{},{{}}} has two entries."""
    parts: List[str] = []
    depth = 0
    cur: List[str] = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_assignment(text: str) -> Dict[str, HFSet]:
    out = {}
    for part in _split_entries(text.strip().strip('"')):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"expected name=braces in assignment option, got {part!r}")
        name, _, value = part.partition("=")
        out[name.strip()] = parse_braces(value)
    return out


def cmd_witness(args) -> int:
    script = _read_script(args.file)
    rank = _check_rank(args.rank)
    m = _EQ_FLAG.fullmatch(args.eq or "")
    if m is None:
        raise UsageError("--eq expects the form name=name")
    x, y = m.group(1), m.group(2)
    lits = conjuncts(and_(*script.asserts)) if script.asserts else []
    for lit in lits:
        if not is_literal(lit):
            raise UsageError("witness expects a conjunction of literals")
    nc = pad_vars(normalize(lits), [(x, y)])

    opts = dict(script.options)
    eq = Eq(Var(x), Var(y))
    models = {}
    meter = Budget(DEFAULT_BUDGET)  # both searches
    for key, goal, rel in (("base", eq, "="), ("separating", Not(eq), "!=")):
        if key in opts:
            models[key] = _parse_assignment(opts[key])
            continue
        res = oracle_sat(and_(nc.to_formula(), goal), rank, meter)
        if not res.is_sat:
            raise UsageError(f"no model with {x} {rel} {y} within rank {rank}")
        models[key] = res.model
    base, separating = models["base"], models["separating"]

    enlarged, trace = enlarge(nc, base, separating, x, y)
    checks = check_trace_invariants(trace, base, nc)

    doc = {
        "command": "witness",
        "pair": [x, y],
        "direction": trace.direction,
        "fresh_element": braces(trace.fresh_element),
        "separator": braces(trace.separator),
        "stabilized_at": trace.stabilized_at,
        "waves": [sorted(w) for w in trace.waves],
        "stages": [to_strings(stage) for stage in trace.stages],
        "result": to_strings(enlarged),
        "checks": [c.asdict() for c in checks],
        "all_pass": all(c.ok for c in checks),
    }
    lines = [
        f"designated pair: {x} = {y}",
        f"direction: {trace.direction}",
        f"fresh element: {braces(trace.fresh_element)}",
        f"separator: {braces(trace.separator)}",
    ]
    for n, wave in enumerate(trace.waves):
        inner = ", ".join(sorted(wave))
        lines.append(f"V_{n} = {{{inner}}}")
    for n, stage in enumerate(doc["stages"]):
        for k, v in stage.items():
            lines.append(f"M_{n} {k} = {v}")
    lines.append(f"stabilized at stage {trace.stabilized_at}")
    passed = sum(1 for c in checks if c.ok)
    lines.append(f"invariant checks: {passed}/{len(checks)} pass")
    for c in checks:
        if not c.ok:
            where = "" if c.index is None else f" [stage {c.index}]"
            lines.append(f"FAIL {c.name}{where}: {c.detail}")

    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(doc, args.json, lines)
    if not doc["all_pass"]:
        print("invariant checks failed", file=sys.stderr)
        return 4
    return 0


# fuzz-convexity -------------------------------------------------------------


def cmd_fuzz(args) -> int:
    rank = _check_rank(args.rank)
    report = convexity_fuzz(args.vars, args.lits, args.iters, args.seed, rank)
    doc = {"command": "fuzz-convexity", **report.asdict()}
    lines = [
        f"iterations: {report.iters} (checked {report.checked}, skipped {report.skipped})",
        f"implied disjunctions: {report.implied_disjunctions}",
        f"violations: {len(report.violations)}",
    ]
    if report.violations and args.trace:
        for path in write_reproducers(report, args.trace):
            lines.append(f"reproducer: {path}")
    _emit(doc, args.json, lines)
    return 0


# nonconvex-demo -------------------------------------------------------------


# The minimal non-convex instance of each extension operator: its kind, its
# formula, and for a probe the variable to pad and the number of copies.
_DEMOS = {
    "mlss": ("probe", "(and (= x (single y)) (= xp (single yp)) (= xbar (union x xp)))", "xbar", 2),
    "mlsp": ("probe", "(and (= x empty) (= y (pow x)) (= xbar (pow y)))", "xbar", 2),
    "mlsu": ("probe", "(and (= x empty) (= (bigU y) x) (= (bigU xbar) y))", "xbar", 2),
    "mlsx": ("product", "(and (= e (cross x y)) (= e (setminus e e)))", None, None),
    "mlsox": ("product", "(and (= e (ucross x y)) (= e (setminus e e)))", None, None),
}


def cmd_nonconvex(args) -> int:
    rank = _check_rank(args.rank)
    kind, text, xbar, k = _DEMOS[args.theory]
    phi = parse_formula(text)
    if kind == "probe":
        big, pairs = nonconvexity_schema(phi, xbar, k)
        disjuncts = [(f"{a} = {b}", Eq(Var(a), Var(b))) for a, b in pairs]
        noun = "equality"
    else:
        big = phi
        disjuncts = [(print_formula(d), d) for d in (Eq(Var("x"), EMPTY), Eq(Var("y"), EMPTY))]
        noun = "disjunct"
    meter = Budget(DEFAULT_BUDGET)  # every walk of the demo
    implied, counter = first_countermodels(big, [d for _, d in disjuncts], rank, meter)
    cases = [
        {"label": label, "refuted": m is not None,
         "countermodel": None if m is None else to_strings(m)}
        for (label, _), m in zip(disjuncts, counter)
    ]

    pinned = None
    if args.theory == "mlsp":
        want = hf([hf(), hf([hf()])])
        seen = 0
        pinned = True
        for m in bounded_models(phi, rank, meter):
            seen += 1
            if m["xbar"] is not want:
                pinned = False
                break
        pinned = pinned and seen > 0

    refuted = sum(1 for c in cases if c["refuted"])
    passed = implied and refuted == len(cases) and (pinned is not False)
    doc = {
        "command": "nonconvex-demo",
        "theory": args.theory,
        "k": k,
        "rank_bound": rank,
        "disjunction_implied": implied,
        "cases": cases,
        "pinned_padding": pinned,
        "passed": passed,
    }
    yn = lambda b: "yes" if b else "no"
    lines = [
        f"disjunction implied within bound: {yn(implied)}; "
        f"each single {noun} refutable: {yn(refuted == len(cases))} "
        f"({refuted}/{len(cases)})"
    ]
    for c in cases:
        status = "pass" if c["refuted"] else "FAIL"
        extra = ""
        if c["countermodel"]:
            inner = ", ".join(f"{k2}={v2}" for k2, v2 in sorted(c["countermodel"].items()))
            extra = f" (countermodel {inner})"
        lines.append(f"refute {c['label']}: {status}{extra}")
    if pinned is not None:
        lines.append(f"padded variable pinned to {{{{}},{{{{}}}}}}: {yn(pinned)}")
    lines.append("demo: " + ("pass" if passed else "FAIL"))
    _emit(doc, args.json, lines)
    return 0


# parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="setsyl",
        description="Decision procedures for multi-level syllogistic set theory.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_rank(sp):
        sp.add_argument("--rank", type=int, default=3,
                        help="universe rank bound (default 3, max 4)")

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("solve", help="decide a conjunction (set or mixed theories)")
    sp.add_argument("file", help="s-expression script (.syl)")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="step budget for the set solver and the arithmetic plugin")
    sp.add_argument("--plugins", default=None,
                    help="comma-separated plugin order, e.g. mls,lra,list")
    sp.add_argument("--witness", action="store_true",
                    help="include the solver's placement witness")
    add_json(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("normalize", help="print the normal form")
    sp.add_argument("file")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="step budget, one step per disjunct of the script's disjunctive "
                         "normal form (default %(default)s); text output prints each "
                         "disjunct as it comes, while --json holds every disjunct until "
                         "it prints")
    add_json(sp)
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("oracle", help="exhaustive rank-bounded model search")
    sp.add_argument("file")
    add_rank(sp)
    add_json(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("witness", help="replay one model-enlargement step")
    sp.add_argument("file")
    sp.add_argument("--eq", required=True, metavar="X=Y",
                    help="designated satisfied equality to eliminate")
    sp.add_argument("--trace", default=None, metavar="PATH",
                    help="also write the full trace as JSON to PATH")
    add_rank(sp)
    add_json(sp)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("fuzz-convexity", help="randomized convexity check")
    sp.add_argument("--vars", type=int, default=3)
    sp.add_argument("--lits", type=int, default=4)
    sp.add_argument("--iters", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace", default=None, metavar="DIR",
                    help="directory for violation reproducer scripts")
    add_rank(sp)
    add_json(sp)
    sp.set_defaults(func=cmd_fuzz)

    sp = sub.add_parser("nonconvex-demo",
                        help="show an extension operator breaking convexity")
    sp.add_argument("--theory", required=True,
                    choices=("mlss", "mlsp", "mlsu", "mlsx", "mlsox"))
    add_rank(sp)
    add_json(sp)
    sp.set_defaults(func=cmd_nonconvex)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (say, `| head`); what it read is
        # all it wanted.  Point stdout at devnull so the flush at shutdown
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except InvariantViolation as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 4
    except (SetsylError, FileNotFoundError, IsADirectoryError, PermissionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        detail = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
